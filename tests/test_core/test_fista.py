"""Unit tests for ISTA/FISTA."""

import numpy as np
import pytest

from repro.core.fista import fista, ista, momentum_mu, t_next
from repro.core.proximal import L1Prox
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError


class Quadratic:
    """A bare smooth problem ``½uᵀHu − Rᵀu`` with no penalty of its own."""

    def __init__(self, H, R):
        self.H, self.R, self.d = H, R, R.size

    def value(self, u):
        return 0.5 * float(u @ (self.H @ u)) - float(self.R @ u)

    def gradient(self, u):
        return self.H @ u - self.R


class TestTSequence:
    def test_standard_recurrence(self):
        t1 = t_next(1.0)
        assert t1 == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_grows_linearly(self):
        t = 1.0
        for _ in range(100):
            t = t_next(t)
        assert 45 < t < 60  # t_n ≈ (n+2)/2

    def test_paper_literal_converges_to_fixed_point(self):
        t = 1.0
        for _ in range(200):
            t = t_next(t, "paper_literal")
        assert t == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            t_next(1.0, "fancy")

    def test_momentum_in_unit_interval(self):
        t_prev, mu_seq = 1.0, []
        for _ in range(50):
            t_cur = t_next(t_prev)
            mu_seq.append(momentum_mu(t_prev, t_cur))
            t_prev = t_cur
        assert mu_seq[0] == 0.0 or mu_seq[0] >= 0
        assert all(0 <= mu < 1 for mu in mu_seq)
        assert mu_seq[-1] > 0.9  # approaches 1


class TestFista:
    def test_converges_to_reference(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = fista(
            small_dense_problem,
            max_iter=2000,
            stopping=StoppingCriterion(tol=1e-6, fstar=fstar),
        )
        assert res.converged
        assert res.history.rel_errors[-1] <= 1e-6

    def test_monotone_trend(self, small_dense_problem):
        res = fista(small_dense_problem, max_iter=100)
        objs = res.history.objective_array
        # FISTA is not strictly monotone but must trend down strongly.
        assert objs[-1] < objs[0]
        assert np.min(objs) == pytest.approx(objs[-1], rel=0.1)

    def test_faster_than_ista(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        stop = StoppingCriterion(tol=1e-4, fstar=fstar)
        fista_iters = fista(small_dense_problem, max_iter=3000, stopping=stop).n_iterations
        ista_iters = ista(small_dense_problem, max_iter=3000, stopping=stop).n_iterations
        assert fista_iters < ista_iters

    def test_restart_not_worse(self, small_dense_problem, small_reference):
        plain = fista(small_dense_problem, max_iter=300)
        restarted = fista(small_dense_problem, max_iter=300, restart=True)
        assert restarted.history.objectives[-1] <= plain.history.objectives[-1] * (1 + 1e-6)

    def test_w0_shape_check(self, small_dense_problem):
        with pytest.raises(ValidationError):
            fista(small_dense_problem, w0=np.ones(3), max_iter=5)

    def test_invalid_max_iter(self, small_dense_problem):
        with pytest.raises(ValidationError):
            fista(small_dense_problem, max_iter=0)

    def test_monitor_every(self, small_dense_problem):
        res = fista(small_dense_problem, max_iter=20, monitor_every=5)
        assert res.history.iterations == [5, 10, 15, 20]

    def test_callback_invoked(self, small_dense_problem):
        seen = []
        fista(small_dense_problem, max_iter=4, callback=lambda n, w: seen.append(n))
        assert seen == [1, 2, 3, 4]

    def test_lambda_zero_reaches_least_squares(self):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((4, 60))
        w_star = gen.standard_normal(4)
        y = X.T @ w_star
        from repro.core.objectives import L1LeastSquares

        p = L1LeastSquares(X, y, 0.0)
        res = fista(p, max_iter=2000)
        np.testing.assert_allclose(res.w, w_star, atol=1e-5)

    def test_on_quadratic_model_with_explicit_prox(self, rng):
        H = np.diag([2.0, 1.0, 0.5])
        R = np.array([1.0, -1.0, 0.2])
        model = Quadratic(H, R)
        res = fista(model, prox=L1Prox(0.05), step_size=0.5, max_iter=800)
        # KKT: |Hu − R|_j ≤ λ off-support, = −λ·sign on support.
        g = model.gradient(res.w)
        on = res.w != 0
        assert np.all(np.abs(g[~on]) <= 0.05 + 1e-6)
        np.testing.assert_allclose(g[on], -0.05 * np.sign(res.w[on]), atol=1e-5)

    def test_prox_required_without_penalty(self):
        model = Quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValidationError):
            fista(model, max_iter=5)


class TestIsta:
    def test_monotone_decrease(self, small_dense_problem):
        res = ista(small_dense_problem, max_iter=100)
        objs = res.history.objective_array
        assert np.all(np.diff(objs) <= 1e-12)

    def test_converges(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = ista(
            small_dense_problem,
            max_iter=5000,
            stopping=StoppingCriterion(tol=1e-4, fstar=fstar),
        )
        assert res.converged
