"""Unit tests for the l1-logistic objective (general ERM extension)."""

import numpy as np
import pytest

from repro.core.fista import fista
from repro.core.logistic import L1Logistic
from repro.core.prox_newton import proximal_newton_distributed
from repro.exceptions import ShapeError, ValidationError
from repro.runtime import RuntimeConfig
from repro.sparse.csr import CSCMatrix
from tests.test_core.oracle import hessian_at


def serial_pn(problem, **kw):
    """Serial PN with the FISTA inner solver: the one body at P=1."""
    return proximal_newton_distributed(
        problem, 1, inner="fista", runtime=RuntimeConfig(backend="serial"), **kw
    )


@pytest.fixture(scope="module")
def logit_problem():
    gen = np.random.default_rng(0)
    d, m = 8, 300
    X = gen.standard_normal((d, m))
    w_true = np.zeros(d)
    w_true[:3] = [2.0, -1.5, 1.0]
    y = np.sign(X.T @ w_true + 0.3 * gen.standard_normal(m))
    y[y == 0] = 1.0
    return L1Logistic(X, y, 0.01)


class TestConstruction:
    def test_label_validation(self):
        with pytest.raises(ValidationError):
            L1Logistic(np.ones((2, 3)), np.array([0.0, 1.0, 1.0]), 0.1)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            L1Logistic(np.ones((2, 3)), np.ones(4), 0.1)

    def test_empty(self):
        with pytest.raises(ValidationError):
            L1Logistic(np.ones((0, 3)), np.ones(3), 0.1)


class TestCalculus:
    def test_value_at_zero(self, logit_problem):
        assert logit_problem.value(np.zeros(logit_problem.d)) == pytest.approx(np.log(2.0))

    def test_gradient_finite_difference(self, logit_problem, rng):
        w = 0.5 * rng.standard_normal(logit_problem.d)
        g = logit_problem.gradient(w)
        eps = 1e-6
        for j in range(logit_problem.d):
            e = np.zeros(logit_problem.d)
            e[j] = eps
            fd = (logit_problem.smooth_value(w + e) - logit_problem.smooth_value(w - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_hessian_finite_difference(self, logit_problem, rng):
        w = 0.3 * rng.standard_normal(logit_problem.d)
        H = hessian_at(logit_problem, w)
        eps = 1e-5
        for j in range(3):
            e = np.zeros(logit_problem.d)
            e[j] = eps
            fd = (logit_problem.gradient(w + e) - logit_problem.gradient(w - e)) / (2 * eps)
            np.testing.assert_allclose(H[:, j], fd, rtol=1e-3, atol=1e-6)

    def test_hessian_psd(self, logit_problem, rng):
        H = hessian_at(logit_problem, rng.standard_normal(logit_problem.d))
        assert np.linalg.eigvalsh(H).min() >= -1e-12

    def test_lipschitz_upper_bounds_hessian(self, logit_problem, rng):
        L = logit_problem.lipschitz()
        H = hessian_at(logit_problem, rng.standard_normal(logit_problem.d))
        assert np.linalg.eigvalsh(H).max() <= L * (1 + 1e-8)

    def test_stable_for_large_margins(self, logit_problem):
        w = np.full(logit_problem.d, 100.0)
        assert np.isfinite(logit_problem.value(w))
        assert np.all(np.isfinite(logit_problem.gradient(w)))

    def test_sparse_storage(self, logit_problem, rng):
        Xs = CSCMatrix.from_dense(logit_problem.X)
        p = L1Logistic(Xs, logit_problem.y, logit_problem.lam)
        w = rng.standard_normal(p.d)
        assert p.value(w) == pytest.approx(logit_problem.value(w))
        np.testing.assert_allclose(p.gradient(w), logit_problem.gradient(w), atol=1e-12)


class TestSolvers:
    def test_fista_and_pn_agree(self, logit_problem):
        f = fista(logit_problem, max_iter=1500)
        pn = serial_pn(logit_problem, n_outer=20, inner_iters=60)
        assert pn.final_objective == pytest.approx(f.final_objective, rel=1e-5)

    def test_pn_reaches_optimality(self, logit_problem):
        pn = serial_pn(logit_problem, n_outer=25, inner_iters=80)
        assert logit_problem.optimality_residual(pn.w) < 1e-8

    def test_classifier_beats_chance(self, logit_problem):
        pn = serial_pn(logit_problem, n_outer=15, inner_iters=50)
        assert logit_problem.accuracy(pn.w) > 0.8

    def test_large_lambda_zeroes_solution(self):
        gen = np.random.default_rng(1)
        X = gen.standard_normal((4, 100))
        y = np.sign(gen.standard_normal(100))
        y[y == 0] = 1.0
        p = L1Logistic(X, y, 10.0)
        res = fista(p, max_iter=300)
        np.testing.assert_allclose(res.w, np.zeros(4), atol=1e-8)
