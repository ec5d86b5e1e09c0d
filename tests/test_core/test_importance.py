"""Unit tests for importance sampling in ``rc_sfista_distributed`` (extension
beyond the paper)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core._dist_common import RankPlacement, distribute_problem
from repro.core.model import ERMObjective
from repro.core.objectives import L1LeastSquares
from repro.core.reference import solve_reference
from repro.core.rc_sfista_dist import importance_probabilities, rc_sfista_distributed
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig
from repro.utils.rng import sample_indices_weighted
from tests.test_sparse.rfp_oracle import rfp_to_dense


def sfista(problem, **kw):
    """Serial SFISTA: RC-SFISTA at k = S = 1, P=1 on the serial backend."""
    return rc_sfista_distributed(problem, 1, runtime=RuntimeConfig(backend="serial"), **kw)


def weighted_stage_b(problem, mbar):
    """Stage B at P=1 with importance weights folded in, as the solver does:
    ``build(idx, omega)`` → the unpacked ``(H, R)`` with ``c = ω``, ``r = y·ω``."""
    data = distribute_problem(problem, 1)
    loop = SimpleNamespace(backend=SimpleNamespace(parallel_ranks=False), workspace=None)
    placement = RankPlacement(data, loop, mbar=mbar, blocks=1, rhs=True)

    def build(idx, omega):
        buf, _flops = placement.pack(0, [idx], weights=omega, response=problem.y * omega)
        H, R = placement.block(buf, 0)
        return rfp_to_dense(H.words, problem.d), R.copy()

    return build


@pytest.fixture(scope="module")
def heterogeneous_problem():
    """5% of the samples carry 10x the norm of the rest."""
    gen = np.random.default_rng(0)
    d, m = 12, 800
    X = gen.standard_normal((d, m))
    scales = np.ones(m)
    scales[:40] = 10.0
    X = X * scales[None, :]
    w_true = np.zeros(d)
    w_true[:4] = [1.0, -2.0, 1.5, -1.0]
    y = X.T @ w_true + 0.1 * gen.standard_normal(m)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / m
    return L1LeastSquares(X, y, lam)


class TestProbabilities:
    def test_sum_to_one(self, heterogeneous_problem):
        p = importance_probabilities(heterogeneous_problem)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_heavy_columns_more_likely(self, heterogeneous_problem):
        p = importance_probabilities(heterogeneous_problem)
        assert p[:40].mean() > 5 * p[40:].mean()

    def test_uniform_on_normalized_data(self, tiny_covtype_problem):
        """Unit-norm samples (zero columns aside) ⇒ near-uniform distribution."""
        p = importance_probabilities(tiny_covtype_problem)
        nz = p[p > p.min() * 0.5]
        assert nz.max() / nz.min() < 3.0

    def test_mixture_bounds_weights(self, heterogeneous_problem):
        p = importance_probabilities(heterogeneous_problem, mix=0.5)
        weights = 1.0 / (heterogeneous_problem.m * p)
        assert weights.max() <= 2.0 + 1e-9  # 1/mix

    def test_invalid_mix(self, heterogeneous_problem):
        with pytest.raises(ValidationError):
            importance_probabilities(heterogeneous_problem, mix=0.0)


class TestWeightedSampler:
    def test_invalid_probabilities(self, rng):
        with pytest.raises(ValidationError):
            sample_indices_weighted(rng, np.array([-0.1, 1.1]), 5)
        with pytest.raises(ValidationError):
            sample_indices_weighted(rng, np.zeros(3), 5)
        with pytest.raises(ValidationError):
            sample_indices_weighted(rng, np.ones(3), 0)

    def test_draws_follow_distribution(self):
        gen = np.random.default_rng(0)
        probs = np.array([0.7, 0.2, 0.1])
        idx = sample_indices_weighted(gen, probs, 20_000)
        freq = np.bincount(idx, minlength=3) / idx.size
        np.testing.assert_allclose(freq, probs, atol=0.02)

    def test_weighted_estimator_unbiased(self, heterogeneous_problem):
        """Monte-Carlo: E[weighted plain estimate H v − R] = exact gradient."""
        p = heterogeneous_problem
        probs = importance_probabilities(p)
        omega = 1.0 / (p.m * probs)
        build = weighted_stage_b(p, 10)
        gen = np.random.default_rng(1)
        v = gen.standard_normal(p.d)
        acc = np.zeros(p.d)
        trials = 4000
        for _ in range(trials):
            H, R = build(sample_indices_weighted(gen, probs, 10), omega)
            acc += H @ v - R
        exact = p.gradient(v)
        np.testing.assert_allclose(acc / trials, exact, rtol=0.1, atol=0.3)

    def test_weighted_hessian_unbiased(self, heterogeneous_problem):
        p = heterogeneous_problem
        probs = importance_probabilities(p)
        omega = 1.0 / (p.m * probs)
        build = weighted_stage_b(p, 10)
        gen = np.random.default_rng(2)
        acc = np.zeros((p.d, p.d))
        trials = 2000
        for _ in range(trials):
            H, _R = build(sample_indices_weighted(gen, probs, 10), omega)
            acc += H
        np.testing.assert_allclose(
            acc / trials, p.hessian, atol=0.15 * np.abs(p.hessian).max()
        )


class TestSolverBenefit:
    def test_importance_beats_uniform_on_heterogeneous_data(self, heterogeneous_problem):
        p = heterogeneous_problem
        fstar = solve_reference(p, tol=1e-9).meta["fstar"]
        common = dict(b=0.05, epochs=8, iters_per_epoch=60, seed=0)
        uni = sfista(p, sampling="uniform", **common)
        imp = sfista(p, sampling="importance", **common)
        e_uni = abs(min(uni.history.objectives) - fstar) / fstar
        e_imp = abs(min(imp.history.objectives) - fstar) / fstar
        assert e_imp < e_uni / 10

    @pytest.mark.parametrize("nranks", [2, 3, 8])
    def test_importance_iterates_independent_of_p(self, heterogeneous_problem, nranks):
        """Each rank folds the weights of its own columns: P moves no iterate."""
        kw = dict(b=0.1, epochs=2, iters_per_epoch=16, seed=3, sampling="importance")
        a = rc_sfista_distributed(heterogeneous_problem, nranks, **kw)
        b = sfista(heterogeneous_problem, **kw)
        np.testing.assert_allclose(a.w, b.w, atol=1e-9)

    @pytest.mark.parametrize("nranks", [1, 3])
    def test_importance_iterates_independent_of_k(self, heterogeneous_problem, nranks):
        """Stage A draws the k weighted sets in stream order and stage B folds
        ω into every block: overlapping moves no iterate (Eqs. 16–17)."""
        kw = dict(b=0.1, epochs=2, iters_per_epoch=16, seed=3, sampling="importance")
        runtime = RuntimeConfig(backend="serial") if nranks == 1 else None
        one = rc_sfista_distributed(heterogeneous_problem, nranks, k=1, runtime=runtime, **kw)
        four = rc_sfista_distributed(heterogeneous_problem, nranks, k=4, runtime=runtime, **kw)
        assert four.n_comm_rounds < one.n_comm_rounds
        np.testing.assert_allclose(four.w, one.w, atol=1e-9)
        np.testing.assert_allclose(
            four.history.objectives, one.history.objectives, atol=1e-9
        )

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_plain_iterates_match_weighted_reference(self, heterogeneous_problem, loss, nranks):
        """Three plain-estimator steps against the reweighted Eq. (8) from the
        same draws: ``H = (1/m̄) Σ ω c x xᵀ``, ``R = (1/m̄) Σ ω r x``, the
        loss model taken at the round-start iterate ``w``."""
        X = heterogeneous_problem.X
        y = heterogeneous_problem.y if loss == "squared" else np.sign(heterogeneous_problem.y)
        p = ERMObjective(X, y, loss=loss, penalty="l1", lam=heterogeneous_problem.lam)
        runtime = RuntimeConfig(backend="serial") if nranks == 1 else None
        res = rc_sfista_distributed(p, nranks, b=0.05, iters_per_epoch=3, seed=4,
                                    estimator="plain", sampling="importance", runtime=runtime)
        probs = importance_probabilities(p)
        omega = 1.0 / (p.m * probs)
        gamma, mbar = res.meta["step_size"], res.meta["mbar"]
        rng = np.random.default_rng(4)
        w = w_prev = np.zeros(p.d)
        t = 1.0
        for _ in range(3):
            idx = sample_indices_weighted(rng, probs, mbar)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            v = w + (t - 1.0) / t_next * (w - w_prev)
            A = X[:, idx]
            c, r = p.loss.model(A.T @ w, y[idx])
            wc = omega[idx] if c is None else omega[idx] * c
            H = (A * wc) @ A.T / mbar
            R = A @ (omega[idx] * r) / mbar
            w_prev, w, t = w, p.penalty.prox(v - gamma * (H @ v - R), gamma), t_next
        np.testing.assert_allclose(res.w, w, atol=1e-10)

    def test_invalid_sampling_name(self, heterogeneous_problem):
        with pytest.raises(ValidationError):
            sfista(heterogeneous_problem, sampling="leverage")
        with pytest.raises(ValidationError, match="comm_mode='hessian'"):
            sfista(heterogeneous_problem, sampling="importance", comm_mode="gradient")
