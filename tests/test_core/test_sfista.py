"""Unit tests for SFISTA (RC-SFISTA at k = S = 1, P = 1) and the stochastic
step-size rule."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core._dist_common import RankPlacement, distribute_problem, svrg_rhs
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.sfista import stochastic_step_size
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig
from tests.test_sparse.rfp_oracle import rfp_to_dense


def sfista(problem, **kw):
    """Serial SFISTA: RC-SFISTA at k = S = 1, P=1 on the serial backend."""
    return rc_sfista_distributed(problem, 1, runtime=RuntimeConfig(backend="serial"), **kw)


def stage_b(problem, mbar):
    """Stage B at P=1: ``build(idx, response)`` → the unpacked ``(H, R)`` of one set."""
    data = distribute_problem(problem, 1)
    loop = SimpleNamespace(backend=SimpleNamespace(parallel_ranks=False), workspace=None)
    placement = RankPlacement(data, loop, mbar=mbar, blocks=1, rhs=True)

    def build(idx, response=None):
        buf, _flops = placement.pack(0, [idx], response=response)
        H, R = placement.block(buf, 0)
        return rfp_to_dense(H.words, problem.d), R.copy()

    return build


class TestStochasticStepSize:
    def test_full_batch_recovers_fista_step(self):
        assert stochastic_step_size(2.0, 100, 100) == pytest.approx(0.5)

    def test_smaller_batch_smaller_step(self):
        s_small = stochastic_step_size(2.0, 100, 5)
        s_big = stochastic_step_size(2.0, 100, 50)
        assert s_small < s_big < 0.5 + 1e-12

    def test_lmax_guard_tightens(self):
        base = stochastic_step_size(1.0, 100, 10)
        guarded = stochastic_step_size(1.0, 100, 10, L_max=50.0)
        assert guarded < base

    def test_deviation_guard(self):
        base = stochastic_step_size(1.0, 100, 10)
        guarded = stochastic_step_size(1.0, 100, 10, deviation=10.0)
        assert guarded == pytest.approx(1.0 / 40.0)
        assert guarded < base

    def test_epoch_cap_tightens_with_length(self):
        short = stochastic_step_size(1.0, 1000, 10, epoch_length=10)
        long = stochastic_step_size(1.0, 1000, 10, epoch_length=1000)
        assert long < short

    def test_epoch_cap_ignored_at_full_batch(self):
        assert stochastic_step_size(2.0, 50, 50, epoch_length=100) == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            stochastic_step_size(0.0, 10, 5)
        with pytest.raises(ValidationError):
            stochastic_step_size(1.0, 10, 0)
        with pytest.raises(ValidationError):
            stochastic_step_size(1.0, 10, 5, epoch_length=0)


class TestSampledGradient:
    """Eqs. (8)–(9) as stage B packs them and stage D applies them: ĝ(v) = Hv − R."""

    def test_plain_matches_formula(self, small_dense_problem, rng):
        p = small_dense_problem
        idx = rng.integers(0, p.m, size=8)
        H, R = stage_b(p, 8)(idx, response=p.y)
        v = rng.standard_normal(p.d)
        A = p.X[:, idx]
        np.testing.assert_allclose(H @ v - R, A @ (A.T @ v - p.y[idx]) / 8, atol=1e-12)

    def test_svrg_unbiased_at_anchor(self, small_dense_problem, rng):
        """At v = anchor the SVRG estimate equals the exact full gradient."""
        p = small_dense_problem
        anchor = rng.standard_normal(p.d)
        fg = p.gradient(anchor)
        H, corr = stage_b(p, 4)(rng.integers(0, p.m, size=4))
        R = svrg_rhs(H, corr, anchor, fg, p.loss)
        np.testing.assert_allclose(H @ anchor - R, fg, atol=1e-12)

    def test_svrg_estimator_is_unbiased(self, small_dense_problem):
        """Monte-Carlo check of E[H v − R] = ∇f(v)."""
        p = small_dense_problem
        gen = np.random.default_rng(0)
        anchor = gen.standard_normal(p.d)
        v = gen.standard_normal(p.d)
        fg = p.gradient(anchor)
        build = stage_b(p, 10)
        acc = np.zeros(p.d)
        trials = 3000
        for _ in range(trials):
            H, corr = build(gen.integers(0, p.m, size=10))
            acc += H @ v - svrg_rhs(H, corr, anchor, fg, p.loss)
        mc = acc / trials
        np.testing.assert_allclose(mc, p.gradient(v), atol=0.05)


class TestSfista:
    def test_converges_with_svrg(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = sfista(
            small_dense_problem,
            b=0.1,
            epochs=30,
            iters_per_epoch=50,
            seed=1,
            stopping=StoppingCriterion(tol=0.01, fstar=fstar),
        )
        assert res.converged

    def test_svrg_beats_plain_at_small_b(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        common = dict(b=0.05, epochs=10, iters_per_epoch=60, seed=0)
        svrg = sfista(small_dense_problem, estimator="svrg", **common)
        plain = sfista(small_dense_problem, estimator="plain", **common)
        e_s = abs(svrg.history.objectives[-1] - fstar) / fstar
        e_p = abs(min(plain.history.objectives) - fstar) / fstar
        assert e_s < e_p

    def test_deterministic_given_seed(self, small_dense_problem):
        a = sfista(small_dense_problem, b=0.2, iters_per_epoch=40, seed=9)
        b = sfista(small_dense_problem, b=0.2, iters_per_epoch=40, seed=9)
        np.testing.assert_array_equal(a.w, b.w)

    def test_different_seeds_differ(self, small_dense_problem):
        a = sfista(small_dense_problem, b=0.2, iters_per_epoch=40, seed=1)
        b = sfista(small_dense_problem, b=0.2, iters_per_epoch=40, seed=2)
        assert not np.allclose(a.w, b.w)

    def test_meta_fields(self, small_dense_problem):
        res = sfista(small_dense_problem, b=0.25, iters_per_epoch=10)
        assert res.meta["solver"] == "rc_sfista_distributed"
        assert res.meta["k"] == res.meta["S"] == 1
        assert (res.meta["comm_mode"], res.meta["sampling"]) == ("hessian", "uniform")
        assert res.meta["mbar"] == int(0.25 * small_dense_problem.m)
        assert res.meta["estimator"] == "svrg"
        assert not res.meta["diverged"]

    def test_invalid_epochs(self, small_dense_problem):
        with pytest.raises(ValidationError):
            sfista(small_dense_problem, epochs=0)

    def test_flop_reduction_argument(self, small_dense_problem):
        """m̄ = ⌊bm⌋: the per-iteration sampled workload shrinks by 1/b."""
        res = sfista(small_dense_problem, b=0.01, iters_per_epoch=5)
        assert res.meta["mbar"] == max(1, int(0.01 * small_dense_problem.m))
