"""Unit tests for RC-SFISTA at P=1 on the serial backend: overlap
invariance and Hessian reuse."""

import numpy as np
import pytest

from repro.core import rc_sfista_dist
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig

SERIAL = RuntimeConfig(backend="serial")


def sfista(problem, **kw):
    """SFISTA: the same body at k = S = 1."""
    return rc_sfista_distributed(problem, 1, k=1, S=1, runtime=SERIAL, **kw)


def rc_sfista(problem, **kw):
    return rc_sfista_distributed(problem, 1, runtime=SERIAL, **kw)


class TestOverlapInvariance:
    """§5.2: k does not change the iterate sequence (exact arithmetic)."""

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_k_equals_sfista(self, small_dense_problem, k):
        base = sfista(small_dense_problem, b=0.2, iters_per_epoch=32, seed=4)
        rc = rc_sfista(small_dense_problem, k=k, S=1, b=0.2, iters_per_epoch=32, seed=4)
        np.testing.assert_allclose(rc.w, base.w, atol=1e-9)

    def test_k_larger_than_budget(self, small_dense_problem):
        rc = rc_sfista(small_dense_problem, k=100, S=1, b=0.2, iters_per_epoch=10, seed=0)
        base = sfista(small_dense_problem, b=0.2, iters_per_epoch=10, seed=0)
        np.testing.assert_allclose(rc.w, base.w, atol=1e-9)

    def test_sparse_problem_invariance(self, small_sparse_problem):
        base = rc_sfista(small_sparse_problem, k=1, S=1, b=0.3, iters_per_epoch=24, seed=2)
        rc = rc_sfista(small_sparse_problem, k=6, S=1, b=0.3, iters_per_epoch=24, seed=2)
        np.testing.assert_allclose(rc.w, base.w, atol=1e-9)

    def test_comm_rounds_reduced_by_k(self, small_dense_problem):
        """Stage-C rounds fall by k; the epoch's anchor gradient adds one round."""
        rc = rc_sfista(small_dense_problem, k=8, S=1, b=0.2, iters_per_epoch=32, seed=0)
        assert rc.n_comm_rounds == 32 // 8 + 1
        base = rc_sfista(small_dense_problem, k=1, S=1, b=0.2, iters_per_epoch=32, seed=0)
        assert base.n_comm_rounds == 32 + 1

    def test_ragged_final_block(self, small_dense_problem):
        rc = rc_sfista(small_dense_problem, k=5, S=1, b=0.2, iters_per_epoch=13, seed=0)
        assert rc.n_comm_rounds == 3 + 1  # blocks of 5, 5, 3 plus the anchor round
        assert rc.n_iterations == 13


class TestHessianReuse:
    def test_s1_is_identity_transform(self, small_dense_problem):
        a = rc_sfista(small_dense_problem, k=4, S=1, b=0.2, iters_per_epoch=20, seed=1)
        b = sfista(small_dense_problem, b=0.2, iters_per_epoch=20, seed=1)
        np.testing.assert_allclose(a.w, b.w, atol=1e-9)

    def test_s_reduces_rounds_to_tolerance(self, tiny_covtype_problem, tiny_covtype_reference):
        fstar = tiny_covtype_reference.meta["fstar"]
        stop = StoppingCriterion(tol=0.01, fstar=fstar)
        common = dict(k=1, b=0.05, epochs=30, iters_per_epoch=60, seed=0, stopping=stop)
        s1 = rc_sfista(tiny_covtype_problem, S=1, **common)
        s2 = rc_sfista(tiny_covtype_problem, S=2, **common)
        assert s1.converged and s2.converged
        assert s2.n_comm_rounds <= s1.n_comm_rounds

    def test_total_inner_updates_scale_with_s(self, small_dense_problem, monkeypatch):
        steps = []
        update = rc_sfista_dist.hessian_reuse_update

        def counting(H, R, v, **kw):
            steps.append(kw["S"])
            return update(H, R, v, **kw)

        monkeypatch.setattr(rc_sfista_dist, "hessian_reuse_update", counting)
        res = rc_sfista(small_dense_problem, k=2, S=3, b=0.2, iters_per_epoch=10, seed=0)
        assert res.n_iterations == 10
        assert sum(steps) == 10 * 3


class TestValidation:
    def test_invalid_k(self, small_dense_problem):
        with pytest.raises(ValidationError):
            rc_sfista(small_dense_problem, k=0)

    def test_invalid_s(self, small_dense_problem):
        with pytest.raises(ValidationError):
            rc_sfista(small_dense_problem, S=0)

    def test_invalid_monitor(self, small_dense_problem):
        with pytest.raises(ValidationError):
            rc_sfista(small_dense_problem, monitor_every=0)


class TestBookkeeping:
    def test_history_comm_rounds_monotone(self, small_dense_problem):
        res = rc_sfista(small_dense_problem, k=4, S=1, b=0.2, iters_per_epoch=20, seed=0)
        rounds = res.history.comm_rounds
        assert all(b >= a for a, b in zip(rounds, rounds[1:]))

    def test_meta(self, small_dense_problem):
        res = rc_sfista(small_dense_problem, k=3, S=2, b=0.5, iters_per_epoch=6, seed=0)
        assert res.meta["k"] == 3
        assert res.meta["S"] == 2
        assert res.meta["solver"] == "rc_sfista_distributed"

    def test_monitor_stride(self, small_dense_problem):
        res = rc_sfista(
            small_dense_problem, k=2, S=1, b=0.2, iters_per_epoch=12, seed=0, monitor_every=4
        )
        assert res.history.iterations == [4, 8, 12]

    def test_stops_early_at_tolerance(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = rc_sfista(
            small_dense_problem, k=2, S=1, b=0.3, epochs=50, iters_per_epoch=50,
            seed=0, stopping=StoppingCriterion(tol=0.05, fstar=fstar),
        )
        assert res.converged
        assert res.n_iterations < 50 * 50
