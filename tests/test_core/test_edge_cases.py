"""Edge-case tests for the solver stack."""

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
from repro.core.fista import fista
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.runtime import RuntimeConfig

SERIAL = RuntimeConfig(backend="serial")


class TestDegenerateProblems:
    def test_single_feature(self):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((1, 30))
        y = 2.0 * X[0] + 0.01 * gen.standard_normal(30)
        p = L1LeastSquares(X, y, 0.001)
        res = fista(p, max_iter=500)
        assert res.w[0] == pytest.approx(2.0, abs=0.1)

    def test_single_sample(self):
        gen = np.random.default_rng(1)
        X = gen.standard_normal((5, 1))
        p = L1LeastSquares(X, np.array([1.0]), 0.01)
        res = fista(p, max_iter=200)
        assert np.all(np.isfinite(res.w))

    def test_constant_labels(self):
        gen = np.random.default_rng(2)
        X = gen.standard_normal((4, 50))
        p = L1LeastSquares(X, np.zeros(50), 0.01)
        res = fista(p, max_iter=100)
        np.testing.assert_allclose(res.w, 0.0, atol=1e-8)

    def test_mbar_one(self, tiny_covtype_problem):
        """b small enough that the mini-batch is a single sample."""
        res = rc_sfista_distributed(
            tiny_covtype_problem, 1, b=1e-6, epochs=2, iters_per_epoch=10, seed=0,
            runtime=SERIAL,
        )
        assert res.meta["mbar"] == 1
        assert np.all(np.isfinite(res.w))

    def test_rank_deficient_dense(self):
        gen = np.random.default_rng(3)
        base = gen.standard_normal((2, 40))
        X = np.vstack([base, base[0:1] + base[1:2]])  # third row dependent
        y = gen.standard_normal(40)
        p = L1LeastSquares(X, y, 0.05)
        res = fista(p, max_iter=500)
        assert np.all(np.isfinite(res.w))


class TestDistributedEdges:
    def test_more_ranks_than_samples(self):
        gen = np.random.default_rng(4)
        X = gen.standard_normal((3, 4))
        p = L1LeastSquares(X, gen.standard_normal(4), 0.05)
        res = rc_sfista_distributed(p, 8, k=2, b=0.5, iters_per_epoch=6, seed=0)
        ser = rc_sfista_distributed(
            p, 1, k=2, S=1, b=0.5, iters_per_epoch=6, seed=0, runtime=SERIAL
        )
        np.testing.assert_allclose(res.w, ser.w, atol=1e-9)

    def test_single_rank_cluster(self, tiny_covtype_problem):
        res = rc_sfista_distributed(
            tiny_covtype_problem, 1, b=0.2, iters_per_epoch=8, seed=0
        )
        ser = rc_sfista_distributed(
            tiny_covtype_problem, 1, b=0.2, iters_per_epoch=8, seed=0, runtime=SERIAL
        )
        np.testing.assert_array_equal(res.w, ser.w)  # the same body on both backends
        assert res.cost["messages_per_rank_max"] == 0.0  # P=1: no communication

    def test_monitor_stride_exceeding_budget(self, tiny_covtype_problem):
        res = rc_sfista_distributed(
            tiny_covtype_problem, 1, k=2, b=0.2, iters_per_epoch=5, monitor_every=100,
            seed=0, runtime=SERIAL,
        )
        assert len(res.history) == 1  # only the forced final checkpoint

    def test_k_equal_to_budget(self, tiny_covtype_problem):
        res = rc_sfista_distributed(
            tiny_covtype_problem, 4, k=10, b=0.2, iters_per_epoch=10, seed=0,
            estimator="plain",
        )
        assert res.n_comm_rounds == 1  # single [G|R] allreduce covers the run
