"""Unit tests for the distributed data-placement helpers."""

import numpy as np
import pytest

from repro.core._dist_common import UPDATE_FLOPS, distribute_problem
from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.exceptions import ValidationError
from repro.perf.model import update_flops_per_step
from repro.sparse.ops import sampled_gram
from tests.test_sparse.rfp_oracle import rfp_to_dense


class TestDistributeProblem:
    def test_blocks_cover_data(self, tiny_covtype_problem):
        data = distribute_problem(tiny_covtype_problem, 3)
        total_cols = sum(rd.m_local for rd in data.ranks)
        assert total_cols == tiny_covtype_problem.m

    def test_offsets_contiguous(self, tiny_covtype_problem):
        data = distribute_problem(tiny_covtype_problem, 4)
        expected = 0
        for rd in data.ranks:
            assert rd.col_offset == expected
            expected += rd.m_local

    def test_labels_match_blocks(self, small_dense_problem):
        data = distribute_problem(small_dense_problem, 5)
        reassembled = np.concatenate([rd.y_local for rd in data.ranks])
        np.testing.assert_array_equal(reassembled, small_dense_problem.y)

    def test_more_ranks_than_samples(self):
        from repro.core.objectives import L1LeastSquares

        gen = np.random.default_rng(0)
        p = L1LeastSquares(gen.standard_normal((3, 2)), gen.standard_normal(2), 0.1)
        data = distribute_problem(p, 5)
        assert sum(rd.m_local for rd in data.ranks) == 2

    def test_invalid_nranks(self, small_dense_problem):
        with pytest.raises(ValidationError):
            distribute_problem(small_dense_problem, 0)


class TestRankContributions:
    def test_hessian_contributions_sum_to_global(self, small_dense_problem, rng):
        p = small_dense_problem
        data = distribute_problem(p, 4)
        idx = rng.integers(0, p.m, size=30)
        mbar = idx.size
        total = np.zeros((p.d, p.d))
        for rd in data.ranks:
            blocks, _local, _fl = rd.sampled_hessian_contribution([idx], mbar, p.d)
            total += rfp_to_dense(blocks[0], p.d)
        expected = sampled_gram(p.X, np.sort(idx), scale=1.0 / mbar)
        np.testing.assert_allclose(total, expected, atol=1e-10)

    def test_rhs_contributions_sum_to_global(self, small_dense_problem, rng):
        p = small_dense_problem
        data = distribute_problem(p, 3)
        idx = rng.integers(0, p.m, size=20)
        total = np.zeros(p.d)
        flops = 0.0
        for rd in data.ranks:
            _, local, _ = rd.sampled_hessian_contribution([idx], idx.size, p.d)
            R_p, fl = rd.sampled_rhs_contribution(local, idx.size, p.d)
            total += R_p
            flops += fl
        from repro.sparse.ops import sampled_rhs

        expected = sampled_rhs(p.X, p.y, np.sort(idx), scale=1.0 / idx.size)
        np.testing.assert_allclose(total, expected, atol=1e-10)
        assert flops > 0

    def test_gradient_contributions_sum_to_full(self, small_dense_problem, rng):
        p = small_dense_problem
        data = distribute_problem(p, 4)
        w = rng.standard_normal(p.d)
        total = np.zeros(p.d)
        for rd in data.ranks:
            g_p, fl = rd.gradient_contribution(w, p.m, p.loss)
            total += g_p
            assert fl == 4 * p.d * rd.m_local  # the historical charge
        np.testing.assert_allclose(total, p.gradient(w), atol=1e-10)

    def test_empty_rank_contributes_zero(self):
        from repro.core.objectives import L1LeastSquares

        gen = np.random.default_rng(1)
        p = L1LeastSquares(gen.standard_normal((4, 3)), gen.standard_normal(3), 0.1)
        data = distribute_problem(p, 6)
        empty = [rd for rd in data.ranks if rd.m_local == 0]
        assert empty
        idx = np.array([0, 1, 2])
        for rd in empty:
            blocks, local, fl = rd.sampled_hessian_contribution([idx], 3, p.d)
            np.testing.assert_array_equal(blocks, 0.0)
            assert fl == 0.0

    def test_sparse_blocks_agree_with_dense(self, small_sparse_problem, rng):
        p = small_sparse_problem
        data = distribute_problem(p, 3)
        idx = rng.integers(0, p.m, size=25)
        total = np.zeros((p.d, p.d))
        for rd in data.ranks:
            blocks, _l, _f = rd.sampled_hessian_contribution([idx], idx.size, p.d)
            total += rfp_to_dense(blocks[0], p.d)
        expected = sampled_gram(p.X, np.sort(idx), scale=1.0 / idx.size)
        np.testing.assert_allclose(total, expected, atol=1e-10)


class TestUpdateFlopsConsistency:
    def test_matches_perf_model(self):
        """The solver charge and the Table 1 model must stay in sync."""
        for d in (1, 7, 54, 780):
            assert UPDATE_FLOPS(d) == update_flops_per_step(d)


RUNTIME_KEYS = {
    "nranks", "machine", "allreduce_algorithm", "comm", "comm_topology",
    "comm_compress", "checkpoint_every", "on_nan", "max_recoveries",
    "adaptive_restart", "loss", "penalty", "gram_kernel",
}

#: One tiny fixed-budget run per distributed solver.
SOLVER_RUNS = {
    "rc_sfista_distributed": lambda prob: rc_sfista_distributed(
        prob, 4, k=2, b=0.2, iters_per_epoch=4, seed=0
    ),
    "proximal_newton_distributed": lambda prob: proximal_newton_distributed(
        prob, 4, n_outer=1, inner_iters=4, k=2, b=0.2, seed=0
    ),
}


class TestRunSummary:
    @pytest.mark.parametrize("solver", sorted(SOLVER_RUNS))
    def test_every_solver_reports_the_same_runtime_keys(self, small_dense_problem, solver):
        meta = SOLVER_RUNS[solver](small_dense_problem).meta
        assert meta["solver"] == solver
        assert RUNTIME_KEYS | {"perf", "resilience"} <= set(meta)
        assert meta["nranks"] == 4
        assert meta["machine"] == "comet_effective"
        assert meta["allreduce_algorithm"] == "recursive_doubling"
        assert meta["perf"]["gram_workspace_reuses"] > 0
