"""Integration tests: dry-run cost schedules must match the real solvers."""

import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.experiments.runner import (
    ProblemStats,
    dry_run_pn_inner,
    dry_run_rc_sfista,
    iterations_to_tolerance,
    reference_value,
    speedup_cell,
)
from repro.distsim.collectives import ceil_log2
from repro.exceptions import ValidationError
from repro.sparse.ops import packed_size
from repro.utils.rng import minibatch_size


class TestProblemStats:
    def test_of_dense(self, small_dense_problem):
        stats = ProblemStats.of(small_dense_problem)
        assert stats.d == small_dense_problem.d
        assert stats.m == small_dense_problem.m
        assert stats.density == pytest.approx(1.0)

    def test_of_sparse(self, small_sparse_problem):
        stats = ProblemStats.of(small_sparse_problem)
        assert 0 < stats.density < 1


class TestDryRunFidelity:
    """The heart of the sweep methodology: dry-run == real solver on L and W."""

    @pytest.mark.parametrize("estimator", ["plain", "svrg"])
    def test_sfista_counters_match(self, tiny_covtype_problem, estimator):
        """SFISTA is the RC-SFISTA schedule at k = S = 1."""
        P, N = 4, 12
        real = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0,
            estimator=estimator, monitor_every=N,
        )
        stats = ProblemStats.of(tiny_covtype_problem)
        dry = dry_run_rc_sfista(
            stats, P, "comet_effective", n_iterations=N,
            mbar=real.meta["mbar"], k=1, S=1, estimator=estimator,
        )
        assert dry.cost.max_messages == real.cost["messages_per_rank_max"]
        assert dry.cost.max_words == pytest.approx(real.cost["words_per_rank_max"])
        # The packed [triu(H) | R] block per iteration, plus the d-word
        # anchor gradient of the one SVRG epoch.
        d = stats.d
        anchor = d if estimator == "svrg" else 0
        assert dry.cost.max_words == (N * (packed_size(d) + d) + anchor) * ceil_log2(P)
        assert dry.cost.max_flops == pytest.approx(
            real.cost["flops_per_rank_max"], rel=0.35
        )
        assert dry.elapsed == pytest.approx(real.cost["elapsed"], rel=0.05)

    @pytest.mark.parametrize("k,S", [(1, 1), (4, 2), (6, 5)])
    def test_rc_sfista_counters_match(self, tiny_covtype_problem, k, S):
        P, N = 8, 24
        real = rc_sfista_distributed(
            tiny_covtype_problem, P, k=k, S=S, b=0.2, iters_per_epoch=N, seed=0,
            estimator="plain", monitor_every=N,
        )
        stats = ProblemStats.of(tiny_covtype_problem)
        dry = dry_run_rc_sfista(
            stats, P, "comet_effective", n_iterations=N,
            mbar=real.meta["mbar"], k=k, S=S, estimator="plain",
        )
        assert dry.cost.max_messages == real.cost["messages_per_rank_max"]
        assert dry.cost.max_words == pytest.approx(real.cost["words_per_rank_max"])
        # k packed [triu(H_j) | R_j] blocks per round, N/k rounds.
        d = stats.d
        assert dry.cost.max_words == N * (packed_size(d) + d) * ceil_log2(P)
        assert dry.elapsed == pytest.approx(real.cost["elapsed"], rel=0.05)

    def test_dry_run_validation(self):
        stats = ProblemStats(d=4, m=10, nnz=40)
        with pytest.raises(ValidationError):
            dry_run_rc_sfista(stats, 2, "comet_paper", n_iterations=0, mbar=1, k=1, S=1)
        with pytest.raises(ValidationError):
            dry_run_rc_sfista(stats, 2, "comet_paper", n_iterations=4, mbar=1, k=0, S=1)
        with pytest.raises(ValidationError):
            dry_run_pn_inner(
                stats, 2, "comet_paper", inner="bad", n_outer=1, inner_iters=1, mbar=1
            )


#: The sampled PN inner solvers: SFISTA is rc_sfista at k = S = 1.
SAMPLED_INNERS = [pytest.param("rc_sfista", 1, id="sfista-1"), ("rc_sfista", 4)]


class TestDryRunPn:
    def test_fista_inner_message_count(self):
        stats = ProblemStats(d=10, m=100, nnz=1000)
        P, n_outer, inner_iters = 4, 3, 7
        dry = dry_run_pn_inner(
            stats, P, "comet_effective", inner="fista",
            n_outer=n_outer, inner_iters=inner_iters, mbar=10,
        )
        log_p = 2
        assert dry.cost.max_messages == (n_outer * (inner_iters + 1)) * log_p

    def test_rc_inner_latency_reduction(self):
        stats = ProblemStats(d=10, m=100, nnz=1000)
        base = dry_run_pn_inner(
            stats, 16, "comet_effective", inner="rc_sfista", n_outer=2, inner_iters=16, mbar=10
        )
        rc = dry_run_pn_inner(
            stats, 16, "comet_effective", inner="rc_sfista", n_outer=2, inner_iters=16,
            mbar=10, k=8,
        )
        assert rc.cost.max_messages < base.cost.max_messages
        assert rc.elapsed < base.elapsed

    @pytest.mark.parametrize("inner, k", SAMPLED_INNERS)
    def test_sampled_inner_ships_packed_hessians(self, inner, k):
        """Per outer step: the d-word gradient, then every inner iteration's
        packed upper triangle of H (no R block in the PN model)."""
        d, P, n_outer, inner_iters = 10, 4, 2, 8
        dry = dry_run_pn_inner(
            ProblemStats(d=d, m=100, nnz=1000), P, "comet_effective", inner=inner,
            n_outer=n_outer, inner_iters=inner_iters, mbar=10, k=k,
        )
        words = n_outer * (d + inner_iters * packed_size(d)) * ceil_log2(P)
        assert dry.cost.max_words == words

    @pytest.mark.parametrize("inner, k", SAMPLED_INNERS)
    def test_counters_match_the_real_solver(self, tiny_covtype_problem, inner, k):
        P = 4
        real = proximal_newton_distributed(
            tiny_covtype_problem, P, inner=inner, k=k, n_outer=2, inner_iters=8, b=0.2, seed=0
        )
        dry = dry_run_pn_inner(
            ProblemStats.of(tiny_covtype_problem), P, "comet_effective", inner=inner,
            n_outer=2, inner_iters=8, mbar=minibatch_size(tiny_covtype_problem.m, 0.2), k=k,
        )
        assert dry.cost.max_messages == real.cost["messages_per_rank_max"]
        assert dry.cost.max_words == real.cost["words_per_rank_max"]


class TestTrajectoryHelpers:
    def test_reference_value_memoized(self, tiny_covtype_problem):
        a = reference_value(tiny_covtype_problem)
        b = reference_value(tiny_covtype_problem)
        assert a == b

    def test_iterations_to_tolerance(self, tiny_covtype_problem, tiny_covtype_reference):
        fstar = tiny_covtype_reference.meta["fstar"]
        res = iterations_to_tolerance(
            tiny_covtype_problem, tol=0.05, fstar=fstar, b=0.2, epochs=10, iters_per_epoch=50
        )
        assert res.converged
        assert res.history.rel_errors[-1] <= 0.05

    def test_speedup_cell_shape(self, tiny_covtype_problem, tiny_covtype_reference):
        fstar = tiny_covtype_reference.meta["fstar"]
        cell = speedup_cell(
            tiny_covtype_problem, nranks=16, machine="comet_effective",
            tol=0.05, k=4, S=1, b=0.2, fstar=fstar, epochs=10, iters_per_epoch=50,
        )
        assert cell["speedup"] > 0
        assert cell["converged_sfista"] == 1.0
        assert cell["time_rc"] < cell["time_sfista"]

    def test_speedup_grows_with_k_in_latency_regime(
        self, tiny_covtype_problem, tiny_covtype_reference
    ):
        fstar = tiny_covtype_reference.meta["fstar"]
        cells = [
            speedup_cell(
                tiny_covtype_problem, nranks=64, machine="comet_effective",
                tol=0.01, k=k, b=0.05, fstar=fstar, epochs=20, iters_per_epoch=50,
            )
            for k in (1, 2, 4)
        ]
        # enough iterations that overlap actually batches rounds
        assert cells[0]["iters_sfista"] >= 4
        speedups = [c["speedup"] for c in cells]
        assert speedups[0] < speedups[1] < speedups[2]


class TestReferenceCacheIsolation:
    def test_no_id_reuse_leakage(self):
        """Regression: the fstar memo must not key by id() — ids are reused
        after GC and silently corrupt cross-dataset sweeps."""
        import gc

        from repro.data.datasets import get_dataset

        a = get_dataset("susy", size="tiny").problem()
        fa = reference_value(a)
        del a
        gc.collect()
        b = get_dataset("covtype", size="tiny").problem()
        fb = reference_value(b)
        assert fa != fb
