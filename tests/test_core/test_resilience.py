"""Resilient-runtime tests: checkpoints, numerical guards, crash recovery.

The acceptance bar for the whole subsystem is *exact* recovery: a solver
that crashes mid-run, heals and replays from its last checkpoint must end
at the bit-identical iterate of the fault-free run (the checkpoint captures
the sampling RNG state, so the replayed rounds draw the same minibatches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.reference import solve_reference
from repro.core.results import History, SolveResult
from repro.distsim.faults import FaultPlan, PayloadCorruption, RankCrash
from repro.exceptions import (
    ConvergenceError,
    NumericalFaultError,
    RankFailureError,
    ValidationError,
)
from repro.runtime import RuntimeConfig
from repro.runtime.backend import SerialBackend
from repro.runtime.resilience import (
    ON_NAN_POLICIES,
    Checkpoint,
    NumericalGuard,
    RecoveryStats,
    RollbackRequested,
)

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------- #
# units: Checkpoint / NumericalGuard / RecoveryStats / History.truncate
# ---------------------------------------------------------------------- #
class TestCheckpoint:
    def test_capture_deep_copies(self):
        w = np.arange(4.0)
        rng = np.random.default_rng(5)
        ck = Checkpoint.capture(arrays={"w": w, "g": None}, scalars={"n": 3},
                                rng=rng, history_len=2)
        w[:] = -1.0
        assert np.array_equal(ck.array("w"), np.arange(4.0))
        assert ck.scalars["n"] == 3
        assert ck.history_len == 2
        assert "g" not in ck.arrays, "None arrays are dropped"
        assert ck.get("g") is None, "optional arrays read back as None"
        with pytest.raises(ValidationError):
            ck.array("g")

    def test_restore_rng_rewinds_the_stream(self):
        rng = np.random.default_rng(5)
        ck = Checkpoint.capture(arrays={}, scalars={}, rng=rng)
        first = rng.standard_normal(8)
        ck.restore_rng(rng)
        assert np.array_equal(rng.standard_normal(8), first)

    def test_words_counts_state_plus_header(self):
        ck = Checkpoint.capture(arrays={"a": np.zeros(10), "b": np.zeros((3, 3))},
                                scalars={"n": 1})
        assert ck.words == 10 + 9 + 8


class TestNumericalGuard:
    def test_policy_validation(self):
        assert ON_NAN_POLICIES == ("raise", "rollback", "recompute")
        with pytest.raises(ValidationError):
            NumericalGuard("explode")

    def test_disabled_guard_passes_everything(self):
        guard = NumericalGuard(None)
        stats = RecoveryStats()
        assert not guard.enabled
        assert guard.screen(np.array([np.nan]), "G", stats) is False
        assert stats.numerical_faults == 0

    def test_finite_values_pass(self):
        stats = RecoveryStats()
        assert NumericalGuard("raise").screen(np.ones(3), "G", stats) is False
        assert stats.numerical_faults == 0

    def test_raise_policy(self):
        with pytest.raises(NumericalFaultError, match="G"):
            NumericalGuard("raise").screen(np.array([np.inf]), "G", RecoveryStats())

    def test_rollback_policy(self):
        stats = RecoveryStats()
        with pytest.raises(RollbackRequested) as ei:
            NumericalGuard("rollback").screen(np.array([np.nan]), "grad", stats)
        assert ei.value.what == "grad"
        assert stats.numerical_faults == 1

    def test_recompute_policy_returns_true(self):
        stats = RecoveryStats()
        assert NumericalGuard("recompute").screen(np.array([np.nan]), "G", stats)
        assert stats.numerical_faults == 1

    def test_scalar_screening(self):
        assert NumericalGuard("recompute").screen(float("nan"), "obj", RecoveryStats())


class TestRecoveryStats:
    def test_as_meta_round_trip(self):
        stats = RecoveryStats()
        stats.checkpoints += 2
        stats.rollbacks += 1
        stats.healed_ranks.append(3)
        meta = stats.as_meta()
        assert meta["checkpoints"] == 2
        assert meta["rollbacks"] == 1
        assert meta["healed_ranks"] == [3]


class TestHistoryTruncate:
    def test_truncate_drops_replayed_rows(self):
        h = History()
        for i in range(5):
            h.append(i, float(i), sim_time=0.1 * i, comm_round=i)
        h.truncate(2)
        assert len(h) == 2
        assert h.iterations == [0, 1]
        assert h.comm_rounds == [0, 1]

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValidationError):
            History().truncate(-1)


# ---------------------------------------------------------------------- #
# solver-level recovery: the recovered solution equals the fault-free one
# ---------------------------------------------------------------------- #
BSP_KW = dict(k=2, S=1, b=0.2, epochs=1, iters_per_epoch=6, estimator="plain",
              seed=0, monitor_every=2)


def _paper(**runtime) -> RuntimeConfig:
    """Every solve here runs on the comet_paper machine model."""
    return RuntimeConfig(machine="comet_paper", **runtime)


def _baseline(problem):
    return rc_sfista_distributed(problem, 4, runtime=_paper(), **BSP_KW)


class TestRCSFISTARecovery:
    def test_zero_fault_identity(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        wired = rc_sfista_distributed(
            small_dense_problem, 4, runtime=_paper(faults=FaultPlan()), **BSP_KW
        )
        assert np.array_equal(base.w, wired.w)
        assert base.cost == wired.cost

    def test_crash_recovery_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        crash_at = 0.5 * base.sim_time
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=crash_at),))
        rec = rc_sfista_distributed(
            small_dense_problem, 4, runtime=_paper(faults=plan, checkpoint_every=2),
            **BSP_KW,
        )
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert rec.meta["resilience"]["healed_ranks"] == [1]
        assert np.array_equal(base.w, rec.w)
        assert base.history.objectives == rec.history.objectives
        # the tolerance is paid for, not free
        assert rec.cost["checkpoint_words_total"] > 0
        assert rec.cost["retry_words_total"] > 0
        assert rec.sim_time > base.sim_time

    def test_crash_recovery_from_scratch_without_periodic_checkpoints(
        self, small_dense_problem
    ):
        base = _baseline(small_dense_problem)
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_time=0.5 * base.sim_time),))
        rec = rc_sfista_distributed(
            small_dense_problem, 4, runtime=_paper(faults=plan), **BSP_KW
        )
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert np.array_equal(base.w, rec.w)

    def test_max_recoveries_zero_propagates(self, small_dense_problem):
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=0.0),))
        with pytest.raises(RankFailureError):
            rc_sfista_distributed(
                small_dense_problem, 4, runtime=_paper(faults=plan, max_recoveries=0),
                **BSP_KW,
            )

    def test_prebuilt_cluster_rejects_solver_side_fault_knobs(
        self, small_dense_problem
    ):
        from repro.distsim.bsp import BSPCluster

        cluster = BSPCluster(4, "comet_paper")
        with pytest.raises(ValidationError, match="cluster"):
            rc_sfista_distributed(
                small_dense_problem, 4,
                runtime=_paper(
                    cluster=cluster,
                    faults=FaultPlan(crashes=(RankCrash(rank=0, at_op=0),)),
                ),
                **BSP_KW,
            )

    def test_adaptive_restart_smoke(self, small_dense_problem):
        res = rc_sfista_distributed(
            small_dense_problem, 4, runtime=_paper(adaptive_restart=True), **BSP_KW
        )
        assert res.meta["adaptive_restart"] is True
        assert res.meta["resilience"]["momentum_restarts"] >= 0


class TestNumericalPolicies:
    def _corrupting_plan(self):
        # Poison rank 0's contribution to the second collective (a stage-C
        # allreduce); the re-issued collective gets a fresh index, so the
        # one-shot corruption does not refire on recompute/replay.
        return FaultPlan(corruptions=(PayloadCorruption(rank=0, at_op=1, mode="nan"),))

    def test_on_nan_raise(self, small_dense_problem):
        with pytest.raises(NumericalFaultError):
            rc_sfista_distributed(
                small_dense_problem, 4,
                runtime=_paper(faults=self._corrupting_plan(), on_nan="raise"), **BSP_KW,
            )

    def test_on_nan_recompute_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        rec = rc_sfista_distributed(
            small_dense_problem, 4,
            runtime=_paper(faults=self._corrupting_plan(), on_nan="recompute"), **BSP_KW,
        )
        assert rec.meta["resilience"]["recomputes"] >= 1
        assert np.array_equal(base.w, rec.w)

    def test_on_nan_rollback_matches_fault_free(self, small_dense_problem):
        base = _baseline(small_dense_problem)
        # no periodic checkpoints: they are collectives too and would shift
        # the global collective index the one-shot corruption targets
        rec = rc_sfista_distributed(
            small_dense_problem, 4,
            runtime=_paper(faults=self._corrupting_plan(), on_nan="rollback"), **BSP_KW,
        )
        assert rec.meta["resilience"]["rollbacks"] >= 1
        assert np.array_equal(base.w, rec.w)

    def test_invalid_policy_rejected(self, small_dense_problem):
        with pytest.raises(ValidationError):
            rc_sfista_distributed(
                small_dense_problem, 4, runtime=_paper(on_nan="explode"), **BSP_KW
            )


PN_KW = dict(inner="rc_sfista", n_outer=4, inner_iters=6, k=2, b=0.5, seed=0)


class TestProxNewtonRecovery:
    def test_crash_recovery_matches_fault_free(self, small_dense_problem):
        base = proximal_newton_distributed(
            small_dense_problem, 4, runtime=_paper(), **PN_KW
        )
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=0.5 * base.sim_time),))
        rec = proximal_newton_distributed(
            small_dense_problem, 4, runtime=_paper(faults=plan, checkpoint_every=1),
            **PN_KW,
        )
        assert rec.meta["resilience"]["rank_failures_recovered"] == 1
        assert np.array_equal(base.w, rec.w)
        assert base.history.objectives == rec.history.objectives
        assert rec.cost["checkpoint_words_total"] > 0

    def test_zero_fault_identity(self, small_dense_problem):
        base = proximal_newton_distributed(
            small_dense_problem, 4, runtime=_paper(), **PN_KW
        )
        wired = proximal_newton_distributed(
            small_dense_problem, 4, runtime=_paper(faults=FaultPlan()), **PN_KW
        )
        assert np.array_equal(base.w, wired.w)
        assert base.cost == wired.cost


# ---------------------------------------------------------------------- #
# replay under lossy compression: the compressor state rolls back too
# ---------------------------------------------------------------------- #
REPLAY_SOLVERS = {
    "rc_sfista_k2": lambda problem, runtime, nranks=4: rc_sfista_distributed(
        problem, nranks, k=2, iters_per_epoch=24, seed=0, runtime=runtime
    ),
    "sfista": lambda problem, runtime, nranks=4: rc_sfista_distributed(
        problem, nranks, k=1, iters_per_epoch=24, seed=0, runtime=runtime
    ),
}


@pytest.mark.collectives
class TestCompressedReplay:
    """A crash-and-replay under top-k/quant ends at the fault-free bytes.

    The rollback must also rewind the compressor (top-k error-feedback
    residuals, quantizer RNG draws) through ``comm_state_restore``. The
    crash at collective 12 lands after compressed rounds have moved that
    state past the last checkpoint, so a backend that skipped the restore
    would replay from a stale compressor and drift (each case fails with
    the restore stubbed out).
    """

    @pytest.mark.parametrize("solver", sorted(REPLAY_SOLVERS))
    @pytest.mark.parametrize("compress", ["topk:frac=0.25", "quant:bits=4"])
    @pytest.mark.parametrize(
        "backend", ["bsp", "threads", pytest.param("mp", marks=pytest.mark.mp)]
    )
    def test_crash_replay_is_byte_identical(
        self, small_dense_problem, solver, compress, backend
    ):
        def solve(faults):
            return REPLAY_SOLVERS[solver](
                small_dense_problem,
                RuntimeConfig(
                    backend=backend,
                    comm_compress=compress,
                    checkpoint_every=3,
                    faults=faults,
                    mp_failure_policy="respawn",
                    mp_timeout=60.0,
                ),
            )

        base = solve(None)
        rec = solve(FaultPlan(crashes=(RankCrash(rank=1, at_op=12),)))
        assert rec.meta["resilience"]["rollbacks"] == 1
        assert rec.w.tobytes() == base.w.tobytes()

    @pytest.mark.parametrize("solver", sorted(REPLAY_SOLVERS))
    @pytest.mark.parametrize("compress", ["topk:frac=0.25", "quant:bits=4"])
    def test_serial_nan_rollback_is_byte_identical(
        self, small_dense_problem, solver, compress, monkeypatch
    ):
        """A serial run has no rank to crash: a one-shot NaN in the result of
        collective 12 drives the same rollback under ``on_nan="rollback"``,
        through ``SerialBackend.comm_state_restore``."""

        def solve():
            config = RuntimeConfig(
                backend="serial", comm_compress=compress, checkpoint_every=3, on_nan="rollback"
            )
            return REPLAY_SOLVERS[solver](small_dense_problem, config, nranks=1)

        base = solve()
        clean = SerialBackend.allreduce
        calls = 0

        def nan_once(self, contribs, label="allreduce"):
            nonlocal calls
            out = clean(self, contribs, label=label)
            calls += 1
            if calls == 12:
                out[0] = np.nan
            return out

        monkeypatch.setattr(SerialBackend, "allreduce", nan_once)
        rec = solve()
        assert calls > 12
        assert rec.meta["resilience"]["rollbacks"] == 1
        assert rec.w.tobytes() == base.w.tobytes()


# ---------------------------------------------------------------------- #
# satellite: ConvergenceError carries the partial result
# ---------------------------------------------------------------------- #
class TestPartialResult:
    def test_reference_attaches_partial_on_failure(self, small_dense_problem):
        with pytest.raises(ConvergenceError) as ei:
            solve_reference(small_dense_problem, tol=1e-300, max_rounds=1,
                            iters_per_round=5, raise_on_failure=True)
        partial = ei.value.partial
        assert isinstance(partial, SolveResult)
        assert not partial.converged
        assert partial.w.shape == (small_dense_problem.d,)
        assert np.isfinite(partial.meta["fstar"])
