"""Real-process chaos: seeded crash/stall/corrupt plans against live workers.

The acceptance contract of the elastic mp backend (docs/RESILIENCE.md),
driven end-to-end through ``rc_sfista_distributed``:

* ``respawn`` — a SIGKILLed rank is replaced and the run replays from the
  last checkpoint to a **bit-identical** final iterate.
* ``shrink`` — the pool drops to P′, columns are repartitioned
  deterministically, and the run converges to the fault-free solution
  within numerical tolerance, with every recovery round charged.
* ``fail_fast`` — the run dies loudly with the last checkpointed state
  attached as ``ConvergenceError.partial``.
* Stalls — a short stall is absorbed by :class:`RetryPolicy` backoff
  grace (no recovery); a long one escalates to hung-rank recovery.
* Corruption — a flipped shared-memory payload surfaces as NaN in the
  reduced result, where the NumericalGuard's policy handles it.

Every test asserts the hygiene invariant: no leaked ``/dev/shm`` segments
and no zombie worker processes, whatever the path taken.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.faults import (
    FaultPlan,
    PayloadCorruption,
    RankCrash,
    RankStall,
    RetryPolicy,
)
from repro.exceptions import ConvergenceError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeConfig
from repro.runtime.mpbackend import _SEGMENT_PREFIX, live_segment_names
from repro.runtime.supervisor import WorkerSupervisor

pytestmark = [pytest.mark.mp, pytest.mark.chaos]


SOLVE_KW = dict(k=2, epochs=1, iters_per_epoch=12, seed=3)


def _rank_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-rank")]


def _shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return set()
    pat = f"/dev/shm/{_SEGMENT_PREFIX}_{os.getpid()}_*"
    return {os.path.basename(p) for p in glob.glob(pat)}


@pytest.fixture(autouse=True)
def no_leaks():
    """Segments and worker processes must be gone after every chaos path."""
    live_before, shm_before = live_segment_names(), _shm_segments()
    yield
    assert live_segment_names() == live_before
    assert _shm_segments() == shm_before
    # join_ever=False children that died are reaped by active_children();
    # anything still alive here is a leaked worker.
    leaked = [p for p in multiprocessing.active_children() if "repro-mp" in p.name]
    assert leaked == []
    assert _rank_threads() == []  # no rank-pool thread outlives the backend


@pytest.fixture(scope="module")
def problem() -> L1LeastSquares:
    X, y, _w = make_regression(12, 200, density=1.0, noise=0.05, rng=42)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / 200
    return L1LeastSquares(X, y, lam)


def _solve(problem, nranks=4, *, policy="fail_fast", faults=None, retry=None,
           on_nan=None, metrics=None, timeout=20.0, checkpoint_every=2):
    runtime = RuntimeConfig(
        backend="mp",
        mp_timeout=timeout,
        mp_failure_policy=policy,
        faults=faults,
        retry=retry,
        on_nan=on_nan,
        checkpoint_every=checkpoint_every,
        metrics=metrics,
    )
    return rc_sfista_distributed(problem, nranks, runtime=runtime, **SOLVE_KW)


@pytest.fixture(scope="module")
def baseline(problem):
    """The unfaulted P=4 run every recovery path must reproduce."""
    return _solve(problem)


class TestRespawn:
    def test_sigkill_mid_solve_replays_bit_identical(self, problem, baseline):
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_op=5),))
        result = _solve(problem, policy="respawn", faults=plan)
        assert np.array_equal(result.w, baseline.w)  # bit-exact, not approx
        res = result.meta["resilience"]
        assert res["respawns"] == 1
        assert res["healed_ranks"] == [2]
        assert res["rollbacks"] == 1
        assert res["final_nranks"] is None  # pool size never changed

    def test_simultaneous_crashes_recovered_in_one_round(self, problem, baseline):
        plan = FaultPlan(
            crashes=(RankCrash(rank=1, at_op=4), RankCrash(rank=3, at_op=4))
        )
        result = _solve(problem, policy="respawn", faults=plan)
        assert np.array_equal(result.w, baseline.w)
        res = result.meta["resilience"]
        assert res["respawns"] == 2
        assert res["healed_ranks"] == [1, 3]
        assert res["rollbacks"] == 1  # one recovery handles both ranks

    def test_recovery_metrics_published(self, problem):
        registry = MetricsRegistry()
        plan = FaultPlan(crashes=(RankCrash(rank=0, at_op=5),))
        _solve(problem, policy="respawn", faults=plan, metrics=registry)
        snap = registry.snapshot()
        assert snap["recovery_respawns_total"]["values"][""] == 1.0
        assert snap["recovery_ranks_lost_total"]["values"][""] == 1.0

    def test_long_stall_escalates_to_hung_rank_recovery(self, problem, baseline):
        """A worker asleep past the deadline is failed and respawned."""
        plan = FaultPlan(stalls=(RankStall(rank=1, at_op=5, duration=30.0),))
        result = _solve(problem, policy="respawn", faults=plan, timeout=0.5)
        assert np.array_equal(result.w, baseline.w)
        assert result.meta["resilience"]["respawns"] == 1


class TestForkHygiene:
    def test_no_rank_thread_alive_at_any_spawn(self, problem, baseline, monkeypatch):
        """Workers fork only from a single-threaded host: the rank pool is
        joined before a respawn and rebuilt by the next per-rank map."""
        at_spawn: list[list[str]] = []
        spawn = WorkerSupervisor._spawn

        def watched_spawn(self, *args, **kwargs):
            at_spawn.append(_rank_threads())
            return spawn(self, *args, **kwargs)

        monkeypatch.setattr(WorkerSupervisor, "_spawn", watched_spawn)
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_op=5),))
        result = _solve(problem, policy="respawn", faults=plan)
        assert np.array_equal(result.w, baseline.w)
        assert result.meta["resilience"]["respawns"] == 1
        assert len(at_spawn) == 4 + 1  # the initial pool, then the respawn
        assert at_spawn == [[]] * 5
        assert _rank_threads() == []


class TestShrink:
    def test_pool_shrinks_and_converges_within_tolerance(self, problem, baseline):
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_op=5),))
        result = _solve(problem, policy="shrink", faults=plan)
        # Summation order changes at P=3: tolerance-level, not bit-exact.
        assert np.allclose(result.w, baseline.w, atol=1e-8)
        res = result.meta["resilience"]
        assert res["shrinks"] == 1
        assert res["final_nranks"] == 3
        # Recovery rounds are charged: checkpoint restore + repartition.
        assert result.cost["retry_words_total"] > 0
        assert result.cost["checkpoint_words_total"] > 0
        assert result.cost["nranks"] == 3

    def test_shrink_is_deterministic(self, problem):
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_op=7),))
        a = _solve(problem, policy="shrink", faults=plan)
        b = _solve(problem, policy="shrink", faults=plan)
        assert np.array_equal(a.w, b.w)
        assert a.cost == b.cost


class TestFailFast:
    def test_raises_with_partial_state(self, problem):
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_op=5),))
        with pytest.raises(ConvergenceError) as exc_info:
            _solve(problem, policy="fail_fast", faults=plan)
        partial = exc_info.value.partial
        assert partial is not None
        assert set(partial["arrays"]) >= {"w", "w_prev", "anchor"}
        assert partial["scalars"]["rounds_done"] > 0  # a committed checkpoint
        assert partial["comm_rounds"] > 0
        assert np.all(np.isfinite(partial["arrays"]["w"]))


class TestStallAbsorption:
    def test_short_stall_absorbed_by_retry_backoff(self, problem, baseline):
        """Backoff grace turns a slow rank into latency, not a failure."""
        plan = FaultPlan(stalls=(RankStall(rank=1, at_op=3, duration=0.6),))
        retry = RetryPolicy(max_retries=8, base_backoff=0.2, backoff_factor=1.5)
        result = _solve(
            problem, policy="respawn", faults=plan, retry=retry, timeout=0.25
        )
        assert np.array_equal(result.w, baseline.w)
        res = result.meta["resilience"]
        assert res["respawns"] == 0 and res["rollbacks"] == 0  # absorbed
        # The grace was not free: each extension charged an ack round.
        assert result.cost["retry_words_total"] > 0


class TestCorruption:
    def test_shm_corruption_caught_by_numerical_guard(self, problem, baseline):
        """A poisoned contribution propagates NaN into the reduced payload;
        the guard recomputes the collective (fresh op index → clean)."""
        plan = FaultPlan(corruptions=(PayloadCorruption(rank=2, at_op=5, mode="nan"),))
        result = _solve(problem, policy="respawn", faults=plan, on_nan="recompute")
        assert np.array_equal(result.w, baseline.w)
        res = result.meta["resilience"]
        assert res["numerical_faults"] == 1
        assert res["recomputes"] == 1
