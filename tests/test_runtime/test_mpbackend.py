"""Property and lifecycle tests for the shared-memory mp backend.

Two surfaces, both pinned here:

* **Collective numerics** — hypothesis drives arbitrary shapes, values
  and rank counts through the shared-memory collectives and asserts the
  determinism contract: allreduce is bit-identical to the simulator's
  :func:`~repro.distsim.collectives.allreduce_values` tournament.
* **Worker lifecycle** — a crashed or hung worker must surface as
  :class:`~repro.exceptions.ConvergenceError` (never a deadlock), and
  every shared-memory segment must be unlinked on success AND failure:
  ``live_segment_names()`` and ``/dev/shm`` stay clean.

Workers are persistent, so one backend per rank count is reused across
all hypothesis examples — spawn cost is paid once per module.
"""

from __future__ import annotations

import glob
import os
import threading

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    HAVE_HYPOTHESIS = False

from repro.distsim.collectives import allreduce_values
from repro.exceptions import CommunicatorError, ConvergenceError, ValidationError
from repro.runtime import RuntimeConfig
from repro.runtime.mpbackend import (
    _SEGMENT_PREFIX,
    MultiprocessingBackend,
    ThreadPoolBackend,
    live_segment_names,
    tournament_levels,
)

pytestmark = pytest.mark.mp


def _rank_threads() -> list[threading.Thread]:
    """Live rank-pool threads (``RankPool`` names them ``repro-rank``)."""
    return [t for t in threading.enumerate() if t.name.startswith("repro-rank")]


def _shm_segments() -> set[str]:
    """This process's segments currently visible in /dev/shm (POSIX only)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return set()
    pat = f"/dev/shm/{_SEGMENT_PREFIX}_{os.getpid()}_*"
    return {os.path.basename(p) for p in glob.glob(pat)}


# --------------------------------------------------------------------- #
# tournament schedule (pure function — no processes involved)
# --------------------------------------------------------------------- #
class TestTournamentLevels:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 7, 8, 13, 16])
    def test_every_rank_consumed_once_champion_zero(self, nranks):
        consumed = []
        for _stride, pairs in tournament_levels(nranks):
            consumed.extend(src for _dst, src in pairs)
        assert sorted(consumed) == list(range(1, nranks))  # 0 survives
        assert len(set(consumed)) == len(consumed)

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8, 11])
    def test_emulated_schedule_matches_allreduce_values(self, nranks):
        """Replaying the schedule on host buffers IS allreduce_values."""
        rng = np.random.default_rng(nranks)
        contribs = [rng.standard_normal(17) for _ in range(nranks)]
        bufs = [c.copy() for c in contribs]
        for stride, pairs in tournament_levels(nranks):
            for dst, src in pairs:
                np.add(bufs[dst], bufs[src], out=bufs[dst])
        assert np.array_equal(bufs[0], allreduce_values(contribs))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tournament_levels(0)


# --------------------------------------------------------------------- #
# shared-memory collective properties
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def backend_pool():
    """One persistent backend per rank count, shared by every example."""
    backends: dict[int, MultiprocessingBackend] = {}

    def get(nranks: int) -> MultiprocessingBackend:
        if nranks not in backends:
            backends[nranks] = MultiprocessingBackend(nranks, timeout=60.0)
        return backends[nranks]

    yield get
    pooled = set()
    for b in backends.values():
        pooled |= {seg.name for seg in b._segments}
        b.close()
    assert live_segment_names().isdisjoint(pooled)


if HAVE_HYPOTHESIS:
    # Finite floats spanning many binades, plus exact zeros so the sparse
    # union-counting path sees genuinely empty coordinates.
    _ELEMENTS = st.one_of(
        st.just(0.0),
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            min_value=-1e12,
            max_value=1e12,
        ),
    )
    _SHAPES = st.one_of(
        st.integers(1, 40).map(lambda n: (n,)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    )
    _DTYPES = st.sampled_from([np.float64, np.float32, np.int64])

    def _contribs(draw, nranks):
        shape = draw(_SHAPES)
        dtype = draw(_DTYPES)
        arrs = []
        for _ in range(nranks):
            a = draw(
                hnp.arrays(np.float64, shape, elements=_ELEMENTS)
            )
            arrs.append(a.astype(dtype) if dtype != np.float64 else a)
        return arrs

    @st.composite
    def _ranked_contribs(draw):
        nranks = draw(st.integers(1, 6))
        return nranks, _contribs(draw, nranks)

    class TestCollectiveProperties:
        @given(case=_ranked_contribs())
        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def test_allreduce_matches_simulator_bit_for_bit(self, backend_pool, case):
            nranks, contribs = case
            be = backend_pool(nranks)
            expected = allreduce_values(contribs)
            got = be.allreduce(contribs)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected, equal_nan=True)
            # Determinism: the same inputs reduce to the same bits again.
            assert np.array_equal(be.allreduce(contribs), got, equal_nan=True)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def test_sparse_charge_needs_no_densify(self, backend_pool, data):
            """comm='sparse' counts the union on host views; numerics agree."""
            nranks = data.draw(st.integers(2, 5))
            n = data.draw(st.integers(1, 30))
            contribs = [
                data.draw(hnp.arrays(np.float64, (n,), elements=_ELEMENTS))
                for _ in range(nranks)
            ]
            be = MultiprocessingBackend(nranks, comm="sparse", timeout=60.0)
            try:
                got = be.allreduce(contribs)
                assert np.array_equal(got, allreduce_values(contribs))
            finally:
                be.close()


# --------------------------------------------------------------------- #
# deterministic (non-hypothesis) collective checks
# --------------------------------------------------------------------- #
class TestCollectiveEdges:
    def test_shape_mismatch_rejected(self, backend_pool):
        be = backend_pool(2)
        with pytest.raises(CommunicatorError, match="shape mismatch"):
            be.allreduce([np.zeros(3), np.zeros(4)])

    def test_wrong_rank_count_rejected(self, backend_pool):
        be = backend_pool(2)
        with pytest.raises(CommunicatorError, match="one buffer per rank"):
            be.allreduce([np.zeros(3)])

    def test_sparse_comm_rejects_matrices(self):
        be = MultiprocessingBackend(2, comm="sparse", timeout=60.0)
        try:
            with pytest.raises(CommunicatorError, match="1-D"):
                be.allreduce([np.zeros((2, 2)), np.zeros((2, 2))])
        finally:
            be.close()

    def test_segment_growth_preserves_bits(self, backend_pool):
        """Re-attaching after capacity growth must not disturb numerics."""
        be = backend_pool(3)
        small = [np.full(4, float(r + 1)) for r in range(3)]
        assert np.array_equal(be.allreduce(small), allreduce_values(small))
        rng = np.random.default_rng(0)
        big = [rng.standard_normal(5000) for _ in range(3)]
        assert np.array_equal(be.allreduce(big), allreduce_values(big))
        assert np.array_equal(be.allreduce(small), allreduce_values(small))


# --------------------------------------------------------------------- #
# worker lifecycle: crashes, hangs, and segment hygiene
# --------------------------------------------------------------------- #
class TestWorkerLifecycle:
    def test_segments_unlinked_on_graceful_close(self):
        before_live = live_segment_names()
        before_shm = _shm_segments()
        be = MultiprocessingBackend(3, timeout=60.0)
        be.allreduce([np.ones(10)] * 3)
        assert len(live_segment_names() - before_live) == 3  # one per rank
        be.close()
        assert live_segment_names() == before_live
        assert _shm_segments() == before_shm

    def test_crash_mid_collective_raises_not_hangs(self):
        before_live = live_segment_names()
        before_shm = _shm_segments()
        be = MultiprocessingBackend(2, timeout=20.0)
        # Kill rank 0 — the reducer the tournament round-trips at P=2 —
        # the way an external OOM-killer would (no supervisor involved).
        be.supervisor.send(0, be.supervisor.next_seq(), "crash")
        deadline = __import__("time").monotonic() + 10.0
        while be.supervisor.is_alive(0) and __import__("time").monotonic() < deadline:
            __import__("time").sleep(0.01)
        with pytest.raises(ConvergenceError) as exc_info:
            be.allreduce([np.ones(4), np.ones(4)])
        assert exc_info.value.partial is None  # ResilientLoop's salvage slot
        assert "worker" in str(exc_info.value)
        # Failure path must still unlink everything.
        assert live_segment_names() == before_live
        assert _shm_segments() == before_shm
        # The backend stays broken, not resurrected.
        with pytest.raises(ConvergenceError, match="unusable"):
            be.allreduce([np.ones(4), np.ones(4)])

    def test_hung_worker_hits_timeout_guard(self):
        before_live = live_segment_names()
        before_shm = _shm_segments()
        be = MultiprocessingBackend(2, timeout=0.3)
        be.supervisor.send(0, be.supervisor.next_seq(), "sleep", 30.0)
        with pytest.raises(ConvergenceError, match="hung|died"):
            be.allreduce([np.ones(4), np.ones(4)])
        assert live_segment_names() == before_live
        assert _shm_segments() == before_shm

    def test_close_is_idempotent_and_ledger_survives(self):
        be = MultiprocessingBackend(2, timeout=60.0)
        be.allreduce([np.ones(8), np.ones(8)])
        summary = be.cost_summary()
        be.close()
        be.close()
        assert be.cost_summary() == summary  # SolveResult assembly post-close
        with pytest.raises(CommunicatorError, match="closed"):
            be.allreduce([np.ones(8), np.ones(8)])

    def test_no_leak_across_repeated_construction(self):
        """The `pytest -x` repetition scenario: N short-lived backends."""
        before_live = live_segment_names()
        before_shm = _shm_segments()
        for _ in range(5):
            be = MultiprocessingBackend(2, timeout=60.0)
            be.allreduce([np.arange(6.0), np.arange(6.0)])
            be.close()
        assert live_segment_names() == before_live
        assert _shm_segments() == before_shm

    def test_worker_stats_merge_into_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        be = MultiprocessingBackend(2, metrics=registry, timeout=60.0)
        be.allreduce([np.ones(16), np.ones(16)])
        be.close()
        snap = registry.snapshot()
        assert "mpbackend_commands" in snap
        assert "mpbackend_elements" in snap
        # Rank 0 is the reducer; rank 1 only attaches — its element series
        # is zero-suppressed while its command series exists.
        elements = snap["mpbackend_elements"]["values"]
        assert any("rank=0" in key for key in elements)


# --------------------------------------------------------------------- #
# config plumbing
# --------------------------------------------------------------------- #
class TestFromConfig:
    def test_rejects_simulation_only_faults(self):
        from repro.distsim.faults import FaultPlan

        # Torn collectives only exist on the simulated cluster; real-process
        # chaos (crashes/stalls/corruption) and retry flow through
        # (TestChaos in test_chaos.py drives them).
        plan = FaultPlan(collective_drop_rate=0.5, seed=0)
        with pytest.raises(ValidationError, match="simulation"):
            RuntimeConfig(backend="mp", faults=plan)

    def test_failure_policy_and_chaos_flow_from_config(self):
        from repro.distsim.faults import FaultPlan, RetryPolicy

        be = MultiprocessingBackend.from_config(
            RuntimeConfig(
                backend="mp",
                mp_failure_policy="respawn",
                faults=FaultPlan(stall_rate=0.0, seed=1),
                retry=RetryPolicy(max_retries=1),
            ),
            2,
        )
        try:
            assert be.failure_policy == "respawn"
            assert be.injector is not None
            assert be._retry.max_retries == 1
        finally:
            be.close()

    def test_rejects_prebuilt_cluster(self):
        from repro.distsim.bsp import BSPCluster

        cfg = RuntimeConfig()
        object.__setattr__(cfg, "backend", "mp")
        object.__setattr__(cfg, "cluster", BSPCluster(2, "comet_effective"))
        with pytest.raises(ValidationError, match="prebuilt"):
            MultiprocessingBackend.from_config(cfg, 2)

    def test_timeout_flows_from_config(self):
        be = MultiprocessingBackend.from_config(
            RuntimeConfig(backend="mp", mp_timeout=7.5), 2
        )
        try:
            assert be.timeout == 7.5
        finally:
            be.close()

    def test_threads_backend_parallel_map_matches_serial(self):
        from repro.runtime.backend import build_host_backend

        for backend, cls in (("threads", ThreadPoolBackend), ("mp", MultiprocessingBackend)):
            be = build_host_backend(RuntimeConfig(backend=backend), 4)
            assert isinstance(be, cls)
            assert be.parallel_ranks
            try:
                assert be.map_ranks(lambda p: p * p, 4) == [0, 1, 4, 9]
                assert be.map_ranks(lambda p: p + 1, 1) == [1]
                assert be.map_ranks(lambda p: p, 0) == []
            finally:
                be.close()
            assert _rank_threads() == []


# --------------------------------------------------------------------- #
# per-rank closures on the mp backend's rank pool
# --------------------------------------------------------------------- #
class TestParallelMapRanks:
    """mp's ``map_ranks`` runs the closures concurrently on host threads."""

    def test_closures_run_concurrently(self):
        # A serial map cannot get past the barrier: rank 0 waits alone.
        lone = threading.Barrier(3, timeout=0.1)
        with pytest.raises(threading.BrokenBarrierError):
            [lone.wait() for _p in range(3)]
        barrier = threading.Barrier(3, timeout=5)
        be = MultiprocessingBackend(3, timeout=60.0)
        try:
            ranks = be.map_ranks(lambda p: (barrier.wait(), p)[1], 3)
            assert ranks == [0, 1, 2]
            # Rank 0 runs on the caller, so P ranks take P-1 pool threads.
            assert len(be._ranks._executor._threads) == 2
            assert be.map_ranks(lambda _p: threading.current_thread().name, 3)[0] == (
                threading.current_thread().name
            )
        finally:
            be.close()
        assert _rank_threads() == []

    def test_closure_error_propagates_and_close_cleans_up(self):
        before_live = live_segment_names()
        finished: list[int] = []
        error = ValueError("rank 1 failed")

        def fn(p):
            if p == 1:
                raise error
            finished.append(p)
            return p

        be = MultiprocessingBackend(3, timeout=60.0)
        with pytest.raises(ValueError) as exc_info:
            be.map_ranks(fn, 3)
        assert exc_info.value is error  # the closure's own exception
        assert sorted(finished) == [0, 2]  # every other rank ran to the end
        be.close()
        assert live_segment_names() == before_live
        assert _rank_threads() == []
