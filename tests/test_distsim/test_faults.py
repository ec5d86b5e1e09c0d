"""Fault-injection subsystem tests: plans, injector, BSP hooks.

Everything here rides on the module's two core guarantees:

* **Determinism** — the same :class:`FaultPlan` replays bit-identically
  (verdicts, costs and iterates), independent of call order and wall time.
* **Zero-fault identity** — an empty plan is indistinguishable from no
  injector at all, down to the cost counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distsim.bsp import BSPCluster
from repro.distsim.cost import PhaseKind
from repro.distsim.faults import (
    CORRUPTION_MODES,
    FaultInjector,
    FaultPlan,
    PayloadCorruption,
    RankCrash,
    RankStall,
    RetryPolicy,
    as_injector,
    corrupt_array,
)
from repro.exceptions import (
    CommTimeoutError,
    FaultError,
    RankFailureError,
    ValidationError,
)

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------- #
# plan / spec validation
# ---------------------------------------------------------------------- #
class TestPlanValidation:
    @pytest.mark.parametrize("field", ["corrupt_rate", "stall_rate", "collective_drop_rate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_rates_must_be_probabilities(self, field, bad):
        with pytest.raises(ValidationError):
            FaultPlan(**{field: bad})

    def test_bad_corrupt_mode(self):
        with pytest.raises(ValidationError):
            FaultPlan(corrupt_rate=0.1, corrupt_mode="gamma_ray")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="non-negative integer"):
            FaultPlan(seed=-1, stall_rate=0.1)

    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(ValidationError):
            RankCrash(rank=0)
        with pytest.raises(ValidationError):
            RankCrash(rank=0, at_time=1.0, at_op=3)

    def test_crash_trigger_bounds(self):
        with pytest.raises(ValidationError):
            RankCrash(rank=0, at_time=-1.0)
        with pytest.raises(ValidationError):
            RankCrash(rank=0, at_op=-1)

    def test_duplicate_crash_rank_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan(crashes=(RankCrash(rank=1, at_op=0), RankCrash(rank=1, at_time=1.0)))

    def test_stall_corruption_specs_validated(self):
        with pytest.raises(ValidationError):
            RankStall(rank=0, at_op=0, duration=0.0)
        with pytest.raises(ValidationError):
            RankStall(rank=0, at_op=-1, duration=1.0)
        with pytest.raises(ValidationError):
            PayloadCorruption(rank=0, at_op=-2)
        with pytest.raises(ValidationError):
            PayloadCorruption(rank=0, at_op=0, mode="zap")
        with pytest.raises(ValidationError):
            FaultPlan(stall=-1.0)

    def test_empty_flag(self):
        assert FaultPlan().empty
        assert not FaultPlan(collective_drop_rate=0.01).empty
        assert not FaultPlan(crashes=(RankCrash(rank=0, at_op=5),)).empty

    def test_as_injector(self):
        assert as_injector(None) is None
        inj = as_injector(FaultPlan())
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        with pytest.raises(ValidationError):
            FaultInjector("not a plan")  # type: ignore[arg-type]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(ack_words=-1.0)

    def test_backoff_is_exponential(self):
        r = RetryPolicy(base_backoff=1e-4, backoff_factor=2.0)
        assert r.backoff(1) == pytest.approx(1e-4)
        assert r.backoff(3) == pytest.approx(4e-4)
        with pytest.raises(ValidationError):
            r.backoff(0)

    def test_backoff_monotone_over_the_budget(self):
        """Each grace extension waits at least as long as the previous one."""
        r = RetryPolicy(max_retries=6, base_backoff=2e-4, backoff_factor=1.5)
        waits = [r.backoff(a) for a in range(1, r.max_retries + 1)]
        assert waits == sorted(waits)
        assert all(w > 0 for w in waits)

    def test_backoff_capped_by_the_retry_budget(self):
        """The mp backend's total grace is bounded: sum of a finite series."""
        r = RetryPolicy(max_retries=4, base_backoff=1e-3, backoff_factor=2.0)
        total = sum(r.backoff(a) for a in range(1, r.max_retries + 1))
        expected = 1e-3 * (2.0**r.max_retries - 1)  # geometric sum
        assert total == pytest.approx(expected)
        assert r.backoff_factor == 1.0 or total < 1e-3 * 2.0**r.max_retries

    def test_backoff_deterministic(self):
        """Two identical policies grant identical grace — replays agree."""
        a = RetryPolicy(max_retries=5, base_backoff=3e-4, backoff_factor=2.5)
        b = RetryPolicy(max_retries=5, base_backoff=3e-4, backoff_factor=2.5)
        assert [a.backoff(i) for i in range(1, 6)] == [b.backoff(i) for i in range(1, 6)]


# ---------------------------------------------------------------------- #
# corruption kernel
# ---------------------------------------------------------------------- #
class TestCorruptArray:
    def test_nan_and_inf_hit_one_element(self):
        arr = np.linspace(1.0, 2.0, 16)
        for mode, pred in (("nan", np.isnan), ("inf", np.isinf)):
            out = corrupt_array(arr, mode, np.random.default_rng(0))
            assert int(pred(out).sum()) == 1
            assert np.array_equal(out[~pred(out)], arr[~pred(out)])
            assert np.all(np.isfinite(arr)), "input must not be mutated"

    def test_bitflip_is_a_single_bit(self):
        arr = np.linspace(1.0, 2.0, 16)
        out = corrupt_array(arr, "bitflip", np.random.default_rng(3))
        diff = arr.view(np.uint64) ^ out.view(np.uint64)
        assert int(np.unpackbits(diff.view(np.uint8)).sum()) == 1

    def test_empty_array_passthrough(self):
        out = corrupt_array(np.empty(0), "nan", np.random.default_rng(0))
        assert out.size == 0

    def test_deterministic_under_same_key(self):
        arr = np.arange(32.0)
        a = corrupt_array(arr, "bitflip", np.random.default_rng(99))
        b = corrupt_array(arr, "bitflip", np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            corrupt_array(np.ones(3), "zap", np.random.default_rng(0))


# ---------------------------------------------------------------------- #
# injector verdicts
# ---------------------------------------------------------------------- #
class TestInjector:
    def test_empty_plan_short_circuits(self):
        inj = FaultInjector(FaultPlan())
        f1 = inj.collective_fault(8, 0)
        assert not f1.any
        assert inj.collective_fault(3, 17) is f1, "empty verdicts share one object"

    def test_scheduled_collective_faults_fire_at_their_op(self):
        inj = FaultInjector(FaultPlan(
            stalls=(RankStall(rank=1, at_op=2, duration=0.5),),
            corruptions=(PayloadCorruption(rank=0, at_op=1, mode="inf"),),
        ))
        assert not inj.collective_fault(4, 0).any
        assert inj.collective_fault(4, 1).corruptions == {0: "inf"}
        assert inj.collective_fault(4, 2).stalls == {1: 0.5}
        assert not inj.collective_fault(4, 3).any

    def test_crash_latches_and_heals(self):
        inj = FaultInjector(FaultPlan(crashes=(RankCrash(rank=2, at_op=5),)))
        assert not inj.crash_due(2, time=0.0, op_index=4)
        assert inj.crash_due(2, time=0.0, op_index=5)
        assert inj.crashed_ranks == (2,)
        # latched: stays dead regardless of the query indices
        assert inj.crash_due(2, time=0.0, op_index=0)
        assert inj.heal_all() == (2,)
        # one-shot: the triggered spec never refires after a heal
        assert not inj.crash_due(2, time=0.0, op_index=99)
        inj.reset()
        assert inj.crash_due(2, time=0.0, op_index=5), "reset re-arms the plan"

    def test_heal_all_is_idempotent_and_sorted(self):
        inj = FaultInjector(
            FaultPlan(
                crashes=(RankCrash(rank=3, at_op=1), RankCrash(rank=1, at_op=1))
            )
        )
        assert inj.due_crashes(4, time=0.0, op_index=1) == (1, 3)
        assert inj.heal_all() == (1, 3)
        assert inj.heal_all() == ()  # nothing left to heal
        # healed one-shot crashes never refire at any later op
        assert inj.due_crashes(4, time=0.0, op_index=50) == ()

    def test_reset_after_heal_rearms_every_spec(self):
        inj = FaultInjector(FaultPlan(crashes=(RankCrash(rank=0, at_op=2),)))
        inj.crash_due(0, time=0.0, op_index=2)
        inj.heal_all()
        inj.reset()
        assert inj.due_crashes(2, time=0.0, op_index=2) == (0,)

    def test_due_crashes_screens_all_ranks(self):
        """The mp backend's pre-collective sweep: one call, all ranks."""
        inj = FaultInjector(
            FaultPlan(
                crashes=(RankCrash(rank=0, at_time=5.0), RankCrash(rank=2, at_op=3))
            )
        )
        assert inj.due_crashes(4, time=0.0, op_index=0) == ()
        assert inj.due_crashes(4, time=6.0, op_index=3) == (0, 2)
        with pytest.raises(ValidationError):
            inj.due_crashes(0, time=0.0, op_index=0)

    def test_rate_verdicts_deterministic(self):
        plan = FaultPlan(seed=7, collective_drop_rate=0.3, stall_rate=0.1,
                         corrupt_rate=0.2)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for op in range(40):
            assert a.collective_fault(4, op) == b.collective_fault(4, op)
        # call order must not matter
        assert a.collective_fault(4, 3) == b.collective_fault(4, 3)

    def test_rate_verdicts_are_pinned(self):
        """Seeded schedules replay across releases: the stream codes are fixed."""
        inj = FaultInjector(FaultPlan(seed=7, stall_rate=0.3, corrupt_rate=0.3,
                                      collective_drop_rate=0.3))
        got = []
        for i in range(12):
            f = inj.collective_fault(4, i)
            got.append((sorted(f.stalls), sorted(f.corruptions), f.failed_attempts))
        assert got == [
            ([0, 3], [], 0), ([1], [0, 2], 1), ([1, 2], [1, 2], 0), ([0, 3], [3], 0),
            ([1], [0, 2], 0), ([1], [], 0), ([0, 1, 2], [1], 0), ([2], [3], 0),
            ([0, 2], [3], 0), ([0], [0, 2], 0), ([1], [1, 3], 1), ([0, 1], [0, 2], 0),
        ]

    def test_collective_verdict_deterministic_and_seed_sensitive(self):
        kw = dict(stall_rate=0.3, corrupt_rate=0.3, collective_drop_rate=0.3)
        p7 = FaultPlan(seed=7, **kw)
        verdicts7 = [FaultInjector(p7).collective_fault(8, i) for i in range(20)]
        assert verdicts7 == [FaultInjector(p7).collective_fault(8, i) for i in range(20)]
        p8 = FaultPlan(seed=8, **kw)
        verdicts8 = [FaultInjector(p8).collective_fault(8, i) for i in range(20)]
        assert verdicts7 != verdicts8


@given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.0, 1.0), op=st.integers(0, 500))
def test_collective_fault_replay_property(seed, rate, op):
    """Any (seed, rate) plan gives the same verdict for the same op, always."""
    plan = FaultPlan(seed=seed, collective_drop_rate=rate, corrupt_rate=rate,
                     stall_rate=rate)
    first = FaultInjector(plan).collective_fault(3, op)
    assert FaultInjector(plan).collective_fault(3, op) == first


class TestFaultErrors:
    def test_fault_errors_share_a_base(self):
        assert issubclass(RankFailureError, FaultError)
        assert issubclass(CommTimeoutError, FaultError)


# ---------------------------------------------------------------------- #
# BSP cluster integration
# ---------------------------------------------------------------------- #
def _bsp_round(cluster, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    vals = [rng.standard_normal(6) for _ in range(cluster.nranks)]
    return cluster.allreduce(vals, label="G")


class TestBSPFaults:
    def test_zero_fault_identity(self):
        base = BSPCluster(4, "comet_paper")
        faulty = BSPCluster(4, "comet_paper", injector=FaultInjector(FaultPlan()))
        assert np.array_equal(_bsp_round(base), _bsp_round(faulty))
        assert base.cost.summary() == faulty.cost.summary()

    def test_stall_slows_the_collective(self):
        plan = FaultPlan(stalls=(RankStall(rank=2, at_op=0, duration=0.25),))
        slow = BSPCluster(4, "comet_paper", injector=FaultInjector(plan))
        fast = BSPCluster(4, "comet_paper")
        assert np.array_equal(_bsp_round(slow), _bsp_round(fast))
        assert slow.elapsed >= fast.elapsed + 0.25
        assert any(e.label.startswith("stall") for e in slow.trace.events
                   if e.kind is PhaseKind.FAULT)

    def test_crash_reports_per_rank_clocks(self):
        plan = FaultPlan(crashes=(RankCrash(rank=1, at_time=0.0),))
        cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan))
        with pytest.raises(RankFailureError) as ei:
            _bsp_round(cluster)
        msg = str(ei.value)
        assert "rank(s) (1,)" in msg or "1" in msg
        assert "clock=" in msg, "diagnostics must include per-rank clocks"

    def test_deadline_violation(self):
        plan = FaultPlan(stalls=(RankStall(rank=0, at_op=0, duration=5.0),))
        cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan),
                             collective_deadline=1.0)
        with pytest.raises(CommTimeoutError, match="deadline"):
            _bsp_round(cluster)

    def test_scheduled_corruption_poisons_the_sum(self):
        plan = FaultPlan(corruptions=(PayloadCorruption(rank=0, at_op=0, mode="nan"),))
        cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan))
        out = _bsp_round(cluster)
        assert np.isnan(out).any()
        assert any(e.label.startswith("corrupt") for e in cluster.trace.events
                   if e.kind is PhaseKind.FAULT)

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_corruption_modes_all_wired(self, mode):
        plan = FaultPlan(corruptions=(PayloadCorruption(rank=1, at_op=0, mode=mode),))
        cluster = BSPCluster(2, "comet_paper", injector=FaultInjector(plan))
        out = _bsp_round(cluster)
        clean = _bsp_round(BSPCluster(2, "comet_paper"))
        assert not np.array_equal(out, clean)

    def test_torn_collective_retries_are_charged(self):
        plan = FaultPlan(seed=3, collective_drop_rate=0.7)
        cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan),
                             retry=RetryPolicy(max_retries=16))
        for _ in range(6):
            _bsp_round(cluster)
        summary = cluster.cost.summary()
        assert summary["retry_messages_total"] > 0
        assert summary["retry_words_total"] > 0
        base = BSPCluster(4, "comet_paper")
        for _ in range(6):
            _bsp_round(base)
        assert cluster.elapsed > base.elapsed

    def test_torn_collective_without_retry_fails(self):
        plan = FaultPlan(seed=0, collective_drop_rate=1.0)
        cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan))
        with pytest.raises(CommTimeoutError, match="torn"):
            _bsp_round(cluster)

    def test_checkpoint_and_recover_are_charged(self):
        cluster = BSPCluster(4, "comet_paper")
        cluster.checkpoint(100.0)
        cluster.recover(100.0)
        summary = cluster.cost.summary()
        assert summary["checkpoint_words_total"] > 0
        assert summary["retry_words_total"] > 0
        assert cluster.elapsed > 0
        assert any(e.kind is PhaseKind.FAULT for e in cluster.trace.events)

    def test_replay_bit_identical(self):
        plan = FaultPlan(seed=11, stall_rate=0.4, corrupt_rate=0.2, stall=1e-3,
                         corrupt_mode="bitflip")

        def run_once():
            cluster = BSPCluster(4, "comet_paper", injector=FaultInjector(plan))
            outs = [_bsp_round(cluster, rng_seed=i) for i in range(4)]
            return outs, cluster.cost.summary()

        outs_a, cost_a = run_once()
        outs_b, cost_b = run_once()
        assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))
        assert cost_a == cost_b
