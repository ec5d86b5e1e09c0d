"""Unit tests for the BSP cluster."""

import numpy as np
import pytest

from repro.distsim.bsp import BSPCluster
from repro.distsim.collectives import allreduce_cost
from repro.distsim.cost import PhaseKind
from repro.exceptions import CommunicatorError, ValidationError


@pytest.fixture()
def cluster():
    return BSPCluster(4, "comet_paper")


class TestConstruction:
    def test_invalid_nranks(self):
        with pytest.raises(ValidationError):
            BSPCluster(0)

    def test_invalid_algorithm(self):
        with pytest.raises(ValidationError):
            BSPCluster(2, allreduce_algorithm="magic")

    def test_repr(self, cluster):
        assert "BSPCluster" in repr(cluster)


class TestCompute:
    def test_scalar_charges_all_ranks(self, cluster):
        cluster.compute(1000.0)
        for c in cluster.counters:
            assert c.flops == 1000.0
        assert cluster.elapsed == pytest.approx(cluster.machine.compute_time(1000.0))

    def test_per_rank_vector(self, cluster):
        cluster.compute([0.0, 100.0, 200.0, 300.0])
        assert cluster.elapsed == pytest.approx(cluster.machine.compute_time(300.0))
        assert cluster.counters[0].flops == 0.0

    def test_wrong_length_vector(self, cluster):
        with pytest.raises(ValidationError):
            cluster.compute([1.0, 2.0])

    def test_negative_flops(self, cluster):
        with pytest.raises(ValidationError):
            cluster.compute(-5.0)

    def test_trace_records_compute(self, cluster):
        cluster.compute(10.0, label="work")
        events = [e for e in cluster.trace if e.kind is PhaseKind.COMPUTE]
        assert len(events) == 1
        assert events[0].label == "work"


class TestAllreduce:
    def test_result_is_sum(self, cluster, rng):
        vals = [rng.standard_normal(5) for _ in range(4)]
        np.testing.assert_allclose(cluster.allreduce(vals), np.sum(vals, axis=0), atol=1e-12)

    def test_cost_charged_per_rank(self, cluster):
        cluster.allreduce([np.ones(10)] * 4)
        expected = allreduce_cost(cluster.machine, 4, 10)
        for c in cluster.counters:
            assert c.messages == expected.messages
            assert c.words == expected.words

    def test_synchronizes_clocks(self, cluster):
        cluster.compute([0.0, 0.0, 0.0, 1e9])  # rank 3 is slow
        cluster.allreduce([np.ones(1)] * 4)
        clocks = [c.clock for c in cluster.counters]
        assert len(set(clocks)) == 1

    def test_idle_time_recorded(self, cluster):
        cluster.compute([0.0, 0.0, 0.0, 1e9])
        cluster.allreduce([np.ones(1)] * 4)
        assert cluster.counters[0].idle_time > 0
        assert cluster.counters[3].idle_time == 0

    def test_buffer_count_mismatch(self, cluster):
        with pytest.raises(CommunicatorError):
            cluster.allreduce([np.ones(2)] * 3)

    def test_max_op(self, cluster):
        out = cluster.allreduce([np.array([float(r)]) for r in range(4)], op="max")
        assert out[0] == 3.0

    def test_host_view_stays_writable(self, cluster):
        """The allreduce returns ONE host-view array, and it is mutable."""
        out = cluster.allreduce([np.ones(3) for _ in range(4)])
        out[0] = 5.0  # must not raise
        np.testing.assert_allclose(out[1:], 4.0)


class TestChargeAllreduce:
    def test_identical_cost_to_real_allreduce(self):
        real = BSPCluster(8, "comet_paper")
        dry = BSPCluster(8, "comet_paper")
        real.allreduce([np.ones(37)] * 8)
        dry.charge_allreduce(37)
        assert dry.elapsed == real.elapsed
        assert dry.cost.max_messages == real.cost.max_messages
        assert dry.cost.max_words == real.cost.max_words

    def test_negative_words_rejected(self, cluster):
        with pytest.raises(ValidationError):
            cluster.charge_allreduce(-1)

    def test_no_allocation_for_huge_payload(self, cluster):
        cluster.charge_allreduce(10**12)  # would be 8 TB if materialized
        assert cluster.cost.max_words > 0


class TestBookkeeping:
    def test_reset(self, cluster):
        cluster.compute(100.0)
        cluster.charge_allreduce(8)
        cluster.reset()
        assert cluster.elapsed == 0.0
        assert len(cluster.trace) == 0

    def test_single_rank_communication_free(self):
        c = BSPCluster(1, "comet_paper")
        c.allreduce([np.ones(100)])
        assert c.elapsed == 0.0

    def test_ring_vs_rd_word_counts(self):
        rd = BSPCluster(8, "comet_paper", allreduce_algorithm="recursive_doubling")
        ring = BSPCluster(8, "comet_paper", allreduce_algorithm="ring")
        rd.allreduce([np.ones(64)] * 8)
        ring.allreduce([np.ones(64)] * 8)
        assert rd.cost.max_words == 64 * 3
        assert ring.cost.max_words == pytest.approx(2 * 64 * 7 / 8)


class TestJitterIntegration:
    def test_noisy_machine_desynchronizes_compute(self):
        c = BSPCluster(8, "comet_effective_noisy", jitter_seed=0)
        c.compute(1e6)
        clocks = [x.clock for x in c.counters]
        assert len(set(clocks)) > 1

    def test_jitter_reproducible(self):
        a = BSPCluster(4, "comet_effective_noisy", jitter_seed=5)
        b = BSPCluster(4, "comet_effective_noisy", jitter_seed=5)
        a.compute(1e6)
        b.compute(1e6)
        assert [x.clock for x in a.counters] == [x.clock for x in b.counters]
