"""Unit tests for the two-level (hierarchical) machine model."""

import numpy as np
import pytest

from repro.distsim.bsp import BSPCluster
from repro.distsim.collectives import allreduce_cost, bcast_cost
from repro.distsim.machine import HierarchicalMachine, MachineSpec, get_machine
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig


@pytest.fixture()
def hier():
    return HierarchicalMachine(
        name="h", alpha=1e-4, beta=1e-9, gamma=1e-10,
        node_size=4, alpha_intra=1e-7, beta_intra=1e-11,
    )


@pytest.fixture()
def flat():
    return MachineSpec(name="f", alpha=1e-4, beta=1e-9, gamma=1e-10)


class TestSpec:
    def test_registry_preset(self):
        m = get_machine("comet_4ppn")
        assert isinstance(m, HierarchicalMachine)
        assert m.node_size == 4

    def test_invalid_node_size(self):
        with pytest.raises(ValidationError):
            HierarchicalMachine(name="h", alpha=1, beta=1, gamma=1, node_size=0)

    def test_invalid_intra(self):
        with pytest.raises(ValidationError):
            HierarchicalMachine(name="h", alpha=1, beta=1, gamma=1, alpha_intra=-1)

    def test_intra_message_time(self, hier):
        assert hier.intra_message_time(100) == pytest.approx(1e-7 + 1e-9)


class TestTwoLevelCosts:
    def test_cheaper_than_flat_at_scale(self, hier, flat):
        h = allreduce_cost(hier, 256, 3000)
        f = allreduce_cost(flat, 256, 3000)
        assert h.time < f.time  # fewer expensive network rounds

    def test_single_node_all_intra(self, hier):
        # 4 ranks on one node: no network rounds at all.
        c = allreduce_cost(hier, 4, 100)
        assert c.time == pytest.approx(2 * 2 * hier.intra_message_time(100))

    def test_node_size_one_equals_flat(self, flat):
        h1 = HierarchicalMachine(
            name="h1", alpha=flat.alpha, beta=flat.beta, gamma=flat.gamma, node_size=1
        )
        assert allreduce_cost(h1, 64, 512).time == allreduce_cost(flat, 64, 512).time

    def test_p1_free(self, hier):
        assert allreduce_cost(hier, 1, 100).time == 0.0

    def test_bcast_two_level(self, hier, flat):
        h = bcast_cost(hier, 64, 1000)
        f = bcast_cost(flat, 64, 1000)
        assert h.time < f.time

    def test_bcast_two_level_schedule(self, hier):
        # 64 ranks at 4/node: 4 network rounds over 16 nodes, then 2 intra.
        c = bcast_cost(hier, 64, 1000)
        assert c.messages == 4 + 2
        assert c.words == 1000 * (4 + 2)
        assert c.time == pytest.approx(
            4 * (hier.alpha + hier.beta * 1000) + 2 * hier.intra_message_time(1000)
        )

    def test_inter_node_count(self, hier):
        # 256 ranks at 4/node → 64 nodes → 6 network rounds + 2·2 intra.
        c = allreduce_cost(hier, 256, 10)
        assert c.messages == 2 * 2 + 6


class TestBspIntegration:
    def test_cluster_runs_on_hierarchical_machine(self):
        cluster = BSPCluster(8, "comet_4ppn")
        out = cluster.allreduce([np.ones(5)] * 8)
        np.testing.assert_array_equal(out, np.full(5, 8.0))
        assert cluster.elapsed > 0

    def test_numerics_identical_to_flat(self, rng):
        vals = [rng.standard_normal(7) for _ in range(8)]
        a = BSPCluster(8, "comet_4ppn").allreduce([v.copy() for v in vals])
        b = BSPCluster(8, "comet_effective").allreduce([v.copy() for v in vals])
        np.testing.assert_array_equal(a, b)

    def test_solver_runs_end_to_end(self, tiny_covtype_problem):
        from repro.core.rc_sfista_dist import rc_sfista_distributed

        res = rc_sfista_distributed(
            tiny_covtype_problem, 8, k=2, b=0.2, iters_per_epoch=8,
            runtime=RuntimeConfig(machine="comet_4ppn"),
        )
        assert res.sim_time > 0
