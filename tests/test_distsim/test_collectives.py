"""Unit tests for collective numerics and cost formulas."""

import numpy as np
import pytest

from repro.distsim import collectives as coll
from repro.distsim.machine import MachineSpec
from repro.exceptions import CommunicatorError, ValidationError

M = MachineSpec("test", alpha=1e-5, beta=1e-9, gamma=0)


class TestCeilLog2:
    @pytest.mark.parametrize("p,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (256, 8)])
    def test_values(self, p, expected):
        assert coll.ceil_log2(p) == expected

    def test_invalid(self):
        with pytest.raises(ValidationError):
            coll.ceil_log2(0)


class TestAllreduceValues:
    def test_sum(self):
        vals = [np.full(3, float(r)) for r in range(5)]
        np.testing.assert_array_equal(coll.allreduce_values(vals), np.full(3, 10.0))

    @pytest.mark.parametrize("op,expected", [("max", 4.0), ("min", 0.0), ("prod", 0.0)])
    def test_named_ops(self, op, expected):
        vals = [np.array([float(r)]) for r in range(5)]
        assert coll.allreduce_values(vals, op)[0] == expected

    def test_callable_op(self):
        vals = [np.array([1.0]), np.array([2.0])]
        assert coll.allreduce_values(vals, lambda a, b: a - b)[0] == -1.0

    def test_shape_mismatch(self):
        with pytest.raises(CommunicatorError):
            coll.allreduce_values([np.ones(2), np.ones(3)])

    def test_empty_ranks(self):
        with pytest.raises(CommunicatorError):
            coll.allreduce_values([])

    def test_unknown_op(self):
        with pytest.raises(ValidationError):
            coll.allreduce_values([np.ones(1)], "xor")

    def test_pairwise_matches_sum(self, rng):
        vals = [rng.standard_normal(7) for _ in range(13)]
        np.testing.assert_allclose(coll.allreduce_values(vals), np.sum(vals, axis=0), atol=1e-12)

    def test_single_rank_copy(self):
        a = np.ones(3)
        out = coll.allreduce_values([a])
        out[0] = 99
        assert a[0] == 1.0


class TestAllreduceCost:
    def test_p1_free(self):
        c = coll.allreduce_cost(M, 1, 100)
        assert (c.messages, c.words, c.time) == (0, 0, 0)

    def test_recursive_doubling(self):
        c = coll.allreduce_cost(M, 8, 100, "recursive_doubling")
        assert c.messages == 3
        assert c.words == 300
        assert c.time == pytest.approx(3 * (M.alpha + M.beta * 100))

    def test_binomial_tree_doubles(self):
        c = coll.allreduce_cost(M, 8, 100, "binomial_tree")
        assert c.messages == 6
        assert c.words == 600

    def test_ring(self):
        c = coll.allreduce_cost(M, 4, 100, "ring")
        assert c.messages == 6
        assert c.words == pytest.approx(2 * 100 * 3 / 4)
        assert c.time == pytest.approx(6 * (M.alpha + M.beta * 25))

    def test_ring_bandwidth_beats_rd_for_large_messages(self):
        big = 10**6
        rd = coll.allreduce_cost(M, 64, big, "recursive_doubling")
        ring = coll.allreduce_cost(M, 64, big, "ring")
        assert ring.time < rd.time

    def test_rd_latency_beats_ring_for_small_messages(self):
        rd = coll.allreduce_cost(M, 64, 1, "recursive_doubling")
        ring = coll.allreduce_cost(M, 64, 1, "ring")
        assert rd.time < ring.time

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            coll.allreduce_cost(M, 4, 10, "hypercube3000")

    def test_negative_words(self):
        with pytest.raises(ValidationError):
            coll.allreduce_cost(M, 4, -1)

    def test_non_power_of_two_rounds_up(self):
        c5 = coll.allreduce_cost(M, 5, 10)
        c8 = coll.allreduce_cost(M, 8, 10)
        assert c5.messages == c8.messages == 3


class TestOtherCollectiveCosts:
    def test_bcast(self):
        c = coll.bcast_cost(M, 16, 10)
        assert c.messages == 4
        assert c.time == pytest.approx(4 * (M.alpha + M.beta * 10))

    def test_reduce_equals_bcast(self):
        assert coll.reduce_cost(M, 16, 10) == coll.bcast_cost(M, 16, 10)

    def test_gather(self):
        c = coll.gather_cost(M, 8, 5)
        assert c.messages == 3
        assert c.words == 5 * 7

    def test_all_free_on_one_rank(self):
        for fn in (coll.bcast_cost, coll.reduce_cost, coll.gather_cost):
            assert fn(M, 1, 10).time == 0.0

    def test_scaled(self):
        c = coll.bcast_cost(M, 4, 10).scaled(3.0)
        assert c.messages == 6
