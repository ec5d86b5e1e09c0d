"""Sparse collectives: numerics, bit-identity, accounting, and comm modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsim import collectives as coll
from repro.distsim.bsp import BSPCluster
from repro.distsim.sparse_collectives import (
    COMM_MODES,
    SparseVector,
    resolve_comm_mode,
    sparse_allreduce_values,
    support_union_size,
)
from repro.distsim.trace import Trace
from repro.exceptions import CommunicatorError, ValidationError


def _random_sparse(rng: np.random.Generator, n: int, nnz: int) -> np.ndarray:
    x = np.zeros(n)
    if nnz:
        idx = rng.choice(n, size=nnz, replace=False)
        x[idx] = rng.standard_normal(nnz)
    return x


# ---------------------------------------------------------------------- #
# SparseVector
# ---------------------------------------------------------------------- #
class TestSparseVector:
    def test_roundtrip(self, rng):
        x = _random_sparse(rng, 50, 7)
        sv = SparseVector.from_dense(x)
        assert sv.nnz == 7
        assert sv.density == pytest.approx(7 / 50)
        np.testing.assert_array_equal(sv.to_dense(), x)

    def test_empty_support(self):
        sv = SparseVector.from_dense(np.zeros(10))
        assert sv.nnz == 0
        np.testing.assert_array_equal(sv.to_dense(), np.zeros(10))

    def test_validation(self):
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([0, 7]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([2, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([1, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector(n=5, indices=np.array([0]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            SparseVector.from_dense(np.zeros((3, 3)))

    def test_explicit_zeros_kept(self):
        sv = SparseVector(n=4, indices=np.array([1, 3]), values=np.array([0.0, 2.0]))
        assert sv.nnz == 2  # explicit zero occupies wire words, like MPI


# ---------------------------------------------------------------------- #
# algorithm invariance (ISSUE satellite): dense and sparse allreduce are
# bit-identical across all algorithms and rank counts
# ---------------------------------------------------------------------- #
class TestAlgorithmInvariance:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    @pytest.mark.parametrize("algorithm", coll.ALLREDUCE_ALGORITHMS)
    def test_bit_identical_across_algorithms_and_modes(self, nranks, algorithm):
        rng = np.random.default_rng(1000 + nranks)
        vals = [_random_sparse(rng, 64, rng.integers(0, 12)) for _ in range(nranks)]
        if nranks > 1:
            vals[1] = np.zeros(64)  # one empty-support contribution
        reference = coll.allreduce_values(vals)

        dense_cluster = BSPCluster(nranks, "comet_paper", allreduce_algorithm=algorithm)
        dense = dense_cluster.allreduce([v.copy() for v in vals])
        assert dense.tobytes() == reference.tobytes()

        sparse_cluster = BSPCluster(nranks, "comet_paper", allreduce_algorithm=algorithm)
        sparse = sparse_cluster.allreduce_comm(
            [SparseVector.from_dense(v) for v in vals], mode="sparse"
        )
        assert sparse.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    def test_all_empty_supports(self, nranks):
        vals = [np.zeros(32) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_paper")
        out = cluster.allreduce_comm(vals, mode="sparse")
        np.testing.assert_array_equal(out, np.zeros(32))
        if nranks > 1:
            # An all-zero payload costs only the latency rounds.
            assert cluster.counters[0].words == 0.0
            assert cluster.counters[0].messages > 0

    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    def test_ops_match_dense(self, op, rng):
        vals = [_random_sparse(rng, 40, 6) for _ in range(5)]
        reference = coll.allreduce_values(vals, op)
        got = sparse_allreduce_values([SparseVector.from_dense(v) for v in vals], op)
        assert got.to_dense().tobytes() == reference.tobytes()


# ---------------------------------------------------------------------- #
# numerics-level errors
# ---------------------------------------------------------------------- #
class TestSparseNumerics:
    def test_zero_ranks_rejected(self):
        with pytest.raises(CommunicatorError):
            sparse_allreduce_values([])

    def test_length_mismatch_rejected(self):
        a = SparseVector.from_dense(np.ones(4))
        b = SparseVector.from_dense(np.ones(5))
        with pytest.raises(CommunicatorError, match="length mismatch"):
            sparse_allreduce_values([a, b])

    def test_union_support_kept_on_cancellation(self):
        a = SparseVector(n=6, indices=np.array([2]), values=np.array([1.5]))
        b = SparseVector(n=6, indices=np.array([2]), values=np.array([-1.5]))
        out = sparse_allreduce_values([a, b])
        assert out.nnz == 1  # cancelled entry still occupies the wire
        assert out.to_dense()[2] == 0.0

    def test_support_union_size(self):
        vs = [
            SparseVector(n=10, indices=np.array([0, 3]), values=np.ones(2)),
            SparseVector(n=10, indices=np.array([3, 7]), values=np.ones(2)),
        ]
        assert support_union_size(vs) == 3


# ---------------------------------------------------------------------- #
# BSP accounting + comm-mode dispatch
# ---------------------------------------------------------------------- #
class TestBSPAccounting:
    def test_sparse_words_and_savings_counted(self, rng):
        n, nranks = 200, 4
        vals = [_random_sparse(rng, n, 5) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        cluster.allreduce_comm(vals, mode="sparse")
        c = cluster.counters[0]
        dense = coll.allreduce_cost(cluster.machine, nranks, float(n))
        assert c.sparse_words == c.words
        assert c.saved_words == dense.words - c.words
        assert c.words < dense.words
        event = cluster.trace.events[0]
        assert event.detail.startswith("sparse nnz=")

    def test_charge_sparse_allreduce_matches_real(self, rng):
        n, nranks = 300, 4
        vals = [_random_sparse(rng, n, 8) for _ in range(nranks)]
        real = BSPCluster(nranks, "comet_effective")
        reduced = real.allreduce_comm(vals, mode="sparse")
        nnz_union = int(np.count_nonzero(np.sum([v != 0 for v in vals], axis=0)))
        dry = BSPCluster(nranks, "comet_effective")
        dry.charge_allreduce_comm(n, nnz_union, mode="sparse")
        assert dry.counters[0].words == real.counters[0].words
        assert dry.counters[0].clock == real.counters[0].clock
        assert reduced.shape == (n,)

    def test_allreduce_comm_auto_densifies_at_high_fill(self, rng):
        nranks = 4
        dense_vals = [rng.standard_normal(50) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        out = cluster.allreduce_comm(dense_vals, mode="auto")
        np.testing.assert_array_equal(out, coll.allreduce_values(dense_vals))
        event = cluster.trace.events[0]
        assert event.detail.startswith("auto->dense")
        dense_cost = coll.allreduce_cost(cluster.machine, nranks, 50.0)
        assert cluster.counters[0].words == dense_cost.words
        assert cluster.counters[0].saved_words == 0.0

    def test_allreduce_comm_auto_picks_sparse_at_low_fill(self, rng):
        nranks = 4
        vals = [_random_sparse(rng, 400, 4) for _ in range(nranks)]
        cluster = BSPCluster(nranks, "comet_effective", trace=Trace())
        cluster.allreduce_comm(vals, mode="auto")
        assert cluster.trace.events[0].detail.startswith("sparse nnz=")
        assert cluster.counters[0].saved_words > 0

    def test_allreduce_comm_rejects_unknown_mode(self):
        cluster = BSPCluster(2, "comet_paper")
        with pytest.raises(ValidationError, match="comm mode"):
            cluster.allreduce_comm([np.ones(3), np.ones(3)], mode="zstd")

    def test_sparse_allreduce_shape_mismatch(self):
        cluster = BSPCluster(2, "comet_paper")
        with pytest.raises(CommunicatorError, match="length mismatch"):
            cluster.allreduce_comm([np.ones(3), np.ones(4)], mode="sparse")


class TestResolveCommMode:
    def test_modes(self):
        assert resolve_comm_mode("dense", union_density=0.0) == "dense"
        assert resolve_comm_mode("sparse", union_density=1.0) == "sparse"
        assert resolve_comm_mode("auto", union_density=0.1) == "sparse"
        assert resolve_comm_mode("auto", union_density=0.9) == "dense"
        assert (
            resolve_comm_mode("auto", union_density=coll.SPARSE_SWITCH_DENSITY) == "dense"
        )
        with pytest.raises(ValidationError):
            resolve_comm_mode("bogus", union_density=0.1)
        assert COMM_MODES == ("dense", "sparse", "auto")
