"""Property-based tests for every ``*_cost`` formula in collectives.py.

The cost formulas are the simulator's ground truth — every benchmark and
every figure reads message/word counts derived from them. These tests pin
the structural invariants: non-negativity, monotonicity in P and in the
payload, the ring-vs-recursive-doubling crossover, and the sparse
allreduce never charging more than the dense one (with equality at full
density, where stream-and-switch densifies).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim import collectives as coll
from repro.distsim.collectives import ceil_log2
from repro.distsim.machine import HierarchicalMachine, MachineSpec

machines = st.builds(
    MachineSpec,
    name=st.just("m"),
    alpha=st.floats(1e-8, 1e-3),
    beta=st.floats(1e-12, 1e-8),
    gamma=st.floats(1e-12, 1e-9),
)

hierarchical_machines = st.builds(
    HierarchicalMachine,
    name=st.just("hm"),
    alpha=st.floats(1e-7, 1e-4),
    beta=st.floats(1e-11, 1e-9),
    gamma=st.just(4e-10),
    node_size=st.integers(2, 8),
    alpha_intra=st.floats(1e-9, 1e-7),
    beta_intra=st.floats(1e-13, 1e-11),
)

# Every cost function with a (machine, p, words) signature.
WORD_COSTS = [
    lambda m, p, w: coll.allreduce_cost(m, p, w, "recursive_doubling"),
    lambda m, p, w: coll.allreduce_cost(m, p, w, "binomial_tree"),
    lambda m, p, w: coll.allreduce_cost(m, p, w, "ring"),
    coll.bcast_cost,
    coll.reduce_cost,
    coll.gather_cost,
]


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 128),
    words=st.integers(0, 100_000),
    machine=machines,
    which=st.integers(0, len(WORD_COSTS) - 1),
)
def test_costs_nonnegative_and_monotone_in_words(p, words, machine, which):
    fn = WORD_COSTS[which]
    c1 = fn(machine, p, float(words))
    c2 = fn(machine, p, float(words) + 64.0)
    assert c1.messages >= 0 and c1.words >= 0 and c1.time >= 0
    assert c2.words >= c1.words
    assert c2.time >= c1.time


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 64),
    words=st.integers(1, 10_000),
    machine=machines,
    which=st.integers(0, len(WORD_COSTS) - 1),
)
def test_costs_monotone_in_p(p, words, machine, which):
    fn = WORD_COSTS[which]
    small = fn(machine, p, float(words))
    big = fn(machine, 2 * p, float(words))
    assert big.messages >= small.messages
    assert big.words >= small.words


@settings(max_examples=60, deadline=None)
@given(p_exp=st.integers(2, 7), machine=machines)
def test_ring_beats_recursive_doubling_iff_n_large(p_exp, machine):
    """Ring trades latency for bandwidth: there is a payload threshold n*
    below which recursive doubling wins (fewer rounds of α) and above which
    ring wins (fewer words of β) — for P ≥ 4 where the trade-off exists."""
    p = 2**p_exp
    rounds = ceil_log2(p)
    # ring.time - rd.time = α(2(p-1) - r) - β n (r - 2(p-1)/p)
    lat_gap = machine.alpha * (2 * (p - 1) - rounds)
    bw_slope = machine.beta * (rounds - 2 * (p - 1) / p)
    assert lat_gap > 0 and bw_slope > 0
    n_star = lat_gap / bw_slope
    small, large = n_star / 4.0, n_star * 4.0
    rd_small = coll.allreduce_cost(machine, p, small, "recursive_doubling")
    ring_small = coll.allreduce_cost(machine, p, small, "ring")
    assert rd_small.time <= ring_small.time
    rd_large = coll.allreduce_cost(machine, p, large, "recursive_doubling")
    ring_large = coll.allreduce_cost(machine, p, large, "ring")
    assert ring_large.time <= rd_large.time
    # Ring always moves fewer (or equal) words per rank.
    assert ring_large.words <= rd_large.words


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(1, 128),
    n=st.integers(0, 50_000),
    density_millis=st.integers(0, 1000),
    machine=machines,
    algorithm=st.sampled_from(coll.ALLREDUCE_ALGORITHMS),
)
def test_sparse_allreduce_never_beats_dense_words(p, n, density_millis, machine, algorithm):
    nnz = int(n * density_millis / 1000)
    sparse = coll.sparse_allreduce_cost(machine, p, float(n), float(nnz), algorithm)
    dense = coll.allreduce_cost(machine, p, float(n), algorithm)
    assert sparse.words <= dense.words
    assert sparse.time <= dense.time
    assert sparse.messages == dense.messages  # encoding changes words, not rounds


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(1, 128),
    n=st.integers(0, 50_000),
    machine=machines,
    algorithm=st.sampled_from(coll.ALLREDUCE_ALGORITHMS),
)
def test_sparse_allreduce_equals_dense_at_full_density(p, n, machine, algorithm):
    sparse = coll.sparse_allreduce_cost(machine, p, float(n), float(n), algorithm)
    dense = coll.allreduce_cost(machine, p, float(n), algorithm)
    assert sparse == dense


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(1, 64),
    n=st.integers(64, 50_000),
    nnz=st.integers(0, 60),
    machine=machines,
    algorithm=st.sampled_from(coll.ALLREDUCE_ALGORITHMS),
)
def test_sparse_allreduce_monotone_in_nnz(p, n, nnz, machine, algorithm):
    c1 = coll.sparse_allreduce_cost(machine, p, float(n), float(nnz), algorithm)
    c2 = coll.sparse_allreduce_cost(machine, p, float(n), float(nnz + 2), algorithm)
    assert c2.words >= c1.words
    assert c2.time >= c1.time


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(2, 64),
    n=st.integers(1, 20_000),
    density_millis=st.integers(0, 1000),
    machine=hierarchical_machines,
)
def test_sparse_allreduce_hierarchical_machines(p, n, density_millis, machine):
    """The two-level schedule inherits the sparse ≤ dense guarantee."""
    nnz = int(n * density_millis / 1000)
    sparse = coll.sparse_allreduce_cost(machine, p, float(n), float(nnz))
    dense = coll.allreduce_cost(machine, p, float(n))
    assert sparse.words <= dense.words
    assert sparse.time <= dense.time


def test_sparse_payload_words_switchover():
    """Index+value encoding pays below 50% density, densifies above."""
    assert coll.sparse_payload_words(1000.0, 0.0) == 0.0
    assert coll.sparse_payload_words(1000.0, 100.0) == 200.0
    assert coll.sparse_payload_words(1000.0, 499.0) == 998.0
    assert coll.sparse_payload_words(1000.0, 500.0) == 1000.0  # switch point
    assert coll.sparse_payload_words(1000.0, 1000.0) == 1000.0
    assert coll.SPARSE_SWITCH_DENSITY == pytest.approx(0.5)


def test_sparse_payload_words_validation():
    from repro.exceptions import ValidationError

    with pytest.raises(ValidationError):
        coll.sparse_payload_words(10.0, -1.0)
    with pytest.raises(ValidationError):
        coll.sparse_payload_words(10.0, 11.0)
    with pytest.raises(ValidationError):
        coll.sparse_payload_words(-1.0, 0.0)
