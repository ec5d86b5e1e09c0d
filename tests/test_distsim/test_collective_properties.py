"""Property-based tests for collectives and cost model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim import collectives as coll
from repro.distsim.bsp import BSPCluster
from repro.distsim.machine import MachineSpec

machines = st.builds(
    MachineSpec,
    name=st.just("h"),
    alpha=st.floats(1e-8, 1e-3),
    beta=st.floats(1e-12, 1e-8),
    gamma=st.floats(1e-12, 1e-9),
)


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(1, 64),
    words=st.integers(0, 10000),
    machine=machines,
    algorithm=st.sampled_from(coll.ALLREDUCE_ALGORITHMS),
)
def test_allreduce_cost_nonnegative_and_monotone_in_words(p, words, machine, algorithm):
    c1 = coll.allreduce_cost(machine, p, words, algorithm)
    c2 = coll.allreduce_cost(machine, p, words + 100, algorithm)
    assert c1.time >= 0 and c1.words >= 0 and c1.messages >= 0
    assert c2.time >= c1.time
    assert c2.words >= c1.words


@settings(max_examples=50, deadline=None)
@given(p=st.integers(2, 128), machine=machines)
def test_latency_grows_with_log_p(p, machine):
    small = coll.allreduce_cost(machine, p, 10)
    big = coll.allreduce_cost(machine, 2 * p, 10)
    assert big.messages >= small.messages


@settings(max_examples=40, deadline=None)
@given(
    nranks=st.integers(1, 12),
    n=st.integers(1, 16),
    seed=st.integers(0, 1000),
)
def test_bsp_allreduce_matches_numpy_sum(nranks, n, seed):
    gen = np.random.default_rng(seed)
    vals = [gen.standard_normal(n) for _ in range(nranks)]
    cluster = BSPCluster(nranks, "comet_paper")
    out = cluster.allreduce(vals)
    np.testing.assert_allclose(out, np.sum(vals, axis=0), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    nranks=st.integers(1, 10),
    flops=st.lists(st.floats(0, 1e6), min_size=1, max_size=10),
)
def test_bsp_clock_is_critical_path(nranks, flops):
    cluster = BSPCluster(nranks, "comet_paper")
    total = np.zeros(nranks)
    for f in flops:
        per_rank = np.full(nranks, f)
        per_rank[0] = 0.0  # rank 0 always idle in compute
        cluster.compute(per_rank)
        total += per_rank
    expected = cluster.machine.compute_time(total.max())
    assert cluster.elapsed == np.max(
        [cluster.machine.compute_time(t) for t in total]
    ) or abs(cluster.elapsed - expected) < 1e-12


@settings(max_examples=30, deadline=None)
@given(p=st.integers(2, 64), words=st.integers(1, 4096), machine=machines)
def test_ring_total_words_independent_of_p_asymptotically(p, words, machine):
    """Ring allreduce moves ≤ 2·words per rank regardless of P."""
    c = coll.allreduce_cost(machine, p, words, "ring")
    assert c.words <= 2 * words + 1e-9
