"""Property-based tests for the Table 1 cost model (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.machine import MachineSpec
from repro.perf.bounds import k_bound_latency_bandwidth, ks_bound_sparse
from repro.perf.model import rc_sfista_costs, rc_sfista_runtime

machines = st.builds(
    MachineSpec,
    name=st.just("h"),
    alpha=st.floats(1e-8, 1e-3),
    beta=st.floats(1e-12, 1e-8),
    gamma=st.floats(1e-12, 1e-9),
)

# Workload shapes: N divisible by k by construction.
workloads = st.tuples(
    st.integers(1, 6),  # rounds
    st.integers(1, 8),  # k
    st.integers(1, 200),  # d
    st.integers(1, 500),  # mbar
    st.floats(0.01, 1.0),  # f
    st.integers(1, 512),  # P
    st.integers(1, 8),  # S
)


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_latency_divided_by_k_exactly(w):
    rounds, k, d, mbar, f, P, S = w
    N = rounds * k
    base = rc_sfista_costs(N, d, mbar, f, P, 1, 1)
    rc = rc_sfista_costs(N, d, mbar, f, P, k, S)
    assert base.latency == pytest.approx(k * rc.latency)


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_bandwidth_invariant_in_k(w):
    rounds, k, d, mbar, f, P, S = w
    N = rounds * k
    base = rc_sfista_costs(N, d, mbar, f, P, 1, 1)
    rc = rc_sfista_costs(N, d, mbar, f, P, k, S)
    assert base.bandwidth == pytest.approx(rc.bandwidth)


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_flops_nondecreasing_in_s(w):
    rounds, k, d, mbar, f, P, S = w
    N = rounds * k
    lo = rc_sfista_costs(N, d, mbar, f, P, k, S)
    hi = rc_sfista_costs(N, d, mbar, f, P, k, S + 1)
    assert hi.flops >= lo.flops


@settings(max_examples=60, deadline=None)
@given(workloads, machines)
def test_eq24_runtime_nonincreasing_in_k(w, machine):
    rounds, k, d, mbar, f, P, S = w
    N = rounds * k
    t_k = rc_sfista_runtime(machine, N, d, mbar, f, P, k, S)
    t_1 = rc_sfista_runtime(machine, N, d, mbar, f, P, 1, S)
    # Eq. (24): k appears only in the latency term, so more overlap never hurts.
    assert t_k <= t_1 + 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4000), machines)
def test_eq25_bound_decreasing_in_d(d, machine):
    if machine.beta == 0:
        return
    assert k_bound_latency_bandwidth(machine, d) >= k_bound_latency_bandwidth(
        machine, d + 1
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 2000), st.integers(1, 512), machines)
def test_eq27_scales_linearly_in_n(N, d, P, machine):
    if machine.gamma == 0:
        return
    one = ks_bound_sparse(machine, N, d, P)
    two = ks_bound_sparse(machine, 2 * N, d, P)
    assert two == pytest.approx(2 * one)


@settings(max_examples=40, deadline=None)
@given(workloads, machines)
def test_costs_time_consistent_with_components(w, machine):
    rounds, k, d, mbar, f, P, S = w
    N = rounds * k
    costs = rc_sfista_costs(N, d, mbar, f, P, k, S)
    t = costs.time(machine)
    assert t == pytest.approx(
        machine.gamma * costs.flops
        + machine.alpha * costs.latency
        + machine.beta * costs.bandwidth
    )
