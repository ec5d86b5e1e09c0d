"""Unit tests for the Table 1 cost model."""

import pytest

from repro.distsim.machine import get_machine
from repro.exceptions import ValidationError
from repro.perf.model import (
    AlgorithmCosts,
    hessian_flops_per_iteration,
    predicted_speedup,
    rc_sfista_costs,
    rc_sfista_runtime,
    update_flops_per_step,
)
from repro.sparse.ops import packed_size


class TestAlgorithmCosts:
    def test_time_combines_terms(self):
        c = AlgorithmCosts(latency=10, flops=1e6, bandwidth=1e4)
        m = get_machine("comet_paper")
        assert c.time(m) == pytest.approx(
            m.gamma * 1e6 + m.alpha * 10 + m.beta * 1e4
        )


class TestTable1Forms:
    def test_latency_ratio_is_k(self):
        base = rc_sfista_costs(64, 20, 50, 0.5, 8, 1, 1)
        rc = rc_sfista_costs(64, 20, 50, 0.5, 8, k=4, S=1)
        assert base.latency / rc.latency == 4

    def test_bandwidth_unchanged_by_k(self):
        base = rc_sfista_costs(64, 20, 50, 0.5, 8, 1, 1)
        rc = rc_sfista_costs(64, 20, 50, 0.5, 8, k=8, S=1)
        assert base.bandwidth == rc.bandwidth

    def test_flops_grow_linearly_with_S(self):
        r1 = rc_sfista_costs(64, 20, 50, 0.5, 8, k=4, S=1)
        r3 = rc_sfista_costs(64, 20, 50, 0.5, 8, k=4, S=3)
        extra = r3.flops - r1.flops
        assert extra == pytest.approx(64 * 2 * update_flops_per_step(20))

    def test_s1_k1_equals_sfista(self):
        """k = S = 1 is Table 1's SFISTA row: one packed [triu(H) | R]
        allreduce and one update per iteration."""
        N, d, mbar, f, P = 32, 10, 20, 1.0, 4
        log_p = 2  # ceil(log2(4))
        assert rc_sfista_costs(N, d, mbar, f, P, 1, 1) == AlgorithmCosts(
            latency=N * log_p,
            flops=N * (hessian_flops_per_iteration(d, mbar, f, P) + update_flops_per_step(d)),
            bandwidth=N * (packed_size(d) + d) * log_p,
        )

    def test_requires_divisibility(self):
        with pytest.raises(ValidationError):
            rc_sfista_costs(10, 5, 5, 1.0, 2, k=3, S=1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            rc_sfista_costs(0, 5, 5, 1.0, 2, 1, 1)

    def test_single_rank_no_communication(self):
        c = rc_sfista_costs(10, 5, 5, 1.0, 1, 1, 1)
        assert c.latency == 0
        assert c.bandwidth == 0


class TestEq24Runtime:
    def test_k_reduces_runtime(self):
        t1 = rc_sfista_runtime("comet_paper", 200, 54, 100, 0.22, 64, k=1, S=1)
        t4 = rc_sfista_runtime("comet_paper", 200, 54, 100, 0.22, 64, k=4, S=1)
        assert t4 < t1

    def test_sfista_runtime_is_k1_s1(self):
        """Eq. (24) at k = S = 1 is SFISTA's runtime, the speedup baseline."""
        m = get_machine("comet_paper")
        N, d, mbar, f, P = 100, 10, 20, 0.5, 16
        t = rc_sfista_runtime(m, N, d, mbar, f, P, 1, 1)
        assert t == pytest.approx(
            m.gamma * (N * d * d * mbar * f / P + d * d)
            + m.alpha * N * 4
            + m.beta * N * d * d * 4
        )
        assert predicted_speedup(m, N, d, mbar, f, P, k=1, S=1) == 1.0

    def test_s_increases_flop_term(self):
        t1 = rc_sfista_runtime("comet_paper", 100, 100, 10, 1.0, 4, 1, 1)
        t9 = rc_sfista_runtime("comet_paper", 100, 100, 10, 1.0, 4, 1, 9)
        assert t9 > t1

    def test_p1_no_comm_terms(self):
        m = get_machine("comet_paper")
        t = rc_sfista_runtime(m, 10, 5, 5, 1.0, 1, 1, 1)
        assert t == pytest.approx(m.gamma * (10 * 25 * 5 * 1.0 / 1 + 25))


class TestPredictedSpeedup:
    def test_k_speedup_in_latency_regime(self):
        # Small d, large alpha/beta ratio: latency dominates.
        m = get_machine("comet_effective")
        s = predicted_speedup(m, 200, 8, 10, 1.0, 256, k=8)
        assert s > 2.0

    def test_speedup_bounded_by_k(self):
        m = get_machine("comet_effective")
        s = predicted_speedup(m, 200, 8, 10, 1.0, 256, k=8)
        assert s <= 8.0 + 1e-9

    def test_n_rc_override(self):
        m = get_machine("comet_effective")
        faster = predicted_speedup(m, 200, 8, 10, 1.0, 64, k=1, S=1, N_rc=100)
        assert faster == pytest.approx(2.0, rel=0.01)
