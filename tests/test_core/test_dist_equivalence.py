"""Equivalence tests: one solver body, the same iterates at every P.

This is the linchpin of the reproduction methodology (DESIGN.md §4): on the
simulator, processor count changes *costs*, never *iterates*. Every cell of
the speedup sweeps relies on these equivalences. The serial solvers are the
bodies at P=1 on the serial backend (``SERIAL``), so each test compares P=1
with P>1; :class:`TestOracle` checks both against the independent numpy
oracle of ``oracle.py``.
"""

import numpy as np
import pytest

from repro.core.objectives import build_objective
from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.distsim.collectives import ceil_log2
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig
from repro.sparse.ops import packed_size
from tests.test_core.oracle import rc_sfista_oracle

SERIAL = RuntimeConfig(backend="serial")


def sfista(problem, **kw):
    """Serial SFISTA: RC-SFISTA at k = S = 1, P=1 on the serial backend."""
    return rc_sfista_distributed(problem, 1, runtime=SERIAL, **kw)


def rc_sfista(problem, **kw):
    """Serial RC-SFISTA: the one body at P=1 on the serial backend."""
    return rc_sfista_distributed(problem, 1, runtime=SERIAL, **kw)


class TestOracle:
    """The one body against the independent numpy oracle (Eq. 9, Eqs. 20–23)."""

    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("k,S", [(1, 1), (4, 1), (3, 2)])
    def test_rc_sfista_matches_oracle(self, tiny_covtype_problem, nranks, k, S):
        kw = dict(b=0.2, epochs=2, iters_per_epoch=10, seed=8)
        runtime = SERIAL if nranks == 1 else None
        res = rc_sfista_distributed(
            tiny_covtype_problem, nranks, k=k, S=S, runtime=runtime, **kw
        )
        ref = rc_sfista_oracle(tiny_covtype_problem, S=S, **kw)
        np.testing.assert_allclose(res.w, ref, atol=1e-9)

    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_sfista_matches_oracle(self, small_dense_problem, nranks):
        kw = dict(b=0.15, epochs=2, iters_per_epoch=12, seed=5)
        runtime = SERIAL if nranks == 1 else None
        res = rc_sfista_distributed(small_dense_problem, nranks, runtime=runtime, **kw)
        ref = rc_sfista_oracle(small_dense_problem, **kw)
        np.testing.assert_allclose(res.w, ref, atol=1e-9)


class TestSfistaDistEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_matches_serial_any_p(self, tiny_covtype_problem, nranks):
        ser = sfista(tiny_covtype_problem, b=0.2, iters_per_epoch=20, seed=6)
        dist = rc_sfista_distributed(
            tiny_covtype_problem, nranks, b=0.2, iters_per_epoch=20, seed=6
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    @pytest.mark.parametrize("estimator", ["plain", "svrg"])
    def test_both_estimators(self, tiny_covtype_problem, estimator):
        ser = sfista(
            tiny_covtype_problem, b=0.3, iters_per_epoch=15, seed=1, estimator=estimator
        )
        dist = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=15, seed=1, estimator=estimator
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    def test_gradient_mode_matches_hessian_mode(self, tiny_covtype_problem):
        h = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=12, seed=2, comm_mode="hessian"
        )
        g = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, iters_per_epoch=12, seed=2, comm_mode="gradient"
        )
        np.testing.assert_allclose(h.w, g.w, atol=1e-8)

    def test_gradient_mode_moves_fewer_words(self, tiny_covtype_problem):
        d, P, N = tiny_covtype_problem.d, 4, 10
        h = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.3, iters_per_epoch=N, seed=2, comm_mode="hessian"
        )
        g = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.3, iters_per_epoch=N, seed=2, comm_mode="gradient"
        )
        # Per iteration the Hessian mode ships the packed [triu(H) | R]
        # (d(d+1)/2 + d words), the gradient mode d words; both pay the
        # d-word SVRG anchor allreduce of the one epoch.
        h_words = (N * (packed_size(d) + d) + d) * ceil_log2(P)
        g_words = (N * d + d) * ceil_log2(P)
        assert h.cost["words_per_rank_max"] == pytest.approx(h_words)
        assert g.cost["words_per_rank_max"] == pytest.approx(g_words)
        # The closed forms bound the ratio by the per-iteration payloads:
        # g/h < (N + 1)/N · d/(d(d+1)/2 + d).
        ratio = (N + 1) / N * d / (packed_size(d) + d)
        assert g.cost["words_per_rank_max"] < h.cost["words_per_rank_max"] * ratio

    @pytest.mark.parametrize("k,S", [(2, 1), (1, 2), (4, 3)])
    def test_gradient_mode_needs_k1_s1(self, tiny_covtype_problem, k, S):
        """The d-word gradient stage reduces no Hessian to overlap or reuse."""
        with pytest.raises(ValidationError, match="k = S = 1"):
            rc_sfista_distributed(tiny_covtype_problem, 2, k=k, S=S, comm_mode="gradient")

    def test_exact_estimator_rejected(self, tiny_covtype_problem):
        with pytest.raises(ValidationError):
            rc_sfista_distributed(tiny_covtype_problem, 2, estimator="exact")

    def test_multi_epoch(self, tiny_covtype_problem):
        ser = sfista(tiny_covtype_problem, b=0.3, epochs=3, iters_per_epoch=8, seed=0)
        dist = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.3, epochs=3, iters_per_epoch=8, seed=0
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)


class TestRcSfistaDistEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    @pytest.mark.parametrize("k,S", [(1, 1), (4, 1), (3, 2), (5, 4)])
    def test_matches_serial(self, tiny_covtype_problem, nranks, k, S):
        ser = rc_sfista(tiny_covtype_problem, k=k, S=S, b=0.2, iters_per_epoch=16, seed=8)
        dist = rc_sfista_distributed(
            tiny_covtype_problem, nranks, k=k, S=S, b=0.2, iters_per_epoch=16, seed=8
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)

    def test_k_does_not_change_distributed_iterates(self, tiny_covtype_problem):
        a = rc_sfista_distributed(tiny_covtype_problem, 4, k=1, b=0.2, iters_per_epoch=12, seed=3)
        b = rc_sfista_distributed(tiny_covtype_problem, 4, k=6, b=0.2, iters_per_epoch=12, seed=3)
        np.testing.assert_allclose(a.w, b.w, atol=1e-9)

    def test_dense_problem(self, small_dense_problem):
        ser = rc_sfista(small_dense_problem, k=4, S=2, b=0.15, iters_per_epoch=12, seed=5)
        dist = rc_sfista_distributed(
            small_dense_problem, 3, k=4, S=2, b=0.15, iters_per_epoch=12, seed=5
        )
        np.testing.assert_allclose(dist.w, ser.w, atol=1e-9)


class TestPnDistEquivalence:
    """Proximal Newton: the serial PN is the body at P=1 on the serial backend."""

    # SFISTA is the rc_sfista inner solver at k = S = 1.
    INNERS = [
        ("fista", 1, 1),
        pytest.param("rc_sfista", 1, 1, id="sfista-1-1"),
        ("rc_sfista", 3, 2),
    ]

    @pytest.fixture(scope="class", params=["squared", "logistic"])
    def problem(self, request, tiny_covtype_problem):
        if request.param == "squared":
            return tiny_covtype_problem
        p = tiny_covtype_problem
        return build_objective(p.X, p.y, p.lam, loss="logistic")

    @staticmethod
    def run(problem, nranks, inner, k, S, runtime=None):
        return proximal_newton_distributed(
            problem, nranks, inner=inner, k=k, S=S, n_outer=3, inner_iters=7, b=0.3,
            seed=4, runtime=runtime,
        )

    @pytest.mark.parametrize("inner,k,S", INNERS)
    def test_bsp_at_p1_is_bitwise_serial(self, problem, inner, k, S):
        ser = self.run(problem, 1, inner, k, S, runtime=SERIAL)
        bsp = self.run(problem, 1, inner, k, S)
        np.testing.assert_array_equal(bsp.w, ser.w)
        assert bsp.history.objective_array.tolist() == ser.history.objective_array.tolist()

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8])
    @pytest.mark.parametrize("inner,k,S", INNERS)
    def test_matches_serial_any_p(self, problem, nranks, inner, k, S):
        ser = self.run(problem, 1, inner, k, S, runtime=SERIAL)
        dist = self.run(problem, nranks, inner, k, S)
        assert np.count_nonzero(ser.w) > 0
        np.testing.assert_allclose(dist.w, ser.w, rtol=0, atol=1e-12)


class TestCommunicationAccounting:
    def test_latency_ratio_is_k(self, tiny_covtype_problem):
        """Table 1: RC-SFISTA message count = SFISTA's / k (same N)."""
        P, N, k = 8, 24, 4
        base = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        rc = rc_sfista_distributed(
            tiny_covtype_problem, P, k=k, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        assert base.cost["messages_per_rank_max"] == k * rc.cost["messages_per_rank_max"]

    def test_bandwidth_unchanged_by_k(self, tiny_covtype_problem):
        P, N = 8, 24
        base = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        rc = rc_sfista_distributed(
            tiny_covtype_problem, P, k=6, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        assert base.cost["words_per_rank_max"] == pytest.approx(rc.cost["words_per_rank_max"])

    def test_word_count_closed_form(self, tiny_covtype_problem):
        d, P, N = tiny_covtype_problem.d, 4, 10
        res = rc_sfista_distributed(
            tiny_covtype_problem, P, b=0.2, iters_per_epoch=N, seed=0, estimator="plain"
        )
        # The packed [triu(H) | R] block: d(d+1)/2 + d words per iteration.
        expected = N * (packed_size(d) + d) * ceil_log2(P)
        assert res.cost["words_per_rank_max"] == pytest.approx(expected)

    def test_simulated_time_decreases_with_k(self, tiny_covtype_problem):
        times = []
        for k in (1, 2, 8):
            res = rc_sfista_distributed(
                tiny_covtype_problem, 16, k=k, b=0.1, iters_per_epoch=16, seed=0,
                runtime=RuntimeConfig(machine="comet_effective"),
            )
            times.append(res.sim_time)
        assert times[0] > times[1] > times[2]

    def test_ring_allreduce_supported(self, tiny_covtype_problem):
        res = rc_sfista_distributed(
            tiny_covtype_problem, 4, k=2, b=0.2, iters_per_epoch=8, seed=0,
            runtime=RuntimeConfig(allreduce_algorithm="ring"),
        )
        ser = rc_sfista(tiny_covtype_problem, k=2, b=0.2, iters_per_epoch=8, seed=0)
        np.testing.assert_allclose(res.w, ser.w, atol=1e-9)
