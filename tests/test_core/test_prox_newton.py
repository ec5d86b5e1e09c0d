"""Unit tests for the proximal Newton method (serial = the body at P=1)."""

import numpy as np
import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig


SERIAL = RuntimeConfig(backend="serial")


def serial_pn(problem, **kw):
    """Serial PN: the one body at P=1 on the serial backend."""
    return proximal_newton_distributed(problem, 1, runtime=SERIAL, **kw)


class TestSerialPN:
    def test_exact_hessian_converges_fast(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = serial_pn(
            small_dense_problem, n_outer=6, inner="fista", inner_iters=80,
            stopping=StoppingCriterion(tol=1e-8, fstar=fstar),
        )
        assert res.converged
        assert res.n_iterations <= 6

    def test_fista_inner_converges(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        res = serial_pn(
            small_dense_problem, n_outer=10, inner="fista", inner_iters=200,
            stopping=StoppingCriterion(tol=1e-6, fstar=fstar),
        )
        assert res.converged

    def test_sampled_hessian_still_converges(self, small_dense_problem, small_reference):
        fstar = small_reference.meta["fstar"]
        for k, S in ((1, 1), (4, 2)):  # SFISTA and RC-SFISTA inner solvers
            res = serial_pn(
                small_dense_problem, n_outer=25, inner="rc_sfista", k=k, S=S, inner_iters=40,
                b=0.5, seed=0, stopping=StoppingCriterion(tol=1e-3, fstar=fstar),
            )
            assert res.converged, (k, S)

    def test_damping_slows_but_converges(self, small_dense_problem):
        full = serial_pn(small_dense_problem, n_outer=3, inner="fista", damping=1.0)
        damped = serial_pn(small_dense_problem, n_outer=3, inner="fista", damping=0.5)
        assert damped.final_objective >= full.final_objective - 1e-12

    def test_invalid_inner(self, small_dense_problem):
        with pytest.raises(ValidationError):
            serial_pn(small_dense_problem, inner="newton")

    @pytest.mark.parametrize("b", [0.0, 1.5])
    def test_invalid_b(self, small_dense_problem, b):
        with pytest.raises(ValidationError):
            serial_pn(small_dense_problem, inner="rc_sfista", b=b)


class TestDistributedPN:
    @pytest.mark.parametrize(
        "inner, k",
        [
            pytest.param("fista", 1, id="fista"),
            pytest.param("rc_sfista", 1, id="sfista"),  # SFISTA: k = S = 1
            pytest.param("rc_sfista", 2, id="rc_sfista"),
        ],
    )
    def test_inner_variants_reduce_objective(self, tiny_covtype_problem, inner, k):
        res = proximal_newton_distributed(
            tiny_covtype_problem, 4, inner=inner, n_outer=3, inner_iters=12,
            k=k, b=0.3, seed=0,
        )
        start = tiny_covtype_problem.value(np.zeros(tiny_covtype_problem.d))
        assert res.final_objective < start

    def test_rc_inner_fewer_messages_than_sfista_inner(self, tiny_covtype_problem):
        sf = proximal_newton_distributed(
            tiny_covtype_problem, 8, inner="rc_sfista", k=1, n_outer=2, inner_iters=8, b=0.3
        )
        rc = proximal_newton_distributed(
            tiny_covtype_problem, 8, inner="rc_sfista", k=4, n_outer=2, inner_iters=8, b=0.3
        )
        assert rc.cost["messages_per_rank_max"] < sf.cost["messages_per_rank_max"]

    def test_fista_inner_moves_d_words_per_inner_iter(self, tiny_covtype_problem):
        d = tiny_covtype_problem.d
        n_outer, inner_iters, P = 2, 5, 4
        res = proximal_newton_distributed(
            tiny_covtype_problem, P, inner="fista", n_outer=n_outer, inner_iters=inner_iters
        )
        log_p = 2  # ceil(log2(4))
        expected_words = (n_outer * (inner_iters + 1)) * d * log_p
        assert res.cost["words_per_rank_max"] == pytest.approx(expected_words)

    def test_invalid_inner(self, tiny_covtype_problem):
        with pytest.raises(ValidationError):
            proximal_newton_distributed(tiny_covtype_problem, 2, inner="cg")
        # SFISTA is inner="rc_sfista" at k = S = 1, not a value of its own.
        with pytest.raises(ValidationError, match="fista|rc_sfista"):
            proximal_newton_distributed(tiny_covtype_problem, 2, inner="sfista")

    @pytest.mark.parametrize("damping", [0.0, -1.0, float("nan")])
    def test_invalid_damping(self, tiny_covtype_problem, damping):
        """Zero, negative or NaN damping must fail, not return a bad w."""
        with pytest.raises(ValidationError, match="damping"):
            proximal_newton_distributed(tiny_covtype_problem, 2, damping=damping)

    def test_history_has_sim_times(self, tiny_covtype_problem):
        res = proximal_newton_distributed(
            tiny_covtype_problem, 4, inner="rc_sfista", k=2, n_outer=3, inner_iters=6
        )
        times = res.history.sim_time_array
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) > 0)
