"""Property-based tests over random problem instances (hypothesis).

Rather than fixing one problem, these draw small random lasso instances
and assert solver invariants that must hold universally.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fista import fista, ista
from repro.core.objectives import L1LeastSquares
from repro.core.proximal import L1Prox
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.reference import solve_reference
from repro.runtime import RuntimeConfig

SERIAL = RuntimeConfig(backend="serial")


@st.composite
def lasso_problems(draw):
    """Small dense lasso instances with controlled conditioning."""
    d = draw(st.integers(2, 8))
    m = draw(st.integers(12, 40))
    seed = draw(st.integers(0, 10_000))
    lam_ratio = draw(st.floats(0.01, 0.5))
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((d, m))
    y = gen.standard_normal(m)
    lam = lam_ratio * float(np.max(np.abs(X @ y))) / m
    return L1LeastSquares(X, y, lam)


@settings(max_examples=25, deadline=None)
@given(lasso_problems())
def test_fista_never_exceeds_start(problem):
    """F(w_N) ≤ F(0) for any instance (descent in the aggregate)."""
    res = fista(problem, max_iter=60, monitor_every=60)
    assert res.final_objective <= problem.value(np.zeros(problem.d)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(lasso_problems())
def test_ista_monotone(problem):
    res = ista(problem, max_iter=40)
    objs = res.history.objective_array
    assert np.all(np.diff(objs) <= 1e-10)


@settings(max_examples=15, deadline=None)
@given(lasso_problems())
def test_reference_satisfies_kkt(problem):
    res = solve_reference(problem, tol=1e-8)
    assert problem.optimality_residual(res.w) <= 1e-6


@settings(max_examples=15, deadline=None)
@given(lasso_problems())
def test_optimum_is_fixed_point(problem):
    """One FISTA step from w* stays at w* (prox-gradient fixed point)."""
    w_star = solve_reference(problem, tol=1e-10).w
    gamma = problem.default_step()
    prox = L1Prox(problem.lam)
    stepped = prox.prox(w_star - gamma * problem.gradient(w_star), gamma)
    np.testing.assert_allclose(stepped, w_star, atol=1e-7)


@settings(max_examples=15, deadline=None)
@given(lasso_problems(), st.integers(2, 10), st.integers(0, 100))
def test_overlap_invariance_random_instances(problem, k, seed):
    """rc_sfista(k, S=1) ≡ sfista (k = 1) for arbitrary instances, k and seeds."""
    a = rc_sfista_distributed(
        problem, 1, k=k, S=1, b=0.5, iters_per_epoch=12, seed=seed, runtime=SERIAL
    )
    b = rc_sfista_distributed(
        problem, 1, k=1, S=1, b=0.5, iters_per_epoch=12, seed=seed, runtime=SERIAL
    )
    np.testing.assert_allclose(a.w, b.w, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(lasso_problems(), st.integers(0, 100))
def test_solution_bounded_by_data(problem, seed):
    """Iterates remain finite and the final w has bounded norm for the
    default (guarded) stochastic step."""
    res = rc_sfista_distributed(
        problem, 1, b=0.3, epochs=2, iters_per_epoch=20, seed=seed, runtime=SERIAL
    )
    assert np.all(np.isfinite(res.w))


@settings(max_examples=15, deadline=None)
@given(lasso_problems())
def test_lambda_above_max_gives_zero(problem):
    lam_max = float(np.max(np.abs(problem.gradient(np.zeros(problem.d)))))
    hard = L1LeastSquares(problem.X, problem.y, lam_max * 1.01)
    res = fista(hard, max_iter=200)
    np.testing.assert_allclose(res.w, 0.0, atol=1e-8)
