"""Regularization-path utilities.

Practitioners rarely solve a lasso at one λ — they sweep a geometric grid
from ``λ_max`` (where the solution is identically zero) downward, warm-
starting each solve from the previous one. This module provides that sweep
over any of the repository's solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.fista import fista
from repro.core.model import _matvec_x
from repro.core.objectives import L1LeastSquares
from repro.core.results import SolveResult
from repro.core.warmstart import WarmStartLadder
from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range, check_positive

__all__ = ["lasso_path", "lambda_max", "PathResult"]


def lambda_max(problem: L1LeastSquares) -> float:
    """Smallest λ with all-zero solution: ``‖(1/m) X y‖∞``."""
    return float(np.max(np.abs(_matvec_x(problem.X, problem.y)))) / problem.m


@dataclass(frozen=True)
class PathResult:
    """Outcome of a regularization path sweep."""

    lambdas: np.ndarray  # descending grid
    coefficients: np.ndarray  # (n_lambdas, d)
    objectives: np.ndarray  # F(w; λ) at each grid point
    n_nonzero: np.ndarray  # support sizes along the path
    results: list[SolveResult]
    #: Per-λ warm-start iterates: the same ladder the sweep itself used, so
    #: downstream consumers (e.g. the serve cache) can continue warm-starting
    #: off-grid λs without re-running the sweep.
    warm_starts: WarmStartLadder | None = None

    def coefficient_at(self, lam: float) -> np.ndarray:
        """Coefficients at the grid point nearest *lam*."""
        idx = int(np.argmin(np.abs(self.lambdas - lam)))
        return self.coefficients[idx]


def lasso_path(
    problem: L1LeastSquares,
    *,
    n_lambdas: int = 20,
    lambda_min_ratio: float = 1e-3,
    lambdas: np.ndarray | None = None,
    solver: Callable[..., SolveResult] | None = None,
    max_iter: int = 500,
    **solver_kwargs: object,
) -> PathResult:
    """Sweep a geometric λ grid with warm starts.

    Parameters
    ----------
    problem:
        The base problem — its ``lam`` is ignored; the grid governs. Each
        grid point solves ``problem.at_lam(λ)``, which shares the base's
        Gram and Lipschitz caches.
    n_lambdas / lambda_min_ratio:
        Geometric grid from ``λ_max`` down to ``λ_max·ratio`` (ignored when
        an explicit *lambdas* array is given; that array must be positive
        and strictly decreasing).
    solver:
        Solver callable with the ``fista``-style signature
        ``solver(problem, w0=..., **kwargs)``; defaults to FISTA.
    """
    if lambdas is None:
        if n_lambdas < 1:
            raise ValidationError(f"n_lambdas must be >= 1, got {n_lambdas}")
        check_in_range(lambda_min_ratio, "lambda_min_ratio", 0.0, 1.0, low_inclusive=False)
        lam_hi = lambda_max(problem)
        if lam_hi <= 0:
            raise ValidationError("lambda_max is zero — labels are orthogonal to the data")
        grid = lam_hi * np.geomspace(1.0, lambda_min_ratio, n_lambdas)
    else:
        grid = np.asarray(lambdas, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError("lambdas must be a non-empty 1-D array")
        if np.any(grid <= 0):
            raise ValidationError("lambdas must be positive")
        if np.any(np.diff(grid) >= 0):
            raise ValidationError("lambdas must be strictly decreasing")

    solve = solver if solver is not None else fista
    step = problem.default_step()

    ladder = WarmStartLadder(problem.d)
    coefs = np.empty((grid.size, problem.d))
    objs = np.empty(grid.size)
    nnz = np.empty(grid.size, dtype=np.int64)
    results: list[SolveResult] = []
    for i, lam in enumerate(grid):
        check_positive(float(lam), "lambda")
        sub = problem.at_lam(float(lam))
        # On a strictly-decreasing grid this is exactly "previous grid
        # point's solution" (all-zero for the first λ).
        w0, _ = ladder.suggest(float(lam))
        res = solve(sub, w0=w0, step_size=step, max_iter=max_iter, **solver_kwargs)
        w = res.w
        ladder.record(float(lam), w)
        coefs[i] = w
        objs[i] = sub.value(w)
        nnz[i] = int(np.sum(w != 0))
        results.append(res)
    return PathResult(
        lambdas=grid, coefficients=coefs, objectives=objs, n_nonzero=nnz,
        results=results, warm_starts=ladder,
    )
