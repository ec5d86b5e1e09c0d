"""Cross-validated regularization selection.

K-fold cross-validation over a λ grid, reusing the warm-started path sweep
per fold. Folds partition *samples* (columns of the d × m matrix), so the
splitter composes with the paper's data layout and the sparse formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import _matvec_xt
from repro.core.objectives import L1LeastSquares
from repro.core.path import lambda_max, lasso_path
from repro.exceptions import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_generator

__all__ = ["CVResult", "kfold_indices", "cross_validate_lambda"]


def kfold_indices(m: int, n_folds: int, *, rng: RandomState = 0) -> list[np.ndarray]:
    """Shuffle ``[0, m)`` and split into *n_folds* near-equal folds."""
    if not (2 <= n_folds <= m):
        raise ValidationError(f"n_folds must lie in [2, {m}], got {n_folds}")
    perm = as_generator(rng).permutation(m)
    return [np.sort(fold) for fold in np.array_split(perm, n_folds)]


def _select_samples(X, cols: np.ndarray):
    if isinstance(X, np.ndarray):
        return X[:, cols]
    csc = X.to_csc() if isinstance(X, CSRMatrix) else X
    return csc.select_columns(cols)


@dataclass(frozen=True)
class CVResult:
    """Outcome of :func:`cross_validate_lambda`."""

    lambdas: np.ndarray  # descending grid
    mean_mse: np.ndarray  # held-out MSE per grid point (mean over folds)
    std_mse: np.ndarray  # fold standard deviation
    best_lambda: float  # argmin of mean_mse
    best_lambda_1se: float  # largest λ within one SE of the minimum

    def summary_rows(self) -> list[list[float]]:
        return [
            [float(lam), float(mu), float(sd)]
            for lam, mu, sd in zip(self.lambdas, self.mean_mse, self.std_mse)
        ]


def cross_validate_lambda(
    problem: L1LeastSquares,
    *,
    n_folds: int = 5,
    n_lambdas: int = 20,
    lambda_min_ratio: float = 1e-3,
    max_iter: int = 300,
    rng: RandomState = 0,
) -> CVResult:
    """K-fold CV of the lasso over a geometric λ grid.

    For each fold, a warm-started path is fit on the training samples and
    the held-out mean squared error is recorded at every grid point.
    Returns both the MSE-minimizing λ and the conventional one-standard-
    error choice (the sparsest model statistically indistinguishable from
    the best).
    """
    folds = kfold_indices(problem.m, n_folds, rng=rng)
    lam_hi = lambda_max(problem)
    if lam_hi <= 0:
        raise ValidationError("lambda_max is zero — labels are orthogonal to the data")
    grid = lam_hi * np.geomspace(1.0, lambda_min_ratio, n_lambdas)

    all_idx = np.arange(problem.m)
    errors = np.empty((n_folds, n_lambdas))
    for f, held_out in enumerate(folds):
        train = np.setdiff1d(all_idx, held_out, assume_unique=False)
        X_tr = _select_samples(problem.X, train)
        X_te = _select_samples(problem.X, held_out)
        y_tr, y_te = problem.y[train], problem.y[held_out]
        sub = L1LeastSquares(X_tr, y_tr, problem.lam)
        path = lasso_path(sub, lambdas=grid, max_iter=max_iter)
        for i in range(n_lambdas):
            pred = _matvec_xt(X_te, path.coefficients[i])
            errors[f, i] = float(np.mean((pred - y_te) ** 2))

    mean_mse = errors.mean(axis=0)
    std_mse = errors.std(axis=0, ddof=1) if n_folds > 1 else np.zeros(n_lambdas)
    best = int(np.argmin(mean_mse))
    threshold = mean_mse[best] + std_mse[best] / np.sqrt(n_folds)
    # grid is descending in λ: the first grid point within threshold is the
    # largest (sparsest) acceptable λ.
    within = np.flatnonzero(mean_mse <= threshold)
    one_se = int(within[0]) if within.size else best
    return CVResult(
        lambdas=grid,
        mean_mse=mean_mse,
        std_mse=std_mse,
        best_lambda=float(grid[best]),
        best_lambda_1se=float(grid[one_se]),
    )
