"""Coordinate descent for lasso-type problems.

Two variants:

* :func:`coordinate_descent_lasso` — cyclic/random CD directly on
  ``F(w) = (1/2m)‖Xᵀw − y‖² + λ‖w‖₁`` with exact single-coordinate
  minimization and incremental residual maintenance. The paper cites CD
  [33] as the classical PN inner solver; it also serves as an independent
  cross-check of the reference optimum.
* :func:`coordinate_descent_quadratic` — CD on the PN subproblem
  ``½uᵀHu − Rᵀu + λ‖u‖₁`` with an incrementally-maintained ``Hu``
  product. This is the exact local solver ProxCoCoA uses on its
  per-partition quadratic subproblems.
"""

from __future__ import annotations

import numpy as np

from repro.core.objectives import L1LeastSquares, require_squared_l1
from repro.core.proximal import soft_threshold
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.utils.rng import RandomState, as_generator

__all__ = ["coordinate_descent_lasso", "coordinate_descent_quadratic"]


def _feature_rows(X: np.ndarray | CSRMatrix | CSCMatrix) -> CSRMatrix | np.ndarray:
    """Row-major view of X so feature rows are cheap to slice."""
    if isinstance(X, np.ndarray):
        return X
    if isinstance(X, CSCMatrix):
        return X.to_csr()
    return X


def _row(Xrows: np.ndarray | CSRMatrix, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(sample indices, values) of feature row *j*."""
    if isinstance(Xrows, np.ndarray):
        vals = Xrows[j]
        idx = np.flatnonzero(vals)
        return idx, vals[idx]
    lo, hi = Xrows.indptr[j], Xrows.indptr[j + 1]
    return Xrows.indices[lo:hi], Xrows.data[lo:hi]


def coordinate_descent_lasso(
    problem: L1LeastSquares,
    *,
    max_epochs: int = 100,
    stopping: StoppingCriterion | None = None,
    w0: np.ndarray | None = None,
    shuffle: bool = False,
    seed: RandomState = 0,
    monitor_every: int = 1,
) -> SolveResult:
    """Exact coordinate descent on the l1-regularized least squares problem.

    One epoch sweeps all ``d`` coordinates (cyclically, or in a fresh
    random permutation per epoch when ``shuffle=True``). ``monitor_every``
    is in epochs.
    """
    require_squared_l1(problem, "coordinate_descent_lasso")
    if max_epochs < 1:
        raise ValidationError(f"max_epochs must be >= 1, got {max_epochs}")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    rng = as_generator(seed)
    d, m, lam = problem.d, problem.m, problem.lam

    Xrows = _feature_rows(problem.X)
    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (d,):
        raise ValidationError(f"w0 must have shape ({d},), got {w.shape}")

    # Per-coordinate curvature c_j = (1/m)‖x_row_j‖²; zero rows are skipped
    # (their optimal coefficient is 0 under any λ > 0 and undefined under
    # λ = 0 — we leave them at their initial value).
    curv = np.empty(d)
    for j in range(d):
        _, vals = _row(Xrows, j)
        curv[j] = float(vals @ vals) / m

    r = problem.predictions(w) - problem.y  # r = Xᵀw − y, maintained incrementally
    history = History()
    prev_obj: float | None = None
    converged = False
    epochs_done = 0

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(d) if shuffle else np.arange(d)
        for j in order:
            c = curv[j]
            if c == 0.0:
                continue
            idx, vals = _row(Xrows, j)
            grad_j = float(vals @ r[idx]) / m
            z = c * w[j] - grad_j
            w_new = soft_threshold(np.array([z]), lam)[0] / c
            delta = w_new - w[j]
            if delta != 0.0:
                r[idx] += vals * delta
                w[j] = w_new
        epochs_done = epoch
        if epoch % monitor_every == 0 or epoch == max_epochs:
            obj = 0.5 * float(r @ r) / m + lam * float(np.sum(np.abs(w)))
            history.append(epoch, obj, stopping.rel_error(obj))
            if stopping.satisfied(obj, prev_obj):
                converged = True
                break
            prev_obj = obj

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=epochs_done,
        history=history,
        meta={"solver": "cd_lasso", "shuffle": shuffle},
    )


def coordinate_descent_quadratic(
    H: np.ndarray,
    R: np.ndarray,
    lam: float,
    *,
    u0: np.ndarray | None = None,
    max_epochs: int = 50,
    tol: float = 0.0,
    shuffle: bool = False,
    seed: RandomState = 0,
) -> np.ndarray:
    """CD on ``½uᵀHu − Rᵀu + λ‖u‖₁`` with incremental ``Hu`` maintenance.

    Coordinate update: ``u_j ← S_λ(R_j − (Hu)_j + H_jj u_j) / H_jj``.
    Stops early when the largest coordinate move in an epoch is ≤ *tol*.
    Returns the final iterate (no monitoring — this is an inner kernel).
    """
    H = np.asarray(H, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    d = H.shape[0]
    if H.shape != (d, d) or R.shape != (d,):
        raise ValidationError(f"inconsistent shapes H{H.shape}, R{R.shape}")
    if max_epochs < 1:
        raise ValidationError(f"max_epochs must be >= 1, got {max_epochs}")
    if lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    rng = as_generator(seed)

    u = np.zeros(d) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    hu = H @ u
    diag = np.diag(H)
    for _epoch in range(max_epochs):
        order = rng.permutation(d) if shuffle else np.arange(d)
        max_move = 0.0
        for j in order:
            c = diag[j]
            if c == 0.0:
                continue
            z = R[j] - hu[j] + c * u[j]
            u_new = soft_threshold(np.array([z]), lam)[0] / c
            delta = u_new - u[j]
            if delta != 0.0:
                hu += H[:, j] * delta
                u[j] = u_new
                max_move = max(max_move, abs(delta))
        if max_move <= tol:
            break
    return u
