"""The paper's problem and the PN subproblem model.

The paper's problem (Eq. 3), in its data layout (``X`` is features ×
samples, one *column* per data point), is the (squared, l1) instance of
the ERM objective of Eq. 1:

.. math::

    F(w) = \\underbrace{\\frac{1}{2m}\\|X^T w - y\\|^2}_{f(w)}
           + \\underbrace{λ\\|w\\|_1}_{g(w)},
    \\qquad
    \\nabla f(w) = \\frac{1}{m}(X X^T w - X y) = Hw - R,

with Hessian ``H = (1/m) X Xᵀ`` and ``R = (1/m) X y`` (Eqs. 4–5).
:class:`L1LeastSquares` names that instance; all of its numerics are
:class:`~repro.core.model.ERMObjective`'s.

:class:`QuadraticModel` is the PN subproblem smooth part (Eq. 19):
``Φ(u) = ½ uᵀHu − Rᵀu (+ const)`` whose gradient has the *same form*
``Hu − R`` — the observation §3.3 uses to run RC-SFISTA as a PN inner
solver unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ERMObjective, Matrix, canonical_penalty_spec, make_loss
from repro.exceptions import ShapeError, ValidationError

__all__ = ["L1LeastSquares", "QuadraticModel", "build_objective", "require_squared_l1"]


class L1LeastSquares(ERMObjective):
    """The l1-regularized least squares problem: ``ERMObjective(squared, l1)``.

    Parameters
    ----------
    X:
        Data matrix of shape ``(d, m)`` — features × samples (paper
        layout). Dense ndarray, :class:`CSRMatrix` or :class:`CSCMatrix`.
    y:
        Labels, shape ``(m,)``.
    lam:
        l1 penalty ``λ >= 0``.
    """

    def __init__(self, X: Matrix, y: np.ndarray, lam: float) -> None:
        super().__init__(X, y, loss="squared", penalty="l1", lam=lam)

    # Bound in the class body, not inherited, so per-class tooling (the
    # out-of-band tracer's ``core.monitor`` span) can find and wrap the
    # objective evaluation of the paper's problem alone.
    value = ERMObjective.value


def build_objective(
    X: Matrix, y: np.ndarray, lam: float, *, loss: str = "squared", penalty: str = "l1"
) -> ERMObjective:
    """The objective a (loss, penalty) spec names over regression data.

    The (squared, l1) pair, in any spelling of its spec, is the paper's
    :class:`L1LeastSquares` itself; any other pair is an
    :class:`ERMObjective` over the same ``X``. Classification losses see
    the targets relabelled by sign (ties go to +1), so one dataset or
    synthetic spec serves every loss.
    """
    smooth = make_loss(loss)
    if smooth.classification:
        y = np.where(np.asarray(y) >= 0, 1.0, -1.0)
    if smooth.name == "squared" and canonical_penalty_spec(penalty) == "l1":
        return L1LeastSquares(X, y, lam)
    return ERMObjective(X, y, loss=smooth, penalty=penalty, lam=lam)


def require_squared_l1(problem: ERMObjective, solver: str) -> None:
    """Entry check of the solvers written for the paper's problem only."""
    pair = (problem.loss.name, problem.penalty.spec)
    if pair != ("squared", "l1"):
        raise ValidationError(
            f"{solver} solves only the (squared, l1) objective, got "
            f"({pair[0]}, {pair[1]}); use an objective-generic solver"
        )


class QuadraticModel:
    """The PN subproblem smooth part: ``Φ(u) = ½uᵀHu − Rᵀu + c`` (Eq. 19).

    ``∇Φ(u) = Hu − R`` — identical in form to the full problem's gradient,
    so any solver written against ``gradient()`` works on both.
    """

    def __init__(self, H: np.ndarray, R: np.ndarray, constant: float = 0.0) -> None:
        H = np.asarray(H, dtype=np.float64)
        R = np.asarray(R, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ShapeError(f"H must be square, got shape {H.shape}")
        if R.shape != (H.shape[0],):
            raise ShapeError(f"R must have shape ({H.shape[0]},), got {R.shape}")
        self.H = H
        self.R = R
        self.constant = float(constant)
        self.d = H.shape[0]

    @staticmethod
    def from_linearization(H: np.ndarray, grad: np.ndarray, w: np.ndarray) -> "QuadraticModel":
        """Model of Eq. (19) around ``w``: ``½(u−w)ᵀH(u−w) + ∇f(w)ᵀ(u−w)``.

        Expanding gives ``Φ(u) = ½uᵀHu − (Hw − ∇f(w))ᵀu + const``, i.e.
        ``R = Hw − ∇f(w)`` — the substitution §3.3 relies on.
        """
        H = np.asarray(H, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        R = H @ w - grad
        const = 0.5 * float(w @ (H @ w)) - float(grad @ w)
        return QuadraticModel(H, R, constant=const)

    def value(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=np.float64)
        return 0.5 * float(u @ (self.H @ u)) - float(self.R @ u) + self.constant

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.H @ np.asarray(u, dtype=np.float64) - self.R

    def lipschitz(self) -> float:
        """Largest eigenvalue of ``H`` (dense, exact)."""
        return float(np.linalg.eigvalsh(self.H)[-1])
