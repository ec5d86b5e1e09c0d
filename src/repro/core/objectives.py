"""The paper's problem.

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
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ERMObjective, Matrix, canonical_penalty_spec, make_loss
from repro.exceptions import ValidationError

__all__ = ["L1LeastSquares", "build_objective", "require_squared_l1"]


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
