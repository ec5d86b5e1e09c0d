"""l1-regularized logistic regression — the general ERM instance of Eq. (1).

The paper frames its problem class as empirical risk minimization
"including logistic regression and regularized least squares" (§2.1). The
headline algorithms specialize to least squares (the sampled Hessian of
Eq. 18 is data-only there), but the proximal Newton machinery (Alg. 1) is
generic: it needs ``F``, ``∇f`` and a Hessian *at the current iterate*.
This module provides that instance:

.. math::

    f(w) = \\frac{1}{m} \\sum_i \\log(1 + e^{-y_i x_i^T w}),
    \\qquad g(w) = λ\\|w\\|_1, \\qquad y_i ∈ \\{-1, +1\\},

with ``∇f(w) = -(1/m) X (y ⊙ σ(-y ⊙ Xᵀw))`` and
``∇²f(w) = (1/m) X D(w) Xᵀ``, ``D_ii = σ_i (1 - σ_i)``. It is the
``ERMObjective(loss="logistic", penalty="l1")`` instance under a name.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ERMObjective, Matrix

__all__ = ["L1Logistic"]


class L1Logistic(ERMObjective):
    """l1-regularized logistic regression in the paper's data layout.

    Parameters
    ----------
    X:
        ``(d, m)`` data matrix, one column per sample.
    y:
        Labels in ``{-1, +1}``, shape ``(m,)``.
    lam:
        l1 penalty.
    """

    def __init__(self, X: Matrix, y: np.ndarray, lam: float) -> None:
        super().__init__(X, y, loss="logistic", penalty="l1", lam=lam)
