"""Proximal operators (paper Eq. 6).

The proximal mapping of a convex function ``g`` with step ``γ`` is

.. math::

    \\mathrm{Prox}_γ(w) = \\operatorname*{argmin}_x
        \\tfrac{1}{2γ} \\|x - w\\|^2 + g(x).

For the l1-regularized least squares problem the paper targets,
``g(w) = λ‖w‖₁`` and the prox is the soft-thresholding operator
``S_{λγ}(β) = sign(β)·max(|β| − λγ, 0)`` (Eq. 14). The elastic-net and
group-l1 operators serve the other penalties of the general composite
problem of Eq. (1) (see :func:`repro.core.model.make_penalty`).

Every operator satisfies (and the property tests verify):

* non-expansiveness: ``‖prox(a) − prox(b)‖ ≤ ‖a − b‖``,
* the Moreau optimality condition for its ``g``,
* ``prox`` with ``γ = 0`` is the identity (for finite ``g``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive

__all__ = [
    "soft_threshold",
    "ProximalOperator",
    "L1Prox",
    "ElasticNetProx",
    "GroupL1Prox",
]


def soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise soft-thresholding ``S_t(w) = sign(w)·max(|w| − t, 0)``."""
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)


class ProximalOperator(ABC):
    """A convex regularizer ``g`` with evaluable prox mapping."""

    @abstractmethod
    def value(self, w: np.ndarray) -> float:
        """Evaluate ``g(w)``."""

    @abstractmethod
    def prox(self, w: np.ndarray, gamma: float) -> np.ndarray:
        """Evaluate ``Prox_γ(w)`` for step ``γ >= 0``."""

    def _check_gamma(self, gamma: float) -> float:
        g = float(gamma)
        if not (np.isfinite(g) and g >= 0):
            raise ValidationError(f"prox step must be finite and >= 0, got {gamma}")
        return g


class L1Prox(ProximalOperator):
    """``g(w) = λ‖w‖₁`` — the paper's regularizer; prox is soft-thresholding."""

    def __init__(self, lam: float) -> None:
        self.lam = check_positive(lam, "lambda", strict=False)

    def value(self, w: np.ndarray) -> float:
        return self.lam * float(np.sum(np.abs(w)))

    def prox(self, w: np.ndarray, gamma: float) -> np.ndarray:
        gamma = self._check_gamma(gamma)
        return soft_threshold(np.asarray(w, dtype=np.float64), self.lam * gamma)


class ElasticNetProx(ProximalOperator):
    """``g(w) = λ₁‖w‖₁ + (λ₂/2)‖w‖²`` — soft-threshold then shrink."""

    def __init__(self, lam1: float, lam2: float) -> None:
        self.lam1 = check_positive(lam1, "lambda1", strict=False)
        self.lam2 = check_positive(lam2, "lambda2", strict=False)

    def value(self, w: np.ndarray) -> float:
        return self.lam1 * float(np.sum(np.abs(w))) + 0.5 * self.lam2 * float(np.dot(w, w))

    def prox(self, w: np.ndarray, gamma: float) -> np.ndarray:
        gamma = self._check_gamma(gamma)
        return soft_threshold(np.asarray(w, dtype=np.float64), self.lam1 * gamma) / (
            1.0 + self.lam2 * gamma
        )


class GroupL1Prox(ProximalOperator):
    """Group lasso ``g(w) = λ Σ_g ‖w_g‖₂`` over a partition of coordinates.

    ``groups`` is a list of index arrays covering ``[0, d)`` exactly once.
    The prox is blockwise vector soft-thresholding.
    """

    def __init__(self, lam: float, groups: list[np.ndarray]) -> None:
        self.lam = check_positive(lam, "lambda", strict=False)
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        if self.groups:
            concat = np.concatenate(self.groups)
            if np.unique(concat).size != concat.size:
                raise ValidationError("groups must be disjoint")

    def value(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=np.float64)
        return self.lam * float(sum(np.linalg.norm(w[g]) for g in self.groups))

    def prox(self, w: np.ndarray, gamma: float) -> np.ndarray:
        gamma = self._check_gamma(gamma)
        out = np.asarray(w, dtype=np.float64).copy()
        t = self.lam * gamma
        if t == 0.0:
            # exact identity — and ‖w_g‖ can underflow to 0 for subnormal
            # blocks, which the t=0 threshold test would wrongly zero out
            return out
        for g in self.groups:
            norm = np.linalg.norm(out[g])
            if norm <= t:
                out[g] = 0.0
            elif norm > 0:
                out[g] *= 1.0 - t / norm
        return out
