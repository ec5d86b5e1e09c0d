"""SFISTA — stochastic variance-reduced FISTA (paper §3.1, Algs. 3–4).

The gradient of ``f(w) = (1/2m)‖Xᵀw − y‖²`` is estimated each iteration
from a random sample ``I_n`` of ``m̄ = ⌊b·m⌋`` columns:

* ``plain`` (Eq. 8):  ``ĝ(v) = (1/m̄) X_S (X_Sᵀ v − y_S) = H_n v − R_n``
* ``svrg``  (Eq. 9):  ``ĝ(v) = H_n (v − ŵ_s) + ∇f(ŵ_s)``

where ``H_n = (1/m̄) X_S X_Sᵀ`` is the sampled Hessian and ``ŵ_s`` the
epoch anchor whose *full* gradient is recomputed once per epoch — the
variance-reduction that preserves FISTA's O(1/N²) rate (Theorem 1). Note
the sampled label terms cancel in Eq. (9), so the SVRG estimator needs only
``H_n`` plus replicated vectors: this is what lets RC-SFISTA overlap
iterations without growing messages.

The solver body is :func:`repro.core.rc_sfista_dist.rc_sfista_distributed`
(k overlapped iterations per allreduce, S Hessian-reuse steps each); SFISTA
is that body at ``k = S = 1``. It imports the estimator choice and the
step-size rule from here. A serial run is the body at ``nranks=1`` with
``runtime=RuntimeConfig(backend="serial")``.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.fista import t_next
from repro.exceptions import ValidationError
from repro.utils.validation import check_positive

__all__ = ["GradientEstimator", "stochastic_step_size"]


class GradientEstimator(str, enum.Enum):
    """Which stochastic gradient estimate to use (see module docstring).

    ``EXACT`` names the full gradient only so the sampled bodies can
    reject it with a :class:`~repro.exceptions.ValidationError`; FISTA
    (:func:`repro.core.fista.fista`) is the exact-gradient solver.
    """

    EXACT = "exact"
    PLAIN = "plain"
    SVRG = "svrg"


def stochastic_step_size(
    L: float,
    m: int,
    mbar: int,
    L_max: float | None = None,
    epoch_length: int | None = None,
    deviation: float | None = None,
) -> float:
    """Step size satisfying the Theorem 1 conditions (Eqs. 10–11), made robust.

    Three requirements are combined:

    * **Eq. (11) epoch condition** (when ``epoch_length`` = N is given) —
      ``γ < (1 − t_{N−1}²/t_N²) · m̄(m−1) / (8L(m−m̄))``. This couples the
      step to the anchor-refresh interval: with FISTA momentum the
      accumulated sampling noise grows like ``t_N²``, so longer epochs
      require proportionally smaller steps. Ignoring it produces exactly
      the noise floor the condition exists to prevent.

    * **Paper rule (Eq. 10)** — ``γ⁻¹ ≥ max(L/2 + √(1/4 +
      4L²(m−m̄)/(m̄(m−1))), L)``. The bare ``1/4`` under the root is not
      scale invariant (it does not vanish as ``m̄ → m`` where the variance
      term does); we use the dimensionally-consistent ``L²/4`` so the rule
      reduces exactly to the FISTA step ``1/L`` at ``m̄ = m``.

    * **Sampled-curvature bound** — each inner update applies the *sampled*
      Hessian ``H_S``, whose operator norm concentrates around ``L`` but
      fluctuates by a matrix-Bernstein-style factor driven by
      ``ρ = L_max / L`` (``L_max = max_i ‖x_i‖²``):
      ``λmax(H_S) ≲ L (1 + 2√(ρ/m̄) + ρ/m̄)`` with high probability.
      Without this guard, small mini-batches on heterogeneous data make
      individual updates expansive and the momentum sequence diverges.
      Pass ``L_max=None`` to skip the guard (exact-arithmetic equivalence
      tests do so via explicit ``step_size``).
    """
    L = check_positive(L, "Lipschitz constant")
    if not (0 < mbar <= m):
        raise ValidationError(f"mbar must lie in (0, {m}], got {mbar}")
    variance = 4.0 * (m - mbar) / (mbar * (m - 1)) if m > 1 else 0.0
    inv = L * max(1.0, 0.5 + float(np.sqrt(0.25 + variance)))
    if L_max is not None and L_max > 0:
        rho = max(1.0, float(L_max) / L)
        inv = max(inv, L * (1.0 + 2.0 * float(np.sqrt(rho / mbar)) + rho / mbar))
    if deviation is not None and deviation > 0:
        # Per-step deviation gain ≈ (1 + μ)·γ·‖H_S − H‖ with μ < 1; the
        # factor 4 keeps the gain ≤ 1/2 so sampling noise contracts even
        # under full momentum.
        inv = max(inv, 4.0 * float(deviation))
    gamma = 1.0 / inv
    if epoch_length is not None and mbar < m:
        if epoch_length < 1:
            raise ValidationError(f"epoch_length must be >= 1, got {epoch_length}")
        t_prev = 1.0
        for _ in range(epoch_length):
            t_cur = t_next(t_prev)
            t_prev, t_last = t_cur, t_prev
        momentum_gap = 1.0 - (t_last * t_last) / (t_prev * t_prev)
        cap = momentum_gap * mbar * (m - 1) / (8.0 * L * (m - mbar))
        gamma = min(gamma, cap)
    return gamma
