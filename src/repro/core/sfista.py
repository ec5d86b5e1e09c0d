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

``estimator="exact"`` short-circuits to the full gradient, making
SFISTA(b=1) ≡ FISTA — an equivalence the test-suite asserts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.fista import momentum_mu, t_next
from repro.core.objectives import L1LeastSquares, require_squared_l1
from repro.core.proximal import L1Prox, ProximalOperator
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.utils.rng import (
    RandomState,
    as_generator,
    minibatch_size,
    sample_indices,
    sample_indices_weighted,
)
from repro.utils.validation import check_positive

__all__ = [
    "GradientEstimator",
    "stochastic_step_size",
    "sfista",
    "SampledGradient",
    "importance_probabilities",
]


def importance_probabilities(problem: L1LeastSquares, *, mix: float = 0.5) -> np.ndarray:
    """Norm-proportional sampling distribution with a uniform safety mixture.

    ``p_i = mix/m + (1 − mix)·‖x_i‖²/Σ_j‖x_j‖²``. The mixture bounds the
    importance weights ``1/(m p_i) ≤ 1/mix``, preventing the unbounded
    variance a pure norm-proportional scheme has on near-zero columns.
    """
    if not (0.0 < mix <= 1.0):
        raise ValidationError(f"mix must lie in (0, 1], got {mix}")
    X = problem.X
    if isinstance(X, np.ndarray):
        norms = np.einsum("ij,ij->j", X, X)
    else:
        csc = X.to_csc() if isinstance(X, CSRMatrix) else X
        norms = csc.col_norms_sq()
    total = float(norms.sum())
    if total <= 0:
        return np.full(problem.m, 1.0 / problem.m)
    return mix / problem.m + (1.0 - mix) * norms / total


class GradientEstimator(str, enum.Enum):
    """Which stochastic gradient estimate to use (see module docstring)."""

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


@dataclass
class SampledGradient:
    """Helper evaluating the sampled-gradient estimators on one index set.

    Precomputes the dense sampled block ``A = X[:, idx]`` so repeated
    evaluations (the Hessian-reuse loop) do not re-gather columns. With
    importance sampling the draws carry weights ``w_i = 1/(m·p_i)`` and
    every per-sample term is reweighted so the estimator stays unbiased.
    """

    A: np.ndarray  # d × m̄ sampled columns (dense)
    y_s: np.ndarray  # sampled labels
    mbar: int
    weights: np.ndarray | None = None  # importance weights 1/(m p_i), or None

    @staticmethod
    def gather(
        X: np.ndarray | CSRMatrix | CSCMatrix,
        y: np.ndarray,
        idx: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "SampledGradient":
        if isinstance(X, np.ndarray):
            A = X[:, idx]
        else:
            csc = X.to_csc() if isinstance(X, CSRMatrix) else X
            A = csc.select_columns(idx).to_dense()
        return SampledGradient(A=A, y_s=y[idx], mbar=int(idx.size), weights=weights)

    def plain(self, v: np.ndarray) -> np.ndarray:
        """Eq. (8): ``(1/m̄) Σ w_i x_i (x_iᵀ v − y_i)`` (w ≡ 1 uniform)."""
        r = self.A.T @ v - self.y_s
        if self.weights is not None:
            r = r * self.weights
        return self.A @ r / self.mbar

    def svrg(self, v: np.ndarray, anchor: np.ndarray, full_grad: np.ndarray) -> np.ndarray:
        """Eq. (9): ``H_n (v − ŵ) + ∇f(ŵ)`` (label terms cancel)."""
        diff = self.A.T @ (v - anchor)
        if self.weights is not None:
            diff = diff * self.weights
        return self.A @ diff / self.mbar + full_grad

    def hessian(self) -> np.ndarray:
        """Dense sampled Hessian ``(1/m̄) Σ w_i x_i x_iᵀ`` (symmetrized)."""
        if self.weights is not None:
            H = (self.A * (self.weights / self.mbar)[None, :]) @ self.A.T
        else:
            H = self.A @ self.A.T / self.mbar
        return 0.5 * (H + H.T)


def sfista(
    problem: L1LeastSquares,
    *,
    b: float = 0.1,
    step_size: float | None = None,
    epochs: int = 1,
    iters_per_epoch: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.SVRG,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    w0: np.ndarray | None = None,
    monitor_every: int = 1,
    restart_momentum: bool = True,
    replace: bool = True,
    repeat_samples: int = 1,
    prox: ProximalOperator | None = None,
    sampling: str = "uniform",
) -> SolveResult:
    """Serial SFISTA for the l1-regularized least squares problem (Alg. 4).

    Parameters
    ----------
    b:
        Sampling rate in (0, 1]; the mini-batch is ``m̄ = ⌊b·m⌋``.
    epochs / iters_per_epoch:
        Outer loop ``s`` (anchor refreshes) and inner iteration count ``N``
        of Alg. 3. Total inner iterations = ``epochs × iters_per_epoch``.
    estimator:
        ``"svrg"`` (default, the paper's variance-reduced method),
        ``"plain"`` (Eq. 8, for the variance ablation) or ``"exact"``.
    restart_momentum:
        Reset the t-sequence at each epoch (standard for SVRG-style
        restarts; see DESIGN.md choice #4).
    replace:
        Sample columns with replacement (matches the variance analysis).
    repeat_samples:
        Draw a fresh index set only every ``repeat_samples`` iterations,
        reusing it in between (an ablation knob; Hessian-reuse proper
        lives in :func:`repro.core.rc_sfista.rc_sfista`).
    prox:
        Regularizer ``g`` of Eq. (1); defaults to ``L1Prox(problem.lam)``
        (the paper's problem). Any :class:`ProximalOperator` works — the
        smooth part's sampling structure is unchanged.
    sampling:
        ``"uniform"`` (the paper's scheme) or ``"importance"`` — draws
        sample ``i`` with probability ∝ ``½ + ½·‖x_i‖²/Σ‖x‖²`` (a defensive
        uniform mixture) and reweights by ``1/(m p_i)``, keeping the
        estimator unbiased while cutting its variance on data with
        heterogeneous sample norms. An extension beyond the paper.
    """
    require_squared_l1(problem, "sfista")
    estimator = GradientEstimator(estimator)
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    if repeat_samples < 1:
        raise ValidationError(f"repeat_samples must be >= 1, got {repeat_samples}")
    if sampling not in ("uniform", "importance"):
        raise ValidationError(f"sampling must be uniform|importance, got {sampling!r}")
    stopping = stopping or StoppingCriterion()
    rng = as_generator(seed)
    mbar = minibatch_size(problem.m, b)
    prox_op = prox if prox is not None else L1Prox(problem.lam)
    if step_size is not None:
        gamma = check_positive(step_size, "step_size")
    elif estimator is GradientEstimator.EXACT:
        gamma = problem.default_step()
    else:
        gamma = stochastic_step_size(
            problem.lipschitz(),
            problem.m,
            mbar,
            problem.max_sample_lipschitz,
            epoch_length=iters_per_epoch if restart_momentum else epochs * iters_per_epoch,
            deviation=problem.sampled_hessian_deviation(mbar),
        )

    w = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (problem.d,):
        raise ValidationError(f"w0 must have shape ({problem.d},), got {w.shape}")
    probs = importance_probabilities(problem) if sampling == "importance" else None

    history = History()
    prev_obj: float | None = None
    converged = False
    diverged = False
    total_iter = 0
    t_prev = 1.0
    w_prev = w.copy()

    sampler: SampledGradient | None = None
    for epoch in range(epochs):
        anchor = w.copy()
        full_grad = problem.gradient(anchor) if estimator is GradientEstimator.SVRG else None
        if restart_momentum:
            t_prev = 1.0
            w_prev = w.copy()
        for n in range(1, iters_per_epoch + 1):
            total_iter += 1
            if estimator is not GradientEstimator.EXACT and (
                sampler is None or (total_iter - 1) % repeat_samples == 0
            ):
                if probs is None:
                    idx = sample_indices(rng, problem.m, mbar, replace=replace)
                    weights = None
                else:
                    idx = sample_indices_weighted(rng, probs, mbar)
                    weights = 1.0 / (problem.m * probs[idx])
                sampler = SampledGradient.gather(problem.X, problem.y, idx, weights)

            t_cur = t_next(t_prev)
            mu = momentum_mu(t_prev, t_cur)
            v = w + mu * (w - w_prev)
            if estimator is GradientEstimator.EXACT:
                g = problem.gradient(v)
            elif estimator is GradientEstimator.PLAIN:
                g = sampler.plain(v)  # type: ignore[union-attr]
            else:
                g = sampler.svrg(v, anchor, full_grad)  # type: ignore[union-attr, arg-type]
            w_new = prox_op.prox(v - gamma * g, gamma)
            w_prev, w = w, w_new
            t_prev = t_cur

            if total_iter % monitor_every == 0 or (
                epoch == epochs - 1 and n == iters_per_epoch
            ):
                obj = problem.value(w)
                history.append(total_iter, obj, stopping.rel_error(obj))
                if not np.isfinite(obj):
                    diverged = True
                    break
                if stopping.satisfied(obj, prev_obj):
                    converged = True
                    break
                prev_obj = obj
        if converged or diverged:
            break

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=total_iter,
        history=history,
        meta={
            "solver": "sfista",
            "diverged": diverged,
            "b": b,
            "mbar": mbar,
            "estimator": estimator.value,
            "sampling": sampling,
            "step_size": gamma,
            "epochs": epochs,
            "iters_per_epoch": iters_per_epoch,
        },
    )
