"""RC-SFISTA — serial reference implementation (paper Alg. 5, §3.2).

The two reformulations on top of SFISTA:

* **Iteration overlapping (k)** — sample ``k`` index sets at once, build the
  ``k`` sampled-Hessian pairs ``(H_{nk+j}, R_{nk+j})`` of Eq. (18) up
  front, then run ``k`` updates against the stored blocks. Serially this
  is a pure re-association of the same arithmetic (the paper proves the
  unrolled recurrences of Eqs. 16–17 are identical in exact arithmetic);
  in the distributed version it turns ``k`` allreduces into one.

* **Hessian-reuse (S)** — each unrolled iteration solves the PN subproblem
  of Eq. (19) against the *same* ``(H_j, R_j)`` for ``S`` proximal-gradient
  steps (Eqs. 20–23). Per DESIGN.md choice #2 the global FISTA momentum
  advances once per sampled iteration (producing the extrapolated point
  ``v``), and the subproblem ``min_u ½uᵀH_ju − R_jᵀu + λ‖u‖₁`` is then
  solved by ``S`` un-accelerated proximal steps warm-started at ``v`` —
  exactly one SFISTA update when ``S = 1`` (tested), better per-round
  progress for small ``S``, and over-solving toward the *sampled* model's
  biased minimizer for large ``S`` (the degradation the paper reports at
  S = 10).

This serial version produces the exact iterate sequence of the distributed
implementation (same shared-seed sampling), so convergence studies
(Figs. 2–3) can run without the simulator in the loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.fista import momentum_mu, t_next
from repro.core.objectives import L1LeastSquares, require_squared_l1
from repro.core.proximal import L1Prox, ProximalOperator
from repro.core.results import History, SolveResult
from repro.core.sfista import (
    GradientEstimator,
    SampledGradient,
    importance_probabilities,
    stochastic_step_size,
)
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.sparse.ops import sampled_gram, sampled_rhs
from repro.utils.rng import (
    RandomState,
    as_generator,
    minibatch_size,
    sample_indices,
    sample_indices_weighted,
)
from repro.utils.validation import check_positive

__all__ = ["rc_sfista"]


def rc_sfista(
    problem: L1LeastSquares,
    *,
    k: int = 1,
    S: int = 1,
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
    prox: ProximalOperator | None = None,
    sampling: str = "uniform",
) -> SolveResult:
    """Serial RC-SFISTA (Alg. 5) for l1-regularized least squares.

    Parameters mirror :func:`repro.core.sfista.sfista` plus:

    k:
        Iteration-overlapping factor — ``k`` sample sets are drawn and
        their ``(H, R)`` blocks built per outer round. Bounds: Eq. (25) /
        (26), see :mod:`repro.perf.bounds`.
    S:
        Hessian-reuse inner steps per unrolled iteration. Bounds: Eq. (27)
        / (28).

    The result's ``n_comm_rounds`` counts the outer rounds — the number of
    allreduces the distributed version would perform. ``prox`` swaps the
    regularizer ``g`` (default ``L1Prox(problem.lam)``); the sampled-Hessian
    machinery is independent of ``g``. ``sampling="importance"`` draws
    norm-weighted samples and reweights the Hessian blocks (see
    :func:`repro.core.sfista.importance_probabilities`).
    """
    require_squared_l1(problem, "rc_sfista")
    estimator = GradientEstimator(estimator)
    if k < 1 or S < 1:
        raise ValidationError(f"k and S must be >= 1, got k={k}, S={S}")
    if sampling not in ("uniform", "importance"):
        raise ValidationError(f"sampling must be uniform|importance, got {sampling!r}")
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
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
    d = problem.d
    # Proximal-point damping of the Hessian-reuse subproblem (only active
    # for S > 1; the first step from u = v has a vanishing damping term so
    # S = 1 is exactly SFISTA). ε is the sampled-curvature uncertainty —
    # without it, repeated steps overshoot in the sampled Hessian's null
    # space (rank(H_j) ≤ m̄ < d) and large S diverges instead of merely
    # over-solving.
    eps_reg = (
        0.25 * problem.sampled_hessian_deviation(mbar)
        if (S > 1 and estimator is not GradientEstimator.EXACT)
        else 0.0
    )

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (d,):
        raise ValidationError(f"w0 must have shape ({d},), got {w.shape}")

    history = History()
    prev_obj: float | None = None
    converged = False
    diverged = False
    total_inner = 0  # counts every update (k·S per round)
    sampled_iter = 0  # counts paper iterations (k per round)
    comm_rounds = 0
    t_prev = 1.0
    w_prev = w.copy()

    exact_H = problem.hessian if estimator is GradientEstimator.EXACT else None
    exact_R = problem.rhs if estimator is GradientEstimator.EXACT else None
    probs = (
        importance_probabilities(problem)
        if (sampling == "importance" and estimator is not GradientEstimator.EXACT)
        else None
    )

    for epoch in range(epochs):
        anchor = w.copy()
        full_grad = problem.gradient(anchor) if estimator is GradientEstimator.SVRG else None
        if restart_momentum:
            t_prev = 1.0
            w_prev = w.copy()
        n_rounds = -(-iters_per_epoch // k)  # ceil: ragged last block allowed
        for rnd in range(n_rounds):
            block = min(k, iters_per_epoch - rnd * k)
            # ---- stages A+B (Fig. 1): sample and build k (H, R) blocks --- #
            blocks: list[tuple[np.ndarray, np.ndarray]] = []
            for _ in range(block):
                if estimator is GradientEstimator.EXACT:
                    blocks.append((exact_H, exact_R))  # type: ignore[arg-type]
                    continue
                if probs is None:
                    idx = sample_indices(rng, problem.m, mbar, replace=replace)
                    H = sampled_gram(problem.X, idx)
                    weights = None
                else:
                    idx = sample_indices_weighted(rng, probs, mbar)
                    weights = 1.0 / (problem.m * probs[idx])
                    H = SampledGradient.gather(problem.X, problem.y, idx, weights).hessian()
                if estimator is GradientEstimator.PLAIN:
                    if weights is None:
                        R = sampled_rhs(problem.X, problem.y, idx)
                    else:
                        sg = SampledGradient.gather(problem.X, problem.y, idx, weights)
                        R = sg.A @ (sg.y_s * weights) / mbar
                else:  # svrg: g = H(v − ŵ) + ∇f(ŵ) = Hv − (Hŵ − ∇f(ŵ))
                    R = H @ anchor - full_grad  # type: ignore[operator]
                blocks.append((H, R))
            comm_rounds += 1

            # ---- stage D: k·S local updates against stored blocks ------- #
            stop_now = False
            for j, (H, R) in enumerate(blocks, start=1):
                t_cur = t_next(t_prev)
                mu = momentum_mu(t_prev, t_cur)
                v = w + mu * (w - w_prev)
                u = v
                for _s in range(S):  # Eqs. (20)-(23): prox steps on the model
                    total_inner += 1
                    step_dir = H @ u - R + eps_reg * (u - v)
                    u = prox_op.prox(u - gamma * step_dir, gamma)
                w_prev, w = w, u
                t_prev = t_cur
                sampled_iter += 1
                if sampled_iter % monitor_every == 0 or (
                    epoch == epochs - 1 and rnd == n_rounds - 1 and j == len(blocks)
                ):
                    obj = problem.value(w)
                    history.append(
                        sampled_iter, obj, stopping.rel_error(obj), comm_round=comm_rounds
                    )
                    if not np.isfinite(obj):
                        diverged = True
                        stop_now = True
                        break
                    if stopping.satisfied(obj, prev_obj):
                        converged = True
                        stop_now = True
                        break
                    prev_obj = obj
            if stop_now:
                break
        if converged or diverged:
            break

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=sampled_iter,
        history=history,
        n_comm_rounds=comm_rounds,
        meta={
            "solver": "rc_sfista",
            "diverged": diverged,
            "k": k,
            "S": S,
            "b": b,
            "mbar": mbar,
            "estimator": estimator.value,
            "sampling": sampling,
            "step_size": gamma,
            "total_inner_updates": total_inner,
            "epochs": epochs,
            "iters_per_epoch": iters_per_epoch,
        },
    )
