"""SFISTA — one allreduce per iteration (paper Algs. 3–4, Fig. 1).

This is the algorithm RC-SFISTA is compared against in Figs. 4–5: identical
arithmetic, but the ``(H_n, R_n)`` blocks are allreduced every iteration,
so latency is paid ``N`` times (Table 1, SFISTA row). It is also the serial
SFISTA: ``nranks=1`` with ``runtime=RuntimeConfig(backend="serial")`` runs
the same body on the zero-cost single-rank backend.

Two communication modes:

* ``"hessian"`` (paper-faithful) — allreduce ``[rfp(H_n) | R_n]``,
  ``d(d + 1)/2 + d`` words, each iteration, matching Table 1's
  ``O(N d² log P)`` bandwidth. Required by the PN framing where every
  rank needs ``H_n``.
* ``"gradient"`` (ablation, DESIGN.md choice #3) — each rank computes its
  local *gradient* contribution and only ``d`` words are allreduced. Not
  compatible with Hessian-reuse, but shows the design space.

Like every distributed solver the baseline runs on the unified
:mod:`repro.runtime`: pass ``runtime=RuntimeConfig(...)`` to get fault
injection, checkpoint/rollback recovery, NaN screening, telemetry and
metrics — the same resilience surface as
:func:`repro.core.rc_sfista_dist.rc_sfista_distributed`, so the paper
comparison stays apples-to-apples under failures too.
"""

from __future__ import annotations

import numpy as np

from repro.core._dist_common import (
    UPDATE_FLOPS,
    RankPlacement,
    distribute_problem,
    hessian_reuse_update,
    run_params,
    svrg_rhs,
)
from repro.core.fista import momentum_mu, t_next
from repro.core.model import ERMObjective
from repro.core.results import History, SolveResult
from repro.core.sfista import GradientEstimator, stochastic_step_size
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import Checkpoint, ResilientLoop, RuntimeConfig, build_host_backend
from repro.runtime.backend import ExecutionBackend
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import _select_columns_dense
from repro.utils.rng import (
    RandomState,
    as_generator,
    minibatch_size,
    sample_indices,
    sample_indices_weighted,
)
from repro.utils.validation import check_positive

__all__ = ["sfista_distributed", "importance_probabilities"]


def importance_probabilities(problem: ERMObjective, *, mix: float = 0.5) -> np.ndarray:
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


def _epoch_anchor_gradient(
    backend: ExecutionBackend, data, w: np.ndarray, m: int, loss
) -> np.ndarray:
    """SVRG anchor gradient ``(1/m) X ℓ'(Xᵀw, y)``: local contributions +
    one d-word allreduce.

    The per-rank contributions go through ``backend.map_ranks`` so a
    real-parallelism backend computes them concurrently; each closure
    touches only its own rank's data, keeping results bit-identical to
    the serial sweep.
    """
    results = backend.map_ranks(
        lambda p: data.ranks[p].gradient_contribution(w, m, loss), data.nranks
    )
    backend.compute([fl for _g, fl in results], label="anchor_gradient")
    return backend.allreduce([g for g, _fl in results], label="allreduce_anchor_grad")


def sfista_distributed(
    problem: ERMObjective,
    nranks: int,
    *,
    b: float = 0.1,
    step_size: float | None = None,
    epochs: int = 1,
    iters_per_epoch: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.SVRG,
    comm_mode: str = "hessian",
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    restart_momentum: bool = True,
    sampling: str = "uniform",
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """SFISTA on *nranks* ranks (the simulated cluster by default).

    Parameters
    ----------
    problem:
        The objective to minimize: its ``loss`` and ``penalty`` run every
        stage, and ``meta`` reports both.
    b:
        Sampling rate in (0, 1]; the mini-batch is ``m̄ = ⌊b·m⌋``, drawn
        with replacement from the seed every rank shares.
    epochs / iters_per_epoch:
        Outer loop ``s`` (anchor refreshes) and inner iteration count ``N``
        of Alg. 3. Total inner iterations = ``epochs × iters_per_epoch``.
    estimator:
        ``"svrg"`` (default, Eq. 9, the paper's variance-reduced method) or
        ``"plain"`` (Eq. 8, for the variance ablation).
    step_size:
        ``None`` applies the Theorem 1 rule
        (:func:`repro.core.sfista.stochastic_step_size`).
    restart_momentum:
        Reset the t-sequence at each epoch (standard for SVRG-style
        restarts; see DESIGN.md choice #4).

    Returns a :class:`SolveResult` whose ``history`` carries simulated
    times per checkpoint and whose ``cost`` holds the cluster counters
    (critical-path messages/words per rank — the L and W of Table 1).
    Objective monitoring is out of band (not charged).

    ``comm_mode`` picks the *algorithm* (what is reduced: Hessian blocks
    or gradients); the collective payload *encoding* (dense/sparse/auto)
    comes from ``runtime=RuntimeConfig(comm=...)`` and defaults to dense.

    ``sampling`` is ``"uniform"`` (the paper's scheme) or ``"importance"``
    (``comm_mode="hessian"`` only, an extension beyond the paper): samples
    are drawn with :func:`importance_probabilities` and the weight
    ``ω_i = 1/(m p_i)`` is folded into stage B's curvature and response,
    which keeps the estimator unbiased and cuts its variance on data with
    heterogeneous sample norms.

    Runtime
    -------
    runtime:
        A :class:`~repro.runtime.RuntimeConfig` (default ``RuntimeConfig()``)
        bundling machine/comm selection, fault injection, retry,
        checkpointing (every ``checkpoint_every`` communication rounds),
        ``on_nan`` screening, ``adaptive_restart``, telemetry and metrics.
    """
    estimator = GradientEstimator(estimator)
    config = runtime if runtime is not None else RuntimeConfig()
    if comm_mode not in ("hessian", "gradient"):
        raise ValidationError(f"comm_mode must be 'hessian' or 'gradient', got {comm_mode!r}")
    if sampling not in ("uniform", "importance"):
        raise ValidationError(f"sampling must be uniform|importance, got {sampling!r}")
    if sampling == "importance" and comm_mode != "hessian":
        raise ValidationError("importance sampling needs comm_mode='hessian'")
    if estimator is GradientEstimator.EXACT:
        raise ValidationError("distributed SFISTA requires a sampled estimator (plain or svrg)")
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    # Every (loss, penalty) pair runs the same stages (see rc_sfista_dist).
    loss = problem.loss
    rng = as_generator(seed)
    mbar = minibatch_size(problem.m, b)
    gamma = (
        check_positive(step_size, "step_size")
        if step_size is not None
        else stochastic_step_size(
            problem.lipschitz(),
            problem.m,
            mbar,
            problem.max_sample_lipschitz,
            epoch_length=iters_per_epoch if restart_momentum else epochs * iters_per_epoch,
            deviation=problem.sampled_hessian_deviation(mbar),
        )
    )
    d = problem.d
    probs = importance_probabilities(problem) if sampling == "importance" else None
    # Per-sample importance weight ω_i = 1/(m p_i), folded into stage B.
    omega = None if probs is None else 1.0 / (problem.m * probs)

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="sfista_distributed")
    loop.step_size = gamma
    placement = RankPlacement(data, loop, mbar=mbar, blocks=1, rhs=True)
    loop.start(
        {
            **run_params(loop, nranks, problem),
            "b": b,
            "mbar": mbar,
            "epochs": epochs,
            "iters_per_epoch": iters_per_epoch,
            "estimator": estimator.value,
            "comm_mode": comm_mode,
            "sampling": sampling,
            "step_size": gamma,
        }
    )

    w = np.zeros(d)
    w_prev = w.copy()
    t_prev = 1.0
    history = History()
    prev_obj: float | None = None
    converged = False
    diverged = False
    total_iter = 0
    anchor = w.copy()
    full_grad: np.ndarray | None = None
    rounds_done = 0  # completed allreduce rounds, the checkpoint cadence
    start_epoch = 0
    start_n = 0
    in_epoch = False  # resuming mid-epoch: skip the epoch header

    def capture(epoch: int, next_n: int, mid_epoch: bool) -> Checkpoint:
        return Checkpoint.capture(
            arrays={"w": w, "w_prev": w_prev, "anchor": anchor, "full_grad": full_grad},
            scalars={
                "epoch": epoch,
                "n": next_n,
                "in_epoch": mid_epoch,
                "t_prev": t_prev,
                "prev_obj": prev_obj,
                "total_iter": total_iter,
                "rounds_done": rounds_done,
            },
            rng=rng,
            history_len=len(history),
        )

    def restore(ck: Checkpoint) -> None:
        nonlocal w, w_prev, t_prev, prev_obj, total_iter, anchor, full_grad
        nonlocal rounds_done, start_epoch, start_n, in_epoch, converged, diverged
        w = ck.array("w")
        w_prev = ck.array("w_prev")
        anchor = ck.array("anchor")
        full_grad = ck.get("full_grad")
        s = ck.scalars
        t_prev = s["t_prev"]
        prev_obj = s["prev_obj"]
        total_iter = s["total_iter"]
        rounds_done = s["rounds_done"]
        start_epoch = s["epoch"]
        start_n = s["n"]
        in_epoch = s["in_epoch"]
        converged = diverged = False
        ck.restore_rng(rng)
        history.truncate(ck.history_len)

    def main_loop() -> None:
        nonlocal w, w_prev, t_prev, prev_obj, converged, diverged, total_iter
        nonlocal anchor, full_grad, rounds_done, in_epoch, start_n
        for epoch in range(start_epoch, epochs):
            if not in_epoch:
                anchor = w.copy()
                full_grad = (
                    loop.screened(
                        lambda: _epoch_anchor_gradient(
                            backend,
                            placement.data,
                            anchor,
                            problem.m,
                            loss,
                        ),
                        "anchor gradient allreduce",
                    )
                    if estimator is GradientEstimator.SVRG
                    else None
                )
                if restart_momentum:
                    t_prev = 1.0
                    w_prev = w.copy()
                start_n = 0
            in_epoch = False

            for _n in range(start_n, iters_per_epoch):
                total_iter += 1
                if probs is None:
                    idx = sample_indices(rng, problem.m, mbar)
                else:
                    idx = sample_indices_weighted(rng, probs, mbar)
                data = placement.data

                t_cur = t_next(t_prev)
                mu = momentum_mu(t_prev, t_cur)
                v = w + mu * (w - w_prev)

                if comm_mode == "hessian":
                    # Stages A+B: one [H | R] block of the loss's model
                    # linearized at the momentum point v, one closure per
                    # rank (parallel on backends that map ranks for real;
                    # each touches only its own buffer/workspace). The H
                    # transport is the paper-faithful PN framing: every
                    # rank receives H.
                    svrg_anchor = anchor if estimator is GradientEstimator.SVRG else None

                    def build_rank(p: int) -> tuple[np.ndarray, float]:
                        rank_data = data.ranks[p]
                        c, r, flops = rank_data.local_model(v, loss, anchor=svrg_anchor)
                        if omega is not None:
                            lo = rank_data.col_offset
                            om = omega[lo : lo + rank_data.m_local]
                            c = om if c is None else c * om
                            r = None if r is None else r * om
                        buf, fl = placement.pack(p, [idx], weights=c, response=r)
                        return buf, flops + fl

                    results = backend.map_ranks(build_rank, data.nranks)
                    packed = [buf for buf, _fl in results]
                    backend.compute([fl for _buf, fl in results], label="hessian_blocks")
                    # Stage C: one allreduce of d(d+1)/2 + d words.
                    combined = loop.allreduce(packed, label="allreduce_HR")
                    H, R = placement.block(combined, 0)
                    if estimator is GradientEstimator.SVRG:
                        R = svrg_rhs(H, R, anchor, full_grad, loss)
                        backend.compute(2.0 * d * d, label="svrg_rhs")
                    w_new = hessian_reuse_update(H, R, v, gamma=gamma, prox=problem.penalty.prox)
                    backend.compute(UPDATE_FLOPS(d), label="update")
                else:
                    # Gradient mode: local sampled-gradient contributions.
                    def gradient_rank(p: int) -> tuple[np.ndarray, float]:
                        rank_data = data.ranks[p]
                        local_idx = rank_data._restrict(idx)
                        if local_idx.size == 0:
                            return np.zeros(d), 0.0
                        A = _select_columns_dense(
                            rank_data.X_local, local_idx, placement.workspaces[p]
                        )
                        ys = rank_data.y_local[local_idx]
                        flops = float(4 * A.shape[0] * A.shape[1])
                        if estimator is GradientEstimator.PLAIN:
                            gvec = loss.grad(A.T @ v, ys)
                        elif loss.constant_curvature:
                            # ℓ'(z_v) − ℓ'(z_ŵ) = z_v − z_ŵ when ℓ'' ≡ 1.
                            gvec = A.T @ (v - anchor)
                        else:
                            gvec = loss.grad(A.T @ v, ys) - loss.grad(A.T @ anchor, ys)
                            flops += float(2 * A.shape[0] * A.shape[1])
                        return A @ gvec / mbar, flops

                    results = backend.map_ranks(gradient_rank, data.nranks)
                    backend.compute([fl for _g, fl in results], label="gradient_blocks")
                    g = loop.allreduce([g_p for g_p, _fl in results], label="allreduce_grad")
                    if estimator is GradientEstimator.SVRG:
                        g = g + full_grad  # type: ignore[operator]
                    backend.compute(8.0 * d, label="update")
                    w_new = problem.penalty.prox(v - gamma * g, gamma)

                w_prev, w = w, w_new
                t_prev = t_cur

                iter_obj: float | None = None
                if total_iter % monitor_every == 0 or (
                    epoch == epochs - 1 and _n == iters_per_epoch - 1
                ):
                    obj = problem.value(w)  # out of band
                    loop.screen_objective(obj)
                    history.append(
                        total_iter,
                        obj,
                        stopping.rel_error(obj),
                        sim_time=backend.elapsed,
                        comm_round=loop.comm_rounds,
                    )
                    iter_obj = obj
                    if not np.isfinite(obj):
                        diverged = True
                    elif stopping.satisfied(obj, prev_obj):
                        converged = True
                    else:
                        if config.adaptive_restart and prev_obj is not None and obj > prev_obj:
                            t_prev = 1.0
                            w_prev = w.copy()
                            loop.stats.momentum_restarts += 1
                        prev_obj = obj
                loop.emit(outer=epoch, inner=total_iter, objective=iter_obj)
                rounds_done += 1
                if converged or diverged:
                    return
                if config.checkpoint_every and rounds_done % config.checkpoint_every == 0:
                    loop.commit_checkpoint(capture(epoch, _n + 1, mid_epoch=True))
            if converged or diverged:
                return

    try:
        loop.run(
            main_loop,
            capture=lambda: capture(0, 0, mid_epoch=False),
            restore=restore,
            repartition=placement.repartition,
        )
    finally:
        # Real-parallelism backends hold worker processes / thread pools;
        # their cost ledgers survive close, so cost_summary() below and
        # the trace remain valid.
        backend.close()

    meta = loop.finish(
        {
            "converged": converged,
            "diverged": diverged,
            "n_iterations": total_iter,
            "n_comm_rounds": loop.comm_rounds,
        }
    )
    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=total_iter,
        history=history,
        n_comm_rounds=loop.comm_rounds,
        cost=backend.cost_summary(),
        meta=meta,
    )
