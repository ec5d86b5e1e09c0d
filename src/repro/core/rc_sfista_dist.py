"""Distributed RC-SFISTA — the paper's contribution on the simulated cluster.

Implements the four stages of Fig. 1 per outer round:

* **Stage A** — every rank draws the same ``k`` global sample sets from the
  shared seed and keeps the columns it owns.
* **Stage B** — each rank builds its ``k`` local blocks
  ``H_p = (1/m̄) X_{p,S} X_{p,S}ᵀ`` and (plain estimator) ``R_p``.
* **Stage C** — ONE ``MPI_Allreduce`` of the concatenated blocks
  ``G = [rfp(H₁) | R₁ | … | rfp(H_k) | R_k]`` — ``k(d(d + 1)/2 + d)``
  words — instead of the ``k`` separate allreduces SFISTA pays. Latency
  ÷ k, bandwidth unchanged (Table 1). Each symmetric ``H_j`` ships only
  its ``d(d + 1)/2`` distinct entries (Table 1 counts ``k(d² + d)``), in
  rectangular full packed format, and stage D multiplies them as shipped.
* **Stage D** — ``k`` unrolled iterations, each running ``S`` Hessian-reuse
  inner steps, fully local and replicated.

SFISTA (Algs. 3–4) is this body at ``k = S = 1``: one stage-C allreduce
per iteration, latency paid ``N`` times (Table 1, SFISTA row). There is no
separate SFISTA solver.

The overlap changes only *where* communication happens, not the iterates
(paper Eqs. 16–17): for a fixed seed every ``k`` and every rank count give
the same sequence. ``nranks=1`` with ``runtime=RuntimeConfig(backend="serial")``
is therefore the serial RC-SFISTA; the tests compare it with ``P > 1`` and
with an independent numpy oracle (``tests/test_core/oracle.py``).

Hessian reuse (Eqs. 20–23, DESIGN.md choice #2): the global FISTA momentum
advances once per sampled iteration, producing the extrapolated point
``v``; the subproblem ``min_u ½uᵀH_ju − R_jᵀu + λ‖u‖₁`` is then solved by
``S`` un-accelerated proximal steps warm-started at ``v`` — exactly one
SFISTA update when ``S = 1``, better per-round progress for small ``S``,
and over-solving toward the *sampled* model's biased minimizer for large
``S`` (the degradation the paper reports at S = 10).

Two options beyond the paper's scheme:

* ``comm_mode="gradient"`` (ablation, DESIGN.md choice #3, ``k = S = 1``
  only) — each rank reduces its local sampled *gradient* at the momentum
  point, ``d`` words per iteration instead of ``d(d + 1)/2 + d``. No
  rank receives ``H``, so there is nothing to overlap or reuse.
* ``sampling="importance"`` — samples are drawn from
  :func:`importance_probabilities` and the weight ``ω_i = 1/(m p_i)`` is
  folded into stage B's curvature and response, which keeps the estimator
  unbiased and cuts its variance on data with heterogeneous sample norms.

Unified runtime
---------------
Execution-substrate, resilience and observability concerns live in
:mod:`repro.runtime` and arrive as ``runtime=RuntimeConfig(...)``. The
solver body here is purely algorithmic — an
:class:`~repro.runtime.backend.ExecutionBackend` supplies the collectives
(serial or BSP-simulated) and a
:class:`~repro.runtime.driver.ResilientLoop` supplies checkpointing,
crash/NaN recovery with bit-exact replay, and telemetry.
"""

from __future__ import annotations

from typing import Callable

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

__all__ = ["rc_sfista_distributed", "importance_probabilities"]


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


def rc_sfista_distributed(
    problem: ERMObjective,
    nranks: int,
    *,
    k: int = 1,
    S: int = 1,
    b: float = 0.1,
    step_size: float | None = None,
    epochs: int = 1,
    iters_per_epoch: int = 100,
    estimator: GradientEstimator | str = GradientEstimator.SVRG,
    comm_mode: str = "hessian",
    sampling: str = "uniform",
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    restart_momentum: bool = True,
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """Distributed RC-SFISTA (Alg. 5 on the cluster of Fig. 1); SFISTA at
    ``k = S = 1``.

    Parameters
    ----------
    problem:
        The objective to minimize: its ``loss`` and ``penalty`` run every
        stage, and ``meta`` reports both.
    k:
        Iteration-overlapping factor: ``k`` sample sets are drawn and their
        ``(H, R)`` blocks reduced per outer round (bounds: Eqs. 25–26,
        :mod:`repro.perf.bounds`).
    S:
        Hessian-reuse inner steps per unrolled iteration (Eqs. 27–28).
    b:
        Sampling rate in (0, 1]; the mini-batch is ``m̄ = ⌊b·m⌋``, drawn
        with replacement from the seed every rank shares.
    step_size:
        ``None`` applies the Theorem 1 rule
        (:func:`repro.core.sfista.stochastic_step_size`).
    epochs / iters_per_epoch:
        Outer loop ``s`` (anchor refreshes) and inner iteration count ``N``
        of Alg. 3. Total inner iterations = ``epochs × iters_per_epoch``.
    estimator:
        ``"svrg"`` (default, Eq. 9, the paper's variance-reduced method) or
        ``"plain"`` (Eq. 8, for the variance ablation).
    comm_mode:
        What stage C reduces: ``"hessian"`` (default, the ``[H | R]``
        blocks every rank needs for the PN framing) or ``"gradient"`` (the
        d-word sampled gradient; ``k = S = 1`` and uniform sampling only).
        The collective payload *encoding* (dense/sparse/auto) comes from
        ``runtime=RuntimeConfig(comm=...)``.
    sampling:
        ``"uniform"`` (the paper's scheme) or ``"importance"`` (see the
        module docstring).
    restart_momentum:
        Reset the t-sequence at each epoch (standard for SVRG-style
        restarts; see DESIGN.md choice #4).

    Every block of a round is linearized at the round-start iterate (the
    §3.3 PN observation); for a constant-curvature loss the blocks do not
    depend on the point at all. ``history`` carries simulated times;
    ``cost`` the cluster counters (critical-path messages/words per rank —
    the L and W of Table 1); ``n_comm_rounds`` counts the stage-C rounds
    plus one anchor-gradient round per SVRG epoch. Objective monitoring is
    out of band (not charged).

    Runtime
    -------
    runtime:
        A :class:`~repro.runtime.RuntimeConfig` (default ``RuntimeConfig()``)
        bundling machine/comm selection, faults, retry, recv_timeout,
        checkpointing, on_nan, max_recoveries, adaptive_restart,
        telemetry and metrics — see that class for per-field docs.
        ``comm`` selects the collective encoding: ``"dense"`` ships full
        buffers, ``"sparse"`` ships index+value pairs charged at
        O(nnz_union) words, ``"auto"`` measures the union density per
        phase and picks the cheaper encoding (the decision is logged into
        the cluster trace); iterates are bit-identical across the three.
        ``RuntimeConfig(backend="serial")`` runs the same body on the
        zero-cost single-rank backend.
    """
    estimator = GradientEstimator(estimator)
    config = runtime if runtime is not None else RuntimeConfig()
    if k < 1 or S < 1:
        raise ValidationError(f"k and S must be >= 1, got k={k}, S={S}")
    if comm_mode not in ("hessian", "gradient"):
        raise ValidationError(f"comm_mode must be 'hessian' or 'gradient', got {comm_mode!r}")
    if comm_mode == "gradient" and (k != 1 or S != 1):
        raise ValidationError(
            f"comm_mode='gradient' reduces no Hessian to overlap or reuse: "
            f"it needs k = S = 1, got k={k}, S={S}"
        )
    if sampling not in ("uniform", "importance"):
        raise ValidationError(f"sampling must be uniform|importance, got {sampling!r}")
    if sampling == "importance" and comm_mode != "hessian":
        raise ValidationError("importance sampling needs comm_mode='hessian'")
    if estimator is GradientEstimator.EXACT:
        raise ValidationError("distributed RC-SFISTA requires a sampled estimator (plain or svrg)")
    if epochs < 1 or iters_per_epoch < 1:
        raise ValidationError("epochs and iters_per_epoch must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    # Every (loss, penalty) pair of the problem runs the same stages below.
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
    svrg = estimator is GradientEstimator.SVRG
    # Proximal-point damping of the reuse subproblem (S > 1 only; the first
    # step from u = v has a vanishing damping term, so S = 1 is exactly
    # SFISTA). ε is the sampled-curvature uncertainty: without it, repeated
    # steps overshoot in the sampled Hessian's null space (rank(H_j) ≤ m̄ < d)
    # and large S diverges instead of merely over-solving.
    eps_reg = 0.25 * problem.sampled_hessian_deviation(mbar) if S > 1 else 0.0

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="rc_sfista_distributed")
    loop.step_size = gamma
    placement = RankPlacement(data, loop, mbar=mbar, blocks=k, rhs=True)
    loop.start(
        {
            **run_params(loop, nranks, problem),
            "k": k,
            "S": S,
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
    sampled_iter = 0
    anchor = w.copy()
    full_grad: np.ndarray | None = None
    rounds_done = 0  # completed stage-C rounds, the checkpoint cadence
    start_epoch = 0
    start_rnd = 0
    in_epoch = False  # resuming mid-epoch: skip the epoch header
    n_rounds = -(-iters_per_epoch // k)

    # ---- stage A: the shared sample draw, and stage B's per-rank model -- #
    if sampling == "importance":
        probs = importance_probabilities(problem)
        omega = 1.0 / (problem.m * probs)

        def draw() -> np.ndarray:
            return sample_indices_weighted(rng, probs, mbar)

        def rank_model(p: int, svrg_anchor: np.ndarray | None):
            # Fold the per-sample weight ω_i = 1/(m p_i) into the model.
            rank_data = placement.data.ranks[p]
            c, r, flops = rank_data.local_model(w, loss, anchor=svrg_anchor)
            om = omega[rank_data.col_offset : rank_data.col_offset + rank_data.m_local]
            return (om if c is None else c * om), (None if r is None else r * om), flops

    else:

        def draw() -> np.ndarray:
            return sample_indices(rng, problem.m, mbar)

        def rank_model(p: int, svrg_anchor: np.ndarray | None):
            return placement.data.ranks[p].local_model(w, loss, anchor=svrg_anchor)

    # ---- stages B–D: one exchange per round, then one step per block ---- #
    def hessian_exchange(idx_sets: list[np.ndarray]) -> Callable[[int, np.ndarray], np.ndarray]:
        """Stages B+C for the round's blocks; returns the stage-D step."""
        svrg_anchor = anchor if svrg else None

        def build_rank(p: int) -> tuple[np.ndarray, float]:
            c, r, flops = rank_model(p, svrg_anchor)
            buf, fl = placement.pack(p, idx_sets, weights=c, response=r)
            return buf, flops + fl

        results = backend.map_ranks(build_rank, placement.data.nranks)
        backend.compute([fl for _buf, fl in results], label="hessian_blocks")
        # Stage C: ONE allreduce of k(d(d+1)/2 + d) words.
        combined = loop.allreduce([buf for buf, _fl in results], label="allreduce_G")

        def step(j: int, v: np.ndarray) -> np.ndarray:
            H, R = placement.block(combined, j)
            if svrg:
                R = svrg_rhs(H, R, anchor, full_grad, loss)
                backend.compute(2.0 * d * d, label="svrg_rhs")
            u = hessian_reuse_update(
                H, R, v, gamma=gamma, prox=problem.penalty.prox, S=S, eps_reg=eps_reg
            )
            for _s in range(S):  # Eqs. (20)-(23): S prox steps on the model
                backend.compute(UPDATE_FLOPS(d), label="update")
            return u

        return step

    def gradient_exchange(idx_sets: list[np.ndarray]) -> Callable[[int, np.ndarray], np.ndarray]:
        """The d-word gradient stage (k = 1): it needs the momentum point,
        so stages B+C run inside the stage-D step."""
        (idx,) = idx_sets
        data = placement.data

        def gradient_rank(p: int, v: np.ndarray) -> tuple[np.ndarray, float]:
            rank_data = data.ranks[p]
            local_idx = rank_data._restrict(idx)
            if local_idx.size == 0:
                return np.zeros(d), 0.0
            A = _select_columns_dense(rank_data.X_local, local_idx, placement.workspaces[p])
            ys = rank_data.y_local[local_idx]
            flops = float(4 * A.shape[0] * A.shape[1])
            if not svrg:
                gvec = loss.grad(A.T @ v, ys)
            elif loss.constant_curvature:
                # ℓ'(z_v) − ℓ'(z_ŵ) = z_v − z_ŵ when ℓ'' ≡ 1.
                gvec = A.T @ (v - anchor)
            else:
                gvec = loss.grad(A.T @ v, ys) - loss.grad(A.T @ anchor, ys)
                flops += float(2 * A.shape[0] * A.shape[1])
            return A @ gvec / mbar, flops

        def step(_j: int, v: np.ndarray) -> np.ndarray:
            results = backend.map_ranks(lambda p: gradient_rank(p, v), data.nranks)
            backend.compute([fl for _g, fl in results], label="gradient_blocks")
            g = loop.allreduce([g_p for g_p, _fl in results], label="allreduce_grad")
            if svrg:
                g = g + full_grad  # type: ignore[operator]
            backend.compute(8.0 * d, label="update")
            return problem.penalty.prox(v - gamma * g, gamma)

        return step

    exchange = hessian_exchange if comm_mode == "hessian" else gradient_exchange

    def capture(epoch: int, next_rnd: int, mid_epoch: bool) -> Checkpoint:
        return Checkpoint.capture(
            arrays={"w": w, "w_prev": w_prev, "anchor": anchor, "full_grad": full_grad},
            scalars={
                "epoch": epoch,
                "rnd": next_rnd,
                "in_epoch": mid_epoch,
                "t_prev": t_prev,
                "prev_obj": prev_obj,
                "sampled_iter": sampled_iter,
                "rounds_done": rounds_done,
            },
            rng=rng,
            history_len=len(history),
        )

    def restore(ck: Checkpoint) -> None:
        nonlocal w, w_prev, t_prev, prev_obj, sampled_iter, anchor, full_grad
        nonlocal rounds_done, start_epoch, start_rnd, in_epoch, converged, diverged
        w = ck.array("w")
        w_prev = ck.array("w_prev")
        anchor = ck.array("anchor")
        full_grad = ck.get("full_grad")
        s = ck.scalars
        t_prev = s["t_prev"]
        prev_obj = s["prev_obj"]
        sampled_iter = s["sampled_iter"]
        rounds_done = s["rounds_done"]
        start_epoch = s["epoch"]
        start_rnd = s["rnd"]
        in_epoch = s["in_epoch"]
        converged = diverged = False
        ck.restore_rng(rng)
        # Replayed monitor points re-append; drop the rows past the
        # checkpoint so the history is not recorded twice.
        history.truncate(ck.history_len)
        # loop.comm_rounds is NOT restored: replayed collectives really
        # happen (and are really charged) a second time.

    def main_loop() -> None:
        nonlocal w, w_prev, t_prev, prev_obj, converged, diverged, sampled_iter
        nonlocal anchor, full_grad, rounds_done, in_epoch, start_rnd
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
                    if svrg
                    else None
                )
                if restart_momentum:
                    t_prev = 1.0
                    w_prev = w.copy()
                start_rnd = 0
            in_epoch = False

            for rnd in range(start_rnd, n_rounds):
                block = min(k, iters_per_epoch - rnd * k)

                # ---- stages A–C: k sample sets, one exchange ----------- #
                # All sample sets are drawn before the per-rank map so the
                # rng stream is identical whether the ranks run serially or
                # in parallel (the map closures never touch the generator).
                step = exchange([draw() for _ in range(block)])

                # ---- stage D: k × S replicated local updates ----------- #
                stop_now = False
                for j in range(block):
                    t_cur = t_next(t_prev)
                    mu = momentum_mu(t_prev, t_cur)
                    v = w + mu * (w - w_prev)
                    u = step(j, v)
                    w_prev, w = w, u
                    t_prev = t_cur
                    sampled_iter += 1

                    iter_obj: float | None = None
                    if sampled_iter % monitor_every == 0 or (
                        epoch == epochs - 1 and rnd == n_rounds - 1 and j == block - 1
                    ):
                        obj = problem.value(w)  # out of band
                        # An iterate gone non-finite cannot be fixed by
                        # re-communicating — recompute degrades to rollback.
                        loop.screen_objective(obj)
                        history.append(
                            sampled_iter,
                            obj,
                            stopping.rel_error(obj),
                            sim_time=backend.elapsed,
                            comm_round=loop.comm_rounds,
                        )
                        iter_obj = obj
                        if not np.isfinite(obj):
                            diverged = True
                            stop_now = True
                        elif stopping.satisfied(obj, prev_obj):
                            converged = True
                            stop_now = True
                        else:
                            if config.adaptive_restart and prev_obj is not None and obj > prev_obj:
                                t_prev = 1.0
                                w_prev = w.copy()
                                loop.stats.momentum_restarts += 1
                            prev_obj = obj
                    loop.emit(outer=epoch, inner=sampled_iter, objective=iter_obj)
                    if stop_now:
                        break
                rounds_done += 1
                if stop_now:
                    return
                if config.checkpoint_every and rounds_done % config.checkpoint_every == 0:
                    loop.commit_checkpoint(capture(epoch, rnd + 1, mid_epoch=True))
            if converged or diverged:
                return

    # The free initial checkpoint (capture=) means recovery without
    # periodic checkpoints restarts from scratch — nothing has moved,
    # nothing is charged.
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
            "n_iterations": sampled_iter,
            "n_comm_rounds": loop.comm_rounds,
        }
    )
    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=sampled_iter,
        history=history,
        n_comm_rounds=loop.comm_rounds,
        cost=backend.cost_summary(),
        meta=meta,
    )
