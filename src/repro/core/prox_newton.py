"""Proximal Newton method (paper Alg. 1) with pluggable inner solvers.

Each outer iteration builds the quadratic model of Eq. (19) around the
current iterate,

.. math::

    z_n = \\operatorname*{argmin}_y \\tfrac12 (y-w_n)^T H_n (y-w_n)
          + \\nabla f(w_n)^T (y - w_n) + g(y),

approximately minimizes it with a first-order inner solver, and steps
``w_{n+1} = w_n + γ_n (z_n − w_n)``. The Hessian approximation ``H_n`` is
either exact or the uniformly-sampled ``(1/m̄) X_S X_Sᵀ`` (paper §3.3 /
§5.5).

:func:`proximal_newton_distributed` is the one PN body for every rank
count: ``nranks=1`` with ``runtime=RuntimeConfig(backend="serial")`` is the
serial method. It reproduces the Fig. 7 experiment: the *inner solver's*
communication dominates, and the choice of inner solver changes the
communication pattern:

* ``inner="fista"`` — deterministic FISTA; every inner iteration applies
  the exact Hessian through the distributed data (one d-word allreduce per
  inner iteration).
* ``inner="rc_sfista"`` — the paper's method; ``k`` sampled blocks per
  allreduce (k·d(d+1)/2 words every k inner iterations) and Hessian-reuse
  ``S``. At ``k = S = 1`` it is the SFISTA inner solver: every inner
  iteration builds a fresh sampled Hessian (one d(d+1)/2-word allreduce
  of its distinct entries per inner iteration).
"""

from __future__ import annotations

import numpy as np

from repro.core._dist_common import (
    UPDATE_FLOPS,
    RankPlacement,
    distribute_problem,
    hessian_reuse_update,
    run_params,
)
from repro.core.fista import momentum_mu, t_next
from repro.core.model import ERMObjective
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import Checkpoint, ResilientLoop, RuntimeConfig, build_host_backend
from repro.utils.rng import RandomState, as_generator, minibatch_size, sample_indices
from repro.utils.validation import check_positive

__all__ = ["proximal_newton_distributed"]


def proximal_newton_distributed(
    problem: ERMObjective,
    nranks: int,
    *,
    inner: str = "rc_sfista",
    n_outer: int = 5,
    inner_iters: int = 40,
    k: int = 1,
    S: int = 1,
    b: float = 0.1,
    damping: float = 1.0,
    step_size: float | None = None,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    runtime: RuntimeConfig | None = None,
) -> SolveResult:
    """Distributed PN (Fig. 7 experiment) — see module docstring.

    The subproblem iterates run FISTA-style accelerated steps; the inner
    solver choice controls where the data for ``∇Φ`` comes from and hence
    the communication pattern. ``step_size`` is the inner γ (defaults to
    the problem's 1/L, shared by all variants for comparability).
    ``damping`` is the outer step ``γ_n`` (Alg. 1 line 6) and must be > 0.
    ``problem`` is the objective: its ``loss`` weights every Hessian and
    its ``penalty`` is the inner prox; ``meta`` reports both.

    Runtime
    -------
    runtime:
        A :class:`~repro.runtime.RuntimeConfig` (default ``RuntimeConfig()``)
        bundling the execution knobs (machine, ``comm`` encoding of every
        allreduce — gradient, Hessian-vector and sampled-block phases —
        faults, retry, recv_timeout, checkpointing every
        ``checkpoint_every`` *outer* iterations with bit-exact rollback
        replay, ``on_nan`` screening of every collective result and
        monitored objective, telemetry, metrics). ``telemetry`` receives
        one record per inner iteration (``objective=None``,
        ``phase="inner"``) plus one per monitored outer boundary
        (``phase="outer"``); both observers are strictly out of band.
    """
    config = runtime if runtime is not None else RuntimeConfig()
    if inner not in ("fista", "rc_sfista"):
        raise ValidationError(f"inner must be fista|rc_sfista, got {inner!r}")
    if n_outer < 1 or inner_iters < 1 or k < 1 or S < 1:
        raise ValidationError("n_outer, inner_iters, k, S must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    check_positive(damping, "damping")
    stopping = stopping or StoppingCriterion()
    # Every (loss, penalty) pair runs the same stages: Hessians are weighted
    # by the loss's curvature at the outer iterate (the §3.3 prox-Newton
    # linearization point); the squared loss is the unweighted case.
    loss = problem.loss
    prox = problem.penalty.prox
    rng = as_generator(seed)
    d = problem.d
    gamma = (
        check_positive(step_size, "step_size") if step_size is not None else problem.default_step()
    )
    mbar = minibatch_size(problem.m, b)
    # Proximal-point damping of the Hessian-reuse subproblem (see rc_sfista_dist).
    eps_reg = 0.25 * problem.sampled_hessian_deviation(mbar) if S > 1 else 0.0

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="proximal_newton_distributed")
    loop.step_size = gamma
    placement = RankPlacement(data, loop, mbar=mbar, blocks=k, rhs=False)
    loop.start(
        {
            **run_params(loop, nranks, problem),
            "inner": inner,
            "n_outer": n_outer,
            "inner_iters": inner_iters,
            "k": k,
            "S": S,
            "b": b,
            "damping": damping,
            "step_size": gamma,
        }
    )

    def dist_full_gradient(point: np.ndarray) -> np.ndarray:
        data = placement.data
        results = backend.map_ranks(
            lambda p: data.ranks[p].gradient_contribution(point, problem.m, loss),
            data.nranks,
        )
        backend.compute([fl for _g, fl in results], label="full_gradient")
        return loop.allreduce([g for g, _fl in results], "allreduce_grad")

    def local_curvatures(point: np.ndarray) -> list[np.ndarray | None]:
        """Per-rank curvature weights ``ℓ''(X_pᵀ point, y_p)``; ``None``
        (``c ≡ 1``, nothing computed or charged) for a constant-curvature
        loss."""
        data = placement.data
        if loss.constant_curvature:
            return [None] * data.nranks
        results = backend.map_ranks(
            lambda p: data.ranks[p].local_model(point, loss), data.nranks
        )
        backend.compute([fl for _c, _r, fl in results], label="curvature")
        return [c for c, _r, _fl in results]

    # Curvature weights at the current outer iterate, refreshed at the top
    # of every outer round.
    curv: list[np.ndarray | None] = []

    def dist_hessian_apply(vec: np.ndarray) -> np.ndarray:
        """Curvature-weighted Hessian-vector product through the distributed data."""
        data = placement.data

        def apply_rank(p: int) -> tuple[np.ndarray, float]:
            rd = data.ranks[p]
            if rd.m_local == 0:
                return np.zeros(d), 0.0
            z, flops = rd.local_predictions(vec)
            if curv[p] is not None:
                z = curv[p] * z
            if isinstance(rd.X_local, np.ndarray):
                hv = rd.X_local @ z / problem.m
            else:
                hv = rd.X_local.matvec(z) / problem.m
            return hv, 2.0 * flops

        results = backend.map_ranks(apply_rank, data.nranks)
        backend.compute([fl for _hv, fl in results], label="hessian_apply")
        return loop.allreduce([hv for hv, _fl in results], "allreduce_Hv")

    def sampled_blocks(count: int) -> np.ndarray:
        """Stages A–C for *count* fresh sampled Hessians: one allreduce.

        Sample sets are drawn up front so the rng stream is independent of
        how the per-rank map executes (serial or parallel).
        """
        idx_sets = [sample_indices(rng, problem.m, mbar) for _ in range(count)]
        data = placement.data
        results = backend.map_ranks(
            lambda p: placement.pack(p, idx_sets, weights=curv[p]),
            data.nranks,
        )
        backend.compute([fl for _buf, fl in results], label="hessian_blocks")
        return loop.allreduce([buf for buf, _fl in results], "allreduce_G")

    w = np.zeros(d)
    history = History()
    prev_obj: float | None = None
    converged = False
    outer_done = 0
    start_n = 1
    inner_count = 0

    def capture(next_n: int) -> Checkpoint:
        return Checkpoint.capture(
            arrays={"w": w},
            scalars={"n": next_n, "prev_obj": prev_obj, "outer_done": outer_done},
            rng=rng,
            history_len=len(history),
        )

    def restore(ck: Checkpoint) -> None:
        nonlocal w, prev_obj, outer_done, start_n, converged
        w = ck.array("w")
        prev_obj = ck.scalars["prev_obj"]
        outer_done = ck.scalars["outer_done"]
        start_n = ck.scalars["n"]
        converged = False
        ck.restore_rng(rng)
        history.truncate(ck.history_len)
        # loop.comm_rounds is not restored: replayed collectives really
        # happen (and are really charged) a second time.

    def main_loop() -> None:
        nonlocal w, prev_obj, converged, outer_done, inner_count, curv
        for n in range(start_n, n_outer + 1):
            curv = local_curvatures(w)
            grad = dist_full_gradient(w)

            # Inner solve of Eq. (19) warm-started at w.
            u = w.copy()
            u_prev = u.copy()
            t_prev = 1.0
            if inner == "fista":
                for _i in range(inner_iters):
                    t_cur = t_next(t_prev)
                    mu = momentum_mu(t_prev, t_cur)
                    v = u + mu * (u - u_prev)
                    g = dist_hessian_apply(v - w) + grad
                    backend.compute(8.0 * d, label="update")
                    u_new = prox(v - gamma * g, gamma)
                    u_prev, u = u, u_new
                    t_prev = t_cur
                    inner_count += 1
                    loop.emit(outer=n, inner=inner_count, objective=None)
            else:
                n_rounds = -(-inner_iters // k)
                done = 0
                for _rnd in range(n_rounds):
                    block = min(k, inner_iters - done)
                    G = sampled_blocks(block)
                    for j in range(block):
                        H_j, _ = placement.block(G, j)
                        # R of the linearized model with sampled H: Hw − ∇f(w).
                        R_j = H_j @ w - grad
                        backend.compute(2.0 * d * d, label="model_rhs")
                        t_cur = t_next(t_prev)
                        mu = momentum_mu(t_prev, t_cur)
                        v = u + mu * (u - u_prev)
                        z = hessian_reuse_update(
                            H_j, R_j, v, gamma=gamma, prox=prox, S=S, eps_reg=eps_reg
                        )
                        for _s in range(S):  # Hessian-reuse prox steps
                            backend.compute(UPDATE_FLOPS(d), label="update")
                        u_prev, u = u, z
                        t_prev = t_cur
                        done += 1
                        inner_count += 1
                        loop.emit(outer=n, inner=inner_count, objective=None)

            w = w + damping * (u - w)
            outer_done = n
            if n % monitor_every == 0 or n == n_outer:
                obj = problem.value(w)  # out of band
                # A non-finite iterate cannot be fixed by re-communicating.
                loop.screen_objective(obj)
                history.append(
                    n, obj, stopping.rel_error(obj), sim_time=backend.elapsed,
                    comm_round=loop.comm_rounds,
                )
                loop.emit(outer=n, inner=inner_count, objective=obj, phase="outer")
                if stopping.satisfied(obj, prev_obj):
                    converged = True
                    return
                prev_obj = obj
            if config.checkpoint_every and n % config.checkpoint_every == 0 and n < n_outer:
                loop.commit_checkpoint(capture(n + 1))

    # The free initial checkpoint (capture=) means recovery without
    # periodic checkpoints restarts from scratch.
    try:
        loop.run(
            main_loop,
            capture=lambda: capture(1),
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
            "n_outer_done": outer_done,
            "n_inner_done": inner_count,
            "n_comm_rounds": loop.comm_rounds,
        }
    )
    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=outer_done,
        history=history,
        n_comm_rounds=loop.comm_rounds,
        cost=backend.cost_summary(),
        meta=meta,
    )
