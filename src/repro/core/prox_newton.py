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

:func:`proximal_newton` is the serial method (inner solvers: FISTA on the
quadratic model, or exact coordinate descent).

:func:`proximal_newton_distributed` reproduces the Fig. 7 experiment: the
*inner solver's* communication dominates, and the choice of inner solver
changes the communication pattern:

* ``inner="fista"`` — deterministic FISTA; every inner iteration applies
  the exact Hessian through the distributed data (one d-word allreduce per
  inner iteration).
* ``inner="sfista"`` — stochastic inner solver; every inner iteration
  builds a fresh sampled Hessian (one (d²+d)-word allreduce per inner
  iteration).
* ``inner="rc_sfista"`` — the paper's method; ``k`` sampled blocks per
  allreduce (k(d²+d) words every k inner iterations) and Hessian-reuse
  ``S``.
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
from repro.core.cd import coordinate_descent_quadratic
from repro.core.fista import fista, momentum_mu, t_next
from repro.core.model import ERMObjective, resolve_objective
from repro.core.objectives import QuadraticModel
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.runtime import Checkpoint, ResilientLoop, RuntimeConfig, build_host_backend
from repro.sparse.ops import GramWorkspace, sampled_gram
from repro.utils.rng import RandomState, as_generator, minibatch_size, sample_indices
from repro.utils.validation import check_in_range, check_positive

__all__ = ["proximal_newton", "proximal_newton_distributed"]


def proximal_newton(
    problem: ERMObjective,
    *,
    n_outer: int = 10,
    inner: str = "fista",
    inner_iters: int = 50,
    b_hessian: float = 1.0,
    damping: float = 1.0,
    line_search: bool = False,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    w0: np.ndarray | None = None,
) -> SolveResult:
    """Serial proximal Newton (Alg. 1).

    Parameters
    ----------
    inner:
        ``"fista"`` (accelerated proximal gradient on the model) or
        ``"cd"`` (exact coordinate minimization, ``inner_iters`` epochs).
    b_hessian:
        Hessian sampling rate; 1.0 uses the exact Hessian.
    damping:
        Step ``γ_n`` applied to the Newton direction (Alg. 1 line 6).
    line_search:
        Backtracking on ``γ_n``: halve the step until ``F`` does not
        increase (Lee–Sun–Saunders-style globalization). Makes PN robust
        when the sampled Hessian misestimates curvature; a full step is
        tried first, so well-behaved problems are unaffected.
    """
    if n_outer < 1 or inner_iters < 1:
        raise ValidationError("n_outer and inner_iters must be >= 1")
    if inner not in ("fista", "cd"):
        raise ValidationError(f"inner must be 'fista' or 'cd', got {inner!r}")
    check_in_range(b_hessian, "b_hessian", 0.0, 1.0, low_inclusive=False)
    check_positive(damping, "damping")
    stopping = stopping or StoppingCriterion()
    # Inherit the problem's own (loss, penalty). The exact-CD inner solver
    # minimizes the l1 model in closed form and supports no other penalty.
    penalty = problem.penalty
    if inner == "cd" and penalty.name != "l1":
        raise ValidationError(
            "inner='cd' supports only the plain l1 penalty; use "
            f"inner='fista' for {penalty.spec!r}"
        )
    rng = as_generator(seed)
    d, lam = problem.d, problem.lam

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (d,):
        raise ValidationError(f"w0 must have shape ({d},), got {w.shape}")
    mbar = minibatch_size(problem.m, b_hessian) if b_hessian < 1.0 else problem.m
    # Scratch for the sampled-Hessian branch, reused across outer rounds
    # (H itself is freshly allocated each time — the model keeps it).
    gram_ws = GramWorkspace(d, mbar) if b_hessian < 1.0 else None

    history = History()
    prev_obj: float | None = None
    converged = False
    outer_done = 0
    # Constant-curvature problems (squared loss) use the cached Hessian or
    # the data-only sampled Gram; w-dependent curvature (e.g. logistic)
    # routes through hessian_at.
    for n in range(1, n_outer + 1):
        grad = problem.gradient(w)
        if not problem.constant_curvature:
            # General ERM objectives (e.g. logistic) expose curvature at the
            # current iterate — Alg. 1 line 3 in its general form.
            H = problem.hessian_at(w)
        elif b_hessian >= 1.0:
            H = problem.hessian
        else:
            idx = sample_indices(rng, problem.m, mbar)
            H = sampled_gram(problem.X, idx, workspace=gram_ws)
        model = QuadraticModel.from_linearization(H, grad, w)
        if inner == "fista":
            L = model.lipschitz()
            step = 1.0 / L if L > 0 else 1.0
            z = fista(
                model,
                prox=penalty,
                w0=w,
                step_size=step,
                max_iter=inner_iters,
                monitor_every=max(1, inner_iters),
            ).w
        else:
            z = coordinate_descent_quadratic(model.H, model.R, lam, u0=w, max_epochs=inner_iters)
        direction = z - w
        if line_search:
            current = problem.value(w)
            step = damping
            for _bt in range(30):
                candidate = w + step * direction
                if problem.value(candidate) <= current + 1e-12:
                    break
                step *= 0.5
            w = w + step * direction
        else:
            w = w + damping * direction
        outer_done = n

        obj = problem.value(w)
        history.append(n, obj, stopping.rel_error(obj))
        if stopping.satisfied(obj, prev_obj):
            converged = True
            break
        prev_obj = obj

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=outer_done,
        history=history,
        meta={
            "solver": "proximal_newton",
            "inner": inner,
            "inner_iters": inner_iters,
            "b_hessian": b_hessian,
            "damping": damping,
            "line_search": line_search,
        },
    )


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
    if inner not in ("fista", "sfista", "rc_sfista"):
        raise ValidationError(f"inner must be fista|sfista|rc_sfista, got {inner!r}")
    if inner != "rc_sfista" and (k != 1 or S != 1):
        raise ValidationError("k and S only apply to the rc_sfista inner solver")
    if n_outer < 1 or inner_iters < 1 or k < 1 or S < 1:
        raise ValidationError("n_outer, inner_iters, k, S must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    check_positive(damping, "damping")
    stopping = stopping or StoppingCriterion()
    # Every (loss, penalty) pair runs the same stages: Hessians are weighted
    # by the loss's curvature at the outer iterate (the §3.3 prox-Newton
    # linearization point); the squared loss is the unweighted case.
    resolved = resolve_objective(problem, loss=config.loss, penalty=config.penalty)
    view = resolved.objective
    loss = resolved.loss
    prox = resolved.penalty.prox
    rng = as_generator(seed)
    d = problem.d
    gamma = (
        check_positive(step_size, "step_size") if step_size is not None else view.default_step()
    )
    mbar = minibatch_size(problem.m, b)
    # Proximal-point damping of the Hessian-reuse subproblem (see rc_sfista).
    eps_reg = (
        0.25 * view.sampled_hessian_deviation(mbar)
        if (inner == "rc_sfista" and S > 1)
        else 0.0
    )

    data = distribute_problem(problem, nranks)
    backend = build_host_backend(config, nranks)
    loop = ResilientLoop(backend, config, solver="proximal_newton_distributed")
    loop.step_size = gamma
    max_block = k if inner == "rc_sfista" else 1
    placement = RankPlacement(data, loop, mbar=mbar, blocks=max_block, rhs=False)
    loop.start(
        {
            **run_params(loop, nranks, resolved),
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
                block_k = k if inner == "rc_sfista" else 1
                reuse_S = S if inner == "rc_sfista" else 1
                n_rounds = -(-inner_iters // block_k)
                done = 0
                for _rnd in range(n_rounds):
                    block = min(block_k, inner_iters - done)
                    G = sampled_blocks(block)
                    for j in range(block):
                        H_j = G[j * d * d : (j + 1) * d * d].reshape(d, d)
                        # R of the linearized model with sampled H: Hw − ∇f(w).
                        R_j = H_j @ w - grad
                        backend.compute(2.0 * d * d, label="model_rhs")
                        t_cur = t_next(t_prev)
                        mu = momentum_mu(t_prev, t_cur)
                        v = u + mu * (u - u_prev)
                        z = hessian_reuse_update(
                            H_j, R_j, v, gamma=gamma, prox=prox, S=reuse_S, eps_reg=eps_reg
                        )
                        for _s in range(reuse_S):  # Hessian-reuse prox steps
                            backend.compute(UPDATE_FLOPS(d), label="update")
                        u_prev, u = u, z
                        t_prev = t_cur
                        done += 1
                        inner_count += 1
                        loop.emit(outer=n, inner=inner_count, objective=None)

            w = w + damping * (u - w)
            outer_done = n
            if n % monitor_every == 0 or n == n_outer:
                obj = view.value(w)  # out of band
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
