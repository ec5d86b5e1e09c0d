"""ProxCoCoA baseline (Smith et al., 2015) on the simulated cluster.

The comparison framework of the paper's §5.4 / Fig. 6 / Table 3. Primal
CoCoA for ``F(w) = f(Aw) + Σ_i g_i(w_i)`` with ``A = Xᵀ`` (samples ×
features), ``f(u) = (1/2m)‖u − y‖²`` and ``g_i = λ|·|``:

* features are partitioned over ``P`` workers (note: the *opposite* axis
  from RC-SFISTA's sample partitioning);
* the shared state is ``v = Aw ∈ R^m``, replicated on all workers;
* each round, worker ``p`` approximately solves its local quadratic
  subproblem

  .. math::

      \\min_{Δ_p} \\; \\nabla f(v)^T A_p Δ_p
        + \\frac{σ'}{2m} \\|A_p Δ_p\\|^2 + λ\\|w_p + Δ_p\\|_1

  by randomized coordinate descent (exact single-coordinate minimization),
  with the safe aggregation parameter ``σ' = P`` ("adding");
* the updates ``A_p Δ_p`` are combined with ONE allreduce of ``m`` words
  and applied as ``v ← v + Σ_p A_p Δ_p``.

The communication structure is the point of the comparison: ProxCoCoA
moves ``O(m)`` words per round (the sample dimension — millions for the
paper's datasets) where RC-SFISTA moves ``k·d(d+1)/2`` words per round (the
feature dimension, with latency amortized by ``k``).
"""

from __future__ import annotations

import numpy as np

from repro.core.cd import _feature_rows, _row
from repro.core.objectives import L1LeastSquares, require_squared_l1
from repro.core.proximal import soft_threshold
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.distsim.bsp import BSPCluster
from repro.distsim.machine import MachineSpec
from repro.exceptions import ValidationError
from repro.sparse.partition import partition_columns
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import check_positive

__all__ = ["proxcocoa"]


def proxcocoa(
    problem: L1LeastSquares,
    nranks: int,
    *,
    machine: str | MachineSpec = "comet_effective",
    n_rounds: int = 100,
    local_epochs: int = 1,
    sigma_prime: float | None = None,
    aggregation: float = 1.0,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
    shuffle: bool = True,
    allreduce_algorithm: str = "recursive_doubling",
    cluster: BSPCluster | None = None,
) -> SolveResult:
    """Run ProxCoCoA on the simulated cluster.

    Parameters
    ----------
    n_rounds:
        Outer communication rounds.
    local_epochs:
        Coordinate-descent sweeps each worker performs per round (the
        local-solver quality knob Θ of the CoCoA framework).
    sigma_prime:
        Subproblem safety parameter σ′; defaults to ``nranks`` (the safe
        "adding" choice).
    aggregation:
        γ of the CoCoA update ``v ← v + γ Σ_p A_p Δ_p``; 1.0 for adding.
    """
    require_squared_l1(problem, "proxcocoa")
    if nranks < 1:
        raise ValidationError(f"nranks must be >= 1, got {nranks}")
    if n_rounds < 1 or local_epochs < 1:
        raise ValidationError("n_rounds and local_epochs must be >= 1")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    sigma = float(nranks) if sigma_prime is None else check_positive(sigma_prime, "sigma_prime")
    check_positive(aggregation, "aggregation")
    stopping = stopping or StoppingCriterion()

    d, m, lam = problem.d, problem.m, problem.lam
    part = partition_columns(d, nranks)  # partitions FEATURES here
    Xrows = _feature_rows(problem.X)

    # Per-rank feature blocks and per-coordinate curvature (σ'/m)‖a_j‖².
    rank_features = [
        np.arange(part.local_slice(p).start, part.local_slice(p).stop, dtype=np.int64)
        for p in range(nranks)
    ]
    row_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    curv = np.empty(d)
    nnz_row = np.empty(d)
    for j in range(d):
        idx, vals = _row(Xrows, j)
        row_cache[j] = (idx, vals)
        curv[j] = sigma * float(vals @ vals) / m
        nnz_row[j] = idx.size

    if cluster is None:
        cluster = BSPCluster(nranks, machine, allreduce_algorithm=allreduce_algorithm)
    elif cluster.nranks != nranks:
        raise ValidationError(f"cluster has {cluster.nranks} ranks, expected {nranks}")
    rank_rngs = spawn_generators(as_generator(seed), nranks)

    w = np.zeros(d)
    v = np.zeros(m)  # v = Aw, replicated
    history = History()
    prev_obj: float | None = None
    converged = False
    rounds_done = 0

    for rnd in range(1, n_rounds + 1):
        grad_v = (v - problem.y) / m  # ∇f(v), replicated
        cluster.compute(2.0 * m, label="grad_v")

        deltas: list[np.ndarray] = []
        delta_vs: list[np.ndarray] = []
        flops = np.zeros(nranks)
        for p in range(nranks):
            feats = rank_features[p]
            delta = np.zeros(feats.size)
            u_p = np.zeros(m)  # A_p Δ_p, maintained incrementally
            # Precompute the fixed linear term ∇f(v)ᵀ a_j per coordinate.
            lin = np.empty(feats.size)
            for jj, j in enumerate(feats):
                idx, vals = row_cache[j]
                lin[jj] = float(vals @ grad_v[idx])
                flops[p] += 2.0 * idx.size
            for _epoch in range(local_epochs):
                order = (
                    rank_rngs[p].permutation(feats.size)
                    if shuffle
                    else np.arange(feats.size)
                )
                for jj in order:
                    j = feats[jj]
                    c = curv[j]
                    if c == 0.0:
                        continue
                    idx, vals = row_cache[j]
                    omega = w[j] + delta[jj]
                    z = c * omega - lin[jj] - sigma * float(vals @ u_p[idx]) / m
                    tau = soft_threshold(np.array([z]), lam)[0] / c
                    step = tau - omega
                    if step != 0.0:
                        u_p[idx] += vals * step
                        delta[jj] += step
                    flops[p] += 4.0 * idx.size
            deltas.append(delta)
            delta_vs.append(u_p)
        cluster.compute(flops, label="local_cd")

        # ONE allreduce of the m-word shared-state update.
        total_dv = cluster.allreduce(delta_vs, label="allreduce_dv")
        v = v + aggregation * total_dv
        for p in range(nranks):
            w[rank_features[p]] += aggregation * deltas[p]
        cluster.compute(2.0 * m, label="apply_update")
        rounds_done = rnd

        if rnd % monitor_every == 0 or rnd == n_rounds:
            obj = problem.value(w)  # out of band
            history.append(
                rnd, obj, stopping.rel_error(obj), sim_time=cluster.elapsed, comm_round=rnd
            )
            if stopping.satisfied(obj, prev_obj):
                converged = True
                break
            prev_obj = obj

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=rounds_done,
        history=history,
        n_comm_rounds=rounds_done,
        cost=cluster.cost.summary(),
        meta={
            "solver": "proxcocoa",
            "nranks": nranks,
            "local_epochs": local_epochs,
            "sigma_prime": sigma,
            "aggregation": aggregation,
            "machine": cluster.machine.name,
        },
    )
