"""Experiment orchestration.

Key observation exploited throughout: on the simulator, a solver's *iterate
trajectory* is independent of the processor count ``P`` (every ``P`` runs
the same arithmetic — asserted by the equivalence tests). Only the
simulated clock depends on ``(P, machine, k, S)``. Large parameter sweeps
therefore:

1. run the solver once per algorithmic configuration at P=1 on the serial
   backend to find the iteration count needed to reach the target
   tolerance, then
2. **dry-run** the distributed cost schedule for each ``P`` — a
   :class:`~repro.distsim.bsp.BSPCluster` is driven through exactly the
   phases the real distributed solver executes (same labels, same collective
   sizes, same flop charges in expectation) without repeating the numerics.

The dry-run is validated against the real distributed solvers in
``tests/test_experiments/test_runner.py`` — message and word counters must
agree exactly, clocks to within the flop-expectation tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.reference import solve_reference
from repro.core.results import SolveResult
from repro.core.stopping import StoppingCriterion
from repro.distsim.bsp import BSPCluster
from repro.distsim.machine import MachineSpec
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig
from repro.sparse.ops import packed_size
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.utils.rng import RandomState

__all__ = [
    "ProblemStats",
    "dry_run_rc_sfista",
    "iterations_to_tolerance",
    "speedup_cell",
    "reference_value",
]


@dataclass(frozen=True)
class ProblemStats:
    """Shape metadata the cost schedule depends on."""

    d: int
    m: int
    nnz: int

    @property
    def density(self) -> float:
        total = self.d * self.m
        return self.nnz / total if total else 0.0

    @staticmethod
    def of(problem: L1LeastSquares) -> "ProblemStats":
        X = problem.X
        if isinstance(X, np.ndarray):
            nnz = int(np.count_nonzero(X))
        elif isinstance(X, (CSRMatrix, CSCMatrix)):
            nnz = X.nnz
        else:  # pragma: no cover - defensive
            raise ValidationError(f"unsupported matrix type {type(X).__name__}")
        return ProblemStats(d=X.shape[0], m=X.shape[1], nnz=nnz)


def _charge_hessian_phase(
    cluster: BSPCluster, stats: ProblemStats, mbar: int, blocks: int, with_rhs: bool
) -> None:
    """Expected per-rank flops of forming *blocks* sampled (H, R) pairs.

    Matches :meth:`RankData.sampled_hessian_contribution`: sparse Gram
    charges 2·Σ nnz(x_s)²; in expectation each sampled column has
    ``nnz/m`` entries and each rank owns ``mbar/P`` of the sample.
    """
    P = cluster.nranks
    col_nnz = stats.nnz / stats.m if stats.m else 0.0
    local_cols = mbar / P
    gram = 2.0 * local_cols * col_nnz * col_nnz
    rhs = 2.0 * local_cols * col_nnz if with_rhs else 0.0
    cluster.compute(blocks * (gram + rhs), label="hessian_blocks")


def _charge_anchor_gradient(cluster: BSPCluster, stats: ProblemStats) -> None:
    """SVRG epoch anchor: local full-gradient pass + d-word allreduce."""
    cluster.compute(4.0 * stats.nnz / cluster.nranks, label="anchor_gradient")
    cluster.charge_allreduce(stats.d, label="allreduce_anchor_grad")


def _update_flops(d: int) -> float:
    return 2.0 * d * d + 8.0 * d


def dry_run_rc_sfista(
    stats: ProblemStats,
    nranks: int,
    machine: str | MachineSpec,
    *,
    n_iterations: int,
    mbar: int,
    k: int,
    S: int,
    estimator: str = "svrg",
    iters_per_epoch: int | None = None,
    allreduce_algorithm: str = "recursive_doubling",
    jitter_seed: RandomState = None,
) -> BSPCluster:
    """Drive a cluster through the RC-SFISTA cost schedule (no numerics).

    ``k = S = 1`` is the SFISTA schedule. Returns the cluster; read
    ``cluster.elapsed`` and ``cluster.cost``. ``n_iterations`` is the total
    inner-iteration count actually executed; ``iters_per_epoch`` is the
    anchor-refresh interval of the run being replayed (``None`` → one epoch
    covering everything), so the schedule pays the SVRG anchor allreduce
    exactly as often as the real solver did.
    """
    if iters_per_epoch is None:
        iters_per_epoch = n_iterations
    if min(n_iterations, k, S, iters_per_epoch) < 1:
        raise ValidationError("n_iterations, k, S, iters_per_epoch must be >= 1")
    epochs = -(-n_iterations // iters_per_epoch)
    cluster = BSPCluster(
        nranks, machine, allreduce_algorithm=allreduce_algorithm, jitter_seed=jitter_seed
    )
    d = stats.d
    remaining = n_iterations
    for _epoch in range(epochs):
        iters = min(iters_per_epoch, remaining)
        if iters <= 0:
            break
        remaining -= iters
        if estimator == "svrg":
            _charge_anchor_gradient(cluster, stats)
        n_rounds = -(-iters // k)
        done = 0
        for _rnd in range(n_rounds):
            block = min(k, iters - done)
            done += block
            _charge_hessian_phase(cluster, stats, mbar, block, with_rhs=(estimator == "plain"))
            cluster.charge_allreduce(block * (packed_size(d) + d), label="allreduce_G")
            for _j in range(block):
                if estimator == "svrg":
                    cluster.compute(2.0 * d * d, label="svrg_rhs")
                for _s in range(S):
                    cluster.compute(_update_flops(d), label="update")
    return cluster


def dry_run_pn_inner(
    stats: ProblemStats,
    nranks: int,
    machine: str | MachineSpec,
    *,
    inner: str,
    n_outer: int,
    inner_iters: int,
    mbar: int,
    k: int = 1,
    S: int = 1,
    allreduce_algorithm: str = "recursive_doubling",
) -> BSPCluster:
    """Cost schedule of distributed proximal Newton (Fig. 7).

    Mirrors :func:`repro.core.prox_newton.proximal_newton_distributed`
    phase-for-phase: ``inner="fista"`` pays one exact Hessian-apply plus a
    d-word allreduce per inner iteration; ``inner="rc_sfista"`` one k-block
    k·d(d+1)/2-word allreduce (each block its packed upper triangle) per k
    inner iterations with S-fold Hessian reuse — at ``k = S = 1`` the
    SFISTA inner solver.
    """
    if inner not in ("fista", "rc_sfista"):
        raise ValidationError(f"inner must be fista|rc_sfista, got {inner!r}")
    if min(n_outer, inner_iters, k, S) < 1:
        raise ValidationError("n_outer, inner_iters, k, S must be >= 1")
    cluster = BSPCluster(nranks, machine, allreduce_algorithm=allreduce_algorithm)
    d = stats.d
    for _outer in range(n_outer):
        # outer full gradient
        cluster.compute(4.0 * stats.nnz / nranks, label="full_gradient")
        cluster.charge_allreduce(d, label="allreduce_grad")
        if inner == "fista":
            for _i in range(inner_iters):
                cluster.compute(4.0 * stats.nnz / nranks, label="hessian_apply")
                cluster.charge_allreduce(d, label="allreduce_Hv")
                cluster.compute(8.0 * d, label="update")
        else:
            done = 0
            while done < inner_iters:
                block = min(k, inner_iters - done)
                _charge_hessian_phase(cluster, stats, mbar, block, with_rhs=False)
                cluster.charge_allreduce(block * packed_size(d), label="allreduce_G")
                for _j in range(block):
                    cluster.compute(2.0 * d * d, label="model_rhs")
                    for _s in range(S):
                        cluster.compute(_update_flops(d), label="update")
                done += block
    return cluster


# ---------------------------------------------------------------------- #
# trajectory measurements (serial, P-independent)
# ---------------------------------------------------------------------- #
def reference_value(problem: L1LeastSquares, tol: float = 1e-8) -> float:
    """``F(w*)`` for *problem*, memoized on the problem instance.

    The cache lives on the object itself (not an id()-keyed module dict —
    ids are reused after garbage collection and would silently hand one
    problem another problem's optimum).
    """
    cache: dict[float, float] = problem.__dict__.setdefault("_reference_cache", {})
    if tol not in cache:
        cache[tol] = solve_reference(problem, tol=tol).meta["fstar"]
    return cache[tol]


def iterations_to_tolerance(
    problem: L1LeastSquares,
    *,
    tol: float,
    fstar: float | None = None,
    k: int = 1,
    S: int = 1,
    b: float = 0.1,
    estimator: str = "svrg",
    seed: RandomState = 0,
    epochs: int = 20,
    iters_per_epoch: int = 100,
    step_size: float | None = None,
    monitor_every: int = 1,
) -> SolveResult:
    """RC-SFISTA at P=1 on the serial backend, run to the paper's stopping rule.

    Because trajectories are P-independent, the returned ``n_iterations``
    and ``n_comm_rounds`` (stage-C rounds plus one anchor round per SVRG
    epoch) are exactly what the distributed runs need; feed them to the
    dry-run schedulers to get simulated times for any P.
    """
    fstar = reference_value(problem) if fstar is None else fstar
    return rc_sfista_distributed(
        problem,
        1,
        k=k,
        S=S,
        b=b,
        estimator=estimator,
        seed=seed,
        epochs=epochs,
        iters_per_epoch=iters_per_epoch,
        step_size=step_size,
        stopping=StoppingCriterion(tol=tol, fstar=fstar),
        monitor_every=monitor_every,
        runtime=RuntimeConfig(backend="serial"),
    )


def speedup_cell(
    problem: L1LeastSquares,
    *,
    nranks: int,
    machine: str | MachineSpec,
    tol: float,
    k: int,
    S: int = 1,
    b: float = 0.01,
    estimator: str = "svrg",
    seed: RandomState = 0,
    epochs: int = 20,
    iters_per_epoch: int = 100,
    step_size: float | None = None,
    fstar: float | None = None,
    allreduce_algorithm: str = "recursive_doubling",
) -> dict[str, float]:
    """One (dataset, P, k, S) cell of Figs. 4–5.

    Runs the serial trajectories of SFISTA (k=S=1) and RC-SFISTA(k, S) to
    *tol*, then dry-runs both distributed cost schedules on *nranks* and
    reports simulated times and the speedup ratio.
    """
    stats = ProblemStats.of(problem)
    fstar = reference_value(problem) if fstar is None else fstar

    base = iterations_to_tolerance(
        problem, tol=tol, fstar=fstar, k=1, S=1, b=b, estimator=estimator, seed=seed,
        epochs=epochs, iters_per_epoch=iters_per_epoch, step_size=step_size,
    )
    rc = iterations_to_tolerance(
        problem, tol=tol, fstar=fstar, k=k, S=S, b=b, estimator=estimator, seed=seed,
        epochs=epochs, iters_per_epoch=iters_per_epoch, step_size=step_size,
    )
    mbar = base.meta["mbar"]

    sf_cluster = dry_run_rc_sfista(
        stats, nranks, machine, n_iterations=base.n_iterations, mbar=mbar,
        k=1, S=1, estimator=estimator, iters_per_epoch=iters_per_epoch,
        allreduce_algorithm=allreduce_algorithm,
    )
    rc_cluster = dry_run_rc_sfista(
        stats, nranks, machine, n_iterations=rc.n_iterations, mbar=mbar,
        k=k, S=S, estimator=estimator, iters_per_epoch=iters_per_epoch,
        allreduce_algorithm=allreduce_algorithm,
    )
    t_sf = sf_cluster.elapsed
    t_rc = rc_cluster.elapsed
    return {
        "nranks": nranks,
        "k": k,
        "S": S,
        "iters_sfista": base.n_iterations,
        "iters_rc": rc.n_iterations,
        "rounds_rc": rc.n_comm_rounds,
        "time_sfista": t_sf,
        "time_rc": t_rc,
        "speedup": t_sf / t_rc if t_rc > 0 else float("inf"),
        "converged_sfista": float(base.converged),
        "converged_rc": float(rc.converged),
    }
