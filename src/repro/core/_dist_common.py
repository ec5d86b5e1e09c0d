"""Shared machinery for the distributed solvers.

Implements the data placement of paper §4.1 / Fig. 1: ``X`` (features ×
samples) is partitioned *column-wise* and ``y`` *row-wise* over ``P``
ranks; the iterate ``w`` and all update state are replicated. Sampling
decisions are derived from a seed shared by all ranks, so the global index
set ``I_n`` is agreed upon without communication — each rank keeps the
indices it owns (paper §5.5: "initializing all processors with the same
seed").

It also holds the scaffold every distributed solver shares around its
stage A–D body: :class:`RankPlacement` (everything whose shape depends on
the rank count, rebuilt on an elastic shrink, and the one stage-B packer),
:func:`svrg_rhs` and :func:`hessian_reuse_update` (stage D) and
:func:`run_params` (the runtime half of the run summary).

Stages B and D run one path for every (loss, penalty) pair: each rank
evaluates its loss's quadratic model at the linearization point
(:meth:`RankData.local_model`) and the packer weights the sampled Gram
by its curvatures. The squared loss is the unweighted case ``c ≡ 1,
r = y``, which computes and charges nothing beyond the data-only blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.model import ERMObjective
from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import (
    GramWorkspace,
    gram_flops,
    packed_size,
    rhs_flops,
    sampled_gram_blocks,
    sampled_rhs,
)
from repro.sparse.partition import ColumnPartition, partition_columns
from repro.sparse.rfp import RFPMatrix, RFPMatvec, gram_kernel

__all__ = [
    "RankData",
    "RankPlacement",
    "RankWorkspaces",
    "DistributedData",
    "distribute_problem",
    "run_params",
    "hessian_reuse_update",
    "svrg_rhs",
    "UPDATE_FLOPS",
]


class RankWorkspaces:
    """Gram scratch for the per-rank stages, safe under ``map_ranks``.

    :class:`~repro.sparse.ops.GramWorkspace` is shared mutable scratch —
    correct when ranks run one after another, corrupt when a backend with
    ``parallel_ranks`` runs the per-rank closures concurrently. This
    wrapper hands rank ``p`` the right instance either way: one shared
    workspace on serial-map backends (the historical allocation profile),
    a private workspace per rank under parallel maps. Results are
    bit-identical in both layouts; only buffer reuse differs.

    Exposes the summed ``reuses`` counter so
    :class:`~repro.runtime.driver.ResilientLoop` can keep reporting the
    ``gram_workspace_reuses`` perf stat unchanged.
    """

    def __init__(self, nranks: int, d: int, max_cols: int, *, parallel: bool) -> None:
        if parallel:
            self._workspaces = [GramWorkspace(d, max_cols) for _ in range(nranks)]
        else:
            shared = GramWorkspace(d, max_cols)
            self._workspaces = [shared] * nranks

    def __getitem__(self, rank: int) -> GramWorkspace:
        return self._workspaces[rank]

    @property
    def reuses(self) -> int:
        distinct = {id(ws): ws for ws in self._workspaces}
        return sum(ws.reuses for ws in distinct.values())


def hessian_reuse_update(
    H: np.ndarray | RFPMatrix,
    R: np.ndarray,
    v: np.ndarray,
    *,
    gamma: float,
    prox,
    S: int = 1,
    eps_reg: float = 0.0,
) -> np.ndarray:
    """``S`` Hessian-reuse prox steps on the sampled model (Eqs. 20–23).

    The replicated stage-D arithmetic shared by every execution substrate
    (serial, BSP, mp and threads): starting from the
    momentum point ``v``, iterate ``u ← prox(u − γ(Hu − R + ε(u − v)), γ)``
    with the penalty's ``prox(w, gamma)`` (for ``λ‖·‖₁`` the
    soft-threshold at ``λγ``). ``S=1, eps_reg=0`` is the plain SFISTA
    step. ``H`` is a shipped block (:class:`~repro.sparse.rfp.RFPMatrix`)
    or a dense array; only ``H @ u`` is used. The caller charges the
    ``UPDATE_FLOPS`` cost — this function is pure arithmetic.
    """
    u = v
    for _s in range(S):
        step_dir = H @ u - R + eps_reg * (u - v)
        u = prox(u - gamma * step_dir, gamma)
    return u


def svrg_rhs(
    H: np.ndarray | RFPMatrix,
    correction: np.ndarray,
    anchor: np.ndarray,
    full_grad: np.ndarray,
    loss,
) -> np.ndarray:
    """Stage-D right-hand side of the SVRG model: ``R = Hŵ − ∇f(ŵ) + corr``.

    With ``R`` so, ``Hu − R = H(u − a) + ĝ_S(a) − ĝ_S(ŵ) + ∇f(ŵ)`` (with
    ``ĝ_S(x) = (1/m̄) X_S ℓ'(z_x)``) is the variance-reduced gradient of
    the sampled model linearized at ``a``. ``correction`` is
    the block's stage-B payload ``(1/m̄) X_S[c(z_a − z_ŵ) − ℓ'(z_a) +
    ℓ'(z_ŵ)]``; it vanishes identically for a constant-curvature loss,
    whose payload is zero-filled and not added.
    """
    R = H @ anchor - full_grad
    if not loss.constant_curvature:
        R += correction
    return R


#: Elementwise flops per local sample of one model evaluation: ``ℓ'``,
#: ``ℓ''`` and the combination ``c·z − ℓ'``.
MODEL_FLOPS_PER_SAMPLE = 6.0


def UPDATE_FLOPS(d: int) -> float:
    """Per-rank flops of one replicated inner update: d×d GEMV + vector ops.

    Must stay in sync with :func:`repro.perf.model.update_flops_per_step`
    (the Table 1 model) — the tests assert the two agree.
    """
    return 2.0 * d * d + 8.0 * d


@dataclass
class RankData:
    """One rank's share of the data."""

    rank: int
    X_local: np.ndarray | CSCMatrix  # d × m_local column block
    y_local: np.ndarray
    col_offset: int  # global index of the first owned column

    @property
    def m_local(self) -> int:
        return self.X_local.shape[1]

    def sampled_hessian_contribution(
        self,
        idx_sets: Sequence[np.ndarray],
        mbar: int,
        d: int,
        *,
        workspace=None,
        out: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        response: np.ndarray | None = None,
        rhs: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """This rank's stage-B blocks of one round, plus their flop cost.

        Row ``j`` of the returned ``(len(idx_sets), stride)`` array is the
        local share of block ``j`` for the global sample set
        ``idx_sets[j]``: the symmetric ``H_j = (1/m̄) X_p,S diag(c)
        X_p,Sᵀ`` in rectangular full packed format (``d(d + 1)/2`` words,
        ``d`` the feature count; see :mod:`repro.sparse.rfp`) followed,
        with ``rhs``, by
        ``R_j = (1/m̄) X_p,S r_p,S`` (``d`` words; ``response=None``
        zero-fills it). Summing the rows
        over ranks gives the global blocks exactly. ``weights`` and
        ``response`` are this rank's per-sample ``c`` and ``r`` (``None``
        weights: ``c ≡ 1``, the data-only Gram). The rank's columns of all
        sets are gathered once (:func:`repro.sparse.ops.sampled_gram_blocks`);
        ``workspace``/``out`` make the call allocation-free with
        bit-identical results.

        Returns ``(blocks, local_idx, flops)``, ``local_idx`` being the
        concatenated local columns of every set.
        """
        if self.X_local.shape[0] != d:
            raise ShapeError(f"rank data has {self.X_local.shape[0]} features, not d={d}")
        # Restrict every set at once: set j's local columns are
        # local_idx[offsets[j]:offsets[j + 1]].
        idx = np.concatenate([np.empty(0, dtype=np.int64), *idx_sets])
        mine = (idx >= self.col_offset) & (idx < self.col_offset + self.m_local)
        local_idx = idx[mine] - self.col_offset
        bounds = np.cumsum([0, *map(len, idx_sets)])
        offsets = np.concatenate(([0], np.cumsum(mine)))[bounds].tolist()
        blocks = sampled_gram_blocks(
            self.X_local, local_idx, offsets, scale=1.0 / mbar, weights=weights,
            response=response, rhs=rhs, workspace=workspace, out=out,
        )
        flops = gram_flops(self.X_local, local_idx, weighted=weights is not None)
        if rhs and response is not None:
            flops += rhs_flops(self.X_local, local_idx)
        return blocks, local_idx, float(flops)

    def sampled_rhs_contribution(
        self,
        local_idx: np.ndarray,
        mbar: int,
        d: int,
        *,
        workspace=None,
        out: np.ndarray | None = None,
        response: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Local contribution ``(1/m̄) X_p,S r_p,S`` plus its flop cost.

        ``response`` is this rank's per-sample vector ``r`` (``None``: the
        labels ``y_p``, the squared loss's working response). The
        one-block reference for the ``R_j`` rows of
        :meth:`sampled_hessian_contribution`, which the solvers call.
        """
        if local_idx.size == 0:
            if out is None:
                return np.zeros(d), 0.0
            out.fill(0.0)
            return out, 0.0
        R_p = sampled_rhs(
            self.X_local, self.y_local if response is None else response, local_idx,
            scale=1.0 / mbar, workspace=workspace, out=out,
        )
        return R_p, float(rhs_flops(self.X_local, local_idx))

    def gradient_contribution(self, w: np.ndarray, m: int, loss) -> tuple[np.ndarray, float]:
        """Local gradient ``(1/m) X_p ℓ'(X_pᵀ w, y_p)`` plus flops.

        Charged ``4·nnz`` (dense: ``4·d·m_local``) for every loss: the two
        products dominate; for the squared loss ``ℓ'(z, y) = z − y`` is the
        residual.
        """
        if self.m_local == 0:
            return np.zeros(w.shape[0]), 0.0
        z, flops = self.local_predictions(w)
        gvec = loss.grad(z, self.y_local)
        if isinstance(self.X_local, np.ndarray):
            g = self.X_local @ gvec / m
        else:
            g = self.X_local.matvec(gvec) / m
        return g, 2.0 * flops

    def local_predictions(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Per-sample local predictions ``z_p = X_pᵀ w`` plus flops.

        The column partition places every sample wholly on one rank, so
        predictions need no communication.
        """
        if self.m_local == 0:
            return np.zeros(0), 0.0
        if isinstance(self.X_local, np.ndarray):
            z = self.X_local.T @ w
            flops = float(2 * self.X_local.shape[0] * self.m_local)
        else:
            z = self.X_local.rmatvec(w)
            flops = float(2 * self.X_local.nnz)
        return z, flops

    def local_model(
        self, point: np.ndarray, loss, *, anchor: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, np.ndarray | None, float]:
        """This rank's per-sample quadratic model of *loss* at *point*.

        Returns ``(c, r, flops)`` from :meth:`SmoothLoss.model
        <repro.core.model.SmoothLoss.model>` at ``z = X_pᵀ point``: the
        curvature weights (``None`` for a constant-curvature loss) and the
        working response, the per-sample inputs of the stage-B packer.
        With an SVRG ``anchor`` ŵ, ``r`` is instead the correction
        ``c(z − z_ŵ) − ℓ'(z) + ℓ'(z_ŵ)`` (see :func:`svrg_rhs`), which is
        ``None`` for a constant-curvature loss. A constant-curvature model
        needs no predictions and costs no flops.
        """
        if loss.constant_curvature:
            c, r = loss.model(None, self.y_local)
            return c, (r if anchor is None else None), 0.0
        z, flops = self.local_predictions(point)
        c, r = loss.model(z, self.y_local)
        flops += MODEL_FLOPS_PER_SAMPLE * self.m_local
        if anchor is not None:
            z_anchor, fl = self.local_predictions(anchor)
            r = r - (c * z_anchor - loss.grad(z_anchor, self.y_local))
            flops += fl + MODEL_FLOPS_PER_SAMPLE * self.m_local
        return c, r, flops

    def _restrict(self, global_idx: np.ndarray) -> np.ndarray:
        lo = self.col_offset
        hi = lo + self.m_local
        mine = global_idx[(global_idx >= lo) & (global_idx < hi)]
        return mine - lo


@dataclass
class DistributedData:
    """The problem's data scattered over all ranks."""

    problem: ERMObjective
    partition: ColumnPartition
    ranks: list[RankData]

    @property
    def nranks(self) -> int:
        return len(self.ranks)


def distribute_problem(problem: ERMObjective, nranks: int) -> DistributedData:
    """Column-partition *problem* over *nranks* ranks (paper §4.1)."""
    if nranks < 1:
        raise ValidationError(f"nranks must be >= 1, got {nranks}")
    part = partition_columns(problem.m, nranks)
    X = problem.X
    csc: CSCMatrix | None = None
    if isinstance(X, CSRMatrix):
        csc = X.to_csc()
    elif isinstance(X, CSCMatrix):
        csc = X
    ranks = []
    for p in range(nranks):
        sl = part.local_slice(p)
        if csc is not None:
            block: np.ndarray | CSCMatrix = csc.select_columns(
                np.arange(sl.start, sl.stop, dtype=np.int64)
            )
        else:
            block = X[:, sl]  # type: ignore[index]
        ranks.append(
            RankData(
                rank=p,
                X_local=block,
                y_local=problem.y[sl],
                col_offset=sl.start,
            )
        )
    return DistributedData(problem=problem, partition=part, ranks=ranks)


class RankPlacement:
    """The rank-count-dependent state of one distributed run.

    Holds the column-partitioned data (:class:`DistributedData`), the Gram
    scratch (:class:`RankWorkspaces`, each pool sized once for a round's
    ``blocks·m̄`` columns) and one stage-C payload buffer of ``blocks``
    blocks per rank, so :meth:`pack` builds each rank's blocks in place
    with no per-iteration allocation. A block is the symmetric ``H_j`` in
    rectangular full packed format (``d(d + 1)/2`` words) followed, with
    ``rhs``, by ``R_j`` (``d`` words); :meth:`block` reads a reduced block
    as shipped. The solver reads ``placement.data`` afresh every round,
    because an elastic pool shrink swaps it in :meth:`repartition`.
    """

    def __init__(self, data: DistributedData, loop, *, mbar: int, blocks: int, rhs: bool) -> None:
        self._loop = loop
        self._mbar = mbar
        self._blocks = blocks
        self._rhs = rhs
        d = data.problem.d
        self._packed = packed_size(d)
        self._stride = self._packed + d if rhs else self._packed
        self._place(data)
        self._matvec = RFPMatvec(d)  # stage D runs on one thread

    def _place(self, data: DistributedData) -> None:
        d = data.problem.d
        self.data = data
        self.workspaces = RankWorkspaces(
            data.nranks,
            d,
            self._blocks * self._mbar,
            parallel=self._loop.backend.parallel_ranks,
        )
        self.buffers = [np.empty(self._blocks * self._stride) for _ in range(data.nranks)]
        # The loop reports the workspaces' reuse counter in meta["perf"].
        self._loop.workspace = self.workspaces

    def pack(
        self,
        p: int,
        idx_sets: list[np.ndarray],
        *,
        weights: np.ndarray | None = None,
        response: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Stage B of rank *p*: one block per sample set, in its payload buffer.

        Block ``j`` is the packed ``H_j = (1/m̄) X_{p,S_j} diag(c) X_{p,S_j}ᵀ``
        followed, with ``rhs``, by ``R_j = (1/m̄) X_{p,S_j} r``: ``weights`` and
        ``response`` are the rank's per-sample ``c`` and ``r`` from
        :meth:`RankData.local_model` (``response=None`` zero-fills ``R_j``).
        Summing the returned views over ranks gives the global blocks
        exactly. Returns the filled view of the buffer and its flops.
        """
        buf = self.buffers[p][: len(idx_sets) * self._stride]
        _, _, flops = self.data.ranks[p].sampled_hessian_contribution(
            idx_sets, self._mbar, self.data.problem.d,
            workspace=self.workspaces[p], out=buf.reshape(len(idx_sets), self._stride),
            weights=weights, response=response, rhs=self._rhs,
        )
        return buf, flops

    def block(self, combined: np.ndarray, j: int) -> tuple[RFPMatrix, np.ndarray]:
        """Block *j* of a reduced stage-C payload as ``(H_j, R_j)``.

        ``H_j`` multiplies its RFP words in place (``H_j @ u``); both are
        views of *combined*, valid while it is (``R_j`` is empty without
        ``rhs``).
        """
        row = combined[j * self._stride : (j + 1) * self._stride]
        return self._matvec.bind(row[: self._packed]), row[self._packed :]

    def repartition(self, new_nranks: int, lost_ranks) -> float:
        """Shrink to *new_nranks*: re-scatter columns, rebuild rank-sized state.

        Returns the words that must move to new owners — the lost ranks'
        column blocks (``local_size`` columns of X plus y) — charged by
        the loop as recovery traffic. Deterministic: ``partition_columns``
        depends only on (m, P′), so every replay shrinks identically.
        """
        problem = self.data.problem
        moved = float(
            (problem.d + 1) * sum(self.data.partition.local_size(r) for r in lost_ranks)
        )
        self._place(distribute_problem(problem, new_nranks))
        return moved


def run_params(loop, nranks: int, problem: ERMObjective) -> dict:
    """The runtime keys every distributed solver reports in its run summary.

    ``gram_kernel`` names the stage-B/D kernel path
    (:func:`repro.sparse.rfp.gram_kernel`): ``"openblas"``, or the numpy
    fallback.

    Each solver merges its own algorithm keys into this dict and hands the
    result to ``loop.start``; ``loop.finish`` returns it, with the outcome
    and the ``resilience``/``perf`` blocks, as ``SolveResult.meta``.
    """
    config = loop.config
    return {
        "nranks": nranks,
        "machine": loop.backend.machine_name,
        "allreduce_algorithm": loop.backend.allreduce_algorithm,
        "comm": config.comm,
        "comm_topology": config.comm_topology,
        "comm_compress": config.comm_compress,
        "checkpoint_every": config.checkpoint_every,
        "on_nan": config.on_nan,
        "max_recoveries": config.max_recoveries,
        "adaptive_restart": config.adaptive_restart,
        "loss": problem.loss.name,
        "penalty": problem.penalty.spec,
        "gram_kernel": gram_kernel(),
    }
