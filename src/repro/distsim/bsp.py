"""Lock-step bulk-synchronous cluster — the solvers' execution substrate.

The algorithms in this paper are bulk-synchronous: every iteration is a
local compute phase followed by a collective (Fig. 1, stages A–D). The
:class:`BSPCluster` models exactly that: per-rank clocks advance through
compute phases (optionally with straggler jitter), and collectives
synchronize all clocks to ``max(clocks) + T_collective`` while charging each
rank its message/word counts. All collective *results* are computed for
real, so a solver run on the cluster produces numerically the same iterates
as a genuine MPI run with the same data placement.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import (
    CommTimeoutError,
    CommunicatorError,
    RankFailureError,
    ValidationError,
)
from repro.distsim import collectives as coll
from repro.distsim import sparse_collectives as sc
from repro.distsim.compress import CompressionSpec, CompressorBank, parse_compression_spec
from repro.distsim.cost import ClusterCost, CostCounter, PhaseKind
from repro.distsim.faults import FaultInjector, FaultPlan, RetryPolicy, as_injector
from repro.distsim.machine import HierarchicalMachine, MachineSpec, get_machine
from repro.distsim.trace import Trace, TraceEvent
from repro.utils.rng import RandomState, as_generator

__all__ = ["BSPCluster"]


class BSPCluster:
    """``P`` virtual ranks executing lock-step supersteps.

    Parameters
    ----------
    nranks:
        Number of virtual processors ``P``.
    machine:
        Machine preset name or :class:`MachineSpec`.
    allreduce_algorithm:
        One of ``"recursive_doubling"`` (default, matches the paper's
        Table 1 accounting), ``"binomial_tree"``, ``"ring"``.
    jitter_seed:
        Seed for the straggler model; only used when the machine spec has
        ``straggler_sigma > 0``.
    trace:
        Optional :class:`Trace` to record phases into (a fresh enabled
        trace is created when omitted).
    injector:
        Optional :class:`~repro.distsim.faults.FaultInjector` (or a
        :class:`~repro.distsim.faults.FaultPlan`, converted for you). The
        cluster consults it once per collective — op index is the *global
        collective index* — for stalls, per-rank contribution corruption,
        torn-collective losses and crash latching. An injector built from
        an empty plan leaves every charge and result bit-identical to no
        injector at all.
    retry:
        :class:`~repro.distsim.faults.RetryPolicy` for torn collectives:
        each lost attempt re-charges the collective (tagged as retry
        traffic) plus an exponential backoff. Without a policy, a torn
        collective raises :class:`~repro.exceptions.CommTimeoutError`.
    collective_deadline:
        Optional deadline (simulated seconds) on rank arrival skew at a
        collective: if the earliest and latest arriving ranks differ by
        more than this, :class:`~repro.exceptions.CommTimeoutError` is
        raised instead of silently absorbing the straggler.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the cluster
        publishes into (``distsim_*`` instruments: phase counts, word and
        message totals, fault/retry counters, the simulated-clock gauge).
        Publishing is strictly observational — costs, clocks, traces and
        collective results are bit-identical with or without it.
    """

    def __init__(
        self,
        nranks: int,
        machine: str | MachineSpec = "comet_effective",
        *,
        allreduce_algorithm: str = "recursive_doubling",
        jitter_seed: RandomState = None,
        trace: Trace | None = None,
        injector: FaultInjector | FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        collective_deadline: float | None = None,
        metrics=None,
        comm_topology: str = "flat",
        comm_compress: "str | CompressionSpec" = "none",
        compress_seed: int = 0,
    ) -> None:
        if nranks < 1:
            raise ValidationError(f"nranks must be >= 1, got {nranks}")
        if allreduce_algorithm not in coll.ALLREDUCE_ALGORITHMS:
            raise ValidationError(
                f"unknown allreduce algorithm {allreduce_algorithm!r}; "
                f"choose from {coll.ALLREDUCE_ALGORITHMS}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ValidationError(f"retry must be a RetryPolicy or None, got {type(retry).__name__}")
        if collective_deadline is not None and not (
            np.isfinite(collective_deadline) and collective_deadline > 0
        ):
            raise ValidationError(
                f"collective_deadline must be finite and > 0, got {collective_deadline}"
            )
        self.nranks = int(nranks)
        self.machine = get_machine(machine)
        self.allreduce_algorithm = allreduce_algorithm
        # Collectives v2 knobs (docs/COLLECTIVES.md). The defaults leave
        # every charge, trace and result byte-identical to pre-v2 clusters.
        if comm_topology not in coll.COMM_TOPOLOGIES:
            raise ValidationError(
                f"unknown comm topology {comm_topology!r}; "
                f"choose from {coll.COMM_TOPOLOGIES}"
            )
        self.comm_topology = comm_topology
        self.compress = parse_compression_spec(comm_compress)
        if comm_topology == "hier":
            if not (
                isinstance(self.machine, HierarchicalMachine) and self.machine.node_size > 1
            ):
                raise ValidationError(
                    f"comm_topology='hier' needs a hierarchical machine "
                    f"(node_size > 1); {self.machine.name!r} is single-level — "
                    f"pick e.g. 'comet_4ppn' or 'fat_tree'"
                )
            s = self.machine.node_size
            if s & (s - 1):
                raise ValidationError(
                    f"comm_topology='hier' needs a power-of-two node_size for "
                    f"bit-identity with the flat tournament; "
                    f"{self.machine.name!r} has node_size={s}"
                )
        self._compressor = (
            CompressorBank(self.compress, seed=compress_seed) if self.compress.enabled else None
        )
        self._v2_active = self.compress.enabled or comm_topology == "hier"
        self.counters = [CostCounter(rank=r) for r in range(self.nranks)]
        self.trace = trace if trace is not None else Trace()
        self._jitter_rng = as_generator(jitter_seed) if self.machine.straggler_sigma else None
        self._injector = as_injector(injector)
        self._retry = retry
        self._deadline = None if collective_deadline is None else float(collective_deadline)
        # Global collective index: monotone for the lifetime of the cluster
        # (survives reset()) so one-shot scheduled faults never refire when
        # a resilient solver rolls back and replays.
        self._coll_index = 0
        self._pending_fault = None
        # Encoding the most recent allreduce-family collective actually used
        # ("dense"/"sparse"); solver telemetry reads it per stage-C round.
        self.last_comm_decision: str | None = None
        self._metrics = metrics
        if metrics is not None:
            self._m_phases = metrics.counter(
                "distsim_phases_total", help="simulated phases by kind and label"
            )
            self._m_flops = metrics.counter(
                "distsim_flops_total", help="flops charged across all ranks"
            )
            self._m_words = metrics.counter(
                "distsim_words_total", help="words moved across all ranks"
            )
            self._m_messages = metrics.counter(
                "distsim_messages_total", help="messages sent across all ranks"
            )
            self._m_sparse_words = metrics.counter(
                "distsim_sparse_words_total", help="words moved in index+value encoding"
            )
            self._m_saved_words = metrics.counter(
                "distsim_saved_words_total", help="dense-equivalent words avoided"
            )
            self._m_retry_words = metrics.counter(
                "distsim_retry_words_total", help="fault-tolerance words (retries, recovery)"
            )
            self._m_retry_messages = metrics.counter(
                "distsim_retry_messages_total", help="fault-tolerance messages"
            )
            self._m_checkpoint_words = metrics.counter(
                "distsim_checkpoint_words_total", help="words spent on checkpoints"
            )
            self._m_faults = metrics.counter(
                "distsim_faults_total", help="injected fault effects by type"
            )
            self._m_decisions = metrics.counter(
                "distsim_comm_decisions_total",
                help="allreduce encoding decisions (dense vs sparse)",
            )
            self._m_clock = metrics.gauge(
                "distsim_sim_time_seconds", help="current simulated wall-clock"
            )
            self._m_phase_seconds = metrics.histogram(
                "distsim_phase_seconds", help="simulated phase durations"
            )
        # Collectives-v2 instruments exist only when the v2 knobs are active,
        # so default-config metric snapshots stay byte-identical.
        if metrics is not None and self._v2_active:
            self._m_rounds_local = metrics.counter(
                "distsim_comm_rounds_local_total",
                help="node-local rounds of the two-level allreduce schedule",
            )
            self._m_rounds_remote = metrics.counter(
                "distsim_comm_rounds_remote_total",
                help="inter-node rounds of the allreduce schedule",
            )
            self._m_compress_saved = metrics.counter(
                "distsim_comm_words_saved_compress_total",
                help="dense-equivalent words avoided by lossy compression",
            )
            self._m_ef_residual = metrics.gauge(
                "distsim_comm_error_feedback_residual",
                help="l2 norm of the top-k error-feedback residuals",
            )

    def _publish_v2(self, charge: "coll.AllreduceCharge") -> None:
        """Publish the v2 round/compression instruments for one allreduce."""
        if self._metrics is None or not self._v2_active:
            return
        if charge.rounds_local:
            self._m_rounds_local.inc(float(charge.rounds_local))
        if charge.rounds_remote:
            self._m_rounds_remote.inc(float(charge.rounds_remote))
        if self.compress.enabled and charge.saved_words > 0:
            self._m_compress_saved.inc(charge.saved_words * self.nranks)
        if self._compressor is not None and self.compress.kind == "topk":
            self._m_ef_residual.set(self._compressor.residual_norm())

    # -- compression / rollback state ----------------------------------- #
    def comm_state_snapshot(self):
        """Compressor state (error-feedback residuals, RNG call counts).

        ``None`` when compression is off; deep-copied so checkpoints can
        restore it for bit-exact rollback replay.
        """
        return None if self._compressor is None else self._compressor.snapshot()

    def comm_state_restore(self, snap) -> None:
        if self._compressor is not None and snap is not None:
            self._compressor.restore(snap)

    def _note_decision(self, decision: str) -> None:
        self.last_comm_decision = decision
        if self._metrics is not None:
            self._m_decisions.inc(decision=decision)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def cost(self) -> ClusterCost:
        """Aggregate cost view (live — reflects counters as they stand)."""
        return ClusterCost(self.counters)

    @property
    def injector(self) -> FaultInjector | None:
        """The attached fault injector (None on a fault-free cluster)."""
        return self._injector

    @property
    def elapsed(self) -> float:
        """Current simulated wall-clock time."""
        return max(c.clock for c in self.counters)

    def reset(self) -> None:
        """Zero all counters, clocks and the trace.

        The global collective index is *not* reset: scheduled one-shot
        faults fire on monotone indices so a rollback-and-replay does not
        re-trigger them.
        """
        self.counters = [CostCounter(rank=r) for r in range(self.nranks)]
        self.trace.events.clear()

    def _rank_clock_lines(self, dead: Sequence[int] = ()) -> list[str]:
        """Per-rank diagnostic lines for fault/timeout errors."""
        dead_set = set(dead)
        return [
            f"rank {c.rank}: clock={c.clock:.6g}s" + (" (crashed)" if c.rank in dead_set else "")
            for c in self.counters
        ]

    def _sync_start(self, label: str = "collective") -> float:
        """Synchronize all ranks at the start of a collective.

        With an injector attached this is also the fault boundary: the
        verdict for this collective is drawn here (stalls applied to the
        affected ranks' clocks, corruption/torn-attempt verdicts stashed
        for the collective body and :meth:`_finish_collective`), crashed
        ranks are detected, and the optional arrival-skew deadline is
        enforced.
        """
        self._pending_fault = None
        if self._injector is not None:
            fault = self._injector.collective_fault(self.nranks, self._coll_index)
            if fault.any:
                self._pending_fault = fault
            for r in sorted(fault.stalls):
                t0 = self.counters[r].clock
                self.counters[r].wait_until(t0 + fault.stalls[r])
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"stall:{label}",
                        start=t0,
                        end=self.counters[r].clock,
                        detail=f"rank {r} stalled {fault.stalls[r]:.3g}s",
                    )
                )
                if self._metrics is not None:
                    self._m_faults.inc(type="stall")
            dead = [
                r
                for r in range(self.nranks)
                if self._injector.crash_due(
                    r, time=self.counters[r].clock, op_index=self._coll_index
                )
            ]
            if dead:
                if self._metrics is not None:
                    self._m_faults.inc(len(dead), type="crash")
                t = self.elapsed
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"crash:{label}",
                        start=t,
                        end=t,
                        detail=f"rank(s) {dead} dead at collective #{self._coll_index}",
                    )
                )
                raise RankFailureError(
                    f"rank(s) {dead} crashed (injected fault) entering collective "
                    f"{label!r} (#{self._coll_index}):\n  "
                    + "\n  ".join(self._rank_clock_lines(dead))
                )
        if self._deadline is not None:
            clocks = [c.clock for c in self.counters]
            skew = max(clocks) - min(clocks)
            if skew > self._deadline:
                raise CommTimeoutError(
                    f"collective {label!r} (#{self._coll_index}) missed its deadline: "
                    f"rank arrival skew {skew:.6g}s exceeds "
                    f"collective_deadline={self._deadline:.6g}s:\n  "
                    + "\n  ".join(self._rank_clock_lines())
                )
        t = self.elapsed
        for c in self.counters:
            c.wait_until(t)
        return t

    def _apply_corruption(
        self, values: list, label: str
    ) -> list:
        """Corrupt per-rank contributions per the pending collective fault."""
        fault = self._pending_fault
        if self._injector is None or fault is None or not fault.corruptions:
            return values
        out = list(values)
        t = self.elapsed
        for r in sorted(fault.corruptions):
            if not (0 <= r < len(out)):
                continue
            mode = fault.corruptions[r]
            v = out[r]
            if isinstance(v, sc.SparseVector):
                if v.values.size == 0:
                    continue
                bad = self._injector.corrupt(
                    v.values, mode, rank=r, op_index=self._coll_index
                )
                out[r] = sc.SparseVector(v.n, v.indices, bad)
            else:
                out[r] = self._injector.corrupt(
                    np.asarray(v, dtype=np.float64), mode, rank=r, op_index=self._coll_index
                )
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.FAULT,
                    label=f"corrupt:{label}",
                    start=t,
                    end=t,
                    detail=f"rank {r} contribution corrupted ({mode})",
                )
            )
            if self._metrics is not None:
                self._m_faults.inc(type="corrupt")
        return out

    def _per_rank(self, value: float | Sequence[float] | np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(self.nranks, float(arr))
        if arr.shape != (self.nranks,):
            raise ValidationError(
                f"per-rank value must be scalar or length-{self.nranks}, got shape {arr.shape}"
            )
        return arr

    # ------------------------------------------------------------------ #
    # compute phase
    # ------------------------------------------------------------------ #
    def compute(self, flops: float | Sequence[float] | np.ndarray, label: str = "compute") -> None:
        """Advance every rank through a local compute phase.

        *flops* is a scalar (same work everywhere) or a per-rank vector.
        Straggler jitter, when enabled on the machine, multiplies each
        rank's phase time independently.
        """
        per_rank = self._per_rank(flops)
        if np.any(per_rank < 0):
            raise ValidationError("flops must be non-negative")
        start = self.elapsed
        factors = self.machine.jitter_factors(self.nranks, self._jitter_rng)
        for c, f, j in zip(self.counters, per_rank, factors):
            c.charge_compute(float(f), self.machine.compute_time(float(f)) * float(j))
        self.trace.record(
            TraceEvent(
                kind=PhaseKind.COMPUTE,
                label=label,
                start=start,
                end=self.elapsed,
                flops=float(per_rank.sum()),
            )
        )
        if self._metrics is not None:
            self._m_phases.inc(kind=PhaseKind.COMPUTE.value, label=label)
            self._m_flops.inc(float(per_rank.sum()))
            self._m_phase_seconds.observe(self.elapsed - start, kind="compute")
            self._m_clock.set(self.elapsed)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def _finish_collective(
        self,
        label: str,
        start: float,
        cost: coll.CollectiveCost,
        kind: PhaseKind,
        *,
        sparse_words: float = 0.0,
        saved_words: float = 0.0,
        detail: str = "",
        retry_messages: float = 0.0,
        retry_words: float = 0.0,
        checkpoint_words: float = 0.0,
    ) -> None:
        fault = self._pending_fault
        self._pending_fault = None
        index = self._coll_index
        self._coll_index += 1
        if fault is not None and fault.failed_attempts:
            failures = fault.failed_attempts
            if self._retry is None or failures > self._retry.max_retries:
                budget = (
                    "no retry policy attached"
                    if self._retry is None
                    else f"retry budget ({self._retry.max_retries}) exhausted"
                )
                raise CommTimeoutError(
                    f"collective {label!r} (#{index}) torn by injected message loss "
                    f"{failures} time(s) — {budget} at simulated clock "
                    f"{self.elapsed:.6g}s:\n  " + "\n  ".join(self._rank_clock_lines())
                )
            t0 = self.elapsed
            for attempt in range(1, failures + 1):
                extra = cost.time + self._retry.backoff(attempt)
                for c in self.counters:
                    c.charge_comm(
                        cost.messages,
                        cost.words,
                        extra,
                        retry_messages=cost.messages,
                        retry_words=cost.words,
                    )
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.FAULT,
                    label=f"collective_retry:{label}",
                    start=t0,
                    end=self.elapsed,
                    words=cost.words * self.nranks * failures,
                    messages=cost.messages * self.nranks * failures,
                    detail=f"{failures} torn attempt(s) re-charged",
                )
            )
            if self._metrics is not None:
                self._m_faults.inc(failures, type="torn_collective")
                self._m_words.inc(cost.words * self.nranks * failures)
                self._m_messages.inc(cost.messages * self.nranks * failures)
                self._m_retry_words.inc(cost.words * self.nranks * failures)
                self._m_retry_messages.inc(cost.messages * self.nranks * failures)
            start = self.elapsed  # the successful attempt begins after the retries
        for c in self.counters:
            c.charge_comm(
                cost.messages,
                cost.words,
                cost.time,
                sparse_words=sparse_words,
                saved_words=saved_words,
                retry_messages=retry_messages,
                retry_words=retry_words,
                checkpoint_words=checkpoint_words,
            )
        self.trace.record(
            TraceEvent(
                kind=kind,
                label=label,
                start=start,
                end=self.elapsed,
                words=cost.words * self.nranks,
                messages=cost.messages * self.nranks,
                detail=detail,
            )
        )
        if self._metrics is not None:
            self._m_phases.inc(kind=kind.value, label=label)
            self._m_words.inc(cost.words * self.nranks)
            self._m_messages.inc(cost.messages * self.nranks)
            if sparse_words:
                self._m_sparse_words.inc(sparse_words * self.nranks)
            if saved_words:
                self._m_saved_words.inc(saved_words * self.nranks)
            if retry_words or retry_messages:
                self._m_retry_words.inc(retry_words * self.nranks)
                self._m_retry_messages.inc(retry_messages * self.nranks)
            if checkpoint_words:
                self._m_checkpoint_words.inc(checkpoint_words * self.nranks)
            self._m_phase_seconds.observe(self.elapsed - start, kind=kind.value)
            self._m_clock.set(self.elapsed)

    def _check_buffers(self, values: Sequence[np.ndarray], what: str) -> list[np.ndarray]:
        if len(values) != self.nranks:
            raise CommunicatorError(
                f"{what} needs one buffer per rank ({self.nranks}), got {len(values)}"
            )
        return [np.asarray(v, dtype=np.float64) for v in values]

    def allreduce(
        self,
        values: Sequence[np.ndarray],
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "allreduce",
    ) -> np.ndarray:
        """``MPI_Allreduce`` — the single collective the RC-SFISTA
        implementation uses (Fig. 1, stage C): :meth:`allreduce_comm` with
        the dense encoding. The (replicated) result is returned once.
        """
        return self.allreduce_comm(values, mode="dense", op=op, label=label)

    def charge_allreduce(self, words: float, label: str = "allreduce") -> None:
        """Charge a dense allreduce of *words* words without moving data.

        Used by the dry-run cost replays (:mod:`repro.experiments.runner`):
        :meth:`charge_allreduce_comm` with the dense encoding.
        """
        self.charge_allreduce_comm(words, 0.0, mode="dense", label=label)

    def _check_sparse_buffers(
        self, values: Sequence[sc.SparseVector | np.ndarray], what: str
    ) -> list[sc.SparseVector]:
        if len(values) != self.nranks:
            raise CommunicatorError(
                f"{what} needs one buffer per rank ({self.nranks}), got {len(values)}"
            )
        vectors = [sc.as_sparse_vector(v) for v in values]
        n = vectors[0].n
        for i, v in enumerate(vectors):
            if v.n != n:
                raise CommunicatorError(
                    f"{what} length mismatch: rank 0 has n={n}, rank {i} has n={v.n}"
                )
        return vectors

    def _decide(self, mode: str, n: float, nnz_union: float) -> str:
        """Encoding of one allreduce: the compressor's when compression is
        on, else *mode* resolved on the union density (validates *mode*)."""
        decision = coll.resolve_comm_mode(mode, union_density=nnz_union / n if n else 0.0)
        return self.compress.kind if self.compress.enabled else decision

    def _finish_allreduce(
        self, label: str, start: float, mode: str, n: float, nnz: float
    ) -> None:
        """Price one allreduce through :func:`coll.allreduce_charge`, then
        charge, trace and publish it — the end of both allreduce entries."""
        charge = coll.allreduce_charge(
            self.machine,
            self.nranks,
            n,
            algorithm=self.allreduce_algorithm,
            mode=mode,
            nnz_union=nnz,
            topology=self.comm_topology,
            compress=self.compress,
            compressed_nnz=nnz,
        )
        self._finish_collective(
            label,
            start,
            charge.cost,
            PhaseKind.COLLECTIVE,
            sparse_words=charge.sparse_words,
            saved_words=charge.saved_words,
            detail=charge.detail,
        )
        self._publish_v2(charge)

    def allreduce_comm(
        self,
        values: Sequence[np.ndarray | sc.SparseVector],
        *,
        mode: str = "dense",
        op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
        label: str = "allreduce",
    ) -> np.ndarray:
        """Allreduce dispatching on the ``comm`` knob.

        ``"dense"`` and ``"sparse"`` force the respective encoding;
        ``"auto"`` measures the union density of the contributions and
        picks the cheaper one per phase (the decision is recorded in the
        trace event's ``detail``). Results are bit-identical across modes.
        On a cluster with ``comm_compress`` the compressor decides instead
        (``op="sum"`` only): contributions are compressed, reduced dense,
        and charged for the compressed wire payload.
        """
        if self.compress.enabled and op != "sum":
            raise ValidationError(
                f"comm_compress={self.compress.spec!r} supports op='sum' only, got {op!r}"
            )
        sparse_in = mode != "dense" and not self.compress.enabled
        if sparse_in:
            vectors = self._check_sparse_buffers(values, "allreduce_comm")
            n, nnz = float(vectors[0].n), float(sc.support_union_size(vectors))
        else:
            arrays = self._check_buffers(
                [v.to_dense() if isinstance(v, sc.SparseVector) else v for v in values],
                "allreduce",
            )
            n, nnz = float(arrays[0].size), 0.0
        decision = self._decide(mode, n, nnz)
        self._note_decision(decision)
        start = self._sync_start(label)
        if decision == "sparse":
            vectors = self._apply_corruption(vectors, label)
            result = sc.sparse_allreduce_values(vectors, op).to_dense()
        else:
            if sparse_in:  # auto densified
                arrays = [v.to_dense() for v in vectors]
            arrays = self._apply_corruption(arrays, label)
            if self.compress.enabled:
                result, nnz = self._reduce_compressed(arrays, label)
            else:
                result = coll.allreduce_values(arrays, op)
        self._finish_allreduce(label, start, mode, n, nnz)
        return result

    def charge_allreduce_comm(
        self,
        n: float,
        nnz: float,
        *,
        mode: str = "dense",
        label: str = "allreduce",
    ) -> None:
        """Charge :meth:`allreduce_comm` without moving data.

        Same decision, clock effects, trace details and counters as the
        data-moving entry for contributions of length *n*. *nnz* is the
        support union of the contributions (read by sparse/auto) or, on a
        compressing cluster, the union nnz of the compressed top-k
        contributions. Used by backends that reduce the payload elsewhere
        (real processes, dry-run replays) but must charge exactly what a
        BSP run of the schedule charges.
        """
        if n < 0:
            raise ValidationError(f"words must be >= 0, got {n}")
        self._note_decision(self._decide(mode, n, nnz))
        start = self._sync_start(label)
        self._finish_allreduce(label, start, mode, float(n), float(nnz))

    def _reduce_compressed(self, arrays: list[np.ndarray], label: str) -> tuple[np.ndarray, float]:
        """Compress contributions, reduce dense, measure the wire support.

        Flat topology: every rank's contribution is compressed
        (stream = rank) and the tournament runs over the compressed
        buffers. Hierarchical: node blocks reduce dense first, the
        node-leader partials are compressed (stream = node index), and the
        inter-node tournament runs over those. Returns the reduced result
        and — for top-k — the union nnz of the compressed payloads (the
        support every inter-rank round ships).
        """
        bank = self._compressor
        assert bank is not None
        if self.comm_topology == "hier":
            node_size = self.machine.node_size
            payload = [
                bank.compress(
                    coll.allreduce_values(arrays[i : i + node_size], "sum"),
                    label=label,
                    stream=node,
                )
                for node, i in enumerate(range(0, len(arrays), node_size))
            ]
        else:
            payload = [
                bank.compress(a, label=label, stream=r) for r, a in enumerate(arrays)
            ]
        result = coll.allreduce_values(payload, "sum")
        wire_nnz = 0.0
        if self.compress.kind == "topk":
            mask = np.zeros(arrays[0].shape, dtype=bool)
            for c in payload:
                mask |= c != 0.0
            wire_nnz = float(np.count_nonzero(mask))
        return result, wire_nnz

    # ------------------------------------------------------------------ #
    # resilience traffic
    # ------------------------------------------------------------------ #
    def checkpoint(self, words: float, label: str = "checkpoint") -> None:
        """Charge a checkpoint of *words* state words to stable storage.

        Modeled as a gather of the solver state to a stable root; the word
        traffic is tagged ``checkpoint_words`` so ablation reports can
        separate resilience overhead from algorithmic communication.
        """
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.gather_cost(self.machine, self.nranks, float(words))
        self._finish_collective(
            label, start, cost, PhaseKind.COLLECTIVE, checkpoint_words=cost.words
        )

    def recover(self, words: float, label: str = "recovery") -> None:
        """Charge a rollback/respawn: re-broadcast *words* state words.

        The traffic is tagged ``retry_words``/``retry_messages`` (recovery
        state transfer is fault-tolerance traffic, not algorithm traffic).
        """
        if words < 0:
            raise ValidationError(f"words must be >= 0, got {words}")
        start = self._sync_start(label)
        cost = coll.bcast_cost(self.machine, self.nranks, float(words))
        self._finish_collective(
            label,
            start,
            cost,
            PhaseKind.FAULT,
            retry_messages=cost.messages,
            retry_words=cost.words,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BSPCluster(nranks={self.nranks}, machine={self.machine.name!r}, "
            f"allreduce={self.allreduce_algorithm!r}, elapsed={self.elapsed:.3e}s)"
        )
