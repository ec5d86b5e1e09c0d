"""Generator-based SPMD engine — a miniature MPI over virtual ranks.

Rank programs are written as generator functions receiving a
:class:`RankContext` and *yielding* communication operations::

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.arange(4.0))
        elif ctx.rank == 1:
            data = yield ctx.recv(0)
        total = yield ctx.allreduce(np.ones(3))
        return total

    results = run_spmd(2, program)

The engine interleaves all ranks in one OS thread, matching sends with
receives (non-overtaking per (source, tag) pair, like MPI) and executing
collectives once every rank has entered them. Clocks advance under the
same α-β-γ machine model as :class:`~repro.distsim.bsp.BSPCluster`:

* ``send``: eager/buffered — the sender is charged one message of ``n``
  words and ``α + βn`` seconds, then continues; the message becomes
  available to the receiver at that completion time.
* ``recv``: the receiver stalls until the matching message's availability
  time.
* collectives: all ranks synchronize to ``max(clocks) + T_collective``.

Deadlocks (all live ranks blocked with nothing deliverable) and collective
mismatches raise immediately instead of hanging.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.exceptions import (
    CommTimeoutError,
    CommunicatorError,
    DeadlockError,
    RankFailureError,
    ValidationError,
)
from repro.distsim import collectives as coll
from repro.distsim import sparse_collectives as sc
from repro.distsim.cost import ClusterCost, CostCounter, PhaseKind
from repro.distsim.faults import FaultInjector, RetryPolicy
from repro.distsim.machine import MachineSpec, get_machine
from repro.distsim.trace import Trace, TraceEvent
from repro.distsim.zerocopy import dedup_enabled, freeze

__all__ = ["RankContext", "RecvRequest", "SPMDEngine", "run_spmd", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


# ---------------------------------------------------------------------- #
# operations a rank program can yield
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Op:
    pass


@dataclass(frozen=True)
class _Send(_Op):
    dest: int
    tag: int
    payload: Any


@dataclass(frozen=True)
class _Recv(_Op):
    source: int
    tag: int


@dataclass(frozen=True)
class _IRecv(_Op):
    source: int
    tag: int


@dataclass(frozen=True)
class _Wait(_Op):
    handle: "RecvRequest"


@dataclass
class RecvRequest:
    """Handle returned by :meth:`RankContext.irecv`.

    Pass it to :meth:`RankContext.wait` to obtain the payload. ``ready``
    flips once a matching message has been delivered into the handle.
    """

    rank: int
    source: int
    tag: int
    ready: bool = False
    payload: Any = None
    available_at: float = 0.0


@dataclass(frozen=True)
class _Collective(_Op):
    kind: str  # "allreduce" | "bcast" | "allgather" | "reduce" | "gather" | "barrier"
    value: Any = None
    root: int = 0
    op: str | Callable = "sum"
    comm: str = "dense"  # "dense" | "sparse" | "auto" (allreduce only)


class RankContext:
    """Per-rank handle passed to SPMD programs.

    The methods build operation descriptors; the program must ``yield``
    them to the engine (calling without yielding does nothing).
    """

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size

    # point-to-point ---------------------------------------------------- #
    def send(self, dest: int, payload: Any, tag: int = 0) -> _Send:
        """Eager send of *payload* to rank *dest*."""
        return _Send(dest=dest, tag=tag, payload=payload)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _Recv:
        """Blocking receive from *source* (or :data:`ANY_SOURCE`)."""
        return _Recv(source=source, tag=tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _IRecv:
        """Nonblocking receive: yields immediately with a :class:`RecvRequest`.

        The request is matched against incoming messages in posting order;
        complete it with ``payload = yield ctx.wait(request)``.
        """
        return _IRecv(source=source, tag=tag)

    def wait(self, handle: "RecvRequest") -> _Wait:
        """Block until *handle* (from :meth:`irecv`) completes."""
        return _Wait(handle=handle)

    # collectives ------------------------------------------------------- #
    def allreduce(
        self, value: "np.ndarray | sc.SparseVector", op: str | Callable = "sum", comm: str = "dense"
    ) -> _Collective:
        """Allreduce; *comm* selects dense, sparse (index+value) or auto.

        Under ``"sparse"``/``"auto"`` the contribution may be a
        :class:`~repro.distsim.sparse_collectives.SparseVector` or a dense
        array (sparsified on entry); the engine — playing the network —
        measures the union density and, for ``"auto"``, picks the cheaper
        encoding. All ranks must pass the same *comm* value.
        """
        if comm not in sc.COMM_MODES:
            raise CommunicatorError(f"unknown comm mode {comm!r}; choose from {sc.COMM_MODES}")
        return _Collective(kind="allreduce", value=value, op=op, comm=comm)

    def bcast(self, value: Any = None, root: int = 0) -> _Collective:
        return _Collective(kind="bcast", value=value, root=root)

    def allgather(self, value: Any) -> _Collective:
        return _Collective(kind="allgather", value=value)

    def reduce(self, value: np.ndarray, root: int = 0, op: str | Callable = "sum") -> _Collective:
        return _Collective(kind="reduce", value=value, root=root, op=op)

    def gather(self, value: Any, root: int = 0) -> _Collective:
        return _Collective(kind="gather", value=value, root=root)

    def scatter(self, chunks: Sequence[Any] | None = None, root: int = 0) -> _Collective:
        """Scatter one chunk per rank from *root* (others pass ``None``)."""
        return _Collective(kind="scatter", value=chunks, root=root)

    def alltoall(self, chunks: Sequence[Any]) -> _Collective:
        """Personalized all-to-all: ``chunks[j]`` goes to rank ``j``."""
        return _Collective(kind="alltoall", value=chunks)

    def barrier(self) -> _Collective:
        return _Collective(kind="barrier")


@dataclass
class _Mail:
    payload: Any
    available_at: float
    seq: int


@dataclass
class _RankState:
    gen: Generator
    blocked_on: _Op | None = None
    done: bool = False
    crashed: bool = False
    result: Any = None
    to_inject: Any = None
    has_injection: bool = False
    started: bool = False


def _words_of(value: Any) -> float:
    if value is None:
        return 0.0
    if isinstance(value, sc.SparseVector):
        return coll.sparse_payload_words(value.n, value.nnz)
    if isinstance(value, np.ndarray):
        return float(value.size)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 1.0
    if isinstance(value, (list, tuple)):
        return float(sum(_words_of(v) for v in value))
    # Opaque python object: charge a nominal pickled size of 8 words.
    return 8.0


class SPMDEngine:
    """Executes one SPMD program over ``nranks`` virtual ranks."""

    def __init__(
        self,
        nranks: int,
        machine: str | MachineSpec = "comet_effective",
        *,
        allreduce_algorithm: str = "recursive_doubling",
        trace: Trace | None = None,
        max_steps: int = 10_000_000,
        injector: FaultInjector | None = None,
        recv_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        dedup: bool | None = None,
    ) -> None:
        if nranks < 1:
            raise ValidationError(f"nranks must be >= 1, got {nranks}")
        if recv_timeout is not None and not (np.isfinite(recv_timeout) and recv_timeout > 0):
            raise ValidationError(f"recv_timeout must be finite and > 0, got {recv_timeout}")
        if injector is not None and not isinstance(injector, FaultInjector):
            raise ValidationError("injector must be a FaultInjector (wrap plans with as_injector)")
        self.nranks = nranks
        self.machine = get_machine(machine)
        self.allreduce_algorithm = allreduce_algorithm
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.counters = [CostCounter(rank=r) for r in range(nranks)]
        self.max_steps = max_steps
        self.injector = injector
        self.recv_timeout = recv_timeout
        self.retry = retry
        self._mailboxes: dict[tuple[int, int, int], deque[_Mail]] = {}
        self._posted: list[RecvRequest] = []  # unmatched irecv requests, posting order
        self._seq = 0
        # Fault-decision indices: per-rank send-attempt count and the global
        # collective count. Monotone across run() calls on purpose, so
        # scheduled one-shot events never refire on a resumed/replayed run.
        self._fault_ops = [0] * nranks
        self._coll_index = 0
        # Zero-copy fan-out: replicated collective results are handed to
        # ranks as read-only views instead of P deep copies.
        self.dedup = dedup_enabled(dedup)

    def _fanout(self, reduced: np.ndarray) -> list[np.ndarray]:
        """Replicate a collective result to every rank.

        With dedup on, each rank receives a read-only view of the single
        reduced buffer (zero host copies); otherwise the historical
        per-rank deep copy. Charged costs are identical either way.
        """
        if self.dedup:
            return [freeze(reduced) for _ in range(self.nranks)]
        return [reduced.copy() for _ in range(self.nranks)]

    @property
    def cost(self) -> ClusterCost:
        return ClusterCost(self.counters)

    @property
    def elapsed(self) -> float:
        return max(c.clock for c in self.counters)

    # ------------------------------------------------------------------ #
    def run(self, program: Callable[..., Generator], *args: Any, **kwargs: Any) -> list[Any]:
        """Run *program* on every rank; returns per-rank return values.

        The engine is reusable: per-run matching state (mailboxes, posted
        irecv requests, the send sequence counter) is reset on entry so a
        previous run's undelivered messages can never leak into this one.
        Cost counters and clocks accumulate across runs by design — a
        resumed run after a failure keeps paying for the work already done.
        """
        self._mailboxes = {}
        self._posted = []
        self._seq = 0
        states = [
            _RankState(gen=program(RankContext(r, self.nranks), *args, **kwargs))
            for r in range(self.nranks)
        ]
        steps = 0
        while not all(s.done for s in states):
            steps += 1
            if steps > self.max_steps:
                raise CommunicatorError(f"SPMD run exceeded {self.max_steps} scheduler steps")
            progressed = False
            for rank, state in enumerate(states):
                if state.done or state.crashed:
                    continue
                if self._check_crash(rank, state):
                    continue
                if state.blocked_on is not None:
                    continue
                progressed |= self._advance(rank, states)
            progressed |= self._try_deliver(states)
            progressed |= self._try_collective(states)
            live = [s for s in states if not s.done]
            if live and all(s.crashed for s in live):
                self._raise_stuck(states)
            if not progressed and not all(s.done for s in states):
                self._raise_stuck(states)
        return [s.result for s in states]

    def _check_crash(self, rank: int, state: _RankState) -> bool:
        """Latch an injected permanent crash for *rank* (True if dead)."""
        if self.injector is None:
            return False
        clock = self.counters[rank].clock
        if self.injector.crash_due(rank, time=clock, op_index=self._fault_ops[rank]):
            state.crashed = True
            state.blocked_on = None
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.FAULT,
                    label=f"crash:rank{rank}",
                    start=clock,
                    end=clock,
                    detail=f"after {self._fault_ops[rank]} ops",
                )
            )
            return True
        return False

    # ------------------------------------------------------------------ #
    def _advance(self, rank: int, states: list[_RankState]) -> bool:
        """Drive one rank forward until it blocks or finishes."""
        state = states[rank]
        progressed = False
        while True:
            try:
                if not state.started:
                    state.started = True
                    op = next(state.gen)
                elif state.has_injection:
                    value, state.to_inject, state.has_injection = state.to_inject, None, False
                    op = state.gen.send(value)
                else:
                    op = next(state.gen)
            except StopIteration as stop:
                state.done = True
                state.result = stop.value
                return True
            progressed = True
            if isinstance(op, _Send):
                self._do_send(rank, op)
                state.to_inject, state.has_injection = None, True
                continue
            if isinstance(op, _IRecv):
                handle = RecvRequest(rank=rank, source=op.source, tag=op.tag)
                self._posted.append(handle)
                self._match_posted()
                state.to_inject, state.has_injection = handle, True
                continue
            if isinstance(op, _Wait):
                if not isinstance(op.handle, RecvRequest):
                    raise CommunicatorError(f"rank {rank} waited on {op.handle!r}")
                if op.handle.rank != rank:
                    raise CommunicatorError(
                        f"rank {rank} waited on a request posted by rank {op.handle.rank}"
                    )
                if op.handle.ready:
                    self.counters[rank].wait_until(op.handle.available_at)
                    state.to_inject, state.has_injection = op.handle.payload, True
                    continue
                state.blocked_on = op
                return progressed
            if isinstance(op, (_Recv, _Collective)):
                if isinstance(op, _Collective) and self.injector is not None:
                    # Entering a collective counts as an initiated op, so
                    # at_op crash/stall schedules work for collective-only
                    # programs too.
                    self._fault_ops[rank] += 1
                state.blocked_on = op
                return progressed
            raise CommunicatorError(
                f"rank {rank} yielded {op!r}; programs must yield RankContext operations"
            )

    def _do_send(self, rank: int, op: _Send) -> None:
        if not (0 <= op.dest < self.nranks):
            raise CommunicatorError(f"send to invalid rank {op.dest}")
        if op.dest == rank:
            raise CommunicatorError(f"rank {rank} attempted to send to itself")
        words = _words_of(op.payload)
        sender = self.counters[rank]
        seconds = self.machine.message_time(words)
        attempt = 0
        while True:
            fault = None
            idx = 0
            if self.injector is not None:
                idx = self._fault_ops[rank]
                self._fault_ops[rank] += 1
                fault = self.injector.send_fault(rank, idx)
            if fault is not None and fault.stall > 0:
                t0 = sender.clock
                sender.wait_until(t0 + fault.stall)
                self.trace.record(
                    TraceEvent(PhaseKind.FAULT, f"stall:rank{rank}", t0, sender.clock)
                )
            start = sender.clock
            retrying = attempt > 0
            sender.charge_comm(
                1.0,
                words,
                seconds,
                retry_messages=1.0 if retrying else 0.0,
                retry_words=words if retrying else 0.0,
            )
            if fault is not None and fault.drop:
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"drop:{rank}->{op.dest}",
                        start=start,
                        end=sender.clock,
                        words=words,
                        messages=1.0,
                        detail=f"attempt {attempt + 1}",
                    )
                )
                if self.retry is None:
                    return  # silently lost; the receiver-side deadline catches it
                if attempt >= self.retry.max_retries:
                    raise CommTimeoutError(
                        f"message {rank}->{op.dest} (tag={op.tag}, {words:g} words) "
                        f"dropped {attempt + 1} times — retry budget "
                        f"({self.retry.max_retries}) exhausted at simulated clock "
                        f"{sender.clock:.6g}s"
                    )
                attempt += 1
                sender.wait_until(sender.clock + self.retry.backoff(attempt))
                continue
            payload = op.payload
            if fault is not None and fault.corrupt is not None:
                payload = self.injector.corrupt(payload, fault.corrupt, rank=rank, op_index=idx)
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"corrupt:{rank}->{op.dest}",
                        start=sender.clock,
                        end=sender.clock,
                        detail=fault.corrupt,
                    )
                )
            if retrying and self.retry is not None and self.retry.ack_words > 0:
                # Delivery after a resend is confirmed by an ack round-trip,
                # charged to the sender as fault-tolerance traffic.
                sender.charge_comm(
                    1.0,
                    self.retry.ack_words,
                    self.machine.message_time(self.retry.ack_words),
                    retry_messages=1.0,
                    retry_words=self.retry.ack_words,
                )
            available = sender.clock
            if fault is not None and fault.delay > 0:
                available += fault.delay
                self.trace.record(
                    TraceEvent(
                        kind=PhaseKind.FAULT,
                        label=f"delay:{rank}->{op.dest}",
                        start=sender.clock,
                        end=available,
                        detail=f"+{fault.delay:g}s",
                    )
                )
            self._seq += 1
            key = (op.dest, rank, op.tag)
            self._mailboxes.setdefault(key, deque()).append(
                _Mail(payload=payload, available_at=available, seq=self._seq)
            )
            self.trace.record(
                TraceEvent(
                    kind=PhaseKind.P2P,
                    label=f"send:{rank}->{op.dest}",
                    start=start,
                    end=sender.clock,
                    words=words,
                    messages=1.0,
                )
            )
            return

    def _match_mail(self, rank: int, op: _Recv) -> tuple[tuple[int, int, int], _Mail] | None:
        candidates: list[tuple[tuple[int, int, int], _Mail]] = []
        for key, queue in self._mailboxes.items():
            dest, source, tag = key
            if dest != rank or not queue:
                continue
            if op.source not in (ANY_SOURCE, source):
                continue
            if op.tag not in (ANY_TAG, tag):
                continue
            candidates.append((key, queue[0]))
        if not candidates:
            return None
        # Earliest available, ties broken by send order (FIFO fairness).
        candidates.sort(key=lambda kv: (kv[1].available_at, kv[1].seq))
        return candidates[0]

    def _match_posted(self) -> None:
        """Match pending irecv requests against mailboxes, posting order."""
        still_pending: list[RecvRequest] = []
        for handle in self._posted:
            match = self._match_mail(handle.rank, _Recv(handle.source, handle.tag))
            if match is None:
                still_pending.append(handle)
                continue
            key, mail = match
            self._mailboxes[key].popleft()
            handle.ready = True
            handle.payload = mail.payload
            handle.available_at = mail.available_at
        self._posted = still_pending

    def _try_deliver(self, states: list[_RankState]) -> bool:
        progressed = False
        self._match_posted()
        for rank, state in enumerate(states):
            if state.done or not isinstance(state.blocked_on, _Wait):
                continue
            handle = state.blocked_on.handle
            if handle.ready:
                self.counters[rank].wait_until(handle.available_at)
                state.blocked_on = None
                state.to_inject, state.has_injection = handle.payload, True
                progressed |= self._advance(rank, states)
                progressed = True
        for rank, state in enumerate(states):
            if state.done or not isinstance(state.blocked_on, _Recv):
                continue
            match = self._match_mail(rank, state.blocked_on)
            if match is None:
                continue
            key, mail = match
            self._mailboxes[key].popleft()
            receiver = self.counters[rank]
            receiver.wait_until(mail.available_at)
            state.blocked_on = None
            state.to_inject, state.has_injection = mail.payload, True
            progressed |= self._advance(rank, states)
            progressed = True
        return progressed

    # ------------------------------------------------------------------ #
    def _try_collective(self, states: list[_RankState]) -> bool:
        live = [s for s in states if not s.done]
        if not live or not all(isinstance(s.blocked_on, _Collective) for s in live):
            return False
        if len(live) != self.nranks:
            raise CommunicatorError(
                "collective posted while some ranks already returned — all ranks "
                "must participate in every collective"
            )
        ops = [s.blocked_on for s in states]  # type: ignore[assignment]
        kinds = {op.kind for op in ops}
        if len(kinds) != 1:
            raise CommunicatorError(f"collective mismatch across ranks: {sorted(kinds)}")
        roots = {op.root for op in ops}
        if len(roots) != 1:
            raise CommunicatorError(f"collective root mismatch across ranks: {sorted(roots)}")
        kind = ops[0].kind
        root = ops[0].root
        if kind in ("bcast", "reduce", "gather", "scatter") and not (
            0 <= root < self.nranks
        ):
            raise CommunicatorError(f"invalid collective root {root}")

        cfault = None
        if self.injector is not None:
            cidx = self._coll_index
            self._coll_index += 1
            cfault = self.injector.collective_fault(self.nranks, cidx)
            for r in sorted(cfault.stalls):
                t0 = self.counters[r].clock
                self.counters[r].wait_until(t0 + cfault.stalls[r])
                self.trace.record(
                    TraceEvent(
                        PhaseKind.FAULT, f"stall:rank{r}", t0, self.counters[r].clock, detail=kind
                    )
                )
        if self.recv_timeout is not None:
            arrivals = [c.clock for c in self.counters]
            skew = max(arrivals) - min(arrivals)
            if skew > self.recv_timeout:
                slow = int(np.argmax(arrivals))
                raise CommTimeoutError(
                    f"collective {kind!r} deadline expired: rank {slow} arrived "
                    f"{skew:.6g}s after the earliest rank (deadline "
                    f"{self.recv_timeout:g}s on the simulated clock):\n  "
                    + "\n  ".join(self._describe_ranks(states))
                )

        start = max(c.clock for c in self.counters)
        for c in self.counters:
            c.wait_until(start)

        values = [op.value for op in ops]
        if cfault is not None and cfault.corruptions:
            for r in sorted(cfault.corruptions):
                mode = cfault.corruptions[r]
                values[r] = self.injector.corrupt(
                    values[r], mode, rank=r, op_index=self._coll_index - 1
                )
                self.trace.record(
                    TraceEvent(
                        PhaseKind.FAULT, f"corrupt:rank{r}", start, start, detail=f"{kind}:{mode}"
                    )
                )
        results: list[Any]
        detail = ""
        sparse_words = 0.0
        saved_words = 0.0
        if kind == "allreduce":
            comms = {op.comm for op in ops}
            if len(comms) != 1:
                raise CommunicatorError(
                    f"allreduce comm-mode mismatch across ranks: {sorted(comms)}"
                )
            comm = ops[0].comm
            if comm == "dense":
                reduced = coll.allreduce_values(
                    [np.asarray(v, dtype=np.float64) for v in values], ops[0].op
                )
                n, nnz = _words_of(values[0]), 0.0
            else:
                vectors = [sc.as_sparse_vector(v) for v in values]
                n = vectors[0].n
                for i, v in enumerate(vectors):
                    if v.n != n:
                        raise CommunicatorError(
                            f"sparse allreduce length mismatch: rank 0 has n={n}, "
                            f"rank {i} has n={v.n}"
                        )
                reduced_sv = sc.sparse_allreduce_values(vectors, ops[0].op)
                nnz = reduced_sv.nnz
                reduced = reduced_sv.to_dense()
            charge = coll.allreduce_charge(
                self.machine,
                self.nranks,
                float(n),
                algorithm=self.allreduce_algorithm,
                mode=comm,
                nnz_union=float(nnz),
            )
            cost, detail = charge.cost, charge.detail
            sparse_words, saved_words = charge.sparse_words, charge.saved_words
            results = self._fanout(reduced)
        elif kind == "reduce":
            reduced = coll.allreduce_values([np.asarray(v, dtype=np.float64) for v in values], ops[0].op)
            cost = coll.reduce_cost(self.machine, self.nranks, _words_of(values[0]))
            results = [reduced if r == root else None for r in range(self.nranks)]
        elif kind == "bcast":
            cost = coll.bcast_cost(self.machine, self.nranks, _words_of(values[root]))
            results = [values[root] for _ in range(self.nranks)]
        elif kind == "allgather":
            words_local = max(_words_of(v) for v in values)
            cost = coll.allgather_cost(self.machine, self.nranks, words_local)
            results = [list(values) for _ in range(self.nranks)]
        elif kind == "gather":
            words_local = max(_words_of(v) for v in values)
            cost = coll.gather_cost(self.machine, self.nranks, words_local)
            results = [list(values) if r == root else None for r in range(self.nranks)]
        elif kind == "scatter":
            chunks = values[root]
            if chunks is None or len(chunks) != self.nranks:
                raise CommunicatorError(
                    f"scatter root must supply one chunk per rank ({self.nranks})"
                )
            words_local = max(_words_of(c) for c in chunks)
            cost = coll.scatter_cost(self.machine, self.nranks, words_local)
            results = list(chunks)
        elif kind == "alltoall":
            for r, chunks in enumerate(values):
                if chunks is None or len(chunks) != self.nranks:
                    raise CommunicatorError(
                        f"alltoall rank {r} must supply one chunk per rank"
                    )
            words_pair = max(
                _words_of(c) for chunks in values for c in chunks
            )
            cost = coll.alltoall_cost(self.machine, self.nranks, words_pair)
            results = [
                [values[src][dst] for src in range(self.nranks)]
                for dst in range(self.nranks)
            ]
        elif kind == "barrier":
            cost = coll.barrier_cost(self.machine, self.nranks)
            results = [None] * self.nranks
        else:  # pragma: no cover - defensive
            raise CommunicatorError(f"unknown collective kind {kind!r}")

        if cfault is not None and cfault.failed_attempts:
            failures = cfault.failed_attempts
            if self.retry is None or failures > self.retry.max_retries:
                budget = "no retry policy" if self.retry is None else (
                    f"retry budget {self.retry.max_retries}"
                )
                raise CommTimeoutError(
                    f"collective {kind!r} torn by injected message loss "
                    f"{failures} time(s) ({budget}) at simulated clock {start:.6g}s:\n  "
                    + "\n  ".join(self._describe_ranks(states))
                )
            t0 = self.elapsed
            for a in range(1, failures + 1):
                extra = cost.time + self.retry.backoff(a)
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
                    label=f"collective_retry:{kind}",
                    start=t0,
                    end=self.elapsed,
                    words=cost.words * failures * self.nranks,
                    messages=cost.messages * failures * self.nranks,
                    detail=f"{failures} failed attempt(s)",
                )
            )
            start = self.elapsed

        for c in self.counters:
            c.charge_comm(
                cost.messages,
                cost.words,
                cost.time,
                sparse_words=sparse_words,
                saved_words=saved_words,
            )
        self.trace.record(
            TraceEvent(
                kind=PhaseKind.COLLECTIVE if kind != "barrier" else PhaseKind.BARRIER,
                label=kind,
                start=start,
                end=self.elapsed,
                words=cost.words * self.nranks,
                messages=cost.messages * self.nranks,
                detail=detail,
            )
        )
        for rank, state in enumerate(states):
            state.blocked_on = None
            state.to_inject, state.has_injection = results[rank], True
        progressed = False
        for rank in range(self.nranks):
            progressed |= self._advance(rank, states)
        return True

    def _describe_ranks(self, states: list[_RankState]) -> list[str]:
        """One diagnostic line per rank: status, pending op, simulated clock.

        Every stuck-state error (deadlock, timeout, rank failure) embeds
        these lines so a hang is debuggable from the message alone.
        """
        lines = []
        for rank, s in enumerate(states):
            clock = f"clock={self.counters[rank].clock:.6g}s"
            if s.crashed:
                lines.append(f"rank {rank}: crashed (injected fault) [{clock}]")
            elif s.done:
                lines.append(f"rank {rank}: finished [{clock}]")
            elif isinstance(s.blocked_on, _Recv):
                lines.append(
                    f"rank {rank}: waiting recv(source={s.blocked_on.source}, "
                    f"tag={s.blocked_on.tag}) [{clock}]"
                )
            elif isinstance(s.blocked_on, _Wait):
                h = s.blocked_on.handle
                lines.append(
                    f"rank {rank}: waiting on irecv(source={h.source}, tag={h.tag}) [{clock}]"
                )
            elif isinstance(s.blocked_on, _Collective):
                lines.append(
                    f"rank {rank}: waiting collective {s.blocked_on.kind!r} [{clock}]"
                )
            elif s.blocked_on is None:
                lines.append(f"rank {rank}: runnable [{clock}]")
            else:
                lines.append(f"rank {rank}: blocked on {s.blocked_on!r} [{clock}]")
        return lines

    def _raise_stuck(self, states: list[_RankState]) -> None:
        """No rank can progress: classify the hang and raise with diagnostics."""
        crashed = [rank for rank, s in enumerate(states) if s.crashed]
        if crashed:
            raise RankFailureError(
                f"rank(s) {crashed} crashed (injected fault); surviving ranks "
                "cannot make progress:\n  " + "\n  ".join(self._describe_ranks(states))
            )
        if self.recv_timeout is not None:
            blocked = [
                rank
                for rank, s in enumerate(states)
                if not s.done and isinstance(s.blocked_on, (_Recv, _Wait))
            ]
            if blocked:
                deadline = self.elapsed + self.recv_timeout
                for rank in blocked:
                    self.counters[rank].wait_until(deadline)
                raise CommTimeoutError(
                    f"recv deadline ({self.recv_timeout:g}s on the simulated clock) "
                    "expired with no matching message:\n  "
                    + "\n  ".join(self._describe_ranks(states))
                )
        raise DeadlockError(
            "SPMD deadlock detected:\n  " + "\n  ".join(self._describe_ranks(states))
        )


def run_spmd(
    nranks: int,
    program: Callable[..., Generator],
    *args: Any,
    machine: str | MachineSpec = "comet_effective",
    allreduce_algorithm: str = "recursive_doubling",
    injector: FaultInjector | None = None,
    recv_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Convenience one-shot runner; returns per-rank return values."""
    engine = SPMDEngine(
        nranks,
        machine,
        allreduce_algorithm=allreduce_algorithm,
        injector=injector,
        recv_timeout=recv_timeout,
        retry=retry,
    )
    return engine.run(program, *args, **kwargs)
