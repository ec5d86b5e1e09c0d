"""Collective operations: correct numerics + per-algorithm cost formulas.

Each collective does two independent things:

1. **Numerics** — compute the mathematically-correct result from the
   per-rank inputs (a real data movement between per-rank buffers).
2. **Costing** — return a :class:`CollectiveCost` describing, *per rank*,
   the number of messages, words and the critical-path time under the
   selected algorithm, using the standard LogP-style formulas from the
   collective-communication literature (Thakur et al., Chan et al.):

   ===================  =============================  ======================
   algorithm            time                            per-rank words
   ===================  =============================  ======================
   recursive doubling   ⌈log₂P⌉ (α + βn)               n⌈log₂P⌉
   binomial tree        2⌈log₂P⌉ (α + βn)  (red+bcast) 2n⌈log₂P⌉
   ring (Rabenseifner)  2(P−1)(α + βn/P)               2n(P−1)/P
   ===================  =============================  ======================

   with ``n`` the reduced-vector length in words. The recursive-doubling
   allreduce matches the paper's Table 1 accounting: latency O(log P) per
   round and bandwidth O(n log P).

The numerics use pairwise-ordered reduction identical across algorithms so
that the simulated result does not depend on the algorithm choice (the cost
does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, ValidationError
from repro.distsim.compress import (
    NO_COMPRESSION,
    CompressionSpec,
    CompressorBank,
    quant_payload_words,
)
from repro.distsim.machine import HierarchicalMachine, MachineSpec

__all__ = [
    "CollectiveCost",
    "AllreduceCharge",
    "ALLREDUCE_ALGORITHMS",
    "COMM_TOPOLOGIES",
    "allreduce_values",
    "hierarchical_allreduce_values",
    "resolve_reduce_op",
    "allreduce_cost",
    "allreduce_charge",
    "bcast_cost",
    "reduce_cost",
    "gather_cost",
    "ceil_log2",
    "SPARSE_INDEX_WORDS",
    "SPARSE_SWITCH_DENSITY",
    "sparse_payload_words",
    "sparse_allreduce_cost",
    "compressed_payload_words",
    "COMM_MODES",
    "resolve_comm_mode",
]

ALLREDUCE_ALGORITHMS = ("recursive_doubling", "binomial_tree", "ring")

#: Collective schedules selectable via ``RuntimeConfig(comm_topology=...)``.
#: ``"flat"`` is the legacy single-level tournament (hierarchical machines
#: only scale its *costs*); ``"hier"`` actually restructures the reduction
#: into node-local and inter-node rounds (collectives v2).
COMM_TOPOLOGIES = ("flat", "hier")

# Index+value encoding of a sparse buffer: every stored entry travels with
# one 8-byte index word alongside its value word (SparCML's ``S_2k``
# stream format).
SPARSE_INDEX_WORDS = 1.0

# Density above which the index+value encoding stops paying and the
# stream-and-switch schedule densifies: (1 + SPARSE_INDEX_WORDS)·nnz ≥ n.
SPARSE_SWITCH_DENSITY = 1.0 / (1.0 + SPARSE_INDEX_WORDS)

# Values accepted by the solvers' / collectives' ``comm`` knob.
COMM_MODES = ("dense", "sparse", "auto")


def ceil_log2(p: int) -> int:
    """⌈log₂ p⌉ with ⌈log₂ 1⌉ = 0."""
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


@dataclass(frozen=True)
class CollectiveCost:
    """Per-rank cost of one collective call.

    ``messages``/``words`` are what *each participating rank* sends —
    the quantities L and W of the paper's model accrue per processor along
    the critical path. ``time`` is the synchronous completion time of the
    collective, identical for all ranks (lock-step model).
    """

    messages: float
    words: float
    time: float

    def scaled(self, factor: float) -> "CollectiveCost":
        return CollectiveCost(self.messages * factor, self.words * factor, self.time * factor)


# ---------------------------------------------------------------------- #
# numerics
# ---------------------------------------------------------------------- #
def allreduce_values(
    values: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum"
) -> np.ndarray:
    """Reduce per-rank arrays with a fixed pairwise order.

    The pairwise (tournament) order mirrors what tree-structured MPI
    reductions compute, and keeps the result independent of rank count
    quirks like Python's ``sum`` left-fold.

    Ufunc combiners (the built-in ``sum``/``max``/``min``/``prod`` ops)
    take a buffer-reusing path: each tournament level reduces in place
    into accumulation buffers allocated at the first level, so a P-rank
    reduction allocates ⌊P/2⌋ arrays instead of copying all P per level.
    Caller inputs are never mutated and the result never aliases one —
    both guarded by tests — so callers may reuse their input buffers.
    """
    if len(values) == 0:
        raise CommunicatorError("allreduce over zero ranks")
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    shape = arrays[0].shape
    for i, a in enumerate(arrays):
        if a.shape != shape:
            raise CommunicatorError(
                f"allreduce buffer shape mismatch: rank 0 has {shape}, rank {i} has {a.shape}"
            )
    combine = resolve_reduce_op(op)
    if len(arrays) == 1:
        return arrays[0].copy()
    if not isinstance(combine, np.ufunc):
        # Custom combiners may mutate or return their operands: keep the
        # historical copy-first tournament for them.
        level = [a.copy() for a in arrays]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(combine(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]
    # Ownership-tracked tournament: caller arrays (possibly aliased by
    # np.asarray) are never written; pairings that include an owned
    # accumulation buffer reduce into it with out=.
    level = list(arrays)
    owned = [False] * len(level)
    while len(level) > 1:
        nxt: list[np.ndarray] = []
        nxt_owned: list[bool] = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            if owned[i]:
                combine(a, b, out=a)
                nxt.append(a)
            elif owned[i + 1]:
                combine(a, b, out=b)
                nxt.append(b)
            else:
                nxt.append(combine(a, b))
            nxt_owned.append(True)
        if len(level) % 2:
            nxt.append(level[-1])
            nxt_owned.append(owned[-1])
        level, owned = nxt, nxt_owned
    # len(values) >= 2 ⇒ the champion came out of a combine, hence owned.
    return level[0]


def hierarchical_allreduce_values(
    values: Sequence[np.ndarray],
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
    *,
    node_size: int,
    compressor: CompressorBank | None = None,
    label: str = "",
) -> np.ndarray:
    """Two-level allreduce: per-node tournaments, then one over the leaders.

    Ranks are grouped into contiguous node blocks of *node_size*; each
    block reduces with :func:`allreduce_values`, an optional *compressor*
    transforms the node-leader partials (stream = node index — the point
    where hierarchical compression shrinks the expensive inter-node
    payload), and a final tournament combines the partials.

    For **power-of-two** *node_size* and no compression this computes the
    exact combine tree of the flat tournament — bit-identical results
    (pinned by a hypothesis property test); non-power-of-two blocks would
    pair across node boundaries in the flat schedule and are rejected by
    the runtime-config validation.
    """
    if node_size < 1:
        raise ValidationError(f"node_size must be >= 1, got {node_size}")
    if len(values) == 0:
        raise CommunicatorError("allreduce over zero ranks")
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    partials: list[np.ndarray] = []
    for node, start in enumerate(range(0, len(arrays), node_size)):
        partial = allreduce_values(arrays[start : start + node_size], op)
        if compressor is not None and compressor.spec.enabled:
            partial = compressor.compress(partial, label=label, stream=node)
        partials.append(partial)
    return allreduce_values(partials, op)


def resolve_reduce_op(
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Map an op name (or callable) to its binary numpy combiner."""
    if callable(op):
        return op
    if op == "sum":
        return np.add
    if op == "max":
        return np.maximum
    if op == "min":
        return np.minimum
    if op == "prod":
        return np.multiply
    raise ValidationError(f"unknown reduction op {op!r}")


# ---------------------------------------------------------------------- #
# cost formulas
# ---------------------------------------------------------------------- #
def _check(p: int, words: float) -> None:
    if p < 1:
        raise ValidationError(f"nranks must be >= 1, got {p}")
    if words < 0:
        raise ValidationError(f"message size must be >= 0, got {words}")


def _two_level_split(machine: HierarchicalMachine, p: int) -> tuple[int, int]:
    """(ranks per node, node count) for *p* ranks on a hierarchical machine."""
    s = min(machine.node_size, p)
    return s, -(-p // s)


def allreduce_cost(
    machine: MachineSpec, p: int, words: float, algorithm: str = "recursive_doubling"
) -> CollectiveCost:
    """Cost of an allreduce of a *words*-long vector over *p* ranks.

    On a :class:`HierarchicalMachine` the schedule is two-level: intra-node
    reduce (shared-memory constants), inter-node allreduce with the selected
    *algorithm* over one rank per node (network constants), intra-node
    broadcast.
    """
    _check(p, words)
    if p == 1:
        return CollectiveCost(0.0, 0.0, 0.0)
    if isinstance(machine, HierarchicalMachine) and machine.node_size > 1:
        ranks_per_node, n_nodes = _two_level_split(machine, p)
        intra_rounds = ceil_log2(ranks_per_node)
        flat = MachineSpec(
            name=machine.name, alpha=machine.alpha, beta=machine.beta, gamma=machine.gamma
        )
        inter = allreduce_cost(flat, n_nodes, words, algorithm)
        intra_time = 2 * intra_rounds * machine.intra_message_time(words)
        return CollectiveCost(
            messages=2.0 * intra_rounds + inter.messages,
            words=2.0 * words * intra_rounds + inter.words,
            time=intra_time + inter.time,
        )
    rounds = ceil_log2(p)
    if algorithm == "recursive_doubling":
        msgs = float(rounds)
        w = words * rounds
        t = rounds * (machine.alpha + machine.beta * words)
    elif algorithm == "binomial_tree":
        msgs = float(2 * rounds)
        w = 2.0 * words * rounds
        t = 2 * rounds * (machine.alpha + machine.beta * words)
    elif algorithm == "ring":
        msgs = float(2 * (p - 1))
        w = 2.0 * words * (p - 1) / p
        t = 2 * (p - 1) * (machine.alpha + machine.beta * words / p)
    else:
        raise ValidationError(
            f"unknown allreduce algorithm {algorithm!r}; choose from {ALLREDUCE_ALGORITHMS}"
        )
    return CollectiveCost(messages=msgs, words=w, time=t)


def bcast_cost(machine: MachineSpec, p: int, words: float) -> CollectiveCost:
    """Binomial-tree broadcast (two-level on hierarchical machines)."""
    _check(p, words)
    if p == 1:
        return CollectiveCost(0.0, 0.0, 0.0)
    if isinstance(machine, HierarchicalMachine) and machine.node_size > 1:
        ranks_per_node, n_nodes = _two_level_split(machine, p)
        intra_rounds = ceil_log2(ranks_per_node)
        inter_rounds = ceil_log2(n_nodes)
        t = inter_rounds * (machine.alpha + machine.beta * words) + intra_rounds * (
            machine.intra_message_time(words)
        )
        return CollectiveCost(
            messages=float(inter_rounds + intra_rounds),
            words=words * (inter_rounds + intra_rounds),
            time=t,
        )
    rounds = ceil_log2(p)
    t = rounds * (machine.alpha + machine.beta * words)
    return CollectiveCost(messages=float(rounds), words=words * rounds, time=t)


def reduce_cost(machine: MachineSpec, p: int, words: float) -> CollectiveCost:
    """Binomial-tree reduction to a root."""
    return bcast_cost(machine, p, words)


def gather_cost(machine: MachineSpec, p: int, words_local: float) -> CollectiveCost:
    """Binomial-tree gather of *words_local* per rank to the root."""
    _check(p, words_local)
    if p == 1:
        return CollectiveCost(0.0, 0.0, 0.0)
    rounds = ceil_log2(p)
    w = words_local * (p - 1)  # total data funnelled to the root
    t = rounds * machine.alpha + machine.beta * w
    return CollectiveCost(messages=float(rounds), words=w, time=t)


# ---------------------------------------------------------------------- #
# sparse (index+value) cost formulas — SparCML-style stream-and-switch
# ---------------------------------------------------------------------- #
def sparse_payload_words(n: float, nnz: float) -> float:
    """Wire size of an *n*-long vector carrying *nnz* stored entries.

    The index+value encoding costs ``(1 + SPARSE_INDEX_WORDS)·nnz`` words;
    the stream-and-switch schedule densifies as soon as that exceeds the
    dense size ``n``, so the payload never costs more than the dense one.
    """
    if n < 0:
        raise ValidationError(f"vector length must be >= 0, got {n}")
    if nnz < 0 or nnz > n:
        raise ValidationError(f"nnz must be in [0, {n}], got {nnz}")
    return min((1.0 + SPARSE_INDEX_WORDS) * float(nnz), float(n))


def sparse_allreduce_cost(
    machine: MachineSpec,
    p: int,
    n: float,
    nnz_union: float,
    algorithm: str = "recursive_doubling",
) -> CollectiveCost:
    """Cost of a sparse allreduce whose reduced support has *nnz_union* entries.

    Every round of the dense schedule is replayed with the effective
    payload :func:`sparse_payload_words`\\ ``(n, nnz_union)`` in place of
    ``n`` — an upper bound on each round's exchanged support (supports only
    grow toward the union), capped at the dense size by stream-and-switch.
    Message counts are unchanged; words and time shrink to O(nnz_union).
    """
    _check(p, n)
    return allreduce_cost(machine, p, sparse_payload_words(n, nnz_union), algorithm)


# ---------------------------------------------------------------------- #
# unified allreduce charging — collectives v2
# ---------------------------------------------------------------------- #
def resolve_comm_mode(mode: str, *, union_density: float) -> str:
    """Resolve a ``comm`` knob value to the concrete path for one phase.

    ``"auto"`` picks the sparse path while the measured union density is
    below the stream-and-switch threshold :data:`SPARSE_SWITCH_DENSITY`,
    densifying above it — the per-phase decision the solvers log into the
    trace. This is the only place that threshold is compared.
    """
    if mode not in COMM_MODES:
        raise ValidationError(f"unknown comm mode {mode!r}; choose from {COMM_MODES}")
    if mode == "auto":
        return "sparse" if union_density < SPARSE_SWITCH_DENSITY else "dense"
    return mode


@dataclass(frozen=True)
class AllreduceCharge:
    """Everything one allreduce charges, from one helper for every path.

    :func:`allreduce_charge` is the single source of these numbers, so
    dense/sparse/top-k/quantized payloads on both substrates (the BSP
    cluster and the mp ledger) report through the same counters and the
    same trace detail.
    """

    cost: CollectiveCost
    #: Words that actually travelled in a non-dense (index+value) encoding.
    sparse_words: float
    #: Dense-equivalent words avoided (vs. the dense schedule on the same
    #: machine/topology); >0 for sparse and compressed payloads.
    saved_words: float
    #: Node-local rounds of the schedule (0 on single-level machines).
    rounds_local: int
    #: Inter-node (network) rounds of the schedule.
    rounds_remote: int
    #: Encoding actually used: dense | sparse | topk | quant.
    decision: str
    #: Trace-event detail: the measured support for sparse/top-k (and for
    #: an ``auto`` phase that densified), the bit width for quant, else "".
    detail: str = ""


def _flat_round_count(p: int, algorithm: str) -> int:
    if p <= 1:
        return 0
    if algorithm == "recursive_doubling":
        return ceil_log2(p)
    if algorithm == "binomial_tree":
        return 2 * ceil_log2(p)
    if algorithm == "ring":
        return 2 * (p - 1)
    raise ValidationError(
        f"unknown allreduce algorithm {algorithm!r}; choose from {ALLREDUCE_ALGORITHMS}"
    )


def _round_counts(machine: MachineSpec, p: int, algorithm: str) -> tuple[int, int]:
    """(node-local, inter-node) rounds of the allreduce schedule."""
    if p <= 1:
        return 0, 0
    if isinstance(machine, HierarchicalMachine) and machine.node_size > 1:
        ranks_per_node, n_nodes = _two_level_split(machine, p)
        return 2 * ceil_log2(ranks_per_node), _flat_round_count(n_nodes, algorithm)
    return 0, _flat_round_count(p, algorithm)


def compressed_payload_words(n: float, compress: CompressionSpec, nnz: float) -> float:
    """Wire size of one compressed contribution of dense length *n*.

    Top-k ships index+value pairs over the *nnz* kept (union) support;
    quantization ships :func:`~repro.distsim.compress.quant_payload_words`.
    Both are capped at the dense size.
    """
    if compress.kind == "topk":
        return sparse_payload_words(n, min(nnz, n))
    if compress.kind == "quant":
        return quant_payload_words(n, compress.bits)
    raise ValidationError(f"not a lossy compression spec: {compress.spec!r}")


def allreduce_charge(
    machine: MachineSpec,
    p: int,
    n: float,
    *,
    algorithm: str = "recursive_doubling",
    mode: str = "dense",
    nnz_union: float = 0.0,
    topology: str = "flat",
    compress: CompressionSpec = NO_COMPRESSION,
    compressed_nnz: float = 0.0,
) -> AllreduceCharge:
    """Charge one allreduce of a length-*n* vector: the one charging path.

    * ``compress`` **off** — the legacy schedules, bit-for-bit: ``mode``
      resolves through :func:`resolve_comm_mode` on the union density
      *nnz_union*/*n* and the cost is :func:`allreduce_cost` /
      :func:`sparse_allreduce_cost` on *machine* (the ``"hier"`` topology
      changes the combine tree, not the two-level cost formula a
      hierarchical machine already charges).
    * ``compress`` **on** — the encoding decision is the compressor's.
      On ``"flat"`` every round ships the compressed payload
      (*compressed_nnz* = union nnz of the compressed contributions for
      top-k). On ``"hier"`` the node-local rounds stay dense (shared
      memory is cheap; compression there would only add error) and the
      inter-node rounds ship the compressed leader partials.

    ``saved_words`` is always measured against the dense schedule on the
    same machine, so sparse and compressed paths report through one
    counter family.
    """
    _check(p, n)
    if topology not in COMM_TOPOLOGIES:
        raise ValidationError(
            f"unknown comm topology {topology!r}; choose from {COMM_TOPOLOGIES}"
        )
    dense_cost = allreduce_cost(machine, p, n, algorithm)
    rounds_local, rounds_remote = _round_counts(machine, p, algorithm)

    if not compress.enabled:
        decision = resolve_comm_mode(mode, union_density=nnz_union / n if n else 0.0)
        if decision == "sparse":
            cost = sparse_allreduce_cost(machine, p, n, nnz_union, algorithm)
            return AllreduceCharge(
                cost=cost,
                sparse_words=cost.words,
                saved_words=dense_cost.words - cost.words,
                rounds_local=rounds_local,
                rounds_remote=rounds_remote,
                decision="sparse",
                detail=f"sparse nnz={int(nnz_union)}/{int(n)}",
            )
        return AllreduceCharge(
            cost=dense_cost,
            sparse_words=0.0,
            saved_words=0.0,
            rounds_local=rounds_local,
            rounds_remote=rounds_remote,
            decision="dense",
            detail=f"auto->dense nnz={int(nnz_union)}/{int(n)}" if mode == "auto" else "",
        )

    payload = compressed_payload_words(n, compress, compressed_nnz)
    if (
        topology == "hier"
        and isinstance(machine, HierarchicalMachine)
        and machine.node_size > 1
        and p > 1
    ):
        ranks_per_node, n_nodes = _two_level_split(machine, p)
        intra_rounds = ceil_log2(ranks_per_node)
        flat = MachineSpec(
            name=machine.name, alpha=machine.alpha, beta=machine.beta, gamma=machine.gamma
        )
        inter = allreduce_cost(flat, n_nodes, payload, algorithm)
        cost = CollectiveCost(
            messages=2.0 * intra_rounds + inter.messages,
            words=2.0 * n * intra_rounds + inter.words,
            time=2 * intra_rounds * machine.intra_message_time(n) + inter.time,
        )
    else:
        cost = allreduce_cost(machine, p, payload, algorithm)
    return AllreduceCharge(
        cost=cost,
        sparse_words=cost.words if compress.kind == "topk" else 0.0,
        saved_words=dense_cost.words - cost.words,
        rounds_local=rounds_local,
        rounds_remote=rounds_remote,
        decision=compress.kind,
        detail=(
            f"topk nnz={int(compressed_nnz)}/{int(n)}"
            if compress.kind == "topk"
            else f"quant bits={compress.bits}"
        ),
    )
