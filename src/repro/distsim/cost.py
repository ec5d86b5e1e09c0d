"""Per-rank cost counters and simulated clocks.

The simulator charges every operation to three counters per rank — flops
``F``, messages ``L`` and words ``W`` — mirroring Eq. (7) of the paper:
``T = γF + αL + βW``. Clocks additionally model synchronization: a
collective completes no earlier than the slowest participating rank.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["PhaseKind", "CostCounter", "ClusterCost"]


class PhaseKind(enum.Enum):
    """Category of a simulated phase, for trace accounting."""

    COMPUTE = "compute"
    COLLECTIVE = "collective"
    FAULT = "fault"  # injected faults, retries, recovery traffic


@dataclass
class CostCounter:
    """Mutable accumulator of one rank's costs and its simulated clock."""

    rank: int
    flops: float = 0.0
    words: float = 0.0
    messages: float = 0.0
    sparse_words: float = 0.0
    saved_words: float = 0.0
    retry_messages: float = 0.0
    retry_words: float = 0.0
    checkpoint_words: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    idle_time: float = 0.0
    clock: float = 0.0

    def charge_compute(self, flops: float, seconds: float) -> None:
        """Advance the clock through a local compute phase."""
        if flops < 0 or seconds < 0:
            raise ValidationError("compute charges must be non-negative")
        self.flops += flops
        self.compute_time += seconds
        self.clock += seconds

    def charge_comm(
        self,
        messages: float,
        words: float,
        seconds: float,
        *,
        sparse_words: float = 0.0,
        saved_words: float = 0.0,
        retry_messages: float = 0.0,
        retry_words: float = 0.0,
        checkpoint_words: float = 0.0,
    ) -> None:
        """Advance the clock through this rank's share of a communication.

        ``sparse_words`` is the part of *words* that travelled in
        index+value encoding; ``saved_words`` the dense-equivalent words
        the sparse encoding avoided (both zero for dense collectives).
        ``retry_messages``/``retry_words`` tag the part of *messages* /
        *words* that was fault-tolerance traffic (retransmissions, acks,
        recovery state transfer); ``checkpoint_words`` tags words spent on
        periodic checkpointing. All three are *subsets* of the headline
        counters, so Table-1 totals still reflect everything that moved.
        """
        if messages < 0 or words < 0 or seconds < 0:
            raise ValidationError("communication charges must be non-negative")
        if sparse_words < 0 or saved_words < 0:
            raise ValidationError("sparse word charges must be non-negative")
        if retry_messages < 0 or retry_words < 0 or checkpoint_words < 0:
            raise ValidationError("fault-overhead charges must be non-negative")
        self.messages += messages
        self.words += words
        self.sparse_words += sparse_words
        self.saved_words += saved_words
        self.retry_messages += retry_messages
        self.retry_words += retry_words
        self.checkpoint_words += checkpoint_words
        self.comm_time += seconds
        self.clock += seconds

    def wait_until(self, t: float) -> None:
        """Stall until simulated time *t* (no-op if already past it)."""
        if t > self.clock:
            self.idle_time += t - self.clock
            self.clock = t

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view, for reports."""
        return {
            "rank": self.rank,
            "flops": self.flops,
            "words": self.words,
            "messages": self.messages,
            "sparse_words": self.sparse_words,
            "saved_words": self.saved_words,
            "retry_messages": self.retry_messages,
            "retry_words": self.retry_words,
            "checkpoint_words": self.checkpoint_words,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "idle_time": self.idle_time,
            "clock": self.clock,
        }


@dataclass
class ClusterCost:
    """Aggregate view over all ranks' counters."""

    counters: list[CostCounter] = field(default_factory=list)

    @property
    def nranks(self) -> int:
        return len(self.counters)

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock: the furthest-ahead rank clock."""
        return max((c.clock for c in self.counters), default=0.0)

    @property
    def total_flops(self) -> float:
        return sum(c.flops for c in self.counters)

    @property
    def total_words(self) -> float:
        return sum(c.words for c in self.counters)

    @property
    def total_messages(self) -> float:
        return sum(c.messages for c in self.counters)

    @property
    def total_sparse_words(self) -> float:
        """Words that travelled in index+value encoding, across all ranks."""
        return sum(c.sparse_words for c in self.counters)

    @property
    def total_saved_words(self) -> float:
        """Dense-equivalent words avoided by sparse encoding, across all ranks."""
        return sum(c.saved_words for c in self.counters)

    @property
    def total_retry_messages(self) -> float:
        """Retransmission/ack/recovery messages across all ranks."""
        return sum(c.retry_messages for c in self.counters)

    @property
    def total_retry_words(self) -> float:
        """Words spent on retransmissions, acks and recovery state transfer."""
        return sum(c.retry_words for c in self.counters)

    @property
    def total_checkpoint_words(self) -> float:
        """Words spent on periodic checkpointing, across all ranks."""
        return sum(c.checkpoint_words for c in self.counters)

    @property
    def max_flops(self) -> float:
        """Critical-path flops (slowest rank) — the per-processor F of Table 1."""
        return max((c.flops for c in self.counters), default=0.0)

    @property
    def max_messages(self) -> float:
        """Critical-path message count — the per-processor L of Table 1."""
        return max((c.messages for c in self.counters), default=0.0)

    @property
    def max_words(self) -> float:
        """Critical-path word count — the per-processor W of Table 1."""
        return max((c.words for c in self.counters), default=0.0)

    def per_rank(self, attr: str) -> np.ndarray:
        """Vector of one counter attribute across ranks."""
        return np.array([getattr(c, attr) for c in self.counters], dtype=np.float64)

    def summary(self) -> dict[str, float]:
        """Headline totals used by the benchmark harness."""
        return {
            "nranks": self.nranks,
            "elapsed": self.elapsed,
            "flops_per_rank_max": self.max_flops,
            "messages_per_rank_max": self.max_messages,
            "words_per_rank_max": self.max_words,
            "flops_total": self.total_flops,
            "words_total": self.total_words,
            "messages_total": self.total_messages,
            "sparse_words_total": self.total_sparse_words,
            "saved_words_total": self.total_saved_words,
            "retry_messages_total": self.total_retry_messages,
            "retry_words_total": self.total_retry_words,
            "checkpoint_words_total": self.total_checkpoint_words,
        }
