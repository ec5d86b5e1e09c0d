"""Deterministic, seeded fault injection for the simulated machine.

The α-β-γ model of the paper assumes a fault-free, perfectly synchronous
cluster; the 512-rank regime it targets is exactly where message loss,
rank crashes and silent numerical corruption dominate real deployments.
This module lets the simulator *measure* the cost of tolerating those
faults in the same cost model as the algorithm itself: every retry,
backoff and checkpoint is charged to the per-rank flops/words/messages
counters, so robustness overhead shows up in Table-1-style reports.

Design rules
------------
* **Deterministic.** Every decision is drawn from a generator keyed by
  ``(plan.seed, stream, *indices)`` — independent of wall-clock time,
  Python hashing, and the order in which hooks happen to be called. The
  same :class:`FaultPlan` therefore replays bit-identically.
* **Zero-fault identity.** An *empty* plan (all rates zero, no scheduled
  events) injects nothing and charges nothing: runs with an injector built
  from an empty plan are bit-identical to runs without one (tested in the
  golden-trace harness).
* **One-shot scheduled events.** Scheduled events fire on monotonically
  increasing op indices, so a rollback-and-replay after recovery does not
  re-trigger them; triggered crashes are cleared by :meth:`FaultInjector.heal_all`
  when the runtime "respawns" the rank.

Two substrates consume the injector, both once per collective (the
paper's algorithms communicate only through collectives):

* :class:`~repro.distsim.bsp.BSPCluster` — the op index is the global
  collective index.
* :class:`~repro.runtime.mpbackend.MultiprocessingBackend` — the same
  global collective index, but the verdicts act on **real processes**:
  a due :class:`RankCrash` SIGKILLs the rank's worker, a
  :class:`RankStall` makes the worker really ``sleep`` (a slow rank /
  hang, depending on the deadline), and a :class:`PayloadCorruption`
  flips the rank's shared-memory contribution before the reduction.
  Determinism is unchanged — the schedule depends only on the plan and
  the collective index — which is what makes real-process chaos testing
  replayable (docs/RESILIENCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "CORRUPTION_MODES",
    "RankCrash",
    "RankStall",
    "PayloadCorruption",
    "RetryPolicy",
    "FaultPlan",
    "CollectiveFault",
    "FaultInjector",
    "corrupt_array",
    "as_injector",
]

CORRUPTION_MODES = ("nan", "inf", "bitflip")

# Stream codes for decision generators — stable across releases so recorded
# plans replay identically. Codes 1 and 2 (retired point-to-point drop and
# delay streams) are never reused.
_S_CORRUPT = 3
_S_STALL = 4
_S_POSITION = 5
_S_COLL_FAIL = 6


def _rng(seed: int, stream: int, *indices: int) -> np.random.Generator:
    """Stateless decision generator keyed by (seed, stream, indices)."""
    return np.random.default_rng((int(seed), int(stream)) + tuple(int(i) for i in indices))


# ---------------------------------------------------------------------- #
# scheduled (one-shot) fault specifications
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RankCrash:
    """Permanent rank failure at a simulated time or op count.

    Exactly one of ``at_time`` (simulated seconds on that rank's clock)
    and ``at_op`` (the global collective index) must be given.
    """

    rank: int
    at_time: float | None = None
    at_op: int | None = None

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.at_op is None):
            raise ValidationError("RankCrash needs exactly one of at_time / at_op")
        if self.at_time is not None and not (np.isfinite(self.at_time) and self.at_time >= 0):
            raise ValidationError(f"at_time must be finite and >= 0, got {self.at_time}")
        if self.at_op is not None and self.at_op < 0:
            raise ValidationError(f"at_op must be >= 0, got {self.at_op}")

    def due(self, *, time: float, op_index: int) -> bool:
        if self.at_time is not None:
            return time >= self.at_time
        return op_index >= int(self.at_op)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RankStall:
    """Transient stall: *rank* loses *duration* simulated seconds at op *at_op*."""

    rank: int
    at_op: int
    duration: float

    def __post_init__(self) -> None:
        if self.at_op < 0 or not (np.isfinite(self.duration) and self.duration > 0):
            raise ValidationError("RankStall needs at_op >= 0 and duration > 0")


@dataclass(frozen=True)
class PayloadCorruption:
    """Corrupt *rank*'s payload/contribution at op *at_op* (one-shot)."""

    rank: int
    at_op: int
    mode: str = "nan"

    def __post_init__(self) -> None:
        if self.mode not in CORRUPTION_MODES:
            raise ValidationError(f"mode must be one of {CORRUPTION_MODES}, got {self.mode!r}")
        if self.at_op < 0:
            raise ValidationError(f"at_op must be >= 0, got {self.at_op}")


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Re-issue with exponential backoff.

    A torn collective is re-issued up to ``max_retries`` times; the ranks
    idle ``base_backoff * backoff_factor**(attempt-1)`` simulated seconds
    before each re-issue. Every re-issue is charged as real traffic (and
    counted into the ``retry_messages``/``retry_words`` counters). On the
    mp backend the same series bounds the grace granted to a slow worker,
    and each grace wait charges an ``ack_words``-word acknowledgement.
    """

    max_retries: int = 3
    base_backoff: float = 1e-4
    backoff_factor: float = 2.0
    ack_words: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (np.isfinite(self.base_backoff) and self.base_backoff >= 0):
            raise ValidationError(f"base_backoff must be >= 0, got {self.base_backoff}")
        if self.backoff_factor < 1.0:
            raise ValidationError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.ack_words < 0:
            raise ValidationError(f"ack_words must be >= 0, got {self.ack_words}")

    def backoff(self, attempt: int) -> float:
        """Backoff before resend number *attempt* (1-based)."""
        if attempt < 1:
            raise ValidationError(f"attempt must be >= 1, got {attempt}")
        return self.base_backoff * self.backoff_factor ** (attempt - 1)


# ---------------------------------------------------------------------- #
# the plan
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of what goes wrong and when.

    Rate-based faults fire with the given probability per opportunity,
    drawn deterministically from ``seed`` (see module docstring); scheduled
    events fire exactly once at their op index. An all-defaults plan is
    *empty*: it injects nothing.
    """

    seed: int = 0
    # rate-based faults -------------------------------------------------- #
    corrupt_rate: float = 0.0       # per-rank collective contribution
    corrupt_mode: str = "nan"
    stall_rate: float = 0.0         # per rank per collective
    stall: float = 1e-2             # seconds lost when a stall fires
    collective_drop_rate: float = 0.0  # per collective attempt (BSP cluster)
    # scheduled one-shot events ------------------------------------------ #
    crashes: tuple[RankCrash, ...] = ()
    stalls: tuple[RankStall, ...] = ()
    corruptions: tuple[PayloadCorruption, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ValidationError(
                f"fault plan seed must be a non-negative integer, got {self.seed}"
            )
        for name in ("corrupt_rate", "stall_rate", "collective_drop_rate"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if not (np.isfinite(self.stall) and self.stall >= 0):
            raise ValidationError(f"stall must be finite and >= 0, got {self.stall}")
        if self.corrupt_mode not in CORRUPTION_MODES:
            raise ValidationError(
                f"corrupt_mode must be one of {CORRUPTION_MODES}, got {self.corrupt_mode!r}"
            )
        seen: set[int] = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ValidationError(f"rank {c.rank} has more than one scheduled crash")
            seen.add(c.rank)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.corrupt_rate == 0.0
            and self.stall_rate == 0.0
            and self.collective_drop_rate == 0.0
            and not self.crashes
            and not self.stalls
            and not self.corruptions
        )


# ---------------------------------------------------------------------- #
# corruption kernel
# ---------------------------------------------------------------------- #
def corrupt_array(
    arr: np.ndarray, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Return a corrupted *copy* of *arr* (NaN / Inf / single bit-flip).

    The victim element (and, for ``bitflip``, the bit) is drawn from *rng*,
    so a stateless keyed generator makes the corruption deterministic.
    Empty arrays are returned unchanged.
    """
    if mode not in CORRUPTION_MODES:
        raise ValidationError(f"mode must be one of {CORRUPTION_MODES}, got {mode!r}")
    out = np.array(arr, dtype=np.float64, copy=True)
    if out.size == 0:
        return out
    flat = out.reshape(-1)
    pos = int(rng.integers(0, flat.size))
    if mode == "nan":
        flat[pos] = np.nan
    elif mode == "inf":
        flat[pos] = np.inf
    else:  # bitflip: flip one mantissa/exponent/sign bit of the float64
        bit = int(rng.integers(0, 64))
        bits = flat[pos : pos + 1].view(np.uint64)
        bits ^= np.uint64(1) << np.uint64(bit)
    return out


# ---------------------------------------------------------------------- #
# per-decision result records
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CollectiveFault:
    """Injector verdict for one collective."""

    stalls: dict[int, float] = field(default_factory=dict)      # rank -> seconds
    corruptions: dict[int, str] = field(default_factory=dict)   # rank -> mode
    failed_attempts: int = 0                                    # torn-collective count

    @property
    def any(self) -> bool:
        return bool(self.stalls) or bool(self.corruptions) or self.failed_attempts > 0


_NO_COLLECTIVE_FAULT = CollectiveFault()

# Cap on consecutive torn-collective attempts the injector will report;
# far above any sane RetryPolicy.max_retries, it only bounds the draw loop.
_MAX_COLLECTIVE_FAILURES = 16


class FaultInjector:
    """Runtime oracle answering "does this op fault?" for one plan.

    Stateless apart from crash bookkeeping: decisions depend only on the
    plan seed and the op indices supplied by the substrate, so replays are
    deterministic. Crashes latch (a dead rank stays dead) until
    :meth:`heal_all` — the runtime's "respawn from checkpoint" — clears
    the triggered specs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise ValidationError(f"FaultInjector needs a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self._dead: set[int] = set()
        self._healed: set[RankCrash] = set()
        self._stalls = {(s.rank, s.at_op): s.duration for s in plan.stalls}
        self._corruptions = {(c.rank, c.at_op): c.mode for c in plan.corruptions}

    # -- crash lifecycle ------------------------------------------------ #
    @property
    def crashed_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self._dead))

    def crash_due(self, rank: int, *, time: float, op_index: int) -> bool:
        """True when *rank* is (or just became) permanently dead."""
        if rank in self._dead:
            return True
        for spec in self.plan.crashes:
            if spec.rank == rank and spec not in self._healed and spec.due(
                time=time, op_index=op_index
            ):
                self._dead.add(rank)
                return True
        return False

    def due_crashes(self, nranks: int, *, time: float, op_index: int) -> tuple[int, ...]:
        """Ranks that are dead as of (*time*, *op_index*), latched, sorted.

        Convenience sweep over :meth:`crash_due` for substrates that probe
        the whole pool at once (the mp backend asks before every
        collective, SIGKILLing any rank whose scheduled crash is due).
        """
        if nranks < 1:
            raise ValidationError(f"nranks must be >= 1, got {nranks}")
        return tuple(
            rank
            for rank in range(int(nranks))
            if self.crash_due(rank, time=time, op_index=op_index)
        )

    def heal_all(self) -> tuple[int, ...]:
        """Respawn every dead rank; their triggered crash specs never refire.

        Returns the ranks that were healed (for logging/metadata).
        """
        healed = self.crashed_ranks
        for spec in self.plan.crashes:
            if spec.rank in self._dead:
                self._healed.add(spec)
        self._dead.clear()
        return healed

    def reset(self) -> None:
        """Forget all runtime state (crashes re-arm) — for fresh replays."""
        self._dead.clear()
        self._healed.clear()

    # -- collectives ---------------------------------------------------- #
    def collective_fault(self, nranks: int, index: int) -> CollectiveFault:
        """Verdict for global collective number *index* over *nranks* ranks."""
        plan = self.plan
        if plan.empty:
            return _NO_COLLECTIVE_FAULT
        stalls: dict[int, float] = {}
        corruptions: dict[int, str] = {}
        for rank in range(nranks):
            dur = self._stalls.get((rank, index), 0.0)
            if dur == 0.0 and plan.stall_rate > 0:
                if _rng(plan.seed, _S_STALL, rank, index).random() < plan.stall_rate:
                    dur = plan.stall
            if dur > 0:
                stalls[rank] = dur
            mode = self._corruptions.get((rank, index))
            if mode is None and plan.corrupt_rate > 0:
                if _rng(plan.seed, _S_CORRUPT, rank, index).random() < plan.corrupt_rate:
                    mode = plan.corrupt_mode
            if mode is not None:
                corruptions[rank] = mode
        failed = 0
        if plan.collective_drop_rate > 0:
            gen = _rng(plan.seed, _S_COLL_FAIL, index)
            while failed < _MAX_COLLECTIVE_FAILURES and gen.random() < plan.collective_drop_rate:
                failed += 1
        if not stalls and not corruptions and failed == 0:
            return _NO_COLLECTIVE_FAULT
        return CollectiveFault(stalls=stalls, corruptions=corruptions, failed_attempts=failed)

    # -- corruption ----------------------------------------------------- #
    def corrupt(self, value: Any, mode: str, *, rank: int, op_index: int) -> Any:
        """Deterministically corrupt *value* (arrays only; others pass through)."""
        if isinstance(value, np.ndarray):
            return corrupt_array(value, mode, _rng(self.plan.seed, _S_POSITION, rank, op_index))
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(seed={self.plan.seed}, empty={self.plan.empty}, "
            f"dead={sorted(self._dead)})"
        )


def as_injector(
    faults: "FaultPlan | FaultInjector | None",
) -> FaultInjector | None:
    """Accept a plan, an injector, or None (solver front-end convenience)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
