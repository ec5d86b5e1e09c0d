"""Event timeline for simulated runs.

Every phase executed on a :class:`~repro.distsim.bsp.BSPCluster` (and
every collective charged to the mp backend's ledger) can be recorded as a
:class:`TraceEvent`. Traces power the per-figure accounting in the
benchmark harness (message counts per solver iteration, time breakdown by
phase kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.distsim.cost import PhaseKind

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One completed phase.

    ``start``/``end`` are simulated times (collective phases synchronize,
    so one event covers all ranks); ``label`` is caller-provided.
    ``detail`` carries free-form annotations such as the sparse-collective
    densification decision (``"sparse nnz=12/400"``).
    """

    kind: PhaseKind
    label: str
    start: float
    end: float
    flops: float = 0.0
    words: float = 0.0
    messages: float = 0.0
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """Append-only list of events with aggregate queries."""

    events: list[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    def record(self, event: TraceEvent) -> None:
        if self.enabled:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> "Iterable[TraceEvent]":
        return iter(self.events)

    def time_by_kind(self) -> dict[str, float]:
        """Total simulated time attributed to each phase kind."""
        acc: dict[str, float] = {}
        for e in self.events:
            acc[e.kind.value] = acc.get(e.kind.value, 0.0) + e.duration
        return acc

    def totals(self) -> dict[str, float]:
        """Aggregate flops/words/messages across all events."""
        return {
            "flops": sum(e.flops for e in self.events),
            "words": sum(e.words for e in self.events),
            "messages": sum(e.messages for e in self.events),
            "time": sum(e.duration for e in self.events),
        }

    def timeline(self, *, width: int = 72, max_events: int = 200) -> str:
        """ASCII phase timeline: one bar per event, width ∝ duration.

        Phases render as ``c`` (compute), ``A`` (collective) and ``!``
        (fault), left-to-right in simulated time. Zero-duration events
        render as single markers. Long traces are truncated to the first
        *max_events* events.
        """
        if not self.events:
            return "(empty trace)"
        events = self.events[:max_events]
        t_end = max(e.end for e in events)
        t_start = min(e.start for e in events)
        span = max(t_end - t_start, 1e-300)
        glyph = {
            PhaseKind.COMPUTE: "c",
            PhaseKind.COLLECTIVE: "A",
            PhaseKind.FAULT: "!",
        }
        lines = [
            f"timeline: {len(events)} events over {span:.4g}s "
            f"(c=compute  A=collective  !=fault)"
        ]
        row = [" "] * width
        for e in events:
            lo = int((e.start - t_start) / span * (width - 1))
            hi = max(lo + 1, int((e.end - t_start) / span * (width - 1)) + 1)
            for i in range(lo, min(hi, width)):
                row[i] = glyph[e.kind]
        lines.append("".join(row))
        # Per-kind lanes for overlap-free reading.
        for kind, ch in glyph.items():
            lane = [" "] * width
            hits = [e for e in events if e.kind is kind]
            if not hits:
                continue
            for e in hits:
                lo = int((e.start - t_start) / span * (width - 1))
                hi = max(lo + 1, int((e.end - t_start) / span * (width - 1)) + 1)
                for i in range(lo, min(hi, width)):
                    lane[i] = ch
            lines.append("".join(lane) + f"  {kind.value}")
        if len(self.events) > max_events:
            lines.append(f"... {len(self.events) - max_events} more events truncated")
        return "\n".join(lines)
