"""Event timeline for simulated runs.

Every phase executed on a :class:`~repro.distsim.bsp.BSPCluster` (and
every collective charged to the mp backend's ledger) can be recorded as a
:class:`TraceEvent`. Traces power the per-figure accounting in the
benchmark harness (message counts per solver iteration) and the Perfetto
export of :mod:`repro.obs.trace_export`.
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
