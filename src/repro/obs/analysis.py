"""Breakdown tables and critical-path analysis over simulated traces.

The paper's claims are cost-model claims (Eq. 7, Table 1): who spends how
much simulated time, how many words and how many messages, and *where*.
These helpers turn a :class:`~repro.distsim.trace.Trace` into exactly that
attribution:

* :func:`breakdown_by_kind` / :func:`breakdown_by_label` — per-phase
  aggregate rows (events, time, flops, words, messages, time fraction).
* :func:`critical_path` — comm-vs-compute split of the simulated span,
  including the fault/retry share and any uncovered gap.
* :func:`breakdown_tables` — the plain-text rendering used by
  ``repro trace-report`` and the benchmark harness.

All functions also accept the plain-dict (JSON) form of the same rows, so
reports round-trip through run-report files without loss.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.distsim.cost import PhaseKind
from repro.distsim.trace import Trace
from repro.perf.report import format_table

__all__ = [
    "breakdown_by_kind",
    "breakdown_by_label",
    "critical_path",
    "breakdown_tables",
    "fraction_lines",
]


def _aggregate(trace: Trace, key_of) -> list[dict[str, Any]]:
    acc: dict[str, dict[str, Any]] = {}
    for e in trace.events:
        row = acc.setdefault(
            key_of(e),
            {"events": 0, "time": 0.0, "flops": 0.0, "words": 0.0, "messages": 0.0},
        )
        row["events"] += 1
        row["time"] += e.duration
        row["flops"] += e.flops
        row["words"] += e.words
        row["messages"] += e.messages
    total_time = sum(r["time"] for r in acc.values()) or 1.0
    rows = []
    for key in sorted(acc, key=lambda k: -acc[k]["time"]):
        row = dict(acc[key])
        row["time_frac"] = row["time"] / total_time
        rows.append({"key": key, **row})
    return rows


def breakdown_by_kind(trace: Trace) -> list[dict[str, Any]]:
    """One aggregate row per phase kind, sorted by descending time."""
    return _aggregate(trace, lambda e: e.kind.value)


def breakdown_by_label(trace: Trace) -> list[dict[str, Any]]:
    """One aggregate row per phase label, sorted by descending time."""
    return _aggregate(trace, lambda e: e.label)


def critical_path(trace: Trace) -> dict[str, float]:
    """Comm-vs-compute attribution of the simulated span.

    Returns a dict with:

    * ``span`` — ``max(end) - min(start)`` over all events (the simulated
      makespan the trace covers),
    * ``compute_time`` / ``comm_time`` / ``fault_time`` — summed phase
      durations by class (collectives count as comm),
    * ``comm_fraction`` / ``compute_fraction`` / ``fault_fraction`` —
      the same as fractions of the covered time,
    * ``gap_time`` — span not covered by any recorded phase (solver-side
      work the simulator did not charge, e.g. out-of-band monitoring).

    Fractions are of the *covered* (charged) time, not the raw span, so
    they sum to 1 even when events overlap or leave gaps.
    """
    if not trace.events:
        return {
            "span": 0.0,
            "compute_time": 0.0,
            "comm_time": 0.0,
            "fault_time": 0.0,
            "gap_time": 0.0,
            "comm_fraction": 0.0,
            "compute_fraction": 0.0,
            "fault_fraction": 0.0,
        }
    span = max(e.end for e in trace.events) - min(e.start for e in trace.events)
    compute = sum(e.duration for e in trace.events if e.kind is PhaseKind.COMPUTE)
    comm = sum(e.duration for e in trace.events if e.kind is PhaseKind.COLLECTIVE)
    fault = sum(e.duration for e in trace.events if e.kind is PhaseKind.FAULT)
    covered = compute + comm + fault
    denom = covered or 1.0
    return {
        "span": span,
        "compute_time": compute,
        "comm_time": comm,
        "fault_time": fault,
        "gap_time": max(span - covered, 0.0),
        "comm_fraction": comm / denom,
        "compute_fraction": compute / denom,
        "fault_fraction": fault / denom,
    }


def _row_cells(row: dict[str, Any]) -> list[Any]:
    return [
        row["key"],
        row["events"],
        f"{row['time']:.6g}",
        f"{row['flops']:.6g}",
        f"{row['words']:.6g}",
        f"{row['messages']:.6g}",
        f"{100.0 * row['time_frac']:.1f}%",
    ]


def breakdown_tables(
    by_kind: Sequence[dict[str, Any]],
    by_label: Sequence[dict[str, Any]],
    *,
    max_labels: int = 20,
) -> str:
    """Render the two breakdown tables for terminal output."""
    headers = ["phase", "events", "time (s)", "flops", "words", "messages", "time %"]
    parts = [
        format_table(headers, [_row_cells(r) for r in by_kind], title="by phase kind")
    ]
    label_rows = [_row_cells(r) for r in by_label[:max_labels]]
    title = "by label"
    if len(by_label) > max_labels:
        title += f" (top {max_labels} of {len(by_label)})"
    parts.append(format_table(headers, label_rows, title=title))
    return "\n\n".join(parts)


def fraction_lines(path: dict[str, float]) -> list[str]:
    """Human-readable comm-vs-compute summary lines."""
    return [
        f"simulated span: {path['span']:.6g}s "
        f"(gap not covered by charged phases: {path['gap_time']:.3g}s)",
        f"  compute {path['compute_time']:.6g}s ({100.0 * path['compute_fraction']:5.1f}%)",
        f"  comm    {path['comm_time']:.6g}s ({100.0 * path['comm_fraction']:5.1f}%)",
        f"  fault   {path['fault_time']:.6g}s ({100.0 * path['fault_fraction']:5.1f}%)",
    ]
