"""Export simulated traces to the Chrome trace-event format (Perfetto).

One :class:`~repro.distsim.trace.TraceEvent` becomes one complete
(``"ph": "X"``) event; phase kinds map to stable virtual threads so the
Perfetto timeline shows compute, collective and fault lanes separately.
Timestamps are simulated seconds rescaled to microseconds (the
trace-event unit) and rebased to the earliest event, so traces from
different runs align at t=0.

The output loads directly in https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.distsim.cost import PhaseKind
from repro.distsim.trace import Trace
from repro.exceptions import ValidationError

__all__ = ["KIND_LANES", "to_chrome_trace", "write_chrome_trace"]

#: Stable phase-kind -> tid mapping (one Perfetto lane per kind).
KIND_LANES: dict[PhaseKind, int] = {
    PhaseKind.COMPUTE: 0,
    PhaseKind.COLLECTIVE: 1,
    PhaseKind.FAULT: 2,
}

_PID = 1  # one simulated cluster per trace file
_US_PER_S = 1e6


def to_chrome_trace(trace: Trace, *, process_name: str = "distsim") -> dict[str, Any]:
    """Render *trace* as a Chrome trace-event JSON object.

    Events are sorted by start time (ties broken by lane) so ``ts`` is
    monotone — some consumers require it. ``args`` carries the simulator's
    per-event accounting (flops/words/messages and the free-form
    ``detail``), so the cost attribution survives into the Perfetto UI.
    """
    events = sorted(trace.events, key=lambda e: (e.start, KIND_LANES[e.kind], e.end))
    t0 = events[0].start if events else 0.0
    out: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for kind, tid in KIND_LANES.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": kind.value},
            }
        )
    for e in events:
        args: dict[str, Any] = {}
        if e.flops:
            args["flops"] = e.flops
        if e.words:
            args["words"] = e.words
        if e.messages:
            args["messages"] = e.messages
        if e.detail:
            args["detail"] = e.detail
        out.append(
            {
                "name": e.label,
                "cat": e.kind.value,
                "ph": "X",
                "ts": (e.start - t0) * _US_PER_S,
                "dur": e.duration * _US_PER_S,
                "pid": _PID,
                "tid": KIND_LANES[e.kind],
                "args": args,
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": out}


def write_chrome_trace(
    trace: Trace, path: str | Path, *, process_name: str = "distsim"
) -> Path:
    """Write :func:`to_chrome_trace` output to *path*; returns the path."""
    path = Path(path)
    if path.suffix not in (".json", ".gz"):
        raise ValidationError(
            f"trace file should end in .json for Perfetto to accept it, got {path.name!r}"
        )
    path.write_text(
        json.dumps(to_chrome_trace(trace, process_name=process_name)), encoding="utf-8"
    )
    return path
