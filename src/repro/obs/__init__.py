"""Observability layer for the simulated machine and the solvers.

``repro.obs`` makes the paper's cost-model claims *measured* rather than
asserted (ROADMAP: every perf PR gets gated telemetry):

* :mod:`repro.obs.metrics` — a labelled metrics registry (counters,
  gauges, histograms) that :class:`~repro.distsim.bsp.BSPCluster` and
  the fault/retry machinery publish into; snapshot/diff semantics, zero
  overhead when disabled.
* :mod:`repro.obs.trace_export` — Chrome trace-event (Perfetto) export of
  :class:`~repro.distsim.trace.Trace` timelines.
* :mod:`repro.obs.analysis` — per-phase-kind / per-label breakdown tables
  and the comm-vs-compute critical-path analyzer.
* :mod:`repro.obs.telemetry` — the :class:`TelemetryCallback` protocol the
  distributed solvers call, plus :class:`RunReport`, the machine-readable
  JSON run report consumed by ``repro trace-report`` and CI.
* :mod:`repro.obs.regression` — the baseline-comparison engine behind the
  CI perf-regression gate (``benchmarks/check_regression.py``).

See docs/OBSERVABILITY.md for the end-to-end workflow.
"""

from repro.obs.analysis import (
    breakdown_by_kind,
    breakdown_by_label,
    breakdown_tables,
    critical_path,
    fraction_lines,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.regression import Violation, compare, load_baseline, update_baseline
from repro.obs.telemetry import (
    RUN_REPORT_SCHEMA,
    IterationRecord,
    RunReport,
    TelemetryCallback,
    TelemetryRecorder,
)
from repro.obs.trace_export import to_chrome_trace, write_chrome_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "to_chrome_trace",
    "write_chrome_trace",
    "breakdown_by_kind",
    "breakdown_by_label",
    "breakdown_tables",
    "critical_path",
    "fraction_lines",
    "IterationRecord",
    "TelemetryCallback",
    "TelemetryRecorder",
    "RunReport",
    "RUN_REPORT_SCHEMA",
    "Violation",
    "compare",
    "load_baseline",
    "update_baseline",
]
