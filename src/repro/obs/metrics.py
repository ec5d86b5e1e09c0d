"""Labelled metrics registry for the simulated machine and solvers.

Prometheus-flavoured instruments — counters, gauges, histograms, each with
optional string labels — backed by plain dicts so snapshots are JSON-safe.
The registry is *pull*-style: publishers (``BSPCluster``, the mp backend,
the solver loops) increment instruments as they go; consumers call
:meth:`MetricsRegistry.snapshot` and :func:`diff_snapshots` to attribute
deltas to a region of a run.

Design constraints (see docs/OBSERVABILITY.md):

* **Zero overhead when disabled.** A registry built with ``enabled=False``
  hands out the same instrument objects, but every mutation returns after a
  single attribute check and :meth:`MetricsRegistry.snapshot` returns ``{}``.
  Simulator costs, clocks and results are never affected either way — the
  golden-trace fixtures pin that.
* **Deterministic snapshots.** Labels are sorted into a canonical
  ``k=v,k=v`` key, so two identical runs produce identical snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "merge_rank_counts",
    "record_recovery",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: decades spanning sub-microsecond collective
#: times up to the multi-second end of container-scale simulated runs.
DEFAULT_BUCKETS: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


def _label_key(labels: Mapping[str, Any]) -> str:
    """Canonical ``k=v,k=v`` key (sorted) for one label combination."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Instrument:
    """Shared plumbing: a name, a help string and per-labelset storage."""

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        self._registry = registry
        self.name = name
        self.help = help


class Counter(_Instrument):
    """Monotonically increasing value, one series per label combination."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _snapshot(self) -> dict[str, Any]:
        return dict(self._values)


class Gauge(_Instrument):
    """Last-write-wins value, one series per label combination."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._values: dict[str, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _snapshot(self) -> dict[str, Any]:
        return dict(self._values)


@dataclass
class _HistogramSeries:
    count: float = 0.0
    sum: float = 0.0
    buckets: dict[str, float] = field(default_factory=dict)  # upper bound -> count


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics, plus ``+Inf``)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValidationError(f"histogram {self.name!r} needs at least one bucket")
        self.bounds = bounds
        self._series: dict[str, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                buckets={f"{b:g}": 0.0 for b in self.bounds} | {"+Inf": 0.0}
            )
        v = float(value)
        series.count += 1.0
        series.sum += v
        for b in self.bounds:
            if v <= b:
                series.buckets[f"{b:g}"] += 1.0
        series.buckets["+Inf"] += 1.0

    def _snapshot(self) -> dict[str, Any]:
        return {
            key: {"count": s.count, "sum": s.sum, "buckets": dict(s.buckets)}
            for key, s in self._series.items()
        }


class MetricsRegistry:
    """Factory and container for instruments.

    Calling :meth:`counter` / :meth:`gauge` / :meth:`histogram` twice with
    the same name returns the same instrument (re-registering under a
    different kind raises). Publishers therefore never need to coordinate:
    each grabs its instruments by name at construction time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._instruments: dict[str, _Instrument] = {}

    # -- factories ------------------------------------------------------ #
    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValidationError(
                    f"metric {name!r} already registered as a {existing.kind}"
                )
            return existing
        inst = cls(self, name, help, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- introspection --------------------------------------------------- #
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe point-in-time view: ``{name: {type, values}}``.

        A disabled registry snapshots to ``{}`` so reports built on top of
        it stay clean rather than carrying a forest of zeros.
        """
        if not self.enabled:
            return {}
        return {
            name: {"type": inst.kind, "values": inst._snapshot()}
            for name, inst in sorted(self._instruments.items())
        }


def merge_rank_counts(
    registry: MetricsRegistry,
    name: str,
    counts: "list[float] | tuple[float, ...]",
    help: str = "",
) -> None:
    """Fold per-rank counts into *registry* as one ``rank=<r>``-labelled counter.

    Real-parallelism backends accumulate data-plane statistics outside the
    registry (worker processes cannot share its dicts) and publish them in
    one deterministic pass at teardown: rank order is the label order, so
    two identical runs snapshot identically. Zero counts are skipped —
    a rank that did nothing contributes no series, mirroring how the
    simulator's instruments only materialise series that were touched.
    """
    counter = registry.counter(name, help=help)
    for rank, count in enumerate(counts):
        if count:
            counter.inc(float(count), rank=rank)


def record_recovery(
    registry: "MetricsRegistry | None",
    *,
    respawns: int = 0,
    shrinks: int = 0,
    ranks_lost: int = 0,
    retry_waits: int = 0,
) -> None:
    """Count one recovery action of the elastic mp backend.

    Publishes the ``recovery_*`` counter family (docs/RESILIENCE.md):
    supervised worker respawns, pool shrinks, total ranks lost to
    crashes/hangs, and deadline extensions granted under a
    :class:`~repro.distsim.faults.RetryPolicy` backoff. No-op when the
    caller has no registry — the recovery path must not require one.
    """
    if registry is None:
        return
    if respawns:
        registry.counter(
            "recovery_respawns_total",
            help="worker processes respawned after a crash or hang",
        ).inc(float(respawns))
    if shrinks:
        registry.counter(
            "recovery_shrinks_total",
            help="pool shrinks (P -> P') after unrecoverable rank loss",
        ).inc(float(shrinks))
    if ranks_lost:
        registry.counter(
            "recovery_ranks_lost_total",
            help="worker ranks lost to crashes or hangs",
        ).inc(float(ranks_lost))
    if retry_waits:
        registry.counter(
            "recovery_retry_waits_total",
            help="collective ack deadlines extended by RetryPolicy backoff",
        ).inc(float(retry_waits))


def _diff_values(kind: str, before: Any, after: Any) -> Any:
    if kind == "gauge":
        return after  # gauges are levels, not flows: report the new level
    if kind == "histogram":
        out = {}
        for key, series in after.items():
            prev = (before or {}).get(key, {"count": 0.0, "sum": 0.0, "buckets": {}})
            out[key] = {
                "count": series["count"] - prev.get("count", 0.0),
                "sum": series["sum"] - prev.get("sum", 0.0),
                "buckets": {
                    b: c - prev.get("buckets", {}).get(b, 0.0)
                    for b, c in series["buckets"].items()
                },
            }
        return out
    return {
        key: value - (before or {}).get(key, 0.0) for key, value in after.items()
    }


def diff_snapshots(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Delta between two :meth:`MetricsRegistry.snapshot` results.

    Counters and histograms subtract (series present only in *after* diff
    against zero); gauges report the *after* level. Metrics absent from
    *after* are dropped — the diff answers "what happened in between", and
    nothing can have happened to a metric that no longer exists.
    """
    out: dict[str, Any] = {}
    for name, entry in after.items():
        prev = before.get(name)
        if prev is not None and prev.get("type") != entry["type"]:
            raise ValidationError(
                f"metric {name!r} changed type between snapshots "
                f"({prev.get('type')} -> {entry['type']})"
            )
        out[name] = {
            "type": entry["type"],
            "values": _diff_values(
                entry["type"], (prev or {}).get("values"), entry["values"]
            ),
        }
    return out
