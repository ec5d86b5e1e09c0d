"""Metrics registry: counters/gauges/histograms, snapshot/diff, disabled mode."""

import pytest

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, diff_snapshots


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(2.0, kind="collective")
        c.inc(kind="collective")
        snap = reg.snapshot()
        values = snap["requests_total"]["values"]
        assert values[""] == 1.0
        assert values["kind=collective"] == 3.0

    def test_label_key_is_sorted(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(b="2", a="1")
        c.inc(a="1", b="2")
        assert reg.snapshot()["c"]["values"] == {"a=1,b=2": 2.0}

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("c").inc(-1.0)

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("clock")
        g.set(1.0)
        g.set(2.5)
        assert reg.snapshot()["clock"]["values"][""] == 2.5


class TestHistogram:
    def test_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        cell = reg.snapshot()["lat"]["values"][""]
        assert cell["count"] == 3.0
        assert cell["sum"] == pytest.approx(5.55)
        assert cell["buckets"]["0.1"] == 1.0  # cumulative
        assert cell["buckets"]["1"] == 2.0
        assert cell["buckets"]["+Inf"] == 3.0


class TestDisabled:
    def test_disabled_registry_accepts_and_drops_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5.0, kind="x")
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(0.2)
        assert reg.snapshot() == {}


class TestSnapshotDiff:
    def test_counter_and_histogram_subtract_gauge_reports_after(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0,))
        c.inc(3.0)
        g.set(1.0)
        h.observe(0.5)
        before = reg.snapshot()
        c.inc(2.0)
        g.set(9.0)
        h.observe(0.25)
        after = reg.snapshot()
        delta = diff_snapshots(before, after)
        assert delta["c"]["values"][""] == 2.0
        assert delta["g"]["values"][""] == 9.0
        cell = delta["h"]["values"][""]
        assert cell["count"] == 1.0
        assert cell["sum"] == pytest.approx(0.25)
        assert cell["buckets"]["1"] == 1.0

    def test_new_series_in_after_is_kept(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(kind="old")
        before = reg.snapshot()
        c.inc(kind="new")
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["c"]["values"]["kind=new"] == 1.0
        assert delta["c"]["values"]["kind=old"] == 0.0

    def test_snapshot_is_detached(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        snap = reg.snapshot()
        c.inc()
        assert snap["c"]["values"][""] == 1.0


@pytest.mark.collectives
class TestCollectivesV2Instruments:
    """The v2 comm instruments publish only when compression/hier is active."""

    def _solve(self, registry, **kw):
        from repro.core.objectives import L1LeastSquares
        from repro.core.rc_sfista_dist import rc_sfista_distributed
        from repro.data.synthetic import make_regression
        from repro.runtime import RuntimeConfig

        X, y, _ = make_regression(
            12, 60, density=0.4, support_fraction=0.3, noise=0.01, rng=0
        )
        problem = L1LeastSquares(X, y, 0.05)
        return rc_sfista_distributed(
            problem, 8, b=0.2, seed=3, epochs=1, iters_per_epoch=8,
            runtime=RuntimeConfig(metrics=registry, **kw),
        )

    def test_default_config_publishes_no_v2_instruments(self):
        registry = MetricsRegistry()
        self._solve(registry)
        assert "distsim_comm_words_saved_compress_total" not in registry
        assert "distsim_comm_error_feedback_residual" not in registry
        assert "distsim_comm_rounds_local_total" not in registry

    def test_topk_publishes_savings_and_residual(self):
        registry = MetricsRegistry()
        self._solve(registry, comm_compress="topk:frac=0.1")
        assert registry.counter("distsim_comm_words_saved_compress_total").value() > 0
        assert registry.gauge("distsim_comm_error_feedback_residual").value() > 0
        assert registry.counter("distsim_comm_rounds_remote_total").value() > 0
        assert registry.counter("distsim_comm_rounds_local_total").value() == 0

    def test_quant_has_no_error_feedback_residual(self):
        registry = MetricsRegistry()
        self._solve(registry, comm_compress="quant:bits=8")
        assert registry.counter("distsim_comm_words_saved_compress_total").value() > 0
        assert registry.gauge("distsim_comm_error_feedback_residual").value() == 0.0

    def test_hier_splits_local_and_remote_rounds(self):
        registry = MetricsRegistry()
        # comet_4ppn: 8 ranks = 2 nodes of 4 → both round families active.
        self._solve(
            registry, machine="comet_4ppn", comm_topology="hier",
            comm_compress="quant:bits=8",
        )
        assert registry.counter("distsim_comm_rounds_local_total").value() > 0
        assert registry.counter("distsim_comm_rounds_remote_total").value() > 0
