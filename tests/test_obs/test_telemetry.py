"""Solver telemetry: per-iteration records, run reports, no-observer-effect."""

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.distsim.bsp import BSPCluster
from repro.exceptions import FormatError, ValidationError
from repro.obs import (
    IterationRecord,
    MetricsRegistry,
    RunReport,
    TelemetryCallback,
    TelemetryRecorder,
)
from repro.runtime import RuntimeConfig


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 40))
    y = rng.standard_normal(40)
    return L1LeastSquares(X, y, lam=0.1)


def _solve(problem, **runtime):
    return rc_sfista_distributed(
        problem, 4, k=2, S=2, epochs=2, iters_per_epoch=8, seed=1,
        runtime=RuntimeConfig(comm="auto", **runtime),
    )


class TestRcSfistaDistTelemetry:
    def test_recorder_satisfies_protocol(self):
        assert isinstance(TelemetryRecorder(), TelemetryCallback)

    def test_one_record_per_inner_iteration_with_comm_decision(self, problem):
        rec = TelemetryRecorder()
        res = _solve(problem, telemetry=rec)
        assert len(rec.records) == res.n_iterations
        assert [r.inner for r in rec.records] == list(range(1, res.n_iterations + 1))
        # every record carries the collective layer's resolved encoding
        assert all(r.comm_decision in ("dense", "sparse") for r in rec.records)
        # monitor_every=1 here: every record carries the objective
        assert all(r.objective is not None for r in rec.records)
        assert rec.solver == "rc_sfista_distributed"
        assert rec.params["comm"] == "auto"
        assert rec.cost is not None and rec.trace is not None

    def test_attaching_telemetry_and_metrics_changes_nothing(self, problem):
        bare = _solve(problem)
        observed = _solve(
            problem, telemetry=TelemetryRecorder(), metrics=MetricsRegistry()
        )
        assert np.array_equal(bare.w, observed.w)
        assert bare.cost == observed.cost
        assert bare.n_comm_rounds == observed.n_comm_rounds

    def test_disabled_registry_changes_nothing_and_snapshots_empty(self, problem):
        bare = _solve(problem)
        reg = MetricsRegistry(enabled=False)
        observed = _solve(problem, metrics=reg)
        assert np.array_equal(bare.w, observed.w)
        assert bare.cost == observed.cost
        assert reg.snapshot() == {}

    def test_metrics_published(self, problem):
        reg = MetricsRegistry()
        res = _solve(problem, metrics=reg)
        snap = reg.snapshot()
        assert snap["distsim_words_total"]["values"][""] == pytest.approx(
            res.cost["words_total"]
        )
        assert snap["distsim_messages_total"]["values"][""] == pytest.approx(
            res.cost["messages_total"]
        )
        decisions = snap["distsim_comm_decisions_total"]["values"]
        assert decisions and set(decisions) <= {"decision=dense", "decision=sparse"}
        assert sum(decisions.values()) == res.n_comm_rounds
        reuses = res.meta["perf"]["gram_workspace_reuses"]
        assert reuses > 0
        assert snap["gram_workspace_reuses"]["values"][""] == reuses

    def test_metrics_with_prebuilt_cluster_rejected(self, problem):
        cluster = BSPCluster(4, "comet_effective")
        with pytest.raises(ValidationError):
            rc_sfista_distributed(
                problem, 4, epochs=1, iters_per_epoch=4,
                runtime=RuntimeConfig(cluster=cluster, metrics=MetricsRegistry()),
            )

    def test_report_round_trip(self, problem, tmp_path):
        rec = TelemetryRecorder()
        reg = MetricsRegistry()
        _solve(problem, telemetry=rec, metrics=reg)
        report = rec.report(metrics=reg.snapshot())
        path = report.save(tmp_path / "run.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.phases["by_kind"]
        assert 0.0 <= loaded.fractions["comm_fraction"] <= 1.0

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/schema@9", "solver": "x"}')
        with pytest.raises(FormatError):
            RunReport.load(path)


class TestProxNewtonTelemetry:
    def test_inner_and_outer_records(self, problem):
        rec = TelemetryRecorder()
        res = proximal_newton_distributed(
            problem, 4, inner="rc_sfista", n_outer=3, inner_iters=6, k=2, S=2,
            seed=1, runtime=RuntimeConfig(telemetry=rec, metrics=MetricsRegistry()),
        )
        inner = [r for r in rec.records if r.phase == "inner"]
        outer = [r for r in rec.records if r.phase == "outer"]
        assert len(inner) == 3 * 6
        assert all(r.objective is None for r in inner)
        assert len(outer) == res.n_iterations
        assert all(r.objective is not None for r in outer)


class TestIterationRecord:
    def test_frozen(self):
        r = IterationRecord(
            outer=0, inner=1, objective=None, step_size=0.1,
            comm_mode="auto", comm_decision="sparse",
        )
        with pytest.raises(AttributeError):
            r.inner = 2
