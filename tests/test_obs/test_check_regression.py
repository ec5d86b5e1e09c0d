"""Perf-regression gate: comparison engine and the CI wrapper script."""

import json

import pytest

from benchmarks.check_regression import main as gate_main
from repro.exceptions import FormatError, ValidationError
from repro.obs.regression import (
    compare,
    extract,
    load_baseline,
    update_baseline,
)

REPORT = {
    "runs": {
        "dense": {"totals": {"elapsed": 1.0, "words_total": 1000.0, "messages_total": 0.0}},
        "sparse": {"totals": {"elapsed": 0.8}},
    },
    "series": [10.0, 20.0],
}


def _baseline(tmp_path, metrics, tolerance=0.05):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"benchmark": "t", "tolerance": tolerance, "metrics": metrics}))
    return path


class TestExtract:
    def test_nested_dict(self):
        assert extract(REPORT, "runs.dense.totals.elapsed") == 1.0

    def test_list_index(self):
        assert extract(REPORT, "series.1") == 20.0

    def test_missing_key(self):
        with pytest.raises(FormatError):
            extract(REPORT, "runs.dense.totals.nope")

    def test_non_numeric(self):
        with pytest.raises(FormatError):
            extract(REPORT, "runs.dense.totals")


class TestCompare:
    def test_within_tolerance_passes(self, tmp_path):
        baseline = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": 1.04})
        )
        assert compare(REPORT, baseline) == []

    def test_regression_flagged(self, tmp_path):
        baseline = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": 0.9})
        )
        violations = compare(REPORT, baseline)
        assert len(violations) == 1
        v = violations[0]
        assert v.metric == "runs.dense.totals.elapsed"
        assert v.rel_change == pytest.approx((1.0 - 0.9) / 0.9)
        assert "runs.dense.totals.elapsed" in v.describe()

    def test_improvement_also_flagged(self, tmp_path):
        # Symmetric check: a big win means the baseline is stale.
        baseline = load_baseline(
            _baseline(tmp_path, {"runs.sparse.totals.elapsed": 1.0})
        )
        assert len(compare(REPORT, baseline)) == 1

    def test_zero_baseline_requires_exact_zero(self, tmp_path):
        baseline = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.messages_total": 0.0})
        )
        assert compare(REPORT, baseline) == []

    def test_tolerance_override(self, tmp_path):
        baseline = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": 0.9})
        )
        assert compare(REPORT, baseline, tolerance=0.2) == []

    def test_bad_tolerance_rejected(self, tmp_path):
        baseline = load_baseline(_baseline(tmp_path, {"runs.dense.totals.elapsed": 1.0}))
        with pytest.raises(ValidationError):
            compare(REPORT, baseline, tolerance=1.5)

    def test_missing_baseline_file(self, tmp_path):
        with pytest.raises(FormatError, match="update-baseline"):
            load_baseline(tmp_path / "nope.json")


class TestUpdateBaseline:
    def test_create_then_refresh(self, tmp_path):
        path = tmp_path / "b.json"
        update_baseline(REPORT, path, metrics=["runs.dense.totals.elapsed"], benchmark="t")
        payload = load_baseline(path)
        assert payload["metrics"] == {"runs.dense.totals.elapsed": 1.0}
        # refresh keeps keys and tolerance
        newer = {"runs": {"dense": {"totals": {"elapsed": 2.0}}}}
        update_baseline(newer, path)
        assert load_baseline(path)["metrics"] == {"runs.dense.totals.elapsed": 2.0}

    def test_new_baseline_needs_metrics(self, tmp_path):
        with pytest.raises(ValidationError):
            update_baseline(REPORT, tmp_path / "b.json")


class TestGateScript:
    """The wrapper the CI workflow runs (benchmarks/check_regression.py)."""

    def _write_report(self, tmp_path, elapsed):
        report = {"runs": {"dense": {"totals": {"elapsed": elapsed}}}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        return path

    def test_gate_passes_on_matching_report(self, tmp_path, capsys):
        report = self._write_report(tmp_path, 1.0)
        baseline = _baseline(tmp_path, {"runs.dense.totals.elapsed": 1.0})
        assert gate_main([str(report), str(baseline)]) == 0
        assert "perf gate ok" in capsys.readouterr().out

    def test_gate_fails_on_perturbed_report(self, tmp_path, capsys):
        # Acceptance criterion: a perturbed metric must fail the gate and
        # print the offending metric.
        report = self._write_report(tmp_path, 1.10)
        baseline = _baseline(tmp_path, {"runs.dense.totals.elapsed": 1.0})
        assert gate_main([str(report), str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out
        assert "runs.dense.totals.elapsed" in out
        assert "+10.00%" in out

    def test_gate_update_baseline_flow(self, tmp_path):
        report = self._write_report(tmp_path, 1.10)
        baseline = tmp_path / "new_baseline.json"
        rc = gate_main(
            [str(report), str(baseline), "--update-baseline",
             "--metric", "runs.dense.totals.elapsed"]
        )
        assert rc == 0
        assert gate_main([str(report), str(baseline)]) == 0

    def test_gate_reports_missing_files(self, tmp_path, capsys):
        rc = gate_main([str(tmp_path / "r.json"), str(tmp_path / "b.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_committed_smoke_baseline_is_wellformed(self):
        payload = load_baseline("benchmarks/baselines/smoke.json")
        assert payload["tolerance"] == 0.05
        assert "runs.dense.totals.elapsed" in payload["metrics"]

    def test_committed_kernels_baseline_is_wellformed(self):
        payload = load_baseline("benchmarks/baselines/kernels.json")
        assert payload["tolerance"] == 0.25
        spec = payload["metrics"]["speedups.gram_workspace_csc"]
        assert spec == {"min": 1.0}

    def test_report_key_without_baseline_is_ignored(self):
        """``mp_gram_p2`` is reported with no floor: the wallclock gate
        checks only the keys its baseline pins."""
        payload = load_baseline("benchmarks/baselines/wallclock.json")
        assert "speedups.mp_gram_p2" not in payload["metrics"]
        report = {
            "speedups": {
                "threads_gram_p4": 2.5,
                "mp_shm_allreduce_p4": 0.4,
                "mp_gram_p2": 0.001,
            }
        }
        assert compare(report, payload) == []


class TestOneSidedSpecs:
    """``{"min": v}`` / ``{"max": v}`` baseline entries (speedup floors)."""

    def test_min_floor_passes_and_fails(self, tmp_path):
        base = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": {"min": 0.9}}, 0.1)
        )
        assert compare(REPORT, base) == []  # 1.0 >= 0.9*(1-0.1)
        base["metrics"]["runs.dense.totals.elapsed"] = {"min": 1.5}
        violations = compare(REPORT, base)
        assert len(violations) == 1
        assert violations[0].kind == "min"
        assert "below floor" in violations[0].describe()

    def test_tolerance_widens_the_floor(self, tmp_path):
        base = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": {"min": 1.1}}, 0.25)
        )
        assert compare(REPORT, base) == []  # 1.0 >= 1.1*0.75

    def test_max_ceiling(self, tmp_path):
        base = load_baseline(
            _baseline(tmp_path, {"runs.sparse.totals.elapsed": {"max": 0.5}}, 0.05)
        )
        violations = compare(REPORT, base)
        assert len(violations) == 1
        assert violations[0].kind == "max"

    def test_improvement_never_flagged(self, tmp_path):
        """Unlike two-sided bands, beating a floor by 100x is fine."""
        base = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.words_total": {"min": 10.0}})
        )
        assert compare(REPORT, base) == []

    def test_band_and_spec_mix(self, tmp_path):
        base = load_baseline(
            _baseline(
                tmp_path,
                {
                    "runs.dense.totals.elapsed": 1.0,
                    "runs.sparse.totals.elapsed": {"min": 0.5},
                },
            )
        )
        assert compare(REPORT, base) == []

    def test_bad_spec_keys_rejected(self, tmp_path):
        base = load_baseline(
            _baseline(tmp_path, {"runs.dense.totals.elapsed": {"floor": 1.0}})
        )
        with pytest.raises(FormatError):
            compare(REPORT, base)

    def test_update_baseline_keeps_specs_verbatim(self, tmp_path):
        path = _baseline(
            tmp_path,
            {
                "runs.dense.totals.elapsed": 999.0,
                "runs.sparse.totals.elapsed": {"min": 0.5},
            },
        )
        payload = update_baseline(REPORT, path)
        # The measurement is refreshed; the contract spec is untouched.
        assert payload["metrics"]["runs.dense.totals.elapsed"] == 1.0
        assert payload["metrics"]["runs.sparse.totals.elapsed"] == {"min": 0.5}
