"""Integration tests: every figure/table entry point runs and the paper's
qualitative claims hold at quick scale."""

import numpy as np
import pytest

from repro.experiments.figures import (
    fig2a_sampling_rate,
    fig2b_overlap_convergence,
    fig3_hessian_reuse,
    fig4_speedup_vs_k,
    fig5_speedup_vs_S,
    fig6_proxcocoa_convergence,
    fig7_pn_inner_solver,
    table1_costs,
    table2_datasets,
    table3_proxcocoa_speedup,
)
from repro.sparse.ops import packed_size


@pytest.fixture(scope="module")
def fig4_out():
    return fig4_speedup_vs_k(quick=True)


@pytest.fixture(scope="module")
def fig6_out():
    return fig6_proxcocoa_convergence(quick=True)


class TestFig2a:
    def test_all_sampling_rates_track_fista(self):
        out = fig2a_sampling_rate(quick=True, bs=(1.0, 0.2, 0.05))
        series = out["series"]
        assert "fista" in series
        for label, (_, errs) in series.items():
            assert np.isfinite(errs[-1])
            # every curve makes progress from its start
            assert errs[-1] < errs[0]


class TestFig2b:
    def test_overlap_invariance_exact(self):
        out = fig2b_overlap_convergence(quick=True, ks=(1, 2, 8, 16))
        assert out["max_deviation"] < 1e-8

    def test_series_identical(self):
        out = fig2b_overlap_convergence(quick=True, ks=(1, 4))
        e1 = out["series"]["k=1"][1]
        e4 = out["series"]["k=4"][1]
        np.testing.assert_allclose(e1, e4, atol=1e-8)


class TestFig3:
    def test_structure(self):
        out = fig3_hessian_reuse(quick=True, Ss=(1, 2, 10))
        for name, series in out["series_by_dataset"].items():
            assert set(series) == {"S=1", "S=2", "S=10"}
            for rounds, errs in series.values():
                assert len(rounds) == len(errs)


class TestFig4:
    def test_speedup_increases_with_k(self, fig4_out):
        rows = fig4_out["rows"]
        by_key = {}
        for r in rows:
            by_key.setdefault((r["dataset"], r["nranks"]), []).append((r["k"], r["speedup"]))
        for cells in by_key.values():
            cells.sort()
            sps = [c[1] for c in cells]
            assert sps[-1] > sps[0]  # largest k beats k=1

    def test_speedup_at_k1_is_one(self, fig4_out):
        for r in fig4_out["rows"]:
            if r["k"] == 1:
                assert r["speedup"] == pytest.approx(1.0, rel=0.05)


class TestFig5:
    def test_rows_and_positivity(self):
        out = fig5_speedup_vs_S(quick=True, Ss=(1, 2))
        assert out["rows"]
        for r in out["rows"]:
            assert r["speedup"] > 0


class TestFig6Table3:
    def test_rc_sfista_beats_proxcocoa(self, fig6_out):
        """The headline claim: RC-SFISTA reaches tol before ProxCoCoA."""
        for name, data in fig6_out["series_by_dataset"].items():
            if data["time_rc"] is not None and data["time_cc"] is not None:
                assert data["time_rc"] < data["time_cc"]

    def test_series_shapes(self, fig6_out):
        for data in fig6_out["series_by_dataset"].values():
            times, errs = data["rc_sfista"]
            assert len(times) == len(errs)
            assert all(t >= 0 for t in times)

    def test_table3_rows(self, fig6_out):
        out = table3_proxcocoa_speedup(quick=True)
        assert {r["dataset"] for r in out["rows"]} <= {"susy", "covtype", "mnist", "epsilon"}


class TestFig7:
    def test_speedup_grows_with_k(self):
        out = fig7_pn_inner_solver(quick=True, ks=(1, 2, 4))
        by_ds = {}
        for r in out["rows"]:
            by_ds.setdefault(r["dataset"], []).append((r["k"], r["speedup"]))
        for cells in by_ds.values():
            cells.sort()
            assert cells[-1][1] > cells[0][1]


class TestTable1:
    def test_model_matches_measured_exactly_on_l_w(self):
        out = table1_costs(quick=True, n_iters=12, k=4, S=2, nranks=8)
        p = out["params"]
        d, log_p = p["d"], p["logP"]
        for row in out["rows"]:
            assert row["L_measured"] == row["L_model"]
            assert row["W_measured"] == pytest.approx(row["W_model"])
            assert row["F_measured"] == pytest.approx(row["F_model"], rel=0.35)
            # Each H block ships its packed upper triangle; the paper
            # counts all d² entries.
            assert row["W_model"] == p["N"] * (packed_size(d) + d) * log_p
            assert row["W_paper"] == p["N"] * d * d * log_p

    def test_rc_latency_is_sfista_over_k(self):
        out = table1_costs(quick=True, n_iters=12, k=4, S=1, nranks=8)
        sf, rc = out["rows"]
        assert sf["L_measured"] == 4 * rc["L_measured"]


class TestTable2:
    def test_regenerates_paper_rows(self):
        out = table2_datasets(size="tiny")
        by_name = {r["dataset"]: r for r in out["rows"]}
        assert by_name["susy"]["paper_rows"] == 5_000_000
        assert by_name["mnist"]["paper_cols"] == 780
        assert by_name["epsilon"]["paper_lambda"] == 1e-4
