"""Table 1 — latency/flops/bandwidth of SFISTA vs RC-SFISTA.

Verifies the closed-form model against counters measured on the simulator:
message and word counts must match exactly; flops in expectation. The
"W paper" column is the paper's d² count per H block, next to the
d(d+1)/2 distinct entries the solvers ship (rectangular full packed
format, see docs/COLLECTIVES.md).
"""

import pytest

from benchmarks._common import QUICK, emit, run_once
from repro.experiments.figures import table1_costs
from repro.perf.report import format_table


def test_table1(benchmark):
    kwargs = dict(quick=True, n_iters=24) if QUICK else dict(
        dataset="covtype", nranks=64, n_iters=64
    )
    out = run_once(benchmark, table1_costs, k=4, S=2, **kwargs)
    rows = [
        [r["algorithm"],
         f"{r['L_measured']:.0f}", f"{r['L_model']:.0f}",
         f"{r['W_measured']:.4g}", f"{r['W_model']:.4g}", f"{r['W_paper']:.4g}",
         f"{r['F_measured']:.4g}", f"{r['F_model']:.4g}"]
        for r in out["rows"]
    ]
    p = out["params"]
    emit(
        "table1_costs",
        format_table(
            ["algorithm", "L meas", "L model", "W meas", "W model", "W paper (d²)",
             "F meas", "F model"],
            rows,
            title=(
                f"Table 1 — per-rank costs over N={p['N']} iterations "
                f"(P={p['P']}, d={p['d']}, m̄={p['mbar']}, k={p['k']}, S={p['S']})"
            ),
        ),
    )

    for r in out["rows"]:
        assert r["L_measured"] == r["L_model"]
        assert r["W_measured"] == pytest.approx(r["W_model"])
        assert r["F_measured"] == pytest.approx(r["F_model"], rel=0.35)
    sf, rc = out["rows"]
    assert sf["L_measured"] / rc["L_measured"] == p["k"]
    assert sf["W_measured"] == pytest.approx(rc["W_measured"])
