"""Ablation A2 — Hessian-allreduce baseline vs gradient-only SFISTA.

DESIGN.md choice #3: the paper's SFISTA baseline allreduces [H|R] (d²+d
words) every iteration. A gradient-only variant moves just d words. This
ablation quantifies the difference — and shows why the Hessian layout is
what enables iteration-overlap and Hessian-reuse at all.
"""

from benchmarks._common import QUICK, emit, run_once
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.datasets import get_dataset
from repro.perf.report import format_table


def _compute():
    problem = get_dataset("covtype", size="tiny" if QUICK else "scaled").problem()
    rows = []
    for mode in ("hessian", "gradient"):
        res = rc_sfista_distributed(
            problem, 16, b=0.1, iters_per_epoch=32, seed=0, comm_mode=mode,
            monitor_every=32,
        )
        rows.append(
            [mode, res.cost["words_per_rank_max"], res.cost["messages_per_rank_max"],
             res.sim_time, res.history.objectives[-1]]
        )
    return rows


def test_ablation_comm_mode(benchmark):
    rows = run_once(benchmark, _compute)
    table = format_table(
        ["comm mode", "words/rank", "msgs/rank", "sim time", "final F"],
        [[m, f"{w:.4g}", f"{msg:.0f}", f"{t:.4g}s", f"{f:.6g}"] for m, w, msg, t, f in rows],
        title="A2 — SFISTA communication-payload ablation (P=16, N=32)",
    )
    emit("ablation_comm_mode", table)

    hessian, gradient = rows
    assert gradient[1] < hessian[1]  # gradient mode moves far fewer words
    assert abs(hessian[4] - gradient[4]) < 1e-6  # identical iterates
