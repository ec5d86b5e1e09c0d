"""Ablation A5 — the Theorem 1 step-size conditions matter.

Runs SFISTA with the deterministic FISTA step γ = 1/L (ignoring Eqs. 10–11)
against the rule-compliant step. With small mini-batches the naive step
lets momentum amplify sampling noise — iterates blow up or stall — while
the compliant step converges. This is the empirical content of the paper's
Theorem 1 conditions.
"""

import numpy as np

from benchmarks._common import QUICK, emit, run_once
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.datasets import get_dataset
from repro.experiments.runner import reference_value
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def _compute():
    problem = get_dataset("mnist", size="tiny" if QUICK else "scaled").problem()
    fstar = reference_value(problem)
    naive_step = problem.default_step()  # 1/L — valid for FISTA, not SFISTA
    # A mini-batch of ~8 samples: the regime Theorem 1's conditions govern.
    b = max(8.0 / problem.m, 1e-6)
    rows = []
    for label, step in (("naive 1/L", naive_step), ("theorem-1 rule", None)):
        # The naive step is *expected* to blow up; the divergence guard stops
        # the run and overflow warnings are part of the demonstrated failure.
        with np.errstate(over="ignore", invalid="ignore"):
            res = rc_sfista_distributed(
                problem, 1, b=b, epochs=8, iters_per_epoch=100, seed=0, step_size=step,
                runtime=RuntimeConfig(backend="serial"),
            )
        objs = np.asarray(res.history.objectives)
        finite = objs[np.isfinite(objs)]
        best = float(finite.min()) if finite.size else float("inf")
        rel = abs(best - fstar) / abs(fstar)
        rows.append([label, res.meta["step_size"], rel, bool(res.meta["diverged"])])
    return rows


def test_ablation_stepsize(benchmark):
    rows = run_once(benchmark, _compute)
    emit(
        "ablation_stepsize",
        format_table(
            ["step rule", "gamma", "best rel err", "diverged"],
            [[l, f"{g:.4g}", f"{e:.3e}", d] for l, g, e, d in rows],
            title="A5 — step-size rule ablation (SFISTA, m̄≈8)",
        ),
    )

    naive, ruled = rows
    assert ruled[2] < naive[2]  # the compliant step reaches lower error
    assert not ruled[3]  # and never diverges
