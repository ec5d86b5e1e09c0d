"""Ablation A9 — uniform vs importance sampling (extension beyond the paper).

The paper samples uniformly. On data with heterogeneous sample norms the
uniform sampled Hessian has high variance and SFISTA stalls; drawing
samples ∝ ‖x_i‖² (with a uniform safety mixture) and reweighting keeps the
estimator unbiased while slashing its variance. The paper's benchmark
datasets are norm-normalized, so there the two schemes coincide — this
ablation shows the regime where the extension matters.
"""

import numpy as np

from benchmarks._common import emit, run_once
from repro.core.objectives import L1LeastSquares
from repro.core.reference import solve_reference
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def _make_problem(heavy_fraction: float) -> L1LeastSquares:
    gen = np.random.default_rng(0)
    d, m = 12, 800
    X = gen.standard_normal((d, m))
    n_heavy = max(1, int(heavy_fraction * m))
    scales = np.ones(m)
    scales[:n_heavy] = 10.0
    X = X * scales[None, :]
    w_true = np.zeros(d)
    w_true[:4] = [1.0, -2.0, 1.5, -1.0]
    y = X.T @ w_true + 0.1 * gen.standard_normal(m)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / m
    return L1LeastSquares(X, y, lam)


def _compute():
    rows = []
    for heavy in (0.0, 0.05, 0.2):
        problem = _make_problem(heavy)
        fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
        for mode in ("uniform", "importance"):
            res = rc_sfista_distributed(
                problem, 1, b=0.05, epochs=8, iters_per_epoch=60, seed=0, sampling=mode,
                runtime=RuntimeConfig(backend="serial"),
            )
            err = abs(min(res.history.objectives) - fstar) / abs(fstar)
            rows.append([heavy, mode, err])
    return rows


def test_ablation_importance(benchmark):
    rows = run_once(benchmark, _compute)
    emit(
        "ablation_importance",
        format_table(
            ["heavy-sample fraction", "sampling", "best rel err"],
            [[h, m, f"{e:.3e}"] for h, m, e in rows],
            title="A9 — sampling-scheme ablation (SFISTA, b=5%, 480 iters)",
        ),
    )

    by = {(h, m): e for h, m, e in rows}
    # On heterogeneous data importance sampling wins decisively...
    assert by[(0.05, "importance")] < by[(0.05, "uniform")] / 10
    # ...and on homogeneous data it does no harm (same order of magnitude).
    assert by[(0.0, "importance")] < max(10 * by[(0.0, "uniform")], 1e-6)
