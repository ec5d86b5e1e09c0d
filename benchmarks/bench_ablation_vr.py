"""Ablation A3 — variance reduction on/off (Eq. 9 vs Eq. 8).

The paper's SFISTA is variance-reduced; the plain estimator (Eq. 8) is the
naive alternative. This ablation reproduces why VR is the contribution:
with small b, the plain estimator stalls at a noise floor while SVRG keeps
descending.
"""

from benchmarks._common import QUICK, emit, run_once
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.datasets import get_dataset
from repro.experiments.runner import reference_value
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def _compute():
    problem = get_dataset("covtype", size="tiny" if QUICK else "scaled").problem()
    fstar = reference_value(problem)
    rows = []
    for estimator in ("svrg", "plain"):
        for b in (0.2, 0.05):
            res = rc_sfista_distributed(
                problem, 1, b=b, estimator=estimator, epochs=10, iters_per_epoch=60,
                seed=0, runtime=RuntimeConfig(backend="serial"),
            )
            best = min(res.history.objectives)
            rows.append([estimator, b, abs(best - fstar) / abs(fstar)])
    return rows


def test_ablation_vr(benchmark):
    rows = run_once(benchmark, _compute)
    emit(
        "ablation_vr",
        format_table(
            ["estimator", "b", "best rel err (600 iters)"],
            [[e, b, f"{err:.3e}"] for e, b, err in rows],
            title="A3 — variance reduction ablation",
        ),
    )

    by = {(e, b): err for e, b, err in rows}
    for b in (0.2, 0.05):
        assert by[("svrg", b)] < by[("plain", b)]
