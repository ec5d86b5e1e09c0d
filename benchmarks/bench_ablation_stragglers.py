"""Ablation A4 — straggler (OS jitter) sensitivity of the k-speedup.

Each collective is a synchronization point: per-rank compute jitter turns
into waiting at every allreduce. Overlapping k iterations halves the
number of synchronization points, so RC-SFISTA's advantage *grows* with
jitter — an effect the paper's deterministic model does not capture but a
real 512-rank machine exhibits.
"""

from benchmarks._common import emit, run_once
from repro.distsim.machine import get_machine
from repro.experiments.runner import ProblemStats, dry_run_rc_sfista
from repro.perf.report import format_table


def _compute():
    # mnist-like shape with a large mini-batch so per-iteration compute is
    # comparable to the collective cost — the regime where jitter matters.
    stats = ProblemStats(d=780, m=60_000, nnz=int(780 * 60_000 * 0.19))
    rows = []
    for sigma in (0.0, 0.2, 0.5):
        machine = get_machine("comet_effective").with_(
            straggler_sigma=sigma, name=f"comet_sigma_{sigma}"
        )
        base = dry_run_rc_sfista(
            stats, 256, machine, n_iterations=64, mbar=6000, k=1, S=1, jitter_seed=1
        )
        rc = dry_run_rc_sfista(
            stats, 256, machine, n_iterations=64, mbar=6000, k=8, S=1, jitter_seed=1
        )
        rows.append([sigma, base.elapsed, rc.elapsed, base.elapsed / rc.elapsed])
    return rows


def test_ablation_stragglers(benchmark):
    rows = run_once(benchmark, _compute)
    emit(
        "ablation_stragglers",
        format_table(
            ["jitter σ", "SFISTA time", "RC-SFISTA(k=8) time", "speedup"],
            [[s, f"{a:.4g}", f"{b:.4g}", f"{sp:.2f}x"] for s, a, b, sp in rows],
            title="A4 — straggler sensitivity (P=256, N=64)",
        ),
    )

    speedups = [sp for _, _, _, sp in rows]
    assert all(sp > 1.0 for sp in speedups)
    # Batching k iterations per superstep averages out per-rank jitter, so
    # RC-SFISTA's advantage does not shrink as jitter grows.
    assert speedups[-1] >= speedups[0] * 0.95
