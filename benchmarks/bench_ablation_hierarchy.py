"""Ablation A8 — flat vs two-level (4 ranks/node) machine model.

The paper's 256-processor runs used 64 nodes × 4 ranks (§5.1). The
`comet_4ppn` preset routes intra-node rounds through shared memory;
collectives get cheaper, which *shrinks* the latency share — so the
k-speedup under the hierarchical model is a bit smaller than under the
flat model. Reproduces the shape-robustness of Fig. 4: k still pays, the
curve just saturates earlier.
"""

from benchmarks._common import emit, run_once
from repro.experiments.runner import ProblemStats, dry_run_rc_sfista
from repro.perf.report import format_table


def _compute():
    stats = ProblemStats(d=54, m=10_000, nnz=int(54 * 10_000 * 0.22))
    rows = []
    for machine in ("comet_effective", "comet_4ppn"):
        base = dry_run_rc_sfista(stats, 256, machine, n_iterations=64, mbar=100, k=1, S=1)
        for k in (1, 4, 16):
            rc = dry_run_rc_sfista(
                stats, 256, machine, n_iterations=64, mbar=100, k=k, S=1
            )
            rows.append([machine, k, base.elapsed, rc.elapsed, base.elapsed / rc.elapsed])
    return rows


def test_ablation_hierarchy(benchmark):
    rows = run_once(benchmark, _compute)
    emit(
        "ablation_hierarchy",
        format_table(
            ["machine", "k", "SFISTA time", "RC time", "speedup"],
            [[m, k, f"{a:.4g}", f"{b:.4g}", f"{s:.2f}x"] for m, k, a, b, s in rows],
            title="A8 — flat vs 4-ranks-per-node machine (covtype-like, P=256, N=64)",
        ),
    )

    by = {(m, k): s for m, k, _, _, s in rows}
    # k pays on both machine models...
    for m in ("comet_effective", "comet_4ppn"):
        assert by[(m, 16)] > by[(m, 4)] > by[(m, 1)]
    # ...and absolute times are lower on the hierarchical machine.
    flat_base = next(a for m, k, a, _, _ in rows if m == "comet_effective" and k == 1)
    hier_base = next(a for m, k, a, _, _ in rows if m == "comet_4ppn" and k == 1)
    assert hier_base < flat_base
