#!/usr/bin/env python
"""Parameter tuning with the §4.2 bounds: pick k and S before you run.

The paper derives machine-aware upper bounds for the overlap factor k
(Eqs. 25–26) and the Hessian-reuse depth S (Eqs. 27–28). This example
evaluates them for every registry dataset on two machines and then
validates the recommendation empirically on one dataset.

Run:  python examples/parameter_tuning.py
"""

from repro.core import rc_sfista_distributed, solve_reference
from repro.core.stopping import StoppingCriterion
from repro.data import DATASETS, get_dataset
from repro.experiments.runner import ProblemStats, dry_run_rc_sfista
from repro.perf.bounds import (
    k_bound_latency_bandwidth,
    ks_bound_sparse,
    recommend_k,
    recommend_s,
)
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def main() -> None:
    N, P = 200, 256
    rows = []
    for machine in ("comet_paper", "ethernet_cloud"):
        for name, spec in DATASETS.items():
            d = spec.paper_cols
            rows.append(
                [machine, name, d,
                 f"{k_bound_latency_bandwidth(machine, d):.2f}",
                 f"{ks_bound_sparse(machine, N, d, P):.2f}",
                 recommend_k(machine, d),
                 recommend_s(machine, N, d, P)]
            )
    print(format_table(
        ["machine", "dataset", "d", "Eq.25 k≤", "Eq.27 kS≤", "k rec", "S rec"],
        rows,
        title=f"Parameter bounds at paper scale (N={N}, P={P})",
    ))

    # Empirical validation at container scale: sweep k on the simulator and
    # check that the profitable range matches the bound's prediction.
    dataset = get_dataset("covtype", size="tiny")
    problem = dataset.problem()
    fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
    run = rc_sfista_distributed(
        problem, 1, k=1, b=0.05, epochs=20, iters_per_epoch=50,
        stopping=StoppingCriterion(tol=0.01, fstar=fstar), seed=0,
        runtime=RuntimeConfig(backend="serial"),
    )
    stats = ProblemStats.of(problem)
    print(f"\nEmpirical sweep on {dataset.name} (iterations to 1%: {run.n_iterations}):")
    sweep = []
    for k in (1, 2, 4, 8, 16, 32):
        cluster = dry_run_rc_sfista(
            stats, 64, "comet_effective", n_iterations=max(1, run.n_iterations),
            mbar=run.meta["mbar"], k=k, S=1, iters_per_epoch=50,
        )
        sweep.append([k, f"{cluster.elapsed:.4g}s"])
    print(format_table(["k", "simulated time (P=64)"], sweep))


if __name__ == "__main__":
    main()
