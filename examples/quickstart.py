#!/usr/bin/env python
"""Quickstart: solve an l1-regularized least squares problem with RC-SFISTA.

Walks through the library's core loop:

1. generate (or load) a dataset in the paper's features × samples layout,
2. compute a high-accuracy reference optimum (the TFOCS stand-in),
3. run FISTA, SFISTA and RC-SFISTA and compare their convergence,
4. check the recovered support against the ground truth.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import fista, rc_sfista_distributed, solve_reference
from repro.core.stopping import StoppingCriterion
from repro.data import get_dataset
from repro.experiments.ascii_plot import ascii_chart
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def main() -> None:
    # 1. A covtype-shaped problem (54 features, sparse, unit-norm samples).
    dataset = get_dataset("covtype")
    problem = dataset.problem()
    print(
        f"dataset={dataset.name}: d={problem.d} features, m={problem.m} samples, "
        f"fill={dataset.density:.2%}, lambda={problem.lam:.4g}"
    )

    # 2. Reference optimum, certified by the lasso subgradient conditions.
    ref = solve_reference(problem, tol=1e-9)
    fstar = ref.meta["fstar"]
    print(f"reference: F* = {fstar:.8f} "
          f"(optimality residual {ref.meta['optimality_residual']:.1e})")

    # 3. Solve with the three solvers to 1% relative objective error. The
    #    stochastic solvers run on one rank of the serial backend; pass
    #    nranks > 1 (and drop the runtime) to simulate a cluster instead.
    stop = StoppingCriterion(tol=0.01, fstar=fstar)
    serial = RuntimeConfig(backend="serial")
    runs = {
        "fista": fista(problem, max_iter=2000, stopping=stop),
        "sfista (b=1%)": rc_sfista_distributed(
            problem, 1, b=0.01, epochs=40, iters_per_epoch=100, stopping=stop, seed=0,
            runtime=serial,
        ),
        "rc-sfista (k=4, S=2, b=1%)": rc_sfista_distributed(
            problem, 1, k=4, S=2, b=0.01, epochs=40, iters_per_epoch=100,
            stopping=stop, seed=0, runtime=serial,
        ),
    }

    rows = []
    for name, res in runs.items():
        rows.append(
            [name, res.n_iterations, res.n_comm_rounds or res.n_iterations,
             f"{res.history.rel_errors[-1]:.3e}", res.converged]
        )
    print()
    print(format_table(
        ["solver", "iterations", "comm rounds", "final rel err", "converged"], rows
    ))

    print()
    print(ascii_chart(
        {
            name: (list(res.history.iterations), list(res.history.rel_errors))
            for name, res in runs.items()
        },
        log_y=True,
        title="relative objective error vs iteration",
        x_label="iteration",
        y_label="rel err",
    ))

    # 4. Support recovery sanity check.
    w = runs["rc-sfista (k=4, S=2, b=1%)"].w
    true_support = set(np.flatnonzero(dataset.w_true))
    found_support = set(np.flatnonzero(np.abs(w) > 1e-6))
    print(f"\nground-truth support size: {len(true_support)}, "
          f"recovered: {len(found_support)}, "
          f"overlap: {len(true_support & found_support)}")


if __name__ == "__main__":
    main()
