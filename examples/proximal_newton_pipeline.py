#!/usr/bin/env python
"""Proximal Newton pipeline: RC-SFISTA as the inner solver (paper §3.3 / Fig. 7).

Shows the PN method (Alg. 1) solving a lasso problem with its three inner
solvers — FISTA on the quadratic model, SFISTA on sampled Hessians, and the
communication-avoiding RC-SFISTA — run serially (the one PN body at P=1 on
the serial backend), then compares the distributed communication footprint
of the FISTA vs RC-SFISTA inner loops.

Run:  python examples/proximal_newton_pipeline.py
"""

from repro.core import proximal_newton_distributed, solve_reference
from repro.core.stopping import StoppingCriterion
from repro.data import get_dataset
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def main() -> None:
    dataset = get_dataset("covtype", size="tiny")
    problem = dataset.problem()
    fstar = solve_reference(problem, tol=1e-9).meta["fstar"]
    stop = StoppingCriterion(tol=1e-6, fstar=fstar)

    # --- serial PN (P=1, serial backend) with each inner solver --------- #
    rows = []
    for label, inner, kw in (
        ("fista", "fista", {}),
        ("sfista", "rc_sfista", {"b": 0.2}),  # RC-SFISTA at k = S = 1
        ("rc_sfista", "rc_sfista", {"k": 4, "S": 2, "b": 0.2}),
    ):
        res = proximal_newton_distributed(
            problem, 1, inner=inner, n_outer=10, inner_iters=150, stopping=stop,
            seed=0, runtime=RuntimeConfig(backend="serial"), **kw,
        )
        rows.append(
            [f"PN + {label}", res.n_iterations, f"{res.history.rel_errors[-1]:.2e}",
             res.converged]
        )
    print(format_table(
        ["variant", "outer iters", "final rel err", "converged"],
        rows,
        title="Serial proximal Newton (Alg. 1, P=1 on the serial backend)",
    ))

    # --- distributed PN: the Fig. 7 communication comparison ------------ #
    P = 16
    print(f"\nDistributed PN on P={P} simulated ranks:")
    rows = []
    base = proximal_newton_distributed(
        problem, P, inner="fista", n_outer=4, inner_iters=24, seed=0
    )
    rows.append(
        ["fista inner", f"{base.cost['messages_per_rank_max']:.0f}",
         f"{base.cost['words_per_rank_max']:.4g}", f"{base.sim_time:.4g}", "1.00x"]
    )
    for k in (2, 4, 8):
        rc = proximal_newton_distributed(
            problem, P, inner="rc_sfista", k=k, S=2, b=0.2,
            n_outer=4, inner_iters=24, seed=0,
        )
        rows.append(
            [f"rc_sfista inner (k={k}, S=2)",
             f"{rc.cost['messages_per_rank_max']:.0f}",
             f"{rc.cost['words_per_rank_max']:.4g}",
             f"{rc.sim_time:.4g}",
             f"{base.sim_time / rc.sim_time:.2f}x"]
        )
    print(format_table(
        ["inner solver", "msgs/rank", "words/rank", "sim time", "speedup"],
        rows,
    ))


if __name__ == "__main__":
    main()
