"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.runner import (
    ProblemStats,
    dry_run_rc_sfista,
    dry_run_pn_inner,
    iterations_to_tolerance,
    speedup_cell,
    reference_value,
)
from repro.experiments.figures import (
    fig2a_sampling_rate,
    fig2b_overlap_convergence,
    fig3_hessian_reuse,
    fig4_speedup_vs_k,
    fig5_speedup_vs_S,
    fig6_proxcocoa_convergence,
    fig7_pn_inner_solver,
    table1_costs,
    table2_datasets,
    table3_proxcocoa_speedup,
)
from repro.experiments.ascii_plot import ascii_chart

__all__ = [
    "ProblemStats",
    "dry_run_rc_sfista",
    "dry_run_pn_inner",
    "iterations_to_tolerance",
    "speedup_cell",
    "reference_value",
    "fig2a_sampling_rate",
    "fig2b_overlap_convergence",
    "fig3_hessian_reuse",
    "fig4_speedup_vs_k",
    "fig5_speedup_vs_S",
    "fig6_proxcocoa_convergence",
    "fig7_pn_inner_solver",
    "table1_costs",
    "table2_datasets",
    "table3_proxcocoa_speedup",
    "ascii_chart",
]
