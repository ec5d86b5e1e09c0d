"""Analytic performance model: Table 1 costs, Eq. 24 runtime, Eqs. 25-28 bounds."""

from repro.perf.model import (
    AlgorithmCosts,
    rc_sfista_costs,
    rc_sfista_runtime,
    predicted_speedup,
)
from repro.perf.bounds import (
    k_bound_latency_bandwidth,
    k_bound_flops,
    ks_bound_sparse,
    s_bound,
    recommend_k,
    recommend_s,
)
from repro.perf.report import format_table

__all__ = [
    "AlgorithmCosts",
    "rc_sfista_costs",
    "rc_sfista_runtime",
    "predicted_speedup",
    "k_bound_latency_bandwidth",
    "k_bound_flops",
    "ks_bound_sparse",
    "s_bound",
    "recommend_k",
    "recommend_s",
    "format_table",
]
