"""Simulated distributed-memory machine with an α-β-γ performance model.

This package is the substitute for the paper's MPI substrate (see
DESIGN.md §1). It provides:

* :mod:`repro.distsim.machine` — machine specifications (α latency, β
  inverse bandwidth, γ inverse flop rate) with presets including the XSEDE
  Comet constants quoted in the paper (§5.3).
* :mod:`repro.distsim.cost` — per-rank counters for flops, words and
  messages plus simulated clocks.
* :mod:`repro.distsim.collectives` — numerically-correct collective
  operations with per-algorithm cost formulas (binomial tree, recursive
  doubling, ring / Rabenseifner).
* :mod:`repro.distsim.sparse_collectives` — index+value (COO-vector)
  buffers and a sparse allreduce that is bit-identical to the dense one
  while charging O(nnz_union) words (SparCML-style stream-and-switch).
* :mod:`repro.distsim.bsp` — the lock-step bulk-synchronous cluster the
  solvers run on (local compute phases + collectives). It is the one
  simulated machine: the paper's algorithms communicate only through one
  allreduce per round, so no point-to-point layer is modelled.
* :mod:`repro.distsim.trace` — event timeline recording and reporting.
* :mod:`repro.distsim.faults` — deterministic, seeded fault injection
  (torn collectives, payload corruption, rank stalls and crashes) plus
  the retry policy; every retry, backoff and checkpoint is charged to the
  same α-β-γ counters as the algorithm itself.

Every communication primitive *actually moves the data* between per-rank
numpy buffers — results are numerically identical to a real MPI run — while
the clocks advance according to the cost model, so simulated wall-clock
time, message counts and word counts can be reported exactly as the paper
does in Table 1 and Figures 4–7.
"""

from repro.distsim.machine import MachineSpec, MACHINES, get_machine
from repro.distsim.cost import CostCounter, ClusterCost, PhaseKind
from repro.distsim.collectives import (
    CollectiveCost,
    allreduce_cost,
    bcast_cost,
    reduce_cost,
    gather_cost,
    sparse_allreduce_cost,
    sparse_payload_words,
    SPARSE_SWITCH_DENSITY,
)
from repro.distsim.sparse_collectives import (
    COMM_MODES,
    SparseVector,
    sparse_allreduce_values,
    support_union_size,
)
from repro.distsim.bsp import BSPCluster
from repro.distsim.trace import Trace, TraceEvent
from repro.distsim.faults import (
    CORRUPTION_MODES,
    FaultInjector,
    FaultPlan,
    PayloadCorruption,
    RankCrash,
    RankStall,
    RetryPolicy,
    as_injector,
    corrupt_array,
)

__all__ = [
    "MachineSpec",
    "MACHINES",
    "get_machine",
    "CostCounter",
    "ClusterCost",
    "PhaseKind",
    "CollectiveCost",
    "allreduce_cost",
    "bcast_cost",
    "reduce_cost",
    "gather_cost",
    "sparse_allreduce_cost",
    "sparse_payload_words",
    "SPARSE_SWITCH_DENSITY",
    "COMM_MODES",
    "SparseVector",
    "sparse_allreduce_values",
    "support_union_size",
    "BSPCluster",
    "Trace",
    "TraceEvent",
    "CORRUPTION_MODES",
    "FaultInjector",
    "FaultPlan",
    "PayloadCorruption",
    "RankCrash",
    "RankStall",
    "RetryPolicy",
    "as_injector",
    "corrupt_array",
]
