"""Machine models for the α-β-γ performance model (paper §2.3, Eq. 7).

A machine is characterized by three constants:

* ``alpha`` — seconds per message (latency),
* ``beta``  — seconds per word moved (inverse bandwidth),
* ``gamma`` — seconds per floating point operation.

The paper quotes the XSEDE Comet values α = 1e-6 s, β = 1.42e-10 s/word and
γ = 4e-10 s/flop (§5.3). Real MPI collectives additionally pay software and
synchronization overhead per round that is orders of magnitude above the
wire latency on hundreds of ranks, which is why the paper observes speedup
from k beyond the wire-latency bound of Eq. (25); the ``comet_effective``
preset captures that regime (see DESIGN.md "Known paper ambiguities" #5).

An optional straggler model multiplies each rank's compute-phase time by an
independent lognormal factor — a standard model for OS jitter at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["MachineSpec", "HierarchicalMachine", "MACHINES", "get_machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Immutable machine description.

    Attributes
    ----------
    name:
        Identifier used in reports.
    alpha:
        Latency: seconds per message.
    beta:
        Inverse bandwidth: seconds per (8-byte) word.
    gamma:
        Inverse flop rate: seconds per floating point operation.
    straggler_sigma:
        Standard deviation of the lognormal compute-jitter factor; 0
        disables jitter (deterministic clock).
    description:
        Human-readable provenance.
    """

    name: str
    alpha: float
    beta: float
    gamma: float
    straggler_sigma: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        for field_name in ("alpha", "beta", "gamma"):
            v = getattr(self, field_name)
            if not (np.isfinite(v) and v >= 0):
                raise ValidationError(f"{field_name} must be finite and >= 0, got {v}")
        if not (np.isfinite(self.straggler_sigma) and self.straggler_sigma >= 0):
            raise ValidationError(f"straggler_sigma must be >= 0, got {self.straggler_sigma}")

    # ------------------------------------------------------------------ #
    def compute_time(self, flops: float) -> float:
        """Time to execute *flops* floating point operations on one rank."""
        return self.gamma * float(flops)

    def with_(self, **kwargs: object) -> "MachineSpec":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def jitter_factors(self, nranks: int, rng: np.random.Generator | None) -> np.ndarray:
        """Per-rank lognormal compute multipliers (all ones when disabled)."""
        if self.straggler_sigma == 0.0 or rng is None:
            return np.ones(nranks)
        # mean-one lognormal: exp(N(-σ²/2, σ²))
        sigma = self.straggler_sigma
        return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=nranks)


@dataclass(frozen=True)
class HierarchicalMachine(MachineSpec):
    """Two-level machine: cheap intra-node links, expensive inter-node links.

    The paper's larger runs pack several MPI ranks per Comet node ("for 256
    processors, we use 64 nodes and 4 processors per node", §5.1). Ranks
    sharing a node communicate through shared memory at ``alpha_intra`` /
    ``beta_intra``; ranks on different nodes pay the network ``alpha`` /
    ``beta``. Collective cost formulas dispatch on this type and charge a
    two-level schedule (intra-node reduce → inter-node allreduce →
    intra-node broadcast).
    """

    node_size: int = 1
    alpha_intra: float = 2e-7
    beta_intra: float = 1e-11

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_size < 1:
            raise ValidationError(f"node_size must be >= 1, got {self.node_size}")
        for field_name in ("alpha_intra", "beta_intra"):
            v = getattr(self, field_name)
            if not (np.isfinite(v) and v >= 0):
                raise ValidationError(f"{field_name} must be finite and >= 0, got {v}")

    def intra_message_time(self, words: float) -> float:
        """Transfer time between ranks on the same node."""
        return self.alpha_intra + self.beta_intra * float(words)


MACHINES: dict[str, MachineSpec] = {
    # Constants quoted in §5.3 of the paper for XSEDE Comet.
    "comet_paper": MachineSpec(
        name="comet_paper",
        alpha=1e-6,
        beta=1.42e-10,
        gamma=4e-10,
        description="XSEDE Comet wire constants as quoted in the paper (§5.3).",
    ),
    # Same machine with realistic per-round MPI software/sync overhead at
    # hundreds of ranks folded into alpha; used for figure-shape runs.
    "comet_effective": MachineSpec(
        name="comet_effective",
        alpha=5e-5,
        beta=1.42e-10,
        gamma=4e-10,
        description="Comet with realistic per-round collective software overhead.",
    ),
    "comet_effective_noisy": MachineSpec(
        name="comet_effective_noisy",
        alpha=5e-5,
        beta=1.42e-10,
        gamma=4e-10,
        straggler_sigma=0.15,
        description="comet_effective plus lognormal straggler jitter (σ=0.15).",
    ),
    # Commodity 10GbE cloud cluster: high latency, modest bandwidth.
    "ethernet_cloud": MachineSpec(
        name="ethernet_cloud",
        alpha=5e-4,
        beta=8e-10,
        gamma=4e-10,
        description="Commodity 10GbE cloud: ~0.5 ms effective collective latency.",
    ),
    # Spark-style driver/executor round overhead (task scheduling ~10 ms).
    "spark_cluster": MachineSpec(
        name="spark_cluster",
        alpha=1e-2,
        beta=8e-10,
        gamma=4e-10,
        description="Spark executor model: ~10 ms per-round scheduling overhead.",
    ),
    # Single shared-memory node: negligible latency, high bandwidth.
    "smp_node": MachineSpec(
        name="smp_node",
        alpha=2e-7,
        beta=1e-11,
        gamma=4e-10,
        description="Shared-memory node; communication nearly free.",
    ),
    # Paper §5.1 placement for the 256-processor runs: 4 ranks per node.
    "comet_4ppn": HierarchicalMachine(
        name="comet_4ppn",
        alpha=5e-5,
        beta=1.42e-10,
        gamma=4e-10,
        node_size=4,
        alpha_intra=2e-7,
        beta_intra=1e-11,
        description="comet_effective with 4 ranks/node over shared memory.",
    ),
    # Fat-tree cluster with 2:1 oversubscription above the leaf switches:
    # 8 ranks/node over shared memory, inter-node links at half the
    # per-rank injection bandwidth (β doubled vs. Comet) and switch-hop
    # latency folded into α. The preset collectives v2's hierarchical
    # schedule targets — inter-node words are ~8x costlier than
    # node-local ones, so compressing the leader partials pays.
    "fat_tree": HierarchicalMachine(
        name="fat_tree",
        alpha=8e-6,
        beta=2.84e-10,
        gamma=4e-10,
        node_size=8,
        alpha_intra=2e-7,
        beta_intra=1e-11,
        description="Fat-tree (2:1 oversubscribed) with 8 ranks/node.",
    ),
}


def get_machine(name_or_spec: str | MachineSpec) -> MachineSpec:
    """Resolve a machine preset by name, or pass a spec through."""
    if isinstance(name_or_spec, MachineSpec):
        return name_or_spec
    try:
        return MACHINES[name_or_spec]
    except KeyError:
        raise ValidationError(
            f"unknown machine {name_or_spec!r}; available: {sorted(MACHINES)}"
        ) from None
