"""ExecutionBackend: one collective surface over serial/BSP substrates.

The solver bodies (RC-SFISTA stages A–D, the SFISTA epoch loop, the PN
outer loop) are written once against this protocol; which substrate
executes them — and what it costs — is the backend's business:

* :class:`SerialBackend` — the degenerate P=1 case: collectives return
  the single contribution, nothing is charged, ``cost_summary()`` is
  ``None``. Iterates are bit-identical to a 1-rank BSP run.
* :class:`BSPBackend` — wraps :class:`~repro.distsim.bsp.BSPCluster`:
  lock-step collectives under the α-β-γ machine model with fault
  injection, sparse encodings and checkpoint/recovery charging.

Cost accounting invariant: for a fixed backend and config, running a body
through this layer charges exactly what the hand-wired solver charged —
the golden traces in ``tests/golden/`` pin this.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.distsim import sparse_collectives as sc
from repro.distsim.bsp import BSPCluster
from repro.distsim.compress import CompressorBank, parse_compression_spec
from repro.distsim.faults import FaultInjector, as_injector
from repro.distsim.trace import Trace
from repro.exceptions import ValidationError
from repro.runtime.config import RuntimeConfig

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "BSPBackend",
    "build_host_backend",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What a solver body may ask of its execution substrate.

    The one collective, ``allreduce``, takes one contribution per rank
    (host view) and returns the replicated result; ``compute`` charges
    per-rank flops; ``checkpoint``/``recover`` charge resilience traffic;
    the accessors expose the simulated clock, accumulated cost and trace
    for monitoring, telemetry and ``SolveResult`` assembly.
    """

    nranks: int
    # Whether map_ranks may run its closures concurrently. Solver bodies
    # consult this to give each rank private scratch (e.g. one
    # GramWorkspace per rank) instead of sharing mutable buffers.
    parallel_ranks: bool

    # -- the collective ------------------------------------------------ #
    def allreduce(self, contribs: Sequence[np.ndarray], label: str = "allreduce") -> np.ndarray: ...

    # -- compute + resilience charging --------------------------------- #
    def compute(self, flops: float | Sequence[float] | np.ndarray, label: str = "compute") -> None: ...

    def checkpoint(self, words: float) -> None: ...

    def recover(self, words: float) -> None: ...

    # -- per-rank execution -------------------------------------------- #
    def map_ranks(self, fn: Callable[[int], Any], count: int) -> list: ...

    def close(self) -> None: ...

    # -- cost + clock accessors ---------------------------------------- #
    @property
    def elapsed(self) -> float: ...

    @property
    def last_comm_decision(self) -> str | None: ...

    @property
    def trace(self) -> Trace | None: ...

    @property
    def injector(self) -> FaultInjector | None: ...

    @property
    def machine_name(self) -> str: ...

    @property
    def allreduce_algorithm(self) -> str: ...

    def cost_summary(self) -> dict | None: ...


class SerialBackend:
    """P=1, zero-cost: the serial degenerate case of the protocol.

    ``allreduce`` returns the lone contribution unchanged (bit-identical to
    a 1-rank BSP reduction in every ``comm`` mode), nothing is charged and
    no trace exists. ``last_comm_decision`` still resolves the configured
    encoding against the contribution's density so telemetry records stay
    meaningful.
    """

    nranks = 1
    parallel_ranks = False

    def __init__(
        self,
        comm: str = "dense",
        allreduce_algorithm: str = "recursive_doubling",
        comm_compress: str = "none",
        compress_seed: int = 0,
    ) -> None:
        if comm not in sc.COMM_MODES:
            raise ValidationError(f"comm must be one of {sc.COMM_MODES}, got {comm!r}")
        self.comm = comm
        self._allreduce_algorithm = allreduce_algorithm
        self._last_decision: str | None = None
        # One rank still compresses its own contribution (stream 0): the
        # serial backend stays bit-identical to a 1-rank BSP run in every
        # comm_compress mode, not just the lossless ones.
        self.compress = parse_compression_spec(comm_compress)
        self._compressor = (
            CompressorBank(self.compress, seed=compress_seed)
            if self.compress.enabled
            else None
        )

    def _single(self, contribs: Sequence[np.ndarray], what: str) -> np.ndarray:
        if len(contribs) != 1:
            raise ValidationError(
                f"{what} on the serial backend needs exactly 1 contribution, "
                f"got {len(contribs)}"
            )
        return np.array(contribs[0], dtype=np.float64, copy=True)

    def allreduce(self, contribs: Sequence[np.ndarray], label: str = "allreduce") -> np.ndarray:
        out = self._single(contribs, "allreduce")
        if self._compressor is not None:
            self._last_decision = self.compress.kind
            return self._compressor.compress(out, label=label, stream=0)
        if self.comm == "dense":
            self._last_decision = "dense"
        else:
            density = float(np.count_nonzero(out)) / out.size if out.size else 0.0
            self._last_decision = sc.resolve_comm_mode(self.comm, union_density=density)
        return out

    def comm_state_snapshot(self) -> object:
        return self._compressor.snapshot() if self._compressor is not None else None

    def comm_state_restore(self, snap: object) -> None:
        if self._compressor is not None:
            self._compressor.restore(snap)

    def compute(self, flops: float | Sequence[float] | np.ndarray, label: str = "compute") -> None:
        pass

    def checkpoint(self, words: float) -> None:
        pass

    def recover(self, words: float) -> None:
        pass

    def map_ranks(self, fn: Callable[[int], Any], count: int) -> list:
        return [fn(p) for p in range(count)]

    def close(self) -> None:
        pass

    @property
    def elapsed(self) -> float:
        return 0.0

    @property
    def last_comm_decision(self) -> str | None:
        return self._last_decision

    @property
    def trace(self) -> Trace | None:
        return None

    @property
    def injector(self) -> FaultInjector | None:
        return None

    @property
    def machine_name(self) -> str:
        return "serial"

    @property
    def allreduce_algorithm(self) -> str:
        return self._allreduce_algorithm

    def cost_summary(self) -> dict | None:
        return None


class BSPBackend:
    """Lock-step execution on a :class:`~repro.distsim.bsp.BSPCluster`.

    Thin by design: every call forwards to the cluster method that charges
    it, preserving labels, clock effects and trace events exactly as the
    pre-runtime solvers produced them.
    """

    parallel_ranks = False

    def __init__(self, cluster: BSPCluster, comm: str = "dense") -> None:
        if comm not in sc.COMM_MODES:
            raise ValidationError(f"comm must be one of {sc.COMM_MODES}, got {comm!r}")
        self.cluster = cluster
        self.comm = comm
        self.nranks = cluster.nranks

    @classmethod
    def from_config(cls, config: RuntimeConfig, nranks: int) -> "BSPBackend":
        """Build or adopt the cluster a config describes.

        The faults/retry/metrics-versus-prebuilt-cluster exclusivity is
        already enforced by :class:`~repro.runtime.config.RuntimeConfig`;
        here only the rank count has to line up.
        """
        if config.cluster is not None:
            if config.cluster.nranks != nranks:
                raise ValidationError(
                    f"cluster has {config.cluster.nranks} ranks, expected {nranks}"
                )
            return cls(config.cluster, comm=config.comm)
        cluster = BSPCluster(
            nranks,
            config.machine,
            allreduce_algorithm=config.allreduce_algorithm,
            jitter_seed=config.jitter_seed,
            injector=as_injector(config.faults),
            retry=config.retry,
            collective_deadline=config.recv_timeout,
            metrics=config.metrics,
            comm_topology=config.comm_topology,
            comm_compress=config.comm_compress,
        )
        return cls(cluster, comm=config.comm)

    def allreduce(self, contribs: Sequence[np.ndarray], label: str = "allreduce") -> np.ndarray:
        return self.cluster.allreduce_comm(contribs, mode=self.comm, label=label)

    def compute(self, flops: float | Sequence[float] | np.ndarray, label: str = "compute") -> None:
        self.cluster.compute(flops, label=label)

    def checkpoint(self, words: float) -> None:
        self.cluster.checkpoint(words)

    def recover(self, words: float) -> None:
        self.cluster.recover(words)

    def comm_state_snapshot(self) -> object:
        return self.cluster.comm_state_snapshot()

    def comm_state_restore(self, snap: object) -> None:
        self.cluster.comm_state_restore(snap)

    def map_ranks(self, fn: Callable[[int], Any], count: int) -> list:
        return [fn(p) for p in range(count)]

    def close(self) -> None:
        pass

    @property
    def elapsed(self) -> float:
        return self.cluster.elapsed

    @property
    def last_comm_decision(self) -> str | None:
        return self.cluster.last_comm_decision

    @property
    def trace(self) -> Trace | None:
        return self.cluster.trace

    @property
    def injector(self) -> FaultInjector | None:
        return self.cluster.injector

    @property
    def machine_name(self) -> str:
        return self.cluster.machine.name

    @property
    def allreduce_algorithm(self) -> str:
        return self.cluster.allreduce_algorithm

    def cost_summary(self) -> dict | None:
        return self.cluster.cost.summary()


def build_host_backend(config: RuntimeConfig, nranks: int) -> ExecutionBackend:
    """The host-view backend a config selects for lock-step solver bodies."""
    if config.backend == "serial":
        if nranks != 1:
            raise ValidationError(
                f"the serial backend runs exactly 1 rank, got nranks={nranks}; "
                "use backend='bsp' for multi-rank simulation"
            )
        if config.cluster is not None:
            raise ValidationError("the serial backend does not take a prebuilt cluster")
        return SerialBackend(
            comm=config.comm,
            allreduce_algorithm=config.allreduce_algorithm,
            comm_compress=config.comm_compress,
        )
    if config.backend in ("mp", "threads"):
        # Imported here: mpbackend subclasses BSPBackend from this module.
        from repro.runtime.mpbackend import MultiprocessingBackend, ThreadPoolBackend

        if config.backend == "mp":
            return MultiprocessingBackend.from_config(config, nranks)
        return ThreadPoolBackend.from_config(config, nranks)
    return BSPBackend.from_config(config, nranks)
