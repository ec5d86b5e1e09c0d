"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything this package raises with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` from misuse of the
Python API itself, ``KeyboardInterrupt``, ...) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "ShapeError",
    "ConvergenceError",
    "CommunicatorError",
    "PartitionError",
    "DatasetError",
    "FormatError",
    "FaultError",
    "RankFailureError",
    "WorkerFailureError",
    "CommTimeoutError",
    "NumericalFaultError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong value, range, or dtype)."""


class ShapeError(ValidationError):
    """An array argument has an incompatible shape."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the requested tolerance.

    When the raising solver can produce one, ``partial`` carries the best
    :class:`~repro.core.results.SolveResult` reached before giving up
    (iterate, history, counters) so callers can degrade gracefully instead
    of losing the whole run. ``None`` when no partial state was available.
    """

    def __init__(self, message: str, *, partial: object | None = None) -> None:
        super().__init__(message)
        self.partial = partial


class CommunicatorError(ReproError, RuntimeError):
    """Misuse of the simulated communicator (bad rank, mismatched buffers...)."""


class PartitionError(ReproError, ValueError):
    """A data partitioning request is infeasible or inconsistent."""


class DatasetError(ReproError, ValueError):
    """A dataset could not be generated or loaded."""


class FormatError(ReproError, ValueError):
    """A file could not be parsed (e.g. malformed LIBSVM text)."""


class FaultError(ReproError, RuntimeError):
    """An injected or detected fault could not be tolerated.

    Base class for everything the fault-injection layer
    (:mod:`repro.distsim.faults`) and the resilient solver runtime raise
    when detection succeeds but recovery is impossible or exhausted.
    """


class RankFailureError(FaultError):
    """A simulated rank crashed (permanently) and the run could not proceed."""


class WorkerFailureError(RankFailureError):
    """A *real* worker process died or hung, and the backend already healed it.

    Raised by :class:`~repro.runtime.mpbackend.MultiprocessingBackend`
    after it has physically recovered the pool (respawned the dead ranks,
    or shrunk it to the survivors) so that
    :class:`~repro.runtime.driver.ResilientLoop` only has to rewind solver
    state and replay — no simulated-injector healing applies.

    ``ranks`` names the failed ranks; ``action`` is ``"respawn"`` or
    ``"shrink"``; ``new_nranks`` is the post-shrink pool size (``None``
    when the pool size is unchanged, i.e. under respawn).
    """

    def __init__(
        self,
        message: str,
        *,
        ranks: tuple[int, ...] = (),
        action: str = "respawn",
        new_nranks: int | None = None,
    ) -> None:
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.action = action
        self.new_nranks = new_nranks


class CommTimeoutError(FaultError):
    """A recv/collective deadline on the simulated clock expired."""


class NumericalFaultError(FaultError):
    """NaN/Inf screening caught corrupted numerics and the policy was to raise."""
