"""ResilientLoop: the one checkpoint/rollback/replay driver for all solvers.

Before this module existed, every distributed solver carried its own copy
of the same choreography: wrap collectives in a NaN screen, checkpoint at
round boundaries, catch :class:`~repro.exceptions.RankFailureError` /
:class:`~repro.runtime.resilience.RollbackRequested` in a while-loop,
heal, charge recovery traffic, restore state and replay. The copies had
to agree exactly (recovery is *bit-exact*: a recovered run converges to
the fault-free solution) — four hand-synchronised copies of bit-exact
choreography is four chances to drift.

:class:`ResilientLoop` is that choreography, once. A solver builds one
per run, hands it the body as a closure plus ``capture``/``restore``
callbacks for its replayable state, and keeps only its algorithm::

    loop = ResilientLoop(backend, config, solver="rc_sfista_distributed")
    loop.start(params)                      # run summary; telemetry on_run_start
    loop.run(body, capture=capture, restore=restore, repartition=...)
    meta = loop.finish(outcome)             # telemetry on_run_end; SolveResult.meta

The loop also owns iteration telemetry (:meth:`emit`) so records carry a
uniform shape — retries/recoveries/sim_time come from the loop's own
stats and the backend clock, not from per-solver bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import (
    ConvergenceError,
    NumericalFaultError,
    RankFailureError,
    WorkerFailureError,
)
from repro.obs.telemetry import IterationRecord, TelemetryCallback
from repro.runtime.backend import ExecutionBackend
from repro.runtime.config import RuntimeConfig
from repro.runtime.resilience import Checkpoint, NumericalGuard, RecoveryStats, RollbackRequested

__all__ = ["ResilientLoop"]


class ResilientLoop:
    """Fault-tolerant execution driver shared by the distributed solvers.

    Owns the numerical guard, the recovery statistics, the communication-
    round counter, the most recent :class:`Checkpoint` and the telemetry
    callback. The solver body stays purely algorithmic and calls back into
    the loop for anything resilience- or observability-flavoured.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        config: RuntimeConfig,
        *,
        solver: str,
    ) -> None:
        self.backend = backend
        self.config = config
        self.solver = solver
        self.guard = NumericalGuard(config.on_nan)
        self.stats = RecoveryStats()
        self.telemetry: TelemetryCallback | None = config.telemetry
        self.comm_rounds = 0
        # Set by the solver once its γ is known; stamped into records.
        self.step_size: float = 0.0
        self._ck: Checkpoint | None = None
        # Compressor state (error-feedback residuals, quantizer RNG call
        # counts) captured alongside the active checkpoint: a rollback
        # replay must re-issue bit-identical compressed collectives.
        self._ck_comm: object = None
        # Optional GramWorkspace the solver installs; finish() reports its
        # reuse counter alongside the backend's dedup hit/miss counts.
        self.workspace = None
        # The run summary handed to start(); finish() returns it as meta.
        self.params: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # screened collectives
    # ------------------------------------------------------------------ #
    def screened(self, producer: Callable[[], np.ndarray], what: str) -> np.ndarray:
        """Run *producer* with NaN screening and recompute retries.

        Each attempt counts as one communication round (the traffic was
        spent whether or not the result was clean — same accounting the
        hand-wired solvers used). Under ``on_nan="recompute"`` the
        producer is re-issued up to ``max_recoveries`` times; persistent
        corruption escalates to :class:`NumericalFaultError`. Rollback and
        raise policies propagate out of :meth:`NumericalGuard.screen`.
        """
        attempts = self.config.max_recoveries + 1
        for _attempt in range(attempts):
            out = producer()
            self.comm_rounds += 1
            if not self.guard.screen(out, what, self.stats):
                return out
            self.stats.recomputes += 1
        raise NumericalFaultError(
            f"{what} stayed non-finite after {attempts} attempt(s) "
            "(on_nan='recompute')"
        )

    def allreduce(self, contribs: Sequence[np.ndarray], label: str) -> np.ndarray:
        """Screened allreduce: retries re-issue only the collective."""
        return self.screened(
            lambda: self.backend.allreduce(contribs, label=label), label
        )

    def screen_objective(self, obj: float) -> None:
        """Guard a monitored objective; non-finite triggers the policy.

        Under ``"recompute"`` a bad objective still rolls back — there is
        no cheaper producer to re-issue than the rounds that made it.
        """
        if self.guard.enabled and self.guard.screen(obj, "monitored objective", self.stats):
            raise RollbackRequested("monitored objective")

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def start(self, params: dict[str, Any]) -> None:
        """Record the run summary *params* (runtime plus algorithm keys)."""
        self.params = dict(params)
        if self.telemetry is not None:
            self.telemetry.on_run_start(self.solver, self.params)

    def emit(
        self,
        *,
        outer: int,
        inner: int,
        objective: float | None,
        phase: str = "inner",
    ) -> None:
        """One uniform iteration record (out of band: never affects cost)."""
        if self.telemetry is None:
            return
        self.telemetry.on_iteration(
            IterationRecord(
                outer=outer,
                inner=inner,
                objective=objective,
                step_size=self.step_size,
                comm_mode=self.config.comm,
                comm_decision=self.backend.last_comm_decision,
                retries=self.stats.recomputes,
                recoveries=self.stats.rollbacks,
                sim_time=self.backend.elapsed,
                phase=phase,
            )
        )

    def finish(self, outcome: dict[str, Any]) -> dict[str, Any]:
        """Close out telemetry; returns the run's ``SolveResult.meta``.

        That is the solver name, the :meth:`start` params, *outcome*, the
        resilience stats, and the host-performance counters
        (``runtime_dedup_*``, ``gram_workspace_reuses``) under ``perf`` —
        how much replicated work the run elided, also published into the
        configured metrics registry. Observational only: values never
        feed back into costs.
        """
        meta = {
            "solver": self.solver,
            **self.params,
            **outcome,
            "resilience": self.stats.as_meta(),
            "perf": self._perf_meta(),
        }
        if self.telemetry is not None:
            self.telemetry.on_run_end(
                cost=self.backend.cost_summary(), trace=self.backend.trace, meta=meta
            )
        return meta

    def _perf_meta(self) -> dict[str, int]:
        cache = getattr(self.backend, "replicated", None)
        perf = {
            "runtime_dedup_hits": int(cache.hits) if cache is not None else 0,
            "runtime_dedup_misses": int(cache.misses) if cache is not None else 0,
            "gram_workspace_reuses": (
                int(self.workspace.reuses) if self.workspace is not None else 0
            ),
        }
        registry = self.config.metrics
        if registry is not None:
            for name, value in perf.items():
                if value:
                    registry.counter(
                        name, help="host-side replicated work elided (see docs/PERFORMANCE.md)"
                    ).inc(value)
        return perf

    # ------------------------------------------------------------------ #
    # checkpointing + the recovery loop
    # ------------------------------------------------------------------ #
    @property
    def checkpoint(self) -> Checkpoint | None:
        """The checkpoint a rollback would restore (None → restart from scratch)."""
        return self._ck

    def _comm_snapshot(self) -> object:
        snap = getattr(self.backend, "comm_state_snapshot", None)
        return snap() if snap is not None else None

    def commit_checkpoint(self, ck: Checkpoint) -> None:
        """Charge and promote *ck* to the active recovery point."""
        self.backend.checkpoint(ck.words)
        self._ck = ck
        self._ck_comm = self._comm_snapshot()
        self.stats.checkpoints += 1

    def run(
        self,
        body: Callable[[], Any],
        *,
        capture: Callable[[], Checkpoint] | None = None,
        restore: Callable[[Checkpoint], None] | None = None,
        repartition: Callable[[int, Sequence[int]], float] | None = None,
    ) -> Any:
        """Execute *body* to completion, surviving faults via replay.

        ``capture`` (called once, before the first attempt) provides the
        free initial checkpoint; ``restore`` rewinds the solver's closure
        state to a checkpoint before a replay. Solvers without host-side
        state to rewind (the SPMD rank programs re-derive everything from
        their own checkpoint dict) pass neither, getting a pure re-run.
        ``repartition(new_nranks, lost_ranks)`` rebuilds the solver's
        rank-count-dependent structures (column partition, workspaces,
        per-rank buffers) after an elastic pool shrink and returns the
        number of state words that had to move to new owners — charged as
        recovery traffic.

        Recovery actions, per exception:

        * :class:`WorkerFailureError` — a real worker process died or
          hung, and the mp backend already healed the pool (respawn) or
          shrunk it. The loop books the stats, runs ``repartition`` for a
          shrink (no hook → the shrink cannot be absorbed and the failure
          propagates), restores and replays.
        * :class:`RankFailureError` — heal the failed ranks through the
          backend's injector, charge recovery traffic for the active
          checkpoint, restore, replay. Without an injector (or past
          ``max_recoveries``) the failure propagates.
        * :class:`RollbackRequested` — same restore/replay path minus the
          healing; past ``max_recoveries`` it escalates to
          :class:`NumericalFaultError`.
        * :class:`~repro.exceptions.ConvergenceError` — not recovered, but
          the last checkpointed state is attached as ``.partial`` before
          it propagates, so ``fail_fast`` callers can salvage the iterate.
        """
        if capture is not None:
            self._ck = capture()
            self._ck_comm = self._comm_snapshot()
        recoveries = 0
        while True:
            try:
                return body()
            except ConvergenceError as err:
                if err.partial is None and self._ck is not None:
                    err.partial = self._partial()
                raise
            except WorkerFailureError as err:
                # The backend already healed the pool; the loop's job is
                # accounting, repartitioning (shrink) and the replay.
                recoveries += 1
                if recoveries > self.config.max_recoveries:
                    raise
                self.stats.rank_failures_recovered += 1
                self.stats.healed_ranks.extend(err.ranks)
                self.stats.rollbacks += 1
                if err.action == "shrink":
                    if repartition is None:
                        raise
                    self.stats.shrinks += 1
                    self.stats.final_nranks = err.new_nranks
                    moved = repartition(err.new_nranks, err.ranks)
                    if moved:
                        # Redistributed row blocks travel to new owners.
                        self.backend.recover(float(moved))
                else:
                    # Counted per replaced worker (one recovery round can
                    # respawn several simultaneously-failed ranks).
                    self.stats.respawns += len(err.ranks)
                self._recover(restore)
            except RankFailureError:
                injector = self.backend.injector
                if injector is None:
                    raise
                recoveries += 1
                if recoveries > self.config.max_recoveries:
                    raise
                healed = injector.heal_all()
                self.stats.rank_failures_recovered += 1
                self.stats.healed_ranks.extend(healed)
                self.stats.rollbacks += 1
                self._recover(restore)
            except RollbackRequested as sig:
                recoveries += 1
                if recoveries > self.config.max_recoveries:
                    raise NumericalFaultError(
                        f"non-finite values in {sig.what} persisted after "
                        f"{self.config.max_recoveries} rollback(s)"
                    ) from None
                self.stats.rollbacks += 1
                self._recover(restore)

    def _partial(self) -> dict[str, Any]:
        """Salvageable state for ``ConvergenceError.partial`` (fail-fast).

        The last *checkpointed* iterate — not whatever the torn collective
        left behind — plus enough round metadata to resume or report.
        """
        ck = self._ck
        return {
            "arrays": {k: v.copy() for k, v in ck.arrays.items()},
            "scalars": dict(ck.scalars),
            "comm_rounds": self.comm_rounds,
            "resilience": self.stats.as_meta(),
            "sim_time": self.backend.elapsed,
        }

    def _recover(self, restore: Callable[[Checkpoint], None] | None) -> None:
        if self._ck is not None:
            self.backend.recover(self._ck.words)
            if restore is not None:
                restore(self._ck)
            if self._ck_comm is not None:
                self.backend.comm_state_restore(self._ck_comm)
