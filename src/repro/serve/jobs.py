"""Jobs and the bounded multi-tenant fair queue.

The queue is plain data — no locks, no asyncio — because every mutation
happens on the server's event loop; only the solve itself leaves the loop
(scheduler → executor thread). That keeps the scheduling policy trivially
deterministic and testable.

Scheduling policy: **weighted round-robin across tenants, FIFO within a
tenant.** Tenants take turns in sorted-name order; a tenant with weight
``k`` drains up to ``k`` jobs per turn. Consequences the tests pin down:

* no tenant starves — any tenant with queued work is served within one
  full cycle, i.e. at most ``sum(weights of backlogged tenants)`` pops;
* a tenant flooding the queue cannot crowd out the others beyond its
  weight share (it only competes with itself);
* a single-tenant queue degenerates to plain FIFO.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exceptions import ValidationError
from repro.serve.protocol import JOB_STATES, QueueFullError, SubmitRequest

__all__ = ["Job", "FairQueue"]

_job_ids = itertools.count(1)


@dataclass
class Job:
    """One submitted request and everything the server knows about it."""

    request: SubmitRequest
    id: str = field(default_factory=lambda: f"job-{next(_job_ids)}")
    state: str = "queued"
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Set when a cancel arrives while the job is already solving; the
    #: scheduler drops the result and reports ``cancelled``.
    cancel_requested: bool = False
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    error_status: int | None = None
    report: dict[str, Any] | None = None

    def set_state(self, state: str) -> None:
        if state not in JOB_STATES:
            raise ValidationError(f"unknown job state {state!r}")
        self.state = state

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def queue_seconds(self) -> float:
        start = self.started_at if self.started_at is not None else time.monotonic()
        return max(0.0, start - self.submitted_at)

    @property
    def solve_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def status_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "tenant": self.request.tenant,
            "solver": self.request.solver,
        }
        if self.finished:
            payload["queue_seconds"] = self.queue_seconds
            if self.solve_seconds is not None:
                payload["solve_seconds"] = self.solve_seconds
        return payload


class FairQueue:
    """Bounded job queue with weighted round-robin tenant scheduling."""

    def __init__(
        self,
        limit: int = 256,
        *,
        weights: Mapping[str, int] | None = None,
        default_weight: int = 1,
    ) -> None:
        if limit < 1:
            raise ValidationError(f"queue limit must be >= 1, got {limit}")
        if default_weight < 1:
            raise ValidationError(f"default_weight must be >= 1, got {default_weight}")
        for tenant, weight in (weights or {}).items():
            if not isinstance(weight, int) or weight < 1:
                raise ValidationError(
                    f"tenant {tenant!r} weight must be a positive integer, got {weight!r}"
                )
        self.limit = int(limit)
        self.default_weight = int(default_weight)
        self._weights = dict(weights or {})
        self._pending: dict[str, deque[Job]] = {}
        self._size = 0
        # Round-robin cursor: the tenant currently being served and how
        # many more jobs it may drain this turn.
        self._current: str | None = None
        self._credit = 0

    def weight(self, tenant: str) -> int:
        return self._weights.get(tenant, self.default_weight)

    def __len__(self) -> int:
        return self._size

    def depth(self, tenant: str | None = None) -> int:
        if tenant is None:
            return self._size
        queue = self._pending.get(tenant)
        return len(queue) if queue else 0

    def tenants(self) -> tuple[str, ...]:
        """Tenants with queued work, sorted (the round-robin order)."""
        return tuple(sorted(t for t, q in self._pending.items() if q))

    def push(self, job: Job) -> None:
        if self._size >= self.limit:
            raise QueueFullError(
                f"queue is full ({self.limit} jobs); retry shortly",
            )
        self._pending.setdefault(job.request.tenant, deque()).append(job)
        self._size += 1

    def _advance(self, backlogged: tuple[str, ...]) -> None:
        """Move the cursor to the next backlogged tenant and refill credit."""
        nxt = None
        if self._current is not None:
            for tenant in backlogged:
                if tenant > self._current:
                    nxt = tenant
                    break
        if nxt is None:
            nxt = backlogged[0]
        self._current = nxt
        self._credit = self.weight(nxt)

    def pop(self) -> Job | None:
        """Next job under weighted round-robin, or ``None`` when empty."""
        backlogged = self.tenants()
        if not backlogged:
            return None
        if (
            self._current is None
            or self._credit <= 0
            or not self._pending.get(self._current)
        ):
            self._advance(backlogged)
        assert self._current is not None
        job = self._pending[self._current].popleft()
        self._credit -= 1
        self._size -= 1
        if not self._pending[self._current]:
            del self._pending[self._current]
        return job

    def take_matching(
        self, predicate: Callable[[Job], bool], max_jobs: int
    ) -> list[Job]:
        """Remove and return up to *max_jobs* queued jobs matching *predicate*.

        Used for batching: after popping a head job, the scheduler pulls
        queued same-shape jobs (any tenant — batching only ever
        *accelerates* a job, so fairness is not violated) into the same
        multi-start run, preserving FIFO order within each tenant.
        """
        if max_jobs <= 0:
            return []
        taken: list[Job] = []
        for tenant in self.tenants():
            queue = self._pending[tenant]
            kept: deque[Job] = deque()
            while queue:
                job = queue.popleft()
                if len(taken) < max_jobs and predicate(job):
                    taken.append(job)
                else:
                    kept.append(job)
            if kept:
                self._pending[tenant] = kept
            else:
                del self._pending[tenant]
        self._size -= len(taken)
        return taken

    def remove(self, job_id: str) -> Job | None:
        """Remove a queued job by id (cancellation mid-queue)."""
        for tenant, queue in list(self._pending.items()):
            for job in queue:
                if job.id == job_id:
                    queue.remove(job)
                    self._size -= 1
                    if not queue:
                        del self._pending[tenant]
                    return job
        return None
