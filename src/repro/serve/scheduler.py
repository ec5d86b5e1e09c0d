"""Job scheduler: fair dispatch, batching, solve execution, accounting.

The scheduler owns the :class:`~repro.serve.jobs.FairQueue`, the
:class:`~repro.serve.cache.SolveCache` and a thread-pool of solver
workers. Its event-loop side (submit/cancel/dispatch/accounting) is
single-threaded by construction; only ``_run_batch`` — the actual solves —
executes on worker threads, and worker threads touch nothing but the jobs
handed to them and the (internally locked) cache.

**Batching.** When a job is dispatched, every queued job with the same
``batch_key`` (problem fingerprint, solver, budget, runtime knobs) is
pulled into the same *multi-start run*: one worker, one cache entry, one
problem instance — each start solved in submission order. Each start is
the identical solver call it would have been solo, so batched results are
bit-identical to individually submitted solves (pinned by
tests/test_serve/test_scheduler.py).

**Cancellation.** A queued job is removed from the queue and reported
``cancelled`` immediately. A running job cannot be interrupted mid-solve
(the solvers are pure compute); its ``cancel_requested`` flag makes the
worker drop the result — and skip not-yet-started members of its batch —
so the job still terminates as ``cancelled``.

**Failure mapping.** Solver exceptions become structured error payloads
via :func:`~repro.serve.protocol.error_payload`; the job terminates as
``failed`` and carries the HTTP status the server should answer with.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.core.fista import fista, ista
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.stopping import StoppingCriterion
from repro.distsim.compress import parse_compression_spec
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryRecorder
from repro.runtime import RuntimeConfig
from repro.serve.cache import CacheEntry, SolveCache
from repro.serve.jobs import FairQueue, Job
from repro.serve.protocol import (
    RUNTIME_SOLVER_KEYS,
    SubmitRequest,
    error_payload,
    result_payload,
)

__all__ = ["Scheduler"]

#: Solvers that accept a ``w0`` warm start.
_WARM_SOLVERS = ("fista", "ista")

#: Latency histogram buckets: sub-millisecond warm refinements up to
#: multi-second cold distributed solves.
_LATENCY_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0)


def _split_runtime(runtime: Mapping[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Solver-call keys and RuntimeConfig fields of a validated request."""
    solver = {k: v for k, v in runtime.items() if k in RUNTIME_SOLVER_KEYS}
    config = {k: v for k, v in runtime.items() if k not in RUNTIME_SOLVER_KEYS}
    return solver, config


class Scheduler:
    """Asyncio-driven job scheduler over a thread pool of solver workers."""

    def __init__(
        self,
        *,
        queue_limit: int = 256,
        tenant_weights: Mapping[str, int] | None = None,
        max_workers: int = 1,
        batch_max: int = 8,
        cache_problems: int = 16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        if batch_max < 1:
            raise ValidationError(f"batch_max must be >= 1, got {batch_max}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue = FairQueue(queue_limit, weights=tenant_weights)
        self.cache = SolveCache(cache_problems, metrics=self.metrics)
        self.batch_max = int(batch_max)
        self.max_workers = int(max_workers)
        self._jobs: dict[str, Job] = {}
        self._events: dict[str, asyncio.Event] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._task: asyncio.Task | None = None
        self._cond: asyncio.Condition | None = None
        self._inflight = 0
        self._stopping = False
        # Instruments are created eagerly so /metrics shows the full
        # families (with zero values) from the first scrape.
        self._requests = self.metrics.counter(
            "serve_requests_total", help="jobs by tenant and terminal state"
        )
        self._depth_gauge = self.metrics.gauge(
            "serve_queue_depth", help="queued jobs (total and per tenant)"
        )
        self._latency = self.metrics.histogram(
            "serve_latency_seconds",
            help="request latency by phase (queue/solve/total) and warm-start kind",
            buckets=_LATENCY_BUCKETS,
        )
        self._batched = self.metrics.counter(
            "serve_batched_jobs_total",
            help="jobs executed as followers of a multi-start batch",
        )

    # -- lifecycle ------------------------------------------------------- #
    async def start(self) -> None:
        if self._task is not None:
            raise ValidationError("scheduler already started")
        self._stopping = False
        self._cond = asyncio.Condition()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        self._task = asyncio.create_task(self._run(), name="repro-serve-scheduler")

    async def stop(self) -> None:
        if self._task is None:
            return
        assert self._cond is not None
        async with self._cond:
            self._stopping = True
            # Everything still queued dies as cancelled, not silently.
            while (job := self.queue.pop()) is not None:
                self._finish_cancelled(job)
            self._cond.notify_all()
        await self._task
        self._task = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._update_depth()

    # -- submission / inspection ---------------------------------------- #
    def submit(self, request: SubmitRequest) -> Job:
        """Enqueue a request (raises :class:`QueueFullError` when full)."""
        if self._cond is None or self._stopping:
            raise ValidationError("scheduler is not running")
        job = Job(request=request)
        self.queue.push(job)  # may raise QueueFullError — nothing recorded then
        self._jobs[job.id] = job
        self._events[job.id] = asyncio.Event()
        self._update_depth()
        self._kick()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    async def wait(self, job: Job, timeout: float | None = None) -> bool:
        """Wait until *job* reaches a terminal state. True on completion."""
        event = self._events.get(job.id)
        if event is None or job.finished:
            return job.finished
        try:
            await asyncio.wait_for(event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: mid-queue removes it, mid-solve drops its result."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.finished:
            return job
        removed = self.queue.remove(job_id)
        if removed is not None:
            self._finish_cancelled(removed)
            self._update_depth()
        else:
            job.cancel_requested = True
        return job

    def stats(self) -> dict[str, Any]:
        return {
            "queue_depth": len(self.queue),
            "inflight_batches": self._inflight,
            "jobs": len(self._jobs),
            "cache": self.cache.stats(),
        }

    # -- internals ------------------------------------------------------- #
    def _kick(self) -> None:
        async def _notify() -> None:
            assert self._cond is not None
            async with self._cond:
                self._cond.notify_all()

        asyncio.ensure_future(_notify())

    def _update_depth(self) -> None:
        self._depth_gauge.set(float(len(self.queue)))
        for tenant in self.queue.tenants():
            self._depth_gauge.set(float(self.queue.depth(tenant)), tenant=tenant)

    def _finish_cancelled(self, job: Job) -> None:
        job.set_state("cancelled")
        job.finished_at = time.monotonic()
        self._requests.inc(tenant=job.request.tenant, state="cancelled")
        event = self._events.get(job.id)
        if event is not None:
            event.set()

    async def _run(self) -> None:
        assert self._cond is not None
        loop = asyncio.get_running_loop()
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._stopping
                    or (len(self.queue) > 0 and self._inflight < self.max_workers)
                )
                if self._stopping:
                    # Wait for inflight batches to drain before exiting.
                    await self._cond.wait_for(lambda: self._inflight == 0)
                    return
                head = self.queue.pop()
                assert head is not None
                key = head.request.batch_key
                followers = self.queue.take_matching(
                    lambda j: j.request.batch_key == key, self.batch_max - 1
                )
                self._inflight += 1
            batch = [head, *followers]
            if followers:
                self._batched.inc(float(len(followers)))
            now = time.monotonic()
            for job in batch:
                job.set_state("running")
                job.started_at = now
            self._update_depth()
            future = loop.run_in_executor(self._pool, self._run_batch, batch)
            future.add_done_callback(
                lambda fut, batch=batch: asyncio.ensure_future(
                    self._on_batch_done(batch, fut)
                )
            )

    async def _on_batch_done(self, batch: list[Job], future: Any) -> None:
        assert self._cond is not None
        exc = future.exception()
        for job in batch:
            if exc is not None and not job.finished:
                # Harness bug, not a per-job solver failure: fail the batch.
                status, body = error_payload(exc)
                job.error, job.error_status = body, status
                job.set_state("failed")
                if job.finished_at is None:
                    job.finished_at = time.monotonic()
            self._account(job)
            event = self._events.get(job.id)
            if event is not None:
                event.set()
        async with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def _account(self, job: Job) -> None:
        """Terminal-state accounting; runs on the event loop only."""
        self._requests.inc(tenant=job.request.tenant, state=job.state)
        warm = (job.result or {}).get("warm_start", "cold")
        self._latency.observe(job.queue_seconds, phase="queue", warm=warm)
        if job.solve_seconds is not None:
            self._latency.observe(job.solve_seconds, phase="solve", warm=warm)
            self._latency.observe(
                job.queue_seconds + job.solve_seconds, phase="total", warm=warm
            )

    # -- worker-thread side ---------------------------------------------- #
    def _run_batch(self, batch: list[Job]) -> None:
        entry: CacheEntry | None = None
        for job in batch:
            if job.cancel_requested:
                job.set_state("cancelled")
                job.finished_at = time.monotonic()
                continue
            try:
                if entry is None:
                    entry = self.cache.entry_for(job.request.problem)
                self._run_one(job, entry)
            except Exception as exc:  # noqa: BLE001 — mapped to the wire
                status, body = error_payload(exc)
                job.error, job.error_status = body, status
                job.set_state("failed")
            finally:
                if job.finished_at is None:
                    job.finished_at = time.monotonic()

    def _run_one(self, job: Job, entry: CacheEntry) -> None:
        req = job.request
        lam = float(req.lam) if req.lam is not None else entry.default_lam
        problem = entry.problem_at(lam)
        solver_kw, config_kw = _split_runtime(req.runtime)
        # Lossy compression changes the iterates a solve converges to, so
        # each canonical comm_compress spec warm-starts from (and records
        # into) its own ladder — never the lossless one.
        variant = parse_compression_spec(
            config_kw.get("comm_compress", "none")
        ).spec
        warm_enabled = req.warm_start and req.solver in _WARM_SOLVERS
        w0, warm_kind = self.cache.warm_start(
            entry, lam, enabled=warm_enabled, variant=variant
        )
        stopping = (
            StoppingCriterion(rel_change_tol=req.rel_change_tol)
            if req.rel_change_tol is not None
            else None
        )
        recorder = TelemetryRecorder() if req.include_report else None

        if req.solver in _WARM_SOLVERS:
            solve = fista if req.solver == "fista" else ista
            if recorder is not None:
                recorder.on_run_start(
                    req.solver, {"lam": lam, "max_iter": req.max_iter, "warm": warm_kind}
                )
            result = solve(
                problem, w0=w0, max_iter=req.max_iter, stopping=stopping
            )
            if recorder is not None:
                recorder.on_run_end(cost=result.cost, meta={"converged": result.converged})
        else:
            result = self._run_distributed(
                req, problem, stopping, solver_kw, config_kw, recorder
            )

        if job.cancel_requested:
            job.set_state("cancelled")
            return
        self.cache.record(entry, lam, result.w, variant=variant)
        job.result = result_payload(result, lam=lam, warm_kind=warm_kind)
        if recorder is not None:
            job.report = recorder.report().to_dict()
        job.set_state("done")

    def _run_distributed(
        self,
        req: SubmitRequest,
        problem: Any,
        stopping: StoppingCriterion | None,
        solver_kw: dict[str, Any],
        config_kw: dict[str, Any],
        recorder: TelemetryRecorder | None,
    ) -> Any:
        nranks = solver_kw.get("nranks", 4)
        epochs = solver_kw.get("epochs", 1)
        iters = solver_kw.get("iters_per_epoch", 100)
        seed = solver_kw.get("seed", 0)
        b = float(solver_kw.get("b", 0.01))
        cfg = RuntimeConfig(telemetry=recorder, **config_kw)
        # "sfista_dist" is RC-SFISTA at k = S = 1; any k/S it sends is ignored.
        if req.solver == "sfista_dist":
            k, S = 1, 1
        else:
            k, S = solver_kw.get("k", 1), solver_kw.get("S", 1)
        return rc_sfista_distributed(
            problem, nranks, k=k, S=S,
            b=b, seed=seed, epochs=epochs, iters_per_epoch=iters,
            stopping=stopping, runtime=cfg,
        )
