"""Open-loop load against a ``repro serve`` subprocess (``serve-open``).

One generator thread sends FISTA jobs over two seeded synthetic problems
(mnist-shaped and covtype-shaped, the registry's scaled shapes). The seed
fixes one sequence of jobs: which problem, which λ (a share of the jobs
repeats an already-solved pair, so the server's warm-start cache answers
them; the rest use fresh λ values) and Poisson arrival times. Each step of
a rate ladder, set as fractions of the server's measured capacity, sends
that same sequence at its own rate to a freshly set-up server, so the
steps differ only in load, not in what the cache has seen. Latency runs
from each job's *scheduled* send time to the moment the generator holds
its result, so a stall in the server or the generator is charged to
every job queued behind it.

The generator is single-threaded and keeps one connection open at a time
(on a 2-core host the server needs the other core). Each job asks for its
result right after it is sent and then every Retry-After (50 ms), as
``ServeClient`` does, so the poll wait is part of what a client sees.
"""

from __future__ import annotations

import heapq
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

import harness

#: The two problems, by registry name, generated from the registry's own
#: seeds at the registry's scaled shapes (d × m = 196 × 4000 at fill 0.19
#: and 54 × 10000 at fill 0.22). The workload seed varies the traffic
#: (arrival times, λ order, which pairs repeat), not the problems.
PROBLEMS = ("mnist", "covtype")
#: Share of jobs that repeat an already-solved (problem, λ) pair, taken
#: from the tenant mix of ``benchmarks/bench_serve.py``: four tenants each
#: send 16 jobs cycling through a ladder of 5 λ values, two tenants per
#: problem, so 5 of a problem's 32 jobs are fresh and 27 repeat.
REPEAT_SHARE = 27 / 32
#: A repeat picks among pairs whose first job came at least this many
#: jobs earlier (or the warm-up λ of its problem).
REPEAT_AFTER_JOBS = 5
#: Single-worker capacity at these shapes and this mix, in jobs/s: the
#: closed loop of :func:`closed_loop` (two jobs outstanding, no poll wait)
#: over this workload's job sequence finished 26.0-32.4 jobs/s on seeds
#: 1-3 on a 2-core Intel Xeon host with one BLAS thread. The traced run
#: measures it again as ``serve.closed_loop_rps``.
CAPACITY_RPS = 30.0
#: The rate ladder, as fractions of capacity, in the order it is run.
#: ``low`` leaves the worker mostly idle and ``high`` sits near capacity.
#: Open-loop clients poll every outstanding job, and the polls share the
#: server's process with the solves, so the ladder may stop below ``high``.
STEPS = {"low": 0.25, "mid": 0.5, "high": 0.9}
#: Tail-latency limit a rate step must meet (also named in BENCHMARK.json):
#: 2-3× a cold solve of the mnist-shaped problem (0.18-0.21 s).
LIMIT_S = 0.5
#: Relative objective error a returned w may have against the oracle.
SERVE_REL_TOL = 1e-4
#: A job not finished this long after it was due has failed.
JOB_TIMEOUT_S = 20.0
POLL_S = 0.05
PROBE_EVERY_S = 0.25
#: Server set-ups per run, one per step included; ``setup_s`` is their median.
SETUPS = 5


def rate(step: str) -> float:
    return STEPS[step] * CAPACITY_RPS


def jobs_per_step(seconds: float) -> int:
    """Sequence length that makes the ladder's send time *seconds*."""
    return max(2 * harness.TAIL_BEYOND, int(seconds / sum(1.0 / rate(s) for s in STEPS)))


@dataclass
class Job:
    step: str
    due: float  # seconds after the step's start
    problem: int
    lam: float
    fresh: bool
    id: str | None = None
    done: float | None = None
    submit_s: float = 0.0
    polls: int = 0
    error: str | None = None
    payload: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.done - self.due


class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--max-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
            cwd=str(harness.ROOT),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split("http://", 1)[1].split()[0]
        from repro.serve import ServeClient

        self.client = ServeClient(self.url, timeout=JOB_TIMEOUT_S)
        deadline = time.monotonic() + 30.0
        while not self.client.healthz().get("ok"):
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def stop(self) -> bool:
        """SIGINT, then wait; True when it exits cleanly (code 0)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        finally:
            self.proc.stdout.close()
        return code == 0


def _spec(name: str, size: str) -> dict:
    """Synthetic spec of registry dataset *name* at *size*.

    The server builds synthetic problems without column scaling, so the
    client's oracle generates the same unscaled data.
    """
    shape = harness.registry_shape(name, size)
    return {"synthetic": {"d": shape.d, "m": shape.m, "density": shape.density,
                          "support_fraction": 0.3, "noise": 0.1, "seed": shape.seed}}


class Load:
    """Inputs of one run: the problems, their data and the job sequence."""

    def __init__(self, seed: int, size: str = "full", span=harness.no_span) -> None:
        from repro.core.objectives import L1LeastSquares
        from repro.core.path import lambda_max
        from repro.data import synthetic

        self.specs, self.data, self.lam_max = [], [], []
        for name in PROBLEMS:
            spec = _spec(name, size)
            s = spec["synthetic"]
            with span("data.gen"):
                X, y, _w = synthetic.make_regression(
                    s["d"], s["m"], density=s["density"],
                    support_fraction=s["support_fraction"], noise=s["noise"], rng=s["seed"],
                )
            self.specs.append(spec)
            self.data.append((X, y))
            self.lam_max.append(lambda_max(L1LeastSquares(X, y, 1.0)))
        self.seed = seed

    def sequence(self, n: int, warm_lams: list[float]) -> list[Job]:
        """The seed's *n* jobs, due at unit-rate Poisson times (1 job/s).

        The jobs split evenly between the problems, with
        :data:`REPEAT_SHARE` of each problem's jobs repeats. The fresh λ
        values of a problem are the midpoints of an even grid over
        [0.05, 0.2]·λ_max, sent largest first as a ``lasso_path`` sweep
        visits them, so every seed sends the same fresh pairs in the same
        order and the warm-start ladder serves each from its neighbour.
        """
        rng = np.random.default_rng([self.seed, 7])
        times = np.sort(rng.uniform(0.0, n, n))
        problems = rng.permutation(np.arange(n) % len(self.specs))
        fresh = np.zeros(n, dtype=bool)
        grids = []
        for j in range(len(self.specs)):
            slots = np.flatnonzero(problems == j)
            n_fresh = round((1.0 - REPEAT_SHARE) * slots.size)
            fresh[rng.permutation(slots)[:n_fresh]] = True
            ratios = 0.05 + 0.15 * (np.arange(n_fresh) + 0.5) / max(1, n_fresh)
            grids.append(list(self.lam_max[j] * ratios))  # popped from the end: largest first
        solved = [[(-REPEAT_AFTER_JOBS, lam)] for lam in warm_lams]
        jobs = []
        for i, (t, j, is_fresh) in enumerate(zip(times.tolist(), problems.tolist(), fresh.tolist())):
            if is_fresh:
                lam = float(grids[j].pop())
                solved[j].append((i, lam))
            else:
                pool = [x for first, x in solved[j] if i - first >= REPEAT_AFTER_JOBS]
                lam = pool[int(rng.integers(len(pool)))]
            jobs.append(Job("", t, j, lam, is_fresh))
        return jobs

    def request(self, job: Job) -> dict:
        return {"problem": self.specs[job.problem], "lam": job.lam, "tenant": "bench",
                "solver": "fista"}

    def oracle(self, pairs) -> dict:
        """F* of every (problem, λ) pair, from the reference solver."""
        from repro.core.objectives import L1LeastSquares

        out = {}
        for j, lam in sorted(set(pairs)):
            X, y = self.data[j]
            out[(j, lam)] = harness.oracle_fstar(L1LeastSquares(X, y, lam))
        return out

    def check(self, job: Job, fstar: dict) -> str | None:
        from repro.core.objectives import L1LeastSquares

        w = np.asarray(job.payload["result"]["w"], dtype=np.float64)
        if not np.all(np.isfinite(w)):
            return "non-finite w"
        X, y = self.data[job.problem]
        err = harness.rel_error(L1LeastSquares(X, y, job.lam).value(w), fstar[(job.problem, job.lam)])
        if err > SERVE_REL_TOL:
            return f"objective misses the oracle by {err:.3g}"
        return None


def set_up(seed: int, size: str, span=harness.no_span) -> tuple:
    """Generate the inputs, start a server and warm each problem with one
    job at its default λ. Returns (inputs, server, warm-up λs, seconds)."""
    t0 = time.perf_counter()
    load = Load(seed, size, span)
    server = Server()
    try:
        warm = [
            float(server.client.result(
                server.client.submit({"problem": spec, "tenant": "bench", "solver": "fista"}),
                timeout=JOB_TIMEOUT_S,
            )["result"]["lam"])
            for spec in load.specs
        ]
    except BaseException:
        server.stop()
        raise
    return load, server, warm, time.perf_counter() - t0


def closed_loop(client, jobs: list[Job], bodies: list[dict], window: int = 2) -> float:
    """Jobs/s with *window* jobs always outstanding (results polled every
    2 ms): the server's capacity at this mix, without the poll floor."""
    from repro.serve import ServeHTTPError

    start = time.perf_counter()
    pending, next_send = [], 0
    while next_send < len(jobs) or pending:
        while next_send < len(jobs) and len(pending) < window:
            job = jobs[next_send]
            job.due = time.perf_counter() - start
            try:
                job.id = client.submit(bodies[next_send])
                pending.append(job)
            except ServeHTTPError as exc:
                job.error = f"submit: {exc}"
            next_send += 1
        time.sleep(0.002)
        for job in list(pending):
            try:
                payload = client.result(job.id, wait=False)
            except (ServeHTTPError, OSError) as exc:
                job.error = f"result: {exc}"
                pending.remove(job)
                continue
            if "result" in payload:
                job.done, job.payload = time.perf_counter() - start, payload
                pending.remove(job)
            elif time.perf_counter() - start - job.due > JOB_TIMEOUT_S:
                job.error = "timed out"
                pending.remove(job)
    return len(jobs) / (time.perf_counter() - start)


def drive(client, jobs: list[Job], bodies: list[dict], span=harness.no_span) -> dict:
    """Run one step open-loop (request bodies prebuilt); returns generator stats.

    Each job behaves like ``ServeClient.result(wait=True)``: it is sent at
    its due time, asks for its result at once, and asks again every
    :data:`POLL_S` (the server's Retry-After) until it has it. One thread
    runs every job's requests in time order; one that runs late delays
    what follows it, and the lateness is charged to the jobs, since
    latency counts from ``due``. Idle gaps of 20 ms or more take a host
    speed probe (at most one per :data:`PROBE_EVERY_S`).
    """
    from repro.serve import ServeHTTPError

    start = time.perf_counter()
    lateness, backlog, pending, probes, probed = [], [], 0, [], -PROBE_EVERY_S
    events = [(job.due, i) for i, job in enumerate(jobs)]  # (when, job): send, then polls
    heapq.heapify(events)
    while events:
        when, i = heapq.heappop(events)
        job = jobs[i]
        wait = start + when - time.perf_counter()
        if wait > 0.02 and when - probed >= PROBE_EVERY_S:
            probes.append(harness.probe_s())
            probed = when
            wait = start + when - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        now = time.perf_counter() - start
        lateness.append(now - when)
        if job.id is None:
            backlog.append(pending)
            try:
                with span("serve.submit"):
                    job.id = client.submit(bodies[i])
            except ServeHTTPError as exc:
                job.error = f"submit: {exc}"
                continue
            job.submit_s = time.perf_counter() - start - now
            pending += 1
        job.polls += 1
        try:
            with span("serve.poll"):
                payload = client.result(job.id, wait=False)
        except (ServeHTTPError, OSError) as exc:
            job.error = f"result: {exc}"
            pending -= 1
            continue
        now = time.perf_counter() - start
        if "result" in payload:
            job.done, job.payload = now, payload
            pending -= 1
        elif now - job.due > JOB_TIMEOUT_S:
            job.error = "timed out"
            pending -= 1
        else:
            heapq.heappush(events, (now + POLL_S, i))
    # Growing: a least-squares line through the backlog seen at each send
    # rises over the step by more than the mean backlog plus two jobs.
    growing = False
    if len(backlog) > 1:
        rise = np.polyfit(np.arange(len(backlog)), backlog, 1)[0] * len(backlog)
        growing = bool(rise > np.mean(backlog) + 2.0)
    return {
        "lateness_max": max(lateness, default=0.0),
        "backlog_max": max(backlog, default=0),
        "growing": growing,
        "probes": probes,
    }


def run(seed: int, seconds: float, log, tracer=None, size: str = "full") -> dict:
    """Every ladder step on its own server, then (traced run only) the
    closed-loop capacity on one more.

    Set-up and CPU seconds are scaled to the reference host speed by the
    median of the probes (:func:`harness.probe_s`) the generator took
    while the steps ran; a probe or two around each ~1 s set-up scaled it
    worse than that. Latencies are not scaled: most of a job's latency at
    the ``low`` step is the client's fixed 50 ms poll wait, which does not
    run slower on a slower host.
    """
    span = tracer.span if tracer is not None else harness.no_span
    if tracer is not None:
        tracer.op = "serve"
    children = harness.ChildMemory()
    plan = list(STEPS) + (["closed"] if tracer is not None else [])
    n = jobs_per_step(seconds)
    setup_times, cpu, attempted, failed = [], 0.0, 0, 0
    steps, gen, cache = {}, {}, {"warm_hits": 0, "warm_requests": 0}
    closed_rps, measure_s = 0.0, 0.0
    # Set-ups beyond one per step are timed for setup_s only (step None).
    for i, step in enumerate([None] * max(0, SETUPS - len(plan)) + plan):
        load, server, warm, t = set_up(seed, size, span if i == 0 else harness.no_span)
        setup_times.append(t)
        try:
            if step is None:  # a set-up timed for setup_s only
                continue
            due = 0.0 if step == "closed" else 1.0 / rate(step)
            jobs = [replace(job, step=step, due=job.due * due) for job in load.sequence(n, warm)]
            bodies = [load.request(job) for job in jobs]
            before = server.client.metrics()["stats"]["cache"]
            cpu0 = harness.cpu_seconds() + harness.proc_cpu_seconds(server.proc.pid)
            if step == "closed":
                closed_rps = closed_loop(server.client, jobs, bodies)
            else:
                t0 = time.perf_counter()
                gen[step] = drive(server.client, jobs, bodies, span=span)
                measure_s += time.perf_counter() - t0
                cpu += harness.cpu_seconds() + harness.proc_cpu_seconds(server.proc.pid) - cpu0
                after = server.client.metrics()["stats"]["cache"]
                for key in cache:
                    cache[key] += after[key] - before[key]
            steps[step] = jobs
            children.sample()
        finally:
            attempted += 1
            if not server.stop():
                failed += 1
                log(f"server did not exit cleanly ({step or 'set-up'})")
    rss = harness.peak_rss_mb(children)
    probe = harness.median([x for g in gen.values() for x in g["probes"]] or [harness.probe_s()])

    jobs = [job for js in steps.values() for job in js]
    t_oracle = time.perf_counter()
    fstar = load.oracle([(job.problem, job.lam) for job in jobs])
    log(f"oracle_s {time.perf_counter() - t_oracle:.3f} for {len(fstar)} pairs "
        "(after the measurement, excluded from every metric)")
    for job in jobs:
        if job.error is None and job.done is not None:
            job.error = load.check(job, fstar)
        elif job.error is None:
            job.error = "never finished"
        if job.error:
            log(f"{job.step} job due {job.due:.3f}s failed: {job.error}")
    attempted += len(jobs)
    failed += sum(1 for job in jobs if job.error)
    done = [job for step in STEPS for job in steps[step] if not job.error]

    stats, max_rate, climbing = {}, 0.0, True
    for step in STEPS:  # the max rate is the last step before the first miss
        js = steps[step]
        lats = [job.latency for job in js if not job.error]
        tail, pct, count = harness.tail(lats)
        stats[step] = (harness.quantile(lats, 0.5), tail)
        meets = not any(job.error for job in js) and tail <= LIMIT_S and not gen[step]["growing"]
        climbing = climbing and meets
        if climbing:
            max_rate = rate(step)
        log(f"{step} step: {rate(step):g} jobs/s offered, {len(js)} jobs, latency p50 "
            f"{stats[step][0]:.4f}s, tail p{pct:.1f} of n={count} {tail:.4f}s, backlog growing "
            f"{gen[step]['growing']}, generator late by up to {gen[step]['lateness_max']:.4f}s, "
            f"meets {LIMIT_S:g}s limit: {meets}")
    log(f"unscaled: setup_s {harness.median(setup_times):.4f}s, cpu_s.per_op "
        f"{cpu / max(1, len(done)):.5f}s; probe p50 {probe * 1e3:.3f}ms "
        f"(reference {harness.PROBE_REF_S * 1e3:g}ms)")
    queue = [job.payload["queue_seconds"] for job in done]
    layers = {
        "latency_s.tail": (stats["low"][1], "s"),
        "serve.latency_s.p50.high": (stats["high"][0], "s"),
        "serve.latency_s.tail.high": (stats["high"][1], "s"),
        f"serve.max_rate_rps.limit_{LIMIT_S:g}s": (max_rate, "1/s"),
        "serve.submit_s.p50": (harness.median([job.submit_s for job in done]), "s"),
        "serve.queue_s.p50": (harness.median(queue), "s"),
        "serve.queue_s.tail": (harness.tail(queue)[0], "s"),
        "serve.solve_s.p50": (harness.median([job.payload["solve_seconds"] for job in done]), "s"),
        "serve.solve_iters.p50": (
            harness.median([job.payload["result"]["n_iterations"] for job in done]), "count"
        ),
        "serve.polls_per_job": (sum(job.polls for job in done) / max(1, len(done)), "count"),
        "serve.cache.hit_ratio": (
            cache["warm_hits"] / cache["warm_requests"] if cache["warm_requests"] else 0.0,
            "fraction",
        ),
        "serve.warm_share": (
            sum(job.payload["result"]["warm_start"] == "exact" for job in done) / max(1, len(done)),
            "fraction",
        ),
        "serve.backlog_max": (max(g["backlog_max"] for g in gen.values()), "count"),
        "gen.lateness_s.max": (max(g["lateness_max"] for g in gen.values()), "s"),
    }
    if "closed" in steps:
        log(f"closed loop: {closed_rps:.2f} jobs/s over {n} jobs (CAPACITY_RPS = {CAPACITY_RPS:g})")
        layers["serve.closed_loop_rps"] = (closed_rps, "1/s")
    return {
        "attempted": attempted,
        "failed": failed,
        "measure_s": measure_s,
        "e2e": {
            "setup_s": (harness.at_reference_speed(harness.median(setup_times), probe, probe), "s"),
            "latency_s.p50": (stats["low"][0], "s"),
            "cpu_s.per_op": (harness.at_reference_speed(cpu / max(1, len(done)), probe, probe), "s"),
            "peak_rss_mb": (rss, "MB"),
        },
        "layers": layers,
    }
