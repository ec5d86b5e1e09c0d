"""Measured wall-clock benchmarks for the real-parallelism backends.

The charged α-β-γ costs remain the repo's source of truth for *simulated*
scaling (DESIGN.md); this bench adds the second, orthogonal axis: seconds
of host time actually elapsed when the same solve runs on real hardware
parallelism (docs/PERFORMANCE.md has the methodology and its caveats).

Three ratios are measured and emitted to
``benchmarks/output/wallclock_run.json``; CI gates those with a floor in
``benchmarks/baselines/wallclock.json``:

* ``threads_gram_p4`` — the headline gate: a Gram-dominated smoke solve
  on ``backend="threads"`` vs ``backend="bsp"`` at P=4. The per-rank
  sampled-Gram stages run BLAS ``dgemm``, which releases the GIL, so on a
  ≥4-core runner the ratio must clear the committed 2× floor. Iterates
  are asserted bit-identical before anything is timed.
* ``mp_gram_p2`` — the same solve on ``backend="mp"`` vs ``backend="bsp"``
  at P=2: rank closures on host threads, collectives in two worker
  processes; each mp solve also pays its worker start-up. Reported
  without a floor until it has been measured on the CI runner.
* ``mp_shm_allreduce_p4`` — the shared-memory data plane: tournament
  allreduce through ``multiprocessing.shared_memory`` vs the in-process
  simulator reduction. Worker round-trips cost pipe latency, so this is
  a sanity floor (the mp backend exists for *correct real processes*,
  not for beating a memcpy), pinned low to catch pathological stalls.

Ratios of two runs on the same host are machine-independent; absolute
seconds are not and are reported but never gated.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks._common import QUICK, emit, emit_json
from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.distsim.collectives import allreduce_values
from repro.runtime import RuntimeConfig
from repro.runtime.mpbackend import MultiprocessingBackend, live_segment_names

NRANKS = 4


def _best_of(fn, repeats=3):
    """Best-of-N wall-clock of ``fn()`` — robust to one-off scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gram_dominated_problem():
    """Dense smoke problem whose per-iteration cost is the sampled Gram.

    ``d × m̄`` block products at ``b=0.25`` dwarf the O(d²) replicated
    update, so the map_ranks stage is ≥90% of the iteration — the stage
    the threads backend parallelizes.
    """
    rng = np.random.default_rng(5)
    d, m = (128, 8_000) if QUICK else (256, 24_000)
    X = rng.standard_normal((d, m))
    return L1LeastSquares(X=X, y=rng.standard_normal(m), lam=0.01)


def _gram_speedup(problem, backend, nranks):
    """*backend* vs backend="bsp" at *nranks*: same bits, fewer seconds."""
    iterates = {}
    timings = {}

    def run(name):
        res = rc_sfista_distributed(
            problem, nranks, k=2, b=0.25, seed=9, epochs=1,
            iters_per_epoch=4, monitor_every=4,
            runtime=RuntimeConfig(backend=name),
        )
        iterates[name] = res.w.copy()

    # Warm-up (BLAS threads, allocator, imports), and no timing at all if
    # the backends computed different things.
    run(backend)
    run("bsp")
    assert np.array_equal(iterates["bsp"], iterates[backend])
    for name in ("bsp", backend):
        timings[name] = _best_of(lambda: run(name), repeats=2)
    return timings["bsp"] / timings[backend], timings


def _mp_shm_allreduce_ratio(nranks=NRANKS, words=100_000, rounds=6):
    """Shared-memory tournament vs the in-process simulator reduction."""
    rng = np.random.default_rng(7)
    contribs = [rng.standard_normal(words) for _ in range(nranks)]
    be = MultiprocessingBackend(nranks, timeout=120.0)
    try:
        got = be.allreduce(contribs)  # warm-up + correctness in one
        assert np.array_equal(got, allreduce_values(contribs))
        mp_t = _best_of(lambda: [be.allreduce(contribs) for _ in range(rounds)])
        sim_t = _best_of(lambda: [allreduce_values(contribs) for _ in range(rounds)])
    finally:
        be.close()
    assert live_segment_names() == frozenset()
    return sim_t / mp_t, {"mp": mp_t, "sim": sim_t}


def test_wallclock_speedups():
    """Measure the real-parallelism ratios and emit the gated report."""
    problem = _gram_dominated_problem()
    threads_ratio, threads_times = _gram_speedup(problem, "threads", NRANKS)
    mp_gram_ratio, mp_gram_times = _gram_speedup(problem, "mp", 2)
    mp_ratio, mp_times = _mp_shm_allreduce_ratio()
    speedups = {
        "threads_gram_p4": threads_ratio,
        "mp_gram_p2": mp_gram_ratio,
        "mp_shm_allreduce_p4": mp_ratio,
    }
    lines = [f"{name:>24s}: {ratio:8.2f}x" for name, ratio in speedups.items()]
    lines.append(f"{'bsp solve':>24s}: {threads_times['bsp']:8.3f}s")
    lines.append(f"{'threads solve':>24s}: {threads_times['threads']:8.3f}s")
    lines.append(f"{'bsp solve (P=2)':>24s}: {mp_gram_times['bsp']:8.3f}s")
    lines.append(f"{'mp solve (P=2)':>24s}: {mp_gram_times['mp']:8.3f}s")
    emit("wallclock_speedups", "\n".join(lines))
    emit_json(
        "wallclock_run",
        {
            "speedups": speedups,
            "seconds": {
                "threads_gram_p4": threads_times,
                "mp_gram_p2": mp_gram_times,
                "mp_shm_allreduce_p4": mp_times,
            },
        },
    )
    # The 2× floor is enforced by the CI gate (check_regression.py against
    # baselines/wallclock.json) where core count is known; a single-core
    # dev container legitimately measures ~1×, so the unit run only
    # asserts sanity.
    for name, ratio in speedups.items():
        assert ratio > 0, name
