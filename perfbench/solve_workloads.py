"""Closed-loop solve workloads: one solve call at a time, to 1e-4 accuracy.

``pn-sparse-bsp16`` runs proximal Newton with the RC-SFISTA inner solver
on an mnist-shaped sparse problem over 16 simulated BSP ranks; it stresses
the CSC sampled Gram and the simulated allreduce tree. ``rc-dense-mp2``
runs RC-SFISTA on an epsilon-shaped dense problem over 2 real worker
processes; it stresses the dense Gram and the shared-memory collectives
of ``repro.runtime.mpbackend``.

A run generates one problem from its seed (see
:func:`harness.generate_problem`) and measures whole *cycles*: a cycle
solves it once with each sampling seed ``0 .. ops-1``. Every cycle does
the same work, bit for bit, so the run stops only between cycles. Times
are scaled to the reference host speed (:func:`harness.probe_s`), and the
median over cycles of each operation damps what the probes miss.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import harness
from spans import Tracer

#: Warm-up solves use sampling seeds outside the measured sequence.
WARMUP_SEED = 1000
#: Setups per run; ``setup_s`` is their median.
SETUPS = 5
#: Cycles every untraced run measures, however long they take.
MIN_CYCLES = 3


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    shape: harness.Shape
    solver: str  # "pn" or "rc"
    backend: str
    nranks: int
    ops: int  # solves per cycle: sampling seeds 0 .. ops-1
    params: dict

    def gram_shape(self) -> tuple[int, int]:
        """(d, columns per rank) of one sampled Gram block."""
        from repro.utils.rng import minibatch_size

        mbar = minibatch_size(self.shape.m, self.params["b"])
        return self.shape.d, max(1, mbar // self.nranks)


def workloads(size: str) -> dict[str, SolveWorkload]:
    tiny = size == "tiny"  # the tiny epsilon shape needs a larger b to sample both ranks
    return {
        "pn-sparse-bsp16": SolveWorkload(
            "pn-sparse-bsp16",
            harness.registry_shape("mnist", size),
            "pn", "bsp", 16, 8,
            {"k": 4, "S": 2, "b": 0.1, "n_outer": 30, "inner_iters": 40},
        ),
        "rc-dense-mp2": SolveWorkload(
            "rc-dense-mp2",
            harness.registry_shape("epsilon", size),
            "rc", "mp", 2, 3,
            {"k": 8, "S": 2, "b": 0.02 if not tiny else 0.1, "epochs": 50, "iters_per_epoch": 64},
        ),
    }


def solve(wl: SolveWorkload, problem, fstar: float | None, seed: int):
    """One public-API solve call of the workload.

    ``fstar=None`` is the warm-up: a fixed budget (one outer iteration,
    one epoch) with no accuracy target, so set-up does the same work on
    every seed.
    """
    from repro.core.prox_newton import proximal_newton_distributed
    from repro.core.rc_sfista_dist import rc_sfista_distributed
    from repro.core.stopping import StoppingCriterion
    from repro.runtime import RuntimeConfig

    warmup = fstar is None
    stopping = None if warmup else StoppingCriterion(tol=harness.TARGET_REL_ERR, fstar=fstar)
    runtime = RuntimeConfig(backend=wl.backend)
    p = {**wl.params, **({"n_outer": 1, "epochs": 1} if warmup else {})}
    if wl.solver == "pn":
        return proximal_newton_distributed(
            problem, wl.nranks, inner="rc_sfista", k=p["k"], S=p["S"], b=p["b"],
            n_outer=p["n_outer"], inner_iters=p["inner_iters"], seed=seed,
            stopping=stopping, runtime=runtime,
        )
    return rc_sfista_distributed(
        problem, wl.nranks, k=p["k"], S=p["S"], b=p["b"], epochs=p["epochs"],
        iters_per_epoch=p["iters_per_epoch"], seed=seed, stopping=stopping,
        runtime=runtime,
    )


def check(wl: SolveWorkload, problem, fstar: float, result) -> str | None:
    """Why *result* fails, or None: accuracy, finiteness, resource hygiene."""
    w = np.asarray(result.w)
    if not np.all(np.isfinite(w)):
        return "non-finite iterate"
    err = harness.rel_error(problem.value(w), fstar)
    if not (result.converged and err <= harness.TARGET_REL_ERR):
        return f"missed {harness.TARGET_REL_ERR:g} within budget (rel err {err:.3g})"
    if wl.backend == "mp":
        from repro.runtime.mpbackend import live_segment_names

        if live_segment_names():
            return f"leaked shared-memory segments {sorted(live_segment_names())}"
        if multiprocessing.active_children():
            return "worker process outlived its backend"
    return None


def fingerprint(result) -> tuple:
    """What must be byte-identical between a traced and an untraced solve."""
    cost = sorted((k, float(v).hex()) for k, v in (result.cost or {}).items())
    return np.asarray(result.w).tobytes(), tuple(cost), int(result.n_iterations)


def oracle(problem, log) -> float:
    t0 = time.perf_counter()
    fstar = harness.oracle_fstar(problem)
    log(f"oracle_s {time.perf_counter() - t0:.3f} (excluded from setup_s)")
    return fstar


def cycles(seconds: float, at_least: int):
    """Yield cycle numbers: at least *at_least*, then another only while
    it should end within *seconds* of the start (judged by the last)."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n < at_least or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield n
        last = time.perf_counter() - t0
        n += 1


def setup(wl: SolveWorkload, seed: int, log) -> tuple:
    """The input plus a warm-up solve (worker spawn included), :data:`SETUPS`
    times. Returns (problem, F*, setup times at reference host speed); the
    oracle runs once, after the first generation, untimed."""
    times, raw, fstar, problem = [], [], None, None
    probe = harness.probe_s()
    for i in range(SETUPS):
        t0 = time.perf_counter()
        problem = harness.generate_problem(wl.shape, seed)
        gen_s = time.perf_counter() - t0
        if fstar is None:
            fstar = oracle(problem, log)
        t1 = time.perf_counter()
        result = solve(wl, problem, None, WARMUP_SEED + i)
        seconds = gen_s + time.perf_counter() - t1
        after = harness.probe_s()
        times.append(harness.at_reference_speed(seconds, probe, after))
        raw.append(seconds)
        probe = after
        if not np.all(np.isfinite(result.w)):
            raise RuntimeError("warm-up solve returned a non-finite iterate")
    log(f"unscaled setup_s {harness.median(raw):.4f}s")
    return problem, fstar, times


def run_untraced(wl: SolveWorkload, seed: int, seconds: float, log) -> dict:
    """Every solve's wall and CPU time is scaled to the reference host
    speed by probes taken just before and after it. ``latency_s.p50`` is
    the median over operations of each one's median over cycles;
    ``cpu_s.per_op`` the same for CPU seconds."""
    children = harness.ChildMemory()
    problem, fstar, setup_times = setup(wl, seed, log)
    walls, cpus = [[] for _ in range(wl.ops)], [[] for _ in range(wl.ops)]
    raw_walls, raw_cpus = [], []
    probes, failures, n_cycles = [harness.probe_s()], 0, 0
    for c in cycles(seconds, MIN_CYCLES):
        for s in range(wl.ops):
            cpu0, t0 = harness.cpu_seconds(), time.perf_counter()
            result = solve(wl, problem, fstar, s)
            wall, cpu = time.perf_counter() - t0, harness.cpu_seconds() - cpu0
            probes.append(harness.probe_s())
            walls[s].append(harness.at_reference_speed(wall, *probes[-2:]))
            cpus[s].append(harness.at_reference_speed(cpu, *probes[-2:]))
            raw_walls.append(wall)
            raw_cpus.append(cpu)
            why = check(wl, problem, fstar, result)
            if why:
                failures += 1
                log(f"cycle {c} solve seed {s} failed: {why}")
        n_cycles += 1
    log(f"{n_cycles} cycles of {wl.ops} solves; unscaled p50 per solve {harness.median(raw_walls):.4f}s "
        f"wall, {harness.median(raw_cpus):.4f}s CPU; "
        f"probe p50 {harness.median(probes) * 1e3:.3f}ms (reference {harness.PROBE_REF_S * 1e3:g}ms)")
    per_op = lambda samples: harness.quantile([harness.median(x) for x in samples], 0.5)
    return {
        "attempted": wl.ops * n_cycles,
        "failed": failures,
        "metrics": {
            "setup_s": (harness.median(setup_times), "s"),
            "latency_s.p50": (per_op(walls), "s"),
            "cpu_s.per_op": (per_op(cpus), "s"),
            "peak_rss_mb": (harness.peak_rss_mb(children), "MB"),
        },
    }


# --------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------- #
def _gram_measure(args, kwargs, result) -> dict:
    """Flops (as returned) and bytes computed from the arrays touched."""
    rank_data = args[0]
    d = args[3] if len(args) > 3 else kwargs["d"]
    X = rank_data.X_local
    if len(result) == 3:  # sampled_hessian_contribution → (H, local_idx, flops)
        local_idx, flops, out_words = result[1], result[2], d * d
    else:  # sampled_rhs_contribution → (R, flops)
        local_idx, flops, out_words = (args[1] if len(args) > 1 else kwargs["local_idx"]), result[1], d
    cols = np.asarray(local_idx)
    if isinstance(X, np.ndarray):
        in_bytes = X.shape[0] * cols.size * X.itemsize
    else:
        nnz = int(np.sum(X.indptr[cols + 1] - X.indptr[cols])) if cols.size else 0
        in_bytes = nnz * (X.data.itemsize + X.indices.itemsize) + cols.size * X.indptr.itemsize
    return {"flops": float(flops), "bytes": float(in_bytes + 8 * out_words)}


def _payload_measure(args, kwargs, result) -> dict:
    contribs = args[1] if len(args) > 1 else kwargs["contribs"]
    return {"bytes": float(sum(np.asarray(c).nbytes for c in contribs))}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of each layer the solves pass through."""
    from repro.core import prox_newton, rc_sfista_dist
    from repro.core._dist_common import RankData
    from repro.core.objectives import L1LeastSquares
    from repro.distsim import collectives
    from repro.distsim.bsp import BSPCluster
    from repro.runtime.backend import BSPBackend
    from repro.runtime.driver import ResilientLoop
    from repro.runtime.mpbackend import MultiprocessingBackend
    from repro.sparse.csr import CSCMatrix

    tracer.patch(RankData, "sampled_hessian_contribution", "sparse.gram", _gram_measure)
    tracer.patch(RankData, "sampled_rhs_contribution", "sparse.gram", _gram_measure)
    tracer.patch(CSCMatrix, "matvec", "sparse.spmv")
    tracer.patch(CSCMatrix, "rmatvec", "sparse.spmv")
    tracer.patch(collectives, "allreduce_values", "distsim.allreduce")
    tracer.patch(collectives, "allreduce_charge", "distsim.charge")
    tracer.patch(BSPCluster, "compute", "distsim.charge")
    for cls in (BSPBackend, MultiprocessingBackend):
        tracer.patch(cls, "allreduce", "runtime.allreduce", _payload_measure)
        tracer.patch(cls, "map_ranks", "runtime.map_ranks")
        tracer.patch(cls, "close", "runtime.backend_close")
    tracer.patch(ResilientLoop, "screened", "runtime.screen")
    tracer.patch(L1LeastSquares, "value", "core.monitor")
    for module in (prox_newton, rc_sfista_dist):
        tracer.patch(module, "build_host_backend", "runtime.backend_open")
        tracer.patch(module, "distribute_problem", "core.distribute")
        tracer.patch(module, "hessian_reuse_update", "core.update")


def run_traced(wl: SolveWorkload, seed: int, seconds: float, log) -> dict:
    """Whole cycles in which every solve runs untraced and traced (in
    alternating order); the two must be byte-identical."""
    tracer = Tracer()
    problem = harness.generate_problem(wl.shape, seed, span=tracer.span)
    fstar = oracle(problem, log)
    solve(wl, problem, None, WARMUP_SEED)
    peak_gflops = harness.dgemm_gflops(*wl.gram_shape())

    results, traced_wall, plain_wall, plain_walls = {}, 0.0, 0.0, []
    failures, mismatches = 0, 0
    for c in cycles(seconds, 1):
        for s in range(wl.ops):
            op = c * wl.ops + s  # span id of this solve; the sampling seed is s
            runs = {}
            for traced in ((False, True) if op % 2 == 0 else (True, False)):
                if traced:
                    install(tracer)
                    tracer.op = op
                try:
                    t0 = time.perf_counter()
                    with tracer.span("core.solve") if traced else nullcontext():
                        runs[traced] = solve(wl, problem, fstar, s)
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                    tracer.op = None
                if traced:
                    traced_wall += wall
                else:
                    plain_wall += wall
                    plain_walls.append(wall)
                why = check(wl, problem, fstar, runs[traced])
                if why:
                    failures += 1
                    log(f"{'traced' if traced else 'untraced'} solve seed {s} failed: {why}")
            if fingerprint(runs[True]) != fingerprint(runs[False]):
                mismatches += 1
                log(f"seed {s}: traced solve differs from untraced (w, cost or iterations)")
            results[op] = runs[True]

    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome(harness.OUT_DIR / f"trace-{wl.name}-{seed}.json")
    metrics = layer_metrics(tracer, results, wl.ops, peak_gflops)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "fraction")
    tail, pct, n = harness.tail(plain_walls)
    log(f"latency_s.tail is p{pct:.1f} of n={n} untraced solves")
    metrics["latency_s.tail"] = (tail, "s")
    metrics["error_rate"] = (failures / (2 * len(results)), "fraction")
    log(f"host dgemm {peak_gflops:.2f} GFLOP/s at Gram shape {wl.gram_shape()}")
    return {
        "attempted": 2 * len(results),
        "failed": failures + mismatches,
        "identical": mismatches == 0,
        "metrics": metrics,
    }


def layer_metrics(tracer: Tracer, results: dict, per_cycle: int, peak_gflops: float) -> dict:
    """Per-layer metrics from the spans of the traced solves; exact counts
    are medians over the first cycle's solves."""
    ops = set(results)
    n = len(ops)
    prefix = [results[s] for s in range(per_cycle)]
    prefix_ops = set(range(per_cycle))
    solve_spans = tracer.outermost("core.solve", ops)
    solve_s = sum(sp.duration_s for sp in solve_spans)
    selfs = tracer.self_times()
    gram_s = tracer.total_s("sparse.gram", ops)
    gram_flops = tracer.attr_sum("sparse.gram", "flops", ops)
    gram_bytes = tracer.attr_sum("sparse.gram", "bytes", ops)
    gflops = gram_flops / gram_s / 1e9 if gram_s > 0 else 0.0

    def per_solve(name: str) -> float:
        return tracer.total_s(name, ops) / n

    def exact(get) -> float:
        return harness.median([get(r) for r in prefix])

    def prefix_count(name: str) -> float:
        return harness.median([tracer.count(name, {s}) for s in prefix_ops])

    return {
        "data.gen_s": (tracer.total_s("data.gen"), "s"),
        "sparse.gram.calls": (prefix_count("sparse.gram"), "count"),
        "sparse.gram.s": (per_solve("sparse.gram"), "s"),
        "sparse.gram.share": (gram_s / solve_s, "fraction"),
        "sparse.gram.gflops": (gflops, "GFLOP/s"),
        "sparse.gram.peak_frac": (gflops / peak_gflops, "fraction"),
        "sparse.gram.flops_per_byte": (gram_flops / gram_bytes if gram_bytes else 0.0, "flop/B"),
        "sparse.spmv.calls": (prefix_count("sparse.spmv"), "count"),
        "sparse.spmv.s": (per_solve("sparse.spmv"), "s"),
        "distsim.allreduce.calls": (prefix_count("distsim.allreduce"), "count"),
        "distsim.allreduce.s": (per_solve("distsim.allreduce"), "s"),
        "distsim.charge.s": (per_solve("distsim.charge"), "s"),
        "distsim.words_total": (exact(lambda r: r.cost["words_total"]), "words"),
        "distsim.messages_total": (exact(lambda r: r.cost["messages_total"]), "count"),
        "distsim.flops_total": (exact(lambda r: r.cost["flops_total"]), "flops"),
        "sim_s.p50": (exact(lambda r: r.sim_time), "sim_s"),
        "runtime.allreduce.s": (per_solve("runtime.allreduce"), "s"),
        "runtime.allreduce.bytes": (
            harness.median([tracer.attr_sum("runtime.allreduce", "bytes", {s}) for s in prefix_ops]),
            "B",
        ),
        "runtime.map_ranks.s": (per_solve("runtime.map_ranks"), "s"),
        "runtime.screen.self_s": (
            sum(selfs[sp.id] for sp in tracer.outermost("runtime.screen", ops)) / n, "s"
        ),
        "runtime.backend_open_s": (per_solve("runtime.backend_open"), "s"),
        "runtime.backend_close_s": (per_solve("runtime.backend_close"), "s"),
        "runtime.comm_rounds": (exact(lambda r: r.n_comm_rounds), "count"),
        "core.iters": (exact(lambda r: r.n_iterations), "count"),
        "core.update.s": (per_solve("core.update"), "s"),
        "core.monitor.s": (per_solve("core.monitor"), "s"),
        "core.distribute.s": (per_solve("core.distribute"), "s"),
        "core.unattributed_frac": (
            sum(selfs[sp.id] for sp in solve_spans) / solve_s, "fraction"
        ),
        "host.dgemm_gflops": (peak_gflops, "GFLOP/s"),
    }
