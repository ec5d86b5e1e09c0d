"""The repository benchmark: one command, three workloads, named metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pn-sparse-bsp16 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched:

* ``setup_s`` — generate the inputs and bring the program to ready (a
  warm-up solve with worker spawn; or the server healthy plus one warm-up
  job per problem), median of five set-ups; the oracle is excluded.
* ``latency_s.p50`` — median wait for one result: a solve call to
  relative objective error 1e-4 (median over the run's operations of each
  one's median over cycles), or a serve job from its scheduled send time
  to the client holding its result (``low`` step).
* ``cpu_s.per_op`` — CPU seconds per operation, this process plus its
  children (mp workers, the server).
* ``peak_rss_mb`` — peak resident memory of this process plus the peak
  sum over its live children (mp workers, the server).

Every workload prints every one of them, so only metrics that mean the
same thing on all three are end-to-end. Tails, the simulated time, the
serve rate steps and the error rate are per-layer metrics.

Set-up, solve and CPU seconds are scaled to a reference host speed: a
fixed calibration task (``harness.probe_s``) is timed just before and
after each measured interval, and the interval is multiplied by the
task's reference time over its measured time. A shared 2-core Intel
Xeon host ran everything up to ~1.6× slower for minutes at a time,
which no run length averages out; the unscaled medians are printed as
``#`` notes. Serve latencies are not scaled (see ``serve_workload.run``).

``--trace 1`` is the separate traced run: it wraps calls into each layer
(see ``spans.py``), checks that traced solves are byte-identical to
untraced ones, and prints the per-layer metrics. Names and units come
from ``BENCHMARK.json``. Layers a workload does not exercise report 0
(the Gram on ``serve-open``, the serve layer on the solve workloads):
that is the "flat on" prediction, measured.

Lines before the last are ``#`` notes (host record, tail percentiles,
oracle time); the last line is the result::

    {"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import harness

WORKLOADS = ("pn-sparse-bsp16", "rc-dense-mp2", "serve-open")


def note(message: str) -> None:
    print(f"# {message}", flush=True)


def declared() -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def finish(measured: dict, wanted: dict, *, exercised: set[str] | None = None) -> dict:
    """Check names and units against BENCHMARK.json; zero-fill layers the
    workload does not exercise (only names outside *exercised*)."""
    metrics = {}
    for name, unit in wanted.items():
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                raise RuntimeError(f"{name}: measured in {got_unit}, declared {unit}")
        elif exercised is not None and name not in exercised:
            value = 0.0
        else:
            raise RuntimeError(f"workload produced no value for {name}")
        metrics[name] = {"value": float(value), "unit": unit}
    extra = set(measured) - set(wanted)
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import serve_workload
    import solve_workloads
    from spans import Tracer, calibrate_overhead_s

    wanted = declared()["per_layer" if trace else "end_to_end"]
    if workload in solve_workloads.workloads(size):
        wl = solve_workloads.workloads(size)[workload]
        if not trace:
            out = solve_workloads.run_untraced(wl, seed, seconds, note)
            return {**out, "correct": out["failed"] == 0, "metrics": finish(out["metrics"], wanted)}
        out = solve_workloads.run_traced(wl, seed, seconds, note)
        exercised = {name for name in wanted if not name.startswith(("serve.", "gen."))}
        metrics = finish(out["metrics"], wanted, exercised=exercised)
        return {**out, "correct": out["failed"] == 0 and out["identical"], "metrics": metrics}

    tracer = Tracer() if trace else None
    out = serve_workload.run(seed, seconds, note, tracer=tracer, size=size)
    result = {"attempted": out["attempted"], "failed": out["failed"], "correct": out["failed"] == 0}
    if not trace:
        return {**result, "metrics": finish(out["e2e"], wanted)}
    layers = dict(out["layers"])
    # The server is untraced; the only spans are the generator's own HTTP
    # calls, so the overhead is their count times the measured cost of one.
    overhead_s = calibrate_overhead_s() * len(tracer.spans)
    layers["trace.overhead_frac"] = (overhead_s / out["measure_s"], "fraction")
    layers["data.gen_s"] = (tracer.total_s("data.gen"), "s")
    layers["error_rate"] = (out["failed"] / out["attempted"], "fraction")
    # No Gram runs here; the roofline at the pn Gram shape is the host record.
    layers["host.dgemm_gflops"] = (harness.dgemm_gflops(196, 25), "GFLOP/s")
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome(harness.OUT_DIR / f"trace-{workload}-{seed}.json")
    exercised = {name for name in wanted if name.startswith(("serve.", "gen."))}
    exercised |= {"latency_s.tail", "trace.overhead_frac", "data.gen_s", "error_rate",
                  "host.dgemm_gflops"}
    return {**result, "metrics": finish(layers, wanted, exercised=exercised)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload's problems (selftest.py)")
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before numpy loads (the repository's
    # performance CI does the same): on a 2-core host, spinning BLAS threads
    # in the solver and its worker processes fight for the cores and make
    # timings swing from run to run. The server and mp workers inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the serve workload stops its server with SIGINT (the
    # server's clean shutdown path), so the default handler is restored
    # here, and with it the server's.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        harness.import_program()
    except harness.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    note("env " + json.dumps(harness.environment(), sort_keys=True))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except harness.OracleFailed as exc:  # no F*, so no result can be checked
        note(f"oracle failed: {exc}")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        # The workloads close their own workers and server; this is the
        # one helper process they leave to interpreter exit.
        harness.stop_resource_tracker()
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
