"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload with ``--size tiny`` traced and untraced, and checks
that each prints every metric BENCHMARK.json names exactly once with its
unit, that every recorded span has a non-negative self time and the self
times fit in the traced wall time, that no process the run started
outlives it, that another seed changes the inputs but not the metric
names, and that the benchmark refuses to run (non-zero exit, no result
line) in a directory holding only itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

SECONDS = "1"


class Failed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def session_members(sid: int) -> list[str]:
    """Processes (any state, zombies too) of session *sid*, from ``/proc``."""
    members = []
    for path in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = path.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # state ppid pgrp session ...
            members.append(f"{path.parent.name} state {fields[0]}")
    return members


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    """Run the benchmark in a session of its own; nothing of that session
    may outlive it."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=600)
    left = session_members(proc.pid)
    check(not left, f"{workload} seed {seed} trace {trace}: processes outlived the run: {left}")
    return proc.returncode, out.strip().splitlines()


def result_line(lines: list[str], context: str) -> dict:
    check(bool(lines), f"{context}: printed nothing")

    def no_duplicates(pairs):
        counts = Counter(k for k, _ in pairs)
        dup = [k for k, n in counts.items() if n > 1]
        check(not dup, f"{context}: keys printed twice: {dup}")
        return dict(pairs)

    out = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{context}: keys {sorted(out)}")
    check(out["attempted"] >= 1 and out["failed"] == 0 and out["correct"] is True,
          f"{context}: {out['attempted']} attempted, {out['failed']} failed")
    return out


def check_metrics(out: dict, wanted: dict, context: str) -> None:
    check(list(out["metrics"]) == list(wanted),
          f"{context}: names differ from BENCHMARK.json: "
          f"{sorted(set(out['metrics']) ^ set(wanted))}")
    for name, entry in out["metrics"].items():
        check(set(entry) == {"value", "unit"} and entry["unit"] == wanted[name],
              f"{context}: {name} printed as {entry}")
        check(isinstance(entry["value"], (int, float)), f"{context}: {name} is not a number")


def check_spans(path: Path, context: str) -> None:
    """Self time ≥ 0 for every span; the self times fit in the wall time."""
    events = json.loads(path.read_text())["traceEvents"]
    check(bool(events), f"{context}: no spans recorded")
    child = Counter()
    for e in events:
        child[e["args"]["parent"]] += e["dur"]
    eps = 1e-3  # µs: rounding of ns → µs
    total_self = 0.0
    for e in events:
        own = e["dur"] - child[e["args"]["id"]]
        check(own >= -eps, f"{context}: span {e['name']} has self time {own} µs")
        total_self += own
    wall = max(e["ts"] + e["dur"] for e in events) - min(e["ts"] for e in events)
    check(total_self <= wall + eps * len(events), f"{context}: self {total_self} > wall {wall} µs")


def check_seed_changes_inputs() -> None:
    import numpy as np
    import serve_workload
    import solve_workloads

    for wl in solve_workloads.workloads("tiny").values():
        a = harness.generate_problem(wl.shape, 1)
        b = harness.generate_problem(wl.shape, 2)
        dense = lambda problem: np.asarray(
            problem.X if isinstance(problem.X, np.ndarray) else problem.X.to_dense())
        check(not np.array_equal(dense(a), dense(b)), f"{wl.name}: seeds 1 and 2 generate the same X")
        again = harness.generate_problem(wl.shape, 1)
        check(np.array_equal(dense(a), dense(again)), f"{wl.name}: seed 1 is not reproducible")
    sends = lambda seed: [(job.due, job.problem, job.lam) for job in
                          serve_workload.Load(seed, "tiny").sequence(40, [0.1, 0.1])]
    check(sends(1) != sends(2), "serve-open: seeds 1 and 2 send the same jobs")
    check(sends(1) == sends(1), "serve-open: seed 1 is not reproducible")


def check_refuses_without_program() -> None:
    bare = harness.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, lines = bench("pn-sparse-bsp16", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0, "ran without the program's sources")
    check(not any(line.startswith("{") for line in lines), "printed a result without the program")


def main() -> int:
    harness.import_program()
    declared = run.declared()
    check_seed_changes_inputs()
    check_refuses_without_program()
    for workload in run.WORKLOADS:
        names = {}
        for seed in (1, 2):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                context = f"{workload} seed {seed} trace {trace}"
                code, lines = bench(workload, seed, trace)
                check(code == 0, f"{context}: exit code {code}")
                out = result_line(lines, context)
                check_metrics(out, declared[kind], context)
                names[(seed, trace)] = list(out["metrics"])
                if trace:
                    check_spans(harness.OUT_DIR / f"trace-{workload}-{seed}.json", context)
                print(f"ok  {context}", flush=True)
        check(names[(1, 0)] == names[(2, 0)] and names[(1, 1)] == names[(2, 1)],
              f"{workload}: metric names change with the seed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failed as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
