"""Top-level solve CLI: ``python -m repro``.

One-command access to the solvers on registry datasets or LIBSVM files::

    python -m repro solve --dataset covtype --solver rc_sfista --k 4 --S 2 --b 0.01
    python -m repro solve --libsvm data.svm --solver fista --tol 1e-4
    python -m repro solve --dataset mnist --solver rc_sfista_dist --nranks 64
    python -m repro datasets
    python -m repro machines
    python -m repro trace-report run_report.json
    python -m repro serve --port 8765
    python -m repro submit --url http://127.0.0.1:8765 --dataset abalone --wait

Results print as a summary table; ``--output result.json`` persists the
full :class:`SolveResult` for post-processing. For distributed solves,
``--report run.json`` writes a machine-readable
:class:`~repro.obs.telemetry.RunReport` and ``--trace-export trace.json``
a Chrome trace-event (Perfetto) timeline; ``trace-report`` renders either
a run report or the benchmark smoke bundle as per-phase breakdowns and
comm-vs-compute fractions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np

from repro.core.fista import fista, ista
from repro.core.cd import coordinate_descent_lasso
from repro.core.model import LOSSES, ERMObjective, canonical_penalty_spec
from repro.core.objectives import build_objective
from repro.core.path import lambda_max
from repro.core.proxcocoa import proxcocoa
from repro.core.rc_sfista import rc_sfista
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.rc_sfista_spmd import rc_sfista_spmd
from repro.core.reference import solve_reference
from repro.core.sfista import sfista
from repro.core.sfista_dist import sfista_distributed
from repro.core.stopping import StoppingCriterion
from repro.data.datasets import DATASETS, get_dataset
from repro.distsim.faults import CORRUPTION_MODES, FaultPlan, RankCrash, RetryPolicy
from repro.distsim.machine import MACHINES
from repro.distsim.collectives import COMM_TOPOLOGIES
from repro.distsim.sparse_collectives import COMM_MODES
from repro.exceptions import FormatError, ValidationError
from repro.obs import (
    MetricsRegistry,
    RunReport,
    TelemetryRecorder,
    breakdown_tables,
    fraction_lines,
    write_chrome_trace,
)
from repro.perf.report import format_table
from repro.runtime import (
    BACKENDS,
    FAILURE_POLICIES,
    ON_NAN_POLICIES,
    RuntimeConfig,
    parse_backend_spec,
)
from repro.sparse.io import load_libsvm
from repro.utils.serialization import save_result

__all__ = ["main"]

SERIAL_SOLVERS = ("fista", "ista", "cd", "sfista", "rc_sfista")
DIST_SOLVERS = ("sfista_dist", "rc_sfista_dist", "rc_sfista_spmd", "proxcocoa")
#: Solvers that accept a :class:`repro.runtime.RuntimeConfig` — and with it
#: the fault/resilience/telemetry flags below.
RUNTIME_SOLVERS = ("sfista_dist", "rc_sfista_dist", "rc_sfista_spmd")


def _load_problem(args: argparse.Namespace) -> ERMObjective:
    try:
        penalty = canonical_penalty_spec(args.penalty)
    except Exception as exc:
        raise SystemExit(f"--penalty: {exc}")
    if args.libsvm:
        X, y = load_libsvm(args.libsvm)
        lam = args.lam
        if lam is None:
            lam = 0.1 * lambda_max(build_objective(X, y, 1.0))
    else:
        base = get_dataset(args.dataset, size=args.size).problem(lam=args.lam)
        X, y, lam = base.X, base.y, base.lam
    return build_objective(X, y, lam, loss=args.loss, penalty=penalty)


def _build_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """Fault plan from the CLI knobs (None when everything is off)."""
    crashes: tuple[RankCrash, ...] = ()
    if args.crash_rank is not None:
        if (args.crash_at_time is None) == (args.crash_at_op is None):
            raise SystemExit(
                "--crash-rank needs exactly one of --crash-at-time / --crash-at-op"
            )
        crashes = (
            RankCrash(
                rank=args.crash_rank,
                at_time=args.crash_at_time,
                at_op=args.crash_at_op,
            ),
        )
    elif args.crash_at_time is not None or args.crash_at_op is not None:
        raise SystemExit("--crash-at-time/--crash-at-op need --crash-rank")
    plan = FaultPlan(
        seed=args.faults_seed,
        collective_drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        corrupt_mode=args.corrupt_mode,
        stall_rate=args.stall_rate,
        crashes=crashes,
    )
    return None if plan.empty else plan


def _build_runtime(
    args: argparse.Namespace,
    recorder: TelemetryRecorder | None,
    registry: MetricsRegistry | None,
) -> RuntimeConfig:
    """One RuntimeConfig from the CLI's machine/comm/fault/resilience knobs."""
    plan = _build_fault_plan(args)
    try:
        return RuntimeConfig(
            backend=args.backend,
            machine=args.machine,
            comm=args.comm,
            comm_topology=args.comm_topology,
            comm_compress=args.comm_compress,
            faults=plan,
            retry=RetryPolicy() if plan is not None and plan.collective_drop_rate > 0 else None,
            recv_timeout=args.recv_timeout,
            mp_timeout=args.mp_timeout,
            mp_failure_policy=args.mp_failure_policy,
            checkpoint_every=args.checkpoint_every,
            on_nan=args.on_nan,
            max_recoveries=args.max_recoveries,
            telemetry=recorder,
            metrics=registry,
        )
    except ValidationError as exc:
        # Bad knob combinations (e.g. --comm-topology hier on a flat
        # machine, malformed --comm-compress specs) are CLI usage errors,
        # not tracebacks.
        raise SystemExit(f"invalid runtime configuration: {exc}")


def _solve(args: argparse.Namespace) -> int:
    # "--backend mp:8" is shorthand for "--backend mp --nranks 8".
    args.backend, backend_ranks = parse_backend_spec(args.backend)
    if backend_ranks is not None:
        args.nranks = backend_ranks
    problem = _load_problem(args)
    wants_obs = bool(args.report or args.trace_export)
    if wants_obs and args.solver not in RUNTIME_SOLVERS:
        raise SystemExit(
            "--report/--trace-export need a telemetry-capable solver "
            f"(--solver {' | '.join(RUNTIME_SOLVERS)})"
        )
    recorder = TelemetryRecorder() if wants_obs else None
    registry = MetricsRegistry() if wants_obs else None
    stopping = None
    if args.tol is not None:
        fstar = solve_reference(problem, tol=min(args.tol * 1e-3, 1e-8)).meta["fstar"]
        stopping = StoppingCriterion(tol=args.tol, fstar=fstar)

    common: dict[str, Any] = dict(stopping=stopping)
    budget = dict(epochs=args.epochs, iters_per_epoch=args.iters_per_epoch)
    name = args.solver
    if name == "fista":
        result = fista(problem, max_iter=args.epochs * args.iters_per_epoch, **common)
    elif name == "ista":
        result = ista(problem, max_iter=args.epochs * args.iters_per_epoch, **common)
    elif name == "cd":
        result = coordinate_descent_lasso(problem, max_epochs=args.epochs, **common)
    elif name == "sfista":
        result = sfista(problem, b=args.b, seed=args.seed, **budget, **common)
    elif name == "rc_sfista":
        result = rc_sfista(
            problem, k=args.k, S=args.S, b=args.b, seed=args.seed, **budget, **common
        )
    elif name == "sfista_dist":
        result = sfista_distributed(
            problem, args.nranks, b=args.b, seed=args.seed,
            runtime=_build_runtime(args, recorder, registry),
            **budget, **common,
        )
    elif name == "rc_sfista_dist":
        result = rc_sfista_distributed(
            problem, args.nranks, k=args.k, S=args.S, b=args.b, seed=args.seed,
            runtime=_build_runtime(args, recorder, registry),
            **budget, **common,
        )
    elif name == "rc_sfista_spmd":
        # Fixed-budget rank-program solver: no StoppingCriterion support.
        result = rc_sfista_spmd(
            problem, args.nranks, k=args.k, b=args.b, seed=args.seed,
            n_iterations=args.epochs * args.iters_per_epoch,
            runtime=_build_runtime(args, recorder, registry),
        )
    elif name == "proxcocoa":
        result = proxcocoa(
            problem, args.nranks, machine=args.machine,
            n_rounds=args.epochs * args.iters_per_epoch,
            local_epochs=2, seed=args.seed, **common,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown solver {name}")

    rows = [
        ["solver", name],
        ["d × m", f"{problem.d} × {problem.m}"],
        ["objective", f"{problem.loss.name} + {problem.penalty.spec}"],
        ["lambda", f"{problem.lam:.5g}"],
        ["iterations", result.n_iterations],
        ["comm rounds", result.n_comm_rounds],
        ["converged", result.converged],
        ["final F", f"{result.final_objective:.8g}" if len(result.history) else "n/a"],
        ["nnz(w)", int(np.sum(result.w != 0))],
    ]
    if result.cost is not None:
        rows.append(["sim time", f"{result.sim_time:.5g}s"])
        rows.append(["words/rank", f"{result.cost['words_per_rank_max']:.5g}"])
        if result.cost.get("saved_words_total", 0.0) > 0:
            rows.append(["words saved (sparse)", f"{result.cost['saved_words_total']:.5g}"])
        if result.cost.get("checkpoint_words_total", 0.0) > 0:
            rows.append(["checkpoint words", f"{result.cost['checkpoint_words_total']:.5g}"])
        if result.cost.get("retry_words_total", 0.0) > 0:
            rows.append(["retry/recovery words", f"{result.cost['retry_words_total']:.5g}"])
    resilience = result.meta.get("resilience")
    if resilience and (resilience["rollbacks"] or resilience["rank_failures_recovered"]):
        rows.append(["rollbacks", resilience["rollbacks"]])
        rows.append(["ranks healed", str(resilience["healed_ranks"])])
        if resilience.get("respawns"):
            rows.append(["worker respawns", resilience["respawns"]])
        if resilience.get("shrinks"):
            rows.append(["pool shrinks", f"{resilience['shrinks']} "
                         f"(final P = {resilience['final_nranks']})"])
    print(format_table(["field", "value"], rows))
    if args.output:
        save_result(args.output, result)
        print(f"\nresult written to {args.output}")
    if recorder is not None:
        if args.report:
            report = recorder.report(metrics=registry.snapshot())
            report.save(args.report)
            print(f"run report written to {args.report}")
        if args.trace_export:
            if recorder.trace is None:
                raise SystemExit("solver produced no trace to export")
            write_chrome_trace(recorder.trace, args.trace_export)
            print(f"Perfetto trace written to {args.trace_export}")
    return 0


def _list_datasets() -> int:
    rows = [
        [name, spec.scaled_d, spec.scaled_m, f"{spec.density:.2%}", spec.note]
        for name, spec in DATASETS.items()
    ]
    print(format_table(["dataset", "d", "m", "fill", "note"], rows))
    return 0


def _render_run_report(report: RunReport, *, heading: str | None = None) -> None:
    title = heading or report.solver
    print(f"=== {title} ===")
    if report.params:
        interesting = {
            k: v
            for k, v in sorted(report.params.items())
            if k in ("nranks", "k", "S", "b", "comm", "machine", "estimator", "inner")
        }
        if interesting:
            print("  " + "  ".join(f"{k}={v}" for k, v in interesting.items()))
    n_records = len(report.iterations)
    decisions = sorted(
        {r.get("comm_decision") for r in report.iterations} - {None}
    )
    line = f"  iterations recorded: {n_records}"
    if decisions:
        line += f"  (comm decisions seen: {', '.join(decisions)})"
    print(line + "\n")
    by_kind = report.phases.get("by_kind", [])
    by_label = report.phases.get("by_label", [])
    if by_kind or by_label:
        print(breakdown_tables(by_kind, by_label))
        print()
    if report.fractions:
        for fl in fraction_lines(report.fractions):
            print(fl)


def _trace_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    try:
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"no such file: {args.report}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{args.report} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"{args.report} does not contain a JSON object")

    try:
        if isinstance(payload.get("runs"), dict):
            # Benchmark smoke bundle: one run report per comm mode.
            for i, (name, run) in enumerate(sorted(payload["runs"].items())):
                if i:
                    print()
                report = RunReport.from_dict(run)
                _render_run_report(report, heading=f"{report.solver} [{name}]")
        else:
            _render_run_report(RunReport.from_dict(payload))
    except FormatError as exc:
        raise SystemExit(f"{args.report}: {exc}")
    return 0


def _parse_tenant_weights(specs: list[str] | None) -> dict[str, int]:
    weights: dict[str, int] = {}
    for spec in specs or []:
        tenant, sep, value = spec.partition("=")
        try:
            weight = int(value) if sep else 0
        except ValueError:
            weight = 0
        if not tenant or weight < 1:
            raise SystemExit(
                f"--tenant-weight expects TENANT=POSITIVE_INT, got {spec!r}"
            )
        weights[tenant] = weight
    return weights


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp

    app = ServeApp(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        tenant_weights=_parse_tenant_weights(args.tenant_weight),
        max_workers=args.max_workers,
        batch_max=args.batch_max,
        cache_problems=args.cache_problems,
    )

    async def run() -> None:
        host, port = await app.start()
        print(f"repro.serve listening on http://{host}:{port} "
              f"(workers={args.max_workers}, queue limit={args.queue_limit})")
        try:
            await app.serve_forever()
        finally:
            await app.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeHTTPError

    if args.synthetic:
        try:
            d, m, seed = (int(v) for v in args.synthetic.split(","))
        except ValueError:
            raise SystemExit("--synthetic expects D,M,SEED (e.g. 200,1000,0)")
        problem: dict[str, Any] = {"synthetic": {"d": d, "m": m, "seed": seed}}
    else:
        problem = {"dataset": args.dataset, "size": args.size}
    problem["loss"] = args.loss
    problem["penalty"] = args.penalty
    request: dict[str, Any] = {
        "problem": problem,
        "tenant": args.tenant,
        "solver": args.solver,
        "lam": args.lam,
        "max_iter": args.max_iter,
        "warm_start": not args.no_warm_start,
        "include_report": args.include_report,
    }
    if args.solver in ("sfista_dist", "rc_sfista_dist", "rc_sfista_spmd"):
        request["runtime"] = {"nranks": args.nranks, "backend": args.backend}
        if args.comm_topology != "flat":
            request["runtime"]["comm_topology"] = args.comm_topology
        if args.comm_compress != "none":
            request["runtime"]["comm_compress"] = args.comm_compress
    client = ServeClient(args.url, timeout=args.timeout)
    try:
        job_id = client.submit(request)
        print(f"submitted {job_id}")
        if args.no_wait:
            return 0
        payload = client.result(job_id, timeout=args.timeout)
    except ServeHTTPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.retryable and exc.retry_after is not None:
            print(f"retry after {exc.retry_after:g}s", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    result = payload["result"]
    rows = [[k, result[k]] for k in
            ("lam", "warm_start", "converged", "n_iterations", "nnz")
            if k in result]
    if "final_objective" in result:
        rows.append(["final F", f"{result['final_objective']:.8g}"])
    rows.append(["queue s", f"{payload.get('queue_seconds', 0.0):.4g}"])
    rows.append(["solve s", f"{payload.get('solve_seconds', 0.0):.4g}"])
    print(format_table(["field", "value"], rows))
    return 0


def _list_machines() -> int:
    rows = [
        [name, f"{m.alpha:.3g}", f"{m.beta:.3g}", f"{m.gamma:.3g}", m.description]
        for name, m in MACHINES.items()
    ]
    print(format_table(["machine", "alpha (s)", "beta (s/word)", "gamma (s/flop)", "notes"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="RC-SFISTA reproduction toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an l1-least-squares problem")
    src = solve.add_mutually_exclusive_group()
    src.add_argument("--dataset", choices=sorted(DATASETS), default="covtype")
    src.add_argument("--libsvm", help="path to a LIBSVM-format file")
    solve.add_argument("--size", choices=("scaled", "tiny"), default="scaled")
    solve.add_argument("--solver", choices=SERIAL_SOLVERS + DIST_SOLVERS, default="rc_sfista")
    solve.add_argument("--lam", type=float, default=None, help="override λ")
    solve.add_argument("--loss", choices=LOSSES, default="squared",
                       help="smooth loss ℓ(xᵀw, y); classification losses "
                       "binarize the targets by sign")
    solve.add_argument("--penalty", default="l1", metavar="SPEC",
                       help="penalty spec: l1 | elastic_net[:l2=R] | "
                       "group_l1[:size=N]")
    solve.add_argument("--k", type=int, default=1, help="iteration-overlap factor")
    solve.add_argument("--S", type=int, default=1, help="Hessian-reuse steps")
    solve.add_argument("--b", type=float, default=0.01, help="sampling rate")
    solve.add_argument("--epochs", type=int, default=20)
    solve.add_argument("--iters-per-epoch", type=int, default=100)
    solve.add_argument("--tol", type=float, default=None,
                       help="relative objective tolerance (computes a reference)")
    solve.add_argument("--nranks", type=int, default=16, help="simulated ranks")
    solve.add_argument("--backend", default="bsp", metavar="NAME[:P]",
                       help="execution substrate for the runtime solvers: "
                       f"{'|'.join(BACKENDS)}, optionally with a rank count "
                       "suffix overriding --nranks (e.g. mp:4)")
    solve.add_argument("--machine", choices=sorted(MACHINES), default="comet_effective")
    solve.add_argument("--comm", choices=COMM_MODES, default="dense",
                       help="allreduce payload encoding for distributed solvers")
    solve.add_argument("--comm-topology", choices=COMM_TOPOLOGIES, default="flat",
                       help="collective schedule: flat tournament or hier "
                       "(two-level node-local + inter-node; needs a "
                       "hierarchical machine, e.g. comet_4ppn or fat_tree)")
    solve.add_argument("--comm-compress", default="none", metavar="SPEC",
                       help="lossy collective compression: none | "
                       "topk:frac=F | quant:bits=B (docs/COLLECTIVES.md)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--output", help="write the SolveResult as JSON")
    solve.add_argument("--report", help="write a machine-readable run report "
                       "(JSON; telemetry-capable solvers only)")
    solve.add_argument("--trace-export", help="write the simulated timeline as "
                       "Chrome trace-event JSON (open in Perfetto)")
    # resilient runtime (sfista_dist / rc_sfista_dist / rc_sfista_spmd) --- #
    solve.add_argument("--checkpoint-every", type=int, default=0,
                       help="checkpoint every N stage-C rounds (0 disables)")
    solve.add_argument("--on-nan", choices=ON_NAN_POLICIES, default=None,
                       help="NaN/Inf screening policy (off by default)")
    solve.add_argument("--recv-timeout", type=float, default=None,
                       help="collective arrival-skew deadline in simulated seconds")
    solve.add_argument("--max-recoveries", type=int, default=3,
                       help="rollbacks tolerated before the failure propagates")
    # fault injection (simulated, deterministic) ------------------------- #
    solve.add_argument("--faults-seed", type=int, default=0,
                       help="seed for the deterministic fault plan")
    solve.add_argument("--drop-rate", type=float, default=0.0,
                       help="per-collective message-loss probability")
    solve.add_argument("--corrupt-rate", type=float, default=0.0,
                       help="per-contribution payload-corruption probability")
    solve.add_argument("--corrupt-mode", choices=CORRUPTION_MODES, default="nan")
    solve.add_argument("--stall-rate", type=float, default=0.0,
                       help="per-rank per-collective transient-stall probability")
    solve.add_argument("--crash-rank", type=int, default=None,
                       help="rank to crash permanently (needs --crash-at-time)")
    solve.add_argument("--crash-at-time", type=float, default=None,
                       help="simulated clock at which --crash-rank dies")
    solve.add_argument("--crash-at-op", type=int, default=None,
                       help="collective index at which --crash-rank dies "
                       "(on the mp backend: a real SIGKILL)")
    # real-process resilience (mp backend, docs/RESILIENCE.md) ----------- #
    solve.add_argument("--mp-failure-policy", choices=FAILURE_POLICIES,
                       default="fail_fast",
                       help="mp backend reaction to a dead/hung worker: "
                       "fail fast, respawn the rank, or shrink the pool")
    solve.add_argument("--mp-timeout", type=float, default=120.0,
                       help="mp backend per-collective worker ack deadline "
                       "(seconds of real time)")

    sub.add_parser("datasets", help="list the Table 2 dataset registry")
    sub.add_parser("machines", help="list the machine-model presets")

    serve = sub.add_parser(
        "serve",
        help="run the async solve service (submit/status/result/cancel "
        "over JSON-HTTP; docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--queue-limit", type=int, default=256,
                       help="bounded queue size; beyond it submissions get 429")
    serve.add_argument("--max-workers", type=int, default=1,
                       help="concurrent solver batches")
    serve.add_argument("--batch-max", type=int, default=8,
                       help="max same-shape jobs folded into one multi-start run")
    serve.add_argument("--cache-problems", type=int, default=16,
                       help="LRU capacity of the cross-request problem cache")
    serve.add_argument("--tenant-weight", action="append", metavar="TENANT=W",
                       help="round-robin weight for a tenant (repeatable; "
                       "unlisted tenants get weight 1)")

    submit = sub.add_parser(
        "submit", help="submit a solve job to a running `repro serve` instance"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8765")
    submit.add_argument("--tenant", default="default")
    src2 = submit.add_mutually_exclusive_group()
    src2.add_argument("--dataset", choices=sorted(DATASETS), default="abalone")
    src2.add_argument("--synthetic", metavar="D,M,SEED",
                      help="synthetic problem spec instead of a registry dataset")
    submit.add_argument("--size", choices=("scaled", "tiny"), default="tiny")
    submit.add_argument("--lam", type=float, default=None, help="override λ")
    submit.add_argument("--loss", choices=LOSSES, default="squared",
                        help="smooth loss for the served problem")
    submit.add_argument("--penalty", default="l1", metavar="SPEC",
                        help="penalty spec: l1 | elastic_net[:l2=R] | "
                        "group_l1[:size=N]")
    submit.add_argument("--solver", choices=("fista", "ista", "sfista_dist",
                                             "rc_sfista_dist", "rc_sfista_spmd"),
                        default="fista")
    submit.add_argument("--max-iter", type=int, default=500)
    submit.add_argument("--nranks", type=int, default=4,
                        help="ranks for the distributed solvers")
    submit.add_argument("--backend", default="bsp",
                        help=f"runtime backend for distributed solvers: {'|'.join(BACKENDS)}")
    submit.add_argument("--comm-topology", choices=COMM_TOPOLOGIES, default="flat",
                        help="collective schedule for distributed solvers")
    submit.add_argument("--comm-compress", default="none", metavar="SPEC",
                        help="lossy collective compression: none | "
                        "topk:frac=F | quant:bits=B (docs/COLLECTIVES.md)")
    submit.add_argument("--no-warm-start", action="store_true",
                        help="force a cold start even on a cache hit")
    submit.add_argument("--include-report", action="store_true",
                        help="attach the per-request RunReport to the result")
    submit.add_argument("--no-wait", action="store_true",
                        help="return immediately after submission instead of "
                             "polling for the result")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="client-side wait deadline in seconds")

    trace_report = sub.add_parser(
        "trace-report",
        help="render a run report (or benchmark smoke bundle) as per-phase "
        "breakdowns and comm-vs-compute fractions",
    )
    trace_report.add_argument("report", help="run-report JSON (solve --report / "
                              "benchmarks/output/smoke_run.json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        try:
            return _solve(args)
        except ValidationError as exc:
            # Solver-side argument checks (k < 1, a backend the solver
            # cannot run on) are usage errors too, not tracebacks.
            raise SystemExit(f"invalid solve configuration: {exc}")
    if args.command == "datasets":
        return _list_datasets()
    if args.command == "machines":
        return _list_machines()
    if args.command == "trace-report":
        return _trace_report(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
