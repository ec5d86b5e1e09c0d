"""Ablation A12 — recovery-policy overhead of the elastic mp backend.

The self-healing worker pool (docs/RESILIENCE.md) gives three answers to
a SIGKILLed rank mid-solve: ``fail_fast`` (die, hand back the checkpoint),
``respawn`` (replace the rank, replay to the bit-identical solution) and
``shrink`` (drop to P′, repartition, converge on the survivors). This
ablation measures what each policy costs against the unfaulted run at
P ∈ {4, 8}, on both axes the backend keeps honest simultaneously:

* **host wall-clock** — real seconds, including worker respawn/renumber
  and checkpoint-replay time;
* **charged α-β-γ cost** — the simulated makespan plus the
  ``checkpoint_words`` / ``retry_words`` robustness traffic in the ledger.

The respawn row re-asserts the headline guarantee (bit-identical to the
unfaulted solution); the shrink row asserts tolerance-level agreement and
that its recovery rounds were charged. The wall-clock columns vary from
run to run, so they go to stdout only; the committed
``benchmarks/output/ablation_recovery.{txt,json}`` hold the simulated
columns (sim time, checkpoint/retry words, outcome) and regenerate
byte-identically (``REPRO_BENCH_JSON=0`` disables the JSON).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks._common import QUICK, emit, emit_json, run_once
from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.faults import FaultPlan, RankCrash
from repro.exceptions import ConvergenceError
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

RANK_COUNTS = (4, 8)
ITERS = 16 if QUICK else 64
CRASH_AT_OP = 5
SOLVER_KW = dict(k=2, S=1, b=0.2, epochs=1, iters_per_epoch=ITERS,
                 estimator="plain", seed=0, monitor_every=8)


def _problem() -> L1LeastSquares:
    X, y, _w = make_regression(16, 300, density=1.0, noise=0.05, rng=5)
    lam = 0.05 * float(np.max(np.abs(X @ y))) / 300
    return L1LeastSquares(X, y, lam)


def _run(problem, nranks, policy, faults):
    runtime = RuntimeConfig(
        backend="mp", mp_timeout=30.0, mp_failure_policy=policy,
        faults=faults, checkpoint_every=2,
    )
    start = time.perf_counter()
    try:
        result = rc_sfista_distributed(problem, nranks, runtime=runtime, **SOLVER_KW)
        failed = False
    except ConvergenceError as err:
        result, failed = err.partial, True
    wall = time.perf_counter() - start
    return result, wall, failed


def _compute():
    problem = _problem()
    runs = {}
    for nranks in RANK_COUNTS:
        # The victim: one mid-pool rank SIGKILLed at a fixed collective.
        crash = FaultPlan(crashes=(RankCrash(rank=nranks // 2, at_op=CRASH_AT_OP),))
        base, base_wall, _ = _run(problem, nranks, "fail_fast", None)
        runs[nranks] = {"baseline": (base, base_wall, False)}
        for policy in ("fail_fast", "respawn", "shrink"):
            runs[nranks][policy] = _run(problem, nranks, policy, crash)
    return runs


def test_ablation_recovery(benchmark):
    runs = run_once(benchmark, _compute)
    walls, table, payload = [], [], {}
    for nranks, by_policy in runs.items():
        base_wall = by_policy["baseline"][1]
        for policy in ("baseline", "fail_fast", "respawn", "shrink"):
            result, wall, failed = by_policy[policy]
            if failed:  # fail_fast: only the salvaged checkpoint remains
                sim = result["sim_time"]
                ckpt_words = retry_words = None
                outcome = "died"
            else:
                sim = result.sim_time
                ckpt_words = result.cost["checkpoint_words_total"]
                retry_words = result.cost["retry_words_total"]
                recovered = result.meta["resilience"]["rank_failures_recovered"]
                outcome = "ok" if recovered == 0 else f"healed {recovered}"
            walls.append([f"P={nranks}", policy, f"{wall:.3f}s",
                          f"{wall / base_wall - 1.0:+.1%}"])
            table.append([
                f"P={nranks}",
                policy,
                f"{sim:.4g}",
                "n/a" if failed else f"{ckpt_words:.0f}",
                "n/a" if failed else f"{retry_words:.0f}",
                outcome,
            ])
            payload[f"p{nranks}_{policy}"] = {
                "sim_time": sim,
                "checkpoint_words": ckpt_words,
                "retry_words": retry_words,
                "outcome": outcome,
            }
    title = f"A12 — recovery-policy overhead (N={ITERS}, crash at op {CRASH_AT_OP})"
    print(format_table(["pool", "policy", "wall", "vs base"], walls,
                       title=f"{title}, host wall-clock"))
    emit(
        "ablation_recovery",
        format_table(
            ["pool", "policy", "sim time", "ckpt words", "retry words", "outcome"],
            table,
            title=title,
        ),
    )
    emit_json("ablation_recovery", payload)

    for nranks, by_policy in runs.items():
        base = by_policy["baseline"][0]
        respawn, _, _ = by_policy["respawn"]
        shrink, _, _ = by_policy["shrink"]
        _, _, ff_failed = by_policy["fail_fast"]
        # respawn replays to the bit-identical unfaulted solution
        assert np.array_equal(respawn.w, base.w), nranks
        assert respawn.meta["resilience"]["respawns"] == 1
        # shrink converges on P-1 survivors within numerical tolerance,
        # and its recovery rounds (restore + repartition) were charged
        assert np.allclose(shrink.w, base.w, atol=1e-8), nranks
        assert shrink.meta["resilience"]["final_nranks"] == nranks - 1
        assert shrink.cost["retry_words_total"] > 0
        # fail_fast really failed (its salvage path is pinned in TestFailFast)
        assert ff_failed
