"""Golden-trace regression tests for the simulator's cost accounting.

Every benchmark in this repo reads message/word/flop counters off the
simulator; a silent change to the charging rules would corrupt all of them
at once. These tests pin the exact per-phase counts of a fixed-seed
RC-SFISTA solve at small P against a checked-in JSON fixture
(``tests/golden/``), in both dense and sparse communication modes.

Regenerate after an *intentional* accounting change with::

    pytest tests/test_distsim/test_golden_trace.py --update-golden

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.bsp import BSPCluster
from repro.distsim.trace import Trace
from repro.runtime import RuntimeConfig

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
FIXTURE = GOLDEN_DIR / "rc_sfista_p4_trace.json"
PN_FIXTURE = GOLDEN_DIR / "prox_newton_p4_trace.json"
SFISTA_FIXTURE = GOLDEN_DIR / "sfista_p4_trace.json"
NRANKS = 4


def _problem() -> L1LeastSquares:
    # Low column fill so the sampled-Hessian payload stays below the
    # stream-and-switch threshold: the sparse mode must actually save words
    # in the fixture, pinning the O(nnz_union) accounting.
    X, y, _w = make_regression(24, 80, density=0.08, noise=0.05, rng=11)
    grad0 = X.matvec(y) / 80 if hasattr(X, "matvec") else X @ y / 80
    lam = 0.05 * float(np.max(np.abs(grad0)))
    return L1LeastSquares(X, y, lam)


def _run(comm: str) -> dict:
    """One fixed-seed solve; returns the full cost/trace accounting."""
    cluster = BSPCluster(NRANKS, "comet_paper", trace=Trace())
    res = rc_sfista_distributed(
        _problem(),
        NRANKS,
        k=2,
        S=2,
        b=0.1,
        epochs=1,
        iters_per_epoch=8,
        estimator="plain",
        seed=0,
        monitor_every=4,
        runtime=RuntimeConfig(comm=comm, cluster=cluster),
    )
    per_phase: dict[str, dict[str, float]] = {}
    for e in cluster.trace.events:
        rec = per_phase.setdefault(
            e.label, {"events": 0, "flops": 0.0, "words": 0.0, "messages": 0.0}
        )
        rec["events"] += 1
        rec["flops"] += e.flops
        rec["words"] += e.words
        rec["messages"] += e.messages
    return {
        "per_phase": per_phase,
        "cost_summary": res.cost,
        "n_comm_rounds": res.n_comm_rounds,
        "n_iterations": res.n_iterations,
        "trace_details": [e.detail for e in cluster.trace.events if e.detail],
    }


def _canonical(obj: dict) -> dict:
    """JSON round-trip so in-memory and on-disk values compare exactly."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _harvest(cluster: BSPCluster, res) -> dict:
    """Per-phase accounting of a traced run (same shape as :func:`_run`)."""
    per_phase: dict[str, dict[str, float]] = {}
    for e in cluster.trace.events:
        rec = per_phase.setdefault(
            e.label, {"events": 0, "flops": 0.0, "words": 0.0, "messages": 0.0}
        )
        rec["events"] += 1
        rec["flops"] += e.flops
        rec["words"] += e.words
        rec["messages"] += e.messages
    return {
        "per_phase": per_phase,
        "cost_summary": res.cost,
        "n_comm_rounds": res.n_comm_rounds,
        "n_iterations": res.n_iterations,
        "trace_details": [e.detail for e in cluster.trace.events if e.detail],
    }


def _run_prox_newton(comm: str) -> dict:
    """Fixed-seed distributed PN solve pinning the outer/inner schedule."""
    from repro.core.prox_newton import proximal_newton_distributed

    cluster = BSPCluster(NRANKS, "comet_paper", trace=Trace())
    res = proximal_newton_distributed(
        _problem(),
        NRANKS,
        inner="rc_sfista",
        n_outer=2,
        inner_iters=4,
        k=2,
        S=2,
        b=0.1,
        seed=0,
        runtime=RuntimeConfig(comm=comm, cluster=cluster),
    )
    return _harvest(cluster, res)


def _run_sfista(comm_mode: str) -> dict:
    """Fixed-seed distributed SFISTA (RC-SFISTA at k = S = 1) solve pinning
    both comm_mode paths."""
    cluster = BSPCluster(NRANKS, "comet_paper", trace=Trace())
    res = rc_sfista_distributed(
        _problem(),
        NRANKS,
        b=0.1,
        epochs=1,
        iters_per_epoch=6,
        estimator="svrg",
        comm_mode=comm_mode,
        seed=0,
        monitor_every=3,
        runtime=RuntimeConfig(cluster=cluster),
    )
    return _harvest(cluster, res)


def test_golden_trace_matches_fixture(update_golden):
    got = _canonical({"dense": _run("dense"), "sparse": _run("sparse")})
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert got == expected, (
        "simulator cost accounting drifted from tests/golden/"
        f"{FIXTURE.name}; if the change is intentional rerun with --update-golden"
    )


def test_prox_newton_golden_trace_matches_fixture(update_golden):
    """The distributed-PN schedule (Fig. 7 path) must not move either."""
    got = _canonical(
        {"dense": _run_prox_newton("dense"), "sparse": _run_prox_newton("sparse")}
    )
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        PN_FIXTURE.write_text(
            json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    expected = json.loads(PN_FIXTURE.read_text(encoding="utf-8"))
    assert got == expected, (
        "proximal_newton_distributed accounting drifted from tests/golden/"
        f"{PN_FIXTURE.name}; if the change is intentional rerun with --update-golden"
    )


def test_sfista_golden_trace_matches_fixture(update_golden):
    """Both SFISTA comm_mode paths (hessian + gradient) stay pinned."""
    got = _canonical(
        {"hessian": _run_sfista("hessian"), "gradient": _run_sfista("gradient")}
    )
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        SFISTA_FIXTURE.write_text(
            json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    expected = json.loads(SFISTA_FIXTURE.read_text(encoding="utf-8"))
    assert got == expected, (
        "SFISTA (k = S = 1) accounting drifted from tests/golden/"
        f"{SFISTA_FIXTURE.name}; if the change is intentional rerun with --update-golden"
    )


def test_golden_trace_deterministic_across_runs():
    """Two consecutive runs must agree bit-for-bit (no RNG/time leakage)."""
    for comm in ("dense", "sparse"):
        assert _canonical(_run(comm)) == _canonical(_run(comm))


def test_zero_fault_injector_is_identity():
    """An empty FaultPlan must leave the golden accounting untouched.

    This is the zero-fault-identity guarantee of repro.distsim.faults: an
    injector built from an all-defaults plan charges nothing and perturbs
    nothing, so resilience instrumentation cannot skew fault-free
    benchmarks.
    """
    from repro.distsim.faults import FaultInjector, FaultPlan

    def run_with_empty_injector(comm: str) -> dict:
        cluster = BSPCluster(
            NRANKS, "comet_paper", trace=Trace(), injector=FaultInjector(FaultPlan())
        )
        res = rc_sfista_distributed(
            _problem(), NRANKS, k=2, S=2, b=0.1, epochs=1, iters_per_epoch=8,
            estimator="plain", seed=0, monitor_every=4,
            runtime=RuntimeConfig(comm=comm, cluster=cluster),
        )
        return _canonical({"cost_summary": res.cost, "w": res.w.tolist()})

    for comm in ("dense", "sparse"):
        baseline = _canonical(_run(comm))
        injected = run_with_empty_injector(comm)
        assert injected["cost_summary"] == baseline["cost_summary"]


def test_golden_fixture_phases_cover_stages():
    """The fixture must keep pinning every stage of the Fig. 1 schedule."""
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for mode in ("dense", "sparse"):
        labels = set(expected[mode]["per_phase"])
        assert {"hessian_blocks", "allreduce_G", "update"} <= labels
    dense_w = expected["dense"]["cost_summary"]["words_per_rank_max"]
    sparse_w = expected["sparse"]["cost_summary"]["words_per_rank_max"]
    assert sparse_w < dense_w, "fixture must exercise genuine sparse word savings"
