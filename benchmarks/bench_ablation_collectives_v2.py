"""Ablation A14 — Collectives v2: compression × topology trade-off curves.

SparCML-style lossy collectives (PAPERS.md) promise orders-of-magnitude
communication savings *if* the optimizer still converges. This ablation
measures exactly that trade-off on the α-β-γ model: distributed SFISTA
(gradient schedule, P=16 ranks on the ``fat_tree`` two-level machine)
runs the {dense, sparse, top-k, quantized} × {flat, hierarchical} grid
and records, per configuration, the **communicated words needed to reach
a 1e-6 relative objective gap** against the dense reference optimum.

Top-k (error feedback) and int8 stochastic-rounding quantization shrink
every round's payload; error feedback means compressed runs still reach
the reference accuracy — they just walk a different (cheaper) path.
Hierarchical top-k compresses the two node-leader partials instead of
all 16 rank contributions, so it needs a larger keep-fraction (0.05 vs
0.02) but only ships compressed payloads on the expensive inter-node
hops. See docs/COLLECTIVES.md for the charging formulas.

Gated by CI against ``benchmarks/baselines/collectives_v2.json``:

* ``runs.dense+flat.words_total`` — the uncompressed payload schedule,
  pinned exactly (byte-identity extends to charged costs);
* ``runs.dense+flat.words_to_target`` / ``runs.topk+flat.words_to_target``
  — the convergence-vs-words operating points;
* ``topk_reduction`` — dense/top-k words-to-target ratio, the headline
  ≥3× claim;
* ``all_converged`` — 1.0 iff every configuration reached the 1e-6 gap.
"""

from __future__ import annotations

import numpy as np

from benchmarks._common import QUICK, emit, emit_json, run_once
from repro.core.objectives import L1LeastSquares
from repro.core.path import lambda_max
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

NRANKS = 16
ITERS = 4000 if QUICK else 6000
REL_TARGET = 1e-6
# Flat top-k compresses 16 per-rank streams (union mask ≈ 16·frac worst
# case, much less in practice once gradients concentrate on the support);
# hierarchical top-k compresses only the 2 node-leader partials, so it
# keeps a larger fraction per stream to move enough coordinates per round.
GRID = (
    ("dense+flat", {}),
    ("sparse+flat", {"comm": "sparse"}),
    ("topk+flat", {"comm_compress": "topk:frac=0.02"}),
    ("quant+flat", {"comm_compress": "quant:bits=8"}),
    ("dense+hier", {"comm_topology": "hier"}),
    ("sparse+hier", {"comm": "sparse", "comm_topology": "hier"}),
    ("topk+hier", {"comm_topology": "hier", "comm_compress": "topk:frac=0.05"}),
    ("quant+hier", {"comm_topology": "hier", "comm_compress": "quant:bits=8"}),
)
CURVE_STRIDE = 25  # decimation for the stored convergence-vs-words curves


def _problem():
    X, y, _w_true = make_regression(
        192, 960, density=0.2, support_fraction=0.15, noise=0.005, rng=0
    )
    lam = 0.2 * lambda_max(L1LeastSquares(X, y, 1.0))
    return L1LeastSquares(X, y, lam)


def _compute():
    problem = _problem()
    results = {}
    for name, kw in GRID:
        runtime = RuntimeConfig(machine="fat_tree", adaptive_restart=True, **kw)
        results[name] = rc_sfista_distributed(
            problem, NRANKS, b=1.0, epochs=1, iters_per_epoch=ITERS,
            comm_mode="gradient", seed=0, runtime=runtime,
        )

    # The reference optimum: the dense uncompressed run's best monitored
    # objective. Compressed configurations must come within REL_TARGET of
    # it — error feedback / unbiased rounding, not luck, gets them there.
    f_star = float(np.min(np.asarray(results["dense+flat"].history.objectives)))

    runs = {}
    for name, res in results.items():
        objs = np.asarray(res.history.objectives, dtype=float)
        iters = np.asarray(res.history.iterations, dtype=int)
        gap = (objs - f_star) / abs(f_star)
        words_total = float(res.cost["words_total"])
        words_per_round = words_total / max(res.n_comm_rounds, 1)
        hits = np.nonzero(gap <= REL_TARGET)[0]
        hit_iter = int(iters[hits[0]]) if len(hits) else -1
        words_to_target = words_per_round * hit_iter if hit_iter > 0 else -1.0
        runs[name] = {
            "words_total": words_total,
            "words_per_round": words_per_round,
            "rel_objective": max(0.0, float(gap.min())),
            "hit_iteration": hit_iter,
            "words_to_target": words_to_target,
            "curve": {
                "words": [words_per_round * int(it) for it in iters[::CURVE_STRIDE]],
                "objective": [float(o) for o in objs[::CURVE_STRIDE]],
            },
        }
    converged = all(r["hit_iteration"] > 0 for r in runs.values())
    return {
        "f_star": f_star,
        "rel_target": REL_TARGET,
        "runs": runs,
        "all_converged": 1.0 if converged else 0.0,
        "topk_reduction": (
            runs["dense+flat"]["words_to_target"] / runs["topk+flat"]["words_to_target"]
            if converged
            else 0.0
        ),
    }


def test_ablation_collectives_v2(benchmark):
    payload = run_once(benchmark, _compute)
    rows = [
        [name, f"{r['words_per_round']:.5g}", f"{r['hit_iteration']}",
         f"{r['words_to_target']:.5g}", f"{r['rel_objective']:.2e}"]
        for name, r in sorted(payload["runs"].items())
    ]
    emit(
        "ablation_collectives_v2",
        format_table(
            ["config", "words/round", "iters to 1e-6", "words to 1e-6", "rel gap"],
            rows,
            title=(
                f"A14 — collectives v2 compression × topology "
                f"(P={NRANKS}, N={ITERS}, fat_tree)"
            ),
        ),
    )
    emit_json("ablation_collectives_v2", payload)

    runs = payload["runs"]
    # Every configuration reaches the 1e-6 relative objective gap.
    assert payload["all_converged"] == 1.0, {
        name: r["rel_objective"] for name, r in runs.items()
    }
    # The headline claim: top-k needs ≥3× fewer words than dense to get
    # to the same accuracy.
    assert payload["topk_reduction"] >= 3.0, payload["topk_reduction"]
    # The sparse wire format auto-switches to dense for these payloads, so
    # its schedule matches dense; hier+none delegates to the same machine-
    # level two-level charging, so topology alone changes nothing either.
    assert runs["dense+flat"]["hit_iteration"] == runs["sparse+flat"]["hit_iteration"]
    assert runs["dense+flat"]["hit_iteration"] == runs["dense+hier"]["hit_iteration"]
    assert runs["dense+flat"]["words_total"] == runs["dense+hier"]["words_total"]
