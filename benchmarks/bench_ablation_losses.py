"""Ablation A13 — objective generality of the communication schedule.

The paper frames Eq. (1) as general ERM ("including logistic regression
and regularized least squares", §2.1) but only instantiates least
squares. This ablation runs RC-SFISTA over the {squared, logistic} ×
{l1, elastic_net, group_l1} grid and records convergence against
*communicated words*: every objective runs the same stage-B path, which
ships the same ``k(d²+d)``-word ``[H|R]`` payload per round whatever the
loss, so the words axis is identical across all six objectives — the
communication-avoidance story is loss-independent.

Gated by CI against ``benchmarks/baselines/losses.json``:

* ``runs.squared+l1.words_total`` — the legacy payload size, pinned
  exactly (the byte-identity contract extends to charged costs);
* ``words_uniform`` — 1.0 iff every combination communicated exactly
  the legacy word count;
* per-combination ``decrease`` floors — first/last monitored objective,
  proving each (loss, penalty) pair actually descends.
"""

from __future__ import annotations

from benchmarks._common import QUICK, emit, emit_json, run_once
from repro.core.model import ERMObjective, make_loss
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.datasets import get_dataset
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig

import numpy as np

LOSSES = ("squared", "logistic")
# Dots would split the baseline's metric paths, so parameters are chosen
# integral (l2=1, size=4 — also the canonical defaults).
PENALTIES = ("l1", "elastic_net:l2=1", "group_l1:size=4")
NRANKS = 4
B = 0.2 if QUICK else 0.05
ITERS = 40 if QUICK else 200


def _objective(base, loss: str, penalty: str):
    if loss == "squared" and penalty == "l1":
        return base
    model_loss = make_loss(loss)
    y = base.y
    if model_loss.classification:
        y = np.where(np.asarray(y) >= 0, 1.0, -1.0)
    return ERMObjective(base.X, y, loss=model_loss, penalty=penalty, lam=base.lam)


def _compute():
    base = get_dataset("covtype", size="tiny" if QUICK else "scaled").problem()
    runs = {}
    for loss in LOSSES:
        for penalty in PENALTIES:
            problem = _objective(base, loss, penalty)
            res = rc_sfista_distributed(
                problem, NRANKS, k=1, S=1, b=B, seed=0,
                epochs=1, iters_per_epoch=ITERS, runtime=RuntimeConfig(),
            )
            objs = list(res.history.objectives)
            words_total = float(res.cost["words_total"])
            words_per_round = words_total / max(res.n_comm_rounds, 1)
            runs[f"{loss}+{penalty}"] = {
                "loss": loss,
                "penalty": penalty,
                "words_total": words_total,
                "n_comm_rounds": res.n_comm_rounds,
                "curve": {
                    # Communicated words after each monitored iteration
                    # (k=1: one k(d²+d) round per iteration).
                    "words": [words_per_round * it for it in res.history.iterations],
                    "objective": objs,
                },
                "decrease": objs[0] / objs[-1] if objs else 0.0,
            }
    words = {name: r["words_total"] for name, r in runs.items()}
    legacy = words["squared+l1"]
    return {
        "runs": runs,
        "words_uniform": 1.0 if all(w == legacy for w in words.values()) else 0.0,
    }


def test_ablation_losses(benchmark):
    payload = run_once(benchmark, _compute)
    rows = [
        [name, f"{r['words_total']:.5g}",
         f"{r['curve']['objective'][0]:.6g}", f"{r['curve']['objective'][-1]:.6g}",
         f"{r['decrease']:.4f}"]
        for name, r in sorted(payload["runs"].items())
    ]
    emit(
        "ablation_losses",
        format_table(
            ["objective", "words total", "first F", "last F", "decrease"],
            rows,
            title=f"A13 — loss/penalty generality (P={NRANKS}, N={ITERS}, b={B})",
        ),
    )
    emit_json("ablation_losses", payload)

    # Same communication schedule for every objective ...
    assert payload["words_uniform"] == 1.0
    # ... and every objective actually descends on its own axis.
    for name, r in payload["runs"].items():
        assert r["decrease"] > 1.0, f"{name} did not descend"
        assert np.all(np.isfinite(r["curve"]["objective"])), name
