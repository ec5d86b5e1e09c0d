"""SolveCache + WarmStartLadder: reuse, accounting, eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
from repro.core.path import lasso_path
from repro.core.warmstart import WarmStartLadder
from repro.data.synthetic import make_regression
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import SolveCache

pytestmark = pytest.mark.serve

_SPEC = {"synthetic": {"d": 8, "m": 40, "seed": 3}}


class TestWarmStartLadder:
    def test_empty_ladder_is_cold_zero(self):
        ladder = WarmStartLadder(4)
        w0, kind = ladder.suggest(0.5)
        assert kind == "cold"
        np.testing.assert_array_equal(w0, np.zeros(4))

    def test_exact_match_returns_recorded_iterate(self):
        ladder = WarmStartLadder(3)
        ladder.record(0.5, [1.0, 2.0, 3.0])
        w0, kind = ladder.suggest(0.5)
        assert kind == "exact"
        np.testing.assert_array_equal(w0, [1.0, 2.0, 3.0])

    def test_nearest_larger_lambda_wins(self):
        ladder = WarmStartLadder(1)
        ladder.record(1.0, [10.0])
        ladder.record(0.5, [5.0])
        ladder.record(0.1, [1.0])
        w0, kind = ladder.suggest(0.3)  # between 0.5 and 0.1 → 0.5's iterate
        assert kind == "path"
        np.testing.assert_array_equal(w0, [5.0])

    def test_only_smaller_lambdas_still_warm(self):
        ladder = WarmStartLadder(1)
        ladder.record(0.1, [1.0])
        w0, kind = ladder.suggest(0.9)
        assert kind == "path"
        np.testing.assert_array_equal(w0, [1.0])

    def test_record_replaces_exact_lambda(self):
        ladder = WarmStartLadder(1)
        ladder.record(0.5, [1.0])
        ladder.record(0.5, [2.0])
        assert len(ladder) == 1
        np.testing.assert_array_equal(ladder.iterate_at(0.5), [2.0])

    def test_lambdas_kept_descending(self):
        ladder = WarmStartLadder(1)
        for lam in (0.2, 0.9, 0.5):
            ladder.record(lam, [lam])
        assert ladder.lambdas == (0.9, 0.5, 0.2)

    def test_record_copies_the_iterate(self):
        ladder = WarmStartLadder(2)
        w = np.array([1.0, 2.0])
        ladder.record(0.5, w)
        w[0] = 99.0
        np.testing.assert_array_equal(ladder.iterate_at(0.5), [1.0, 2.0])

    @pytest.mark.parametrize("bad_lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, bad_lam):
        ladder = WarmStartLadder(2)
        with pytest.raises(ValidationError):
            ladder.suggest(bad_lam)
        with pytest.raises(ValidationError):
            ladder.record(bad_lam, [0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            WarmStartLadder(2).record(0.5, [1.0, 2.0, 3.0])


def test_lasso_path_exposes_its_ladder():
    """The path sweep's per-λ iterates are reusable downstream."""
    X, y, _ = make_regression(10, 60, rng=7)
    lam = 0.1 * float(np.max(np.abs(X @ y))) / 60
    problem = L1LeastSquares(X, y, lam)
    path = lasso_path(problem, n_lambdas=5, max_iter=100)
    ladder = path.warm_starts
    assert ladder is not None and len(ladder) == 5
    assert ladder.lambdas == tuple(path.lambdas)
    for i, grid_lam in enumerate(path.lambdas):
        w0, kind = ladder.suggest(float(grid_lam))
        assert kind == "exact"
        np.testing.assert_array_equal(w0, path.coefficients[i])


class TestSolveCache:
    def test_same_spec_shares_problem_and_ladder(self):
        cache = SolveCache()
        a = cache.entry_for(_SPEC)
        b = cache.entry_for({"synthetic": dict(_SPEC["synthetic"], density=1.0)})
        assert a is b
        assert a.problem is b.problem
        assert a.ladder is b.ladder

    def test_problem_at_shares_data_across_lambdas(self, monkeypatch):
        cache = SolveCache()
        entry = cache.entry_for(_SPEC)
        p1 = entry.problem_at(0.1)
        p2 = entry.problem_at(0.2)
        assert p1.X is p2.X and p1.y is p2.y
        assert entry.problem_at(0.1) is p1  # memoized view
        # A fresh λ reuses the entry's Lipschitz estimate and Gram rather
        # than re-running the power iteration in default_step().
        step = entry.problem.default_step()
        monkeypatch.setattr(
            "repro.core.model.gram_lipschitz",
            lambda *a, **k: pytest.fail("a λ view re-ran the power iteration"),
        )
        assert entry.problem_at(0.3).default_step() == step
        assert p2.hessian is entry.problem.hessian

    def test_hit_miss_accounting(self):
        registry = MetricsRegistry()
        cache = SolveCache(metrics=registry)
        entry = cache.entry_for(_SPEC)
        _, k1 = cache.warm_start(entry, 0.5)  # cold
        cache.record(entry, 0.5, np.ones(entry.ladder.d))
        _, k2 = cache.warm_start(entry, 0.5)  # exact
        _, k3 = cache.warm_start(entry, 0.3)  # path
        _, k4 = cache.warm_start(entry, 0.3, enabled=False)  # opted out
        assert (k1, k2, k3, k4) == ("cold", "exact", "path", "cold")
        stats = cache.stats()
        assert stats == {
            "problems": 1, "warm_requests": 3, "warm_hits": 2,
            "hit_rate": pytest.approx(2 / 3),
        }
        counter = registry.counter("serve_cache_requests_total")
        assert counter.value(kind="cold") == 1
        assert counter.value(kind="exact") == 1
        assert counter.value(kind="path") == 1
        assert counter.value(kind="disabled") == 1

    def test_lru_eviction(self):
        registry = MetricsRegistry()
        cache = SolveCache(max_problems=2, metrics=registry)
        specs = [{"synthetic": {"d": 4, "m": 12, "seed": s}} for s in (1, 2, 3)]
        first = cache.entry_for(specs[0])
        cache.entry_for(specs[1])
        cache.entry_for(specs[2])  # evicts specs[0]
        assert len(cache) == 2
        assert registry.counter("serve_cache_evictions_total").value() == 1
        rebuilt = cache.entry_for(specs[0])
        assert rebuilt is not first  # had to be rebuilt

    def test_touch_refreshes_lru_order(self):
        cache = SolveCache(max_problems=2)
        a = cache.entry_for({"synthetic": {"d": 4, "m": 12, "seed": 1}})
        cache.entry_for({"synthetic": {"d": 4, "m": 12, "seed": 2}})
        assert cache.entry_for({"synthetic": {"d": 4, "m": 12, "seed": 1}}) is a
        cache.entry_for({"synthetic": {"d": 4, "m": 12, "seed": 3}})  # evicts seed=2
        assert cache.entry_for({"synthetic": {"d": 4, "m": 12, "seed": 1}}) is a

    def test_sparse_problem_builds_and_shares_matrix(self):
        cache = SolveCache()
        spec = {"synthetic": {"d": 10, "m": 40, "density": 0.3, "seed": 5}}
        entry = cache.entry_for(spec)
        assert type(entry.problem.X).__name__ == "CSCMatrix"
        # Every λ view reuses the same sparse matrix object (and with it
        # any lazily memoized conversions it carries).
        assert cache.entry_for(spec).problem_at(0.01).X is entry.problem.X

    def test_dataset_spec_builds(self):
        cache = SolveCache()
        entry = cache.entry_for({"dataset": "abalone", "size": "tiny"})
        assert entry.default_lam > 0
        assert entry.problem.d >= 1


class TestObjectiveAwareCache:
    def test_distinct_objectives_get_distinct_entries(self):
        cache = SolveCache()
        base = {"synthetic": {"d": 6, "m": 24, "seed": 3}}
        legacy = cache.entry_for(base)
        logi = cache.entry_for({**base, "loss": "logistic"})
        enet = cache.entry_for({**base, "penalty": "elastic_net:l2=0.5"})
        assert len({legacy.fingerprint, logi.fingerprint, enet.fingerprint}) == 3
        # Default specs still build the historical L1LeastSquares type.
        assert type(legacy.problem).__name__ == "L1LeastSquares"
        assert type(logi.problem).__name__ == "ERMObjective"
        assert logi.problem.loss.name == "logistic"
        assert enet.problem.penalty.spec == "elastic_net:l2=0.5"

    def test_classification_loss_binarizes_targets(self):
        cache = SolveCache()
        entry = cache.entry_for(
            {"synthetic": {"d": 6, "m": 24, "seed": 3}, "loss": "logistic"}
        )
        assert set(np.unique(entry.problem.y)) <= {-1.0, 1.0}

    def test_problem_at_preserves_loss_and_penalty(self):
        cache = SolveCache()
        entry = cache.entry_for(
            {"synthetic": {"d": 6, "m": 24, "seed": 3},
             "loss": "logistic", "penalty": "group_l1:size=2"}
        )
        view = entry.problem_at(entry.default_lam / 2)
        assert view.lam == entry.default_lam / 2
        assert view.loss.name == "logistic"
        assert view.penalty.spec == "group_l1:size=2"
        assert view.penalty.lam == view.lam
        assert view.X is entry.problem.X and view.y is entry.problem.y


@pytest.mark.collectives
class TestCompressionVariantLadders:
    """Lossy comm-compression variants never share warm starts (collectives
    v2): a top-k iterate converges to a different point than an
    uncompressed one, so cross-variant warm starting would poison the
    ladder."""

    def test_variants_get_independent_ladders(self):
        cache = SolveCache()
        entry = cache.entry_for(_SPEC)
        d = entry.ladder.d
        cache.record(entry, 0.5, np.ones(d))  # lossless default
        cache.record(entry, 0.5, np.full(d, 2.0), variant="topk:frac=0.1")

        w_none, kind_none = cache.warm_start(entry, 0.5)
        w_topk, kind_topk = cache.warm_start(entry, 0.5, variant="topk:frac=0.1")
        w_quant, kind_quant = cache.warm_start(entry, 0.5, variant="quant:bits=8")
        assert kind_none == "exact" and np.all(w_none == 1.0)
        assert kind_topk == "exact" and np.all(w_topk == 2.0)
        assert kind_quant == "cold"  # never seen → never borrows

    def test_none_variant_is_the_default_ladder(self):
        cache = SolveCache()
        entry = cache.entry_for(_SPEC)
        assert entry.ladder_for("none") is entry.ladder
        lad = entry.ladder_for("quant:bits=8")
        assert lad is entry.ladder_for("quant:bits=8")
        assert lad is not entry.ladder
