"""Wire protocol: spec canonicalisation, fingerprints, error mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import SolveResult
from repro.exceptions import (
    ConvergenceError,
    FaultError,
    ValidationError,
    WorkerFailureError,
)
from repro.serve.protocol import (
    SERVE_SOLVERS,
    QueueFullError,
    SubmitRequest,
    canonical_problem_spec,
    error_payload,
    problem_fingerprint,
    result_payload,
)

pytestmark = pytest.mark.serve


class TestCanonicalSpec:
    def test_dataset_spec_normalises_defaults(self):
        spec = canonical_problem_spec({"dataset": "abalone"})
        assert spec == {
            "dataset": "abalone", "size": "tiny",
            "loss": "squared", "penalty": "l1",
        }

    def test_synthetic_spec_fills_defaults(self):
        spec = canonical_problem_spec({"synthetic": {"d": 10, "m": 50}})
        assert spec["synthetic"]["d"] == 10
        assert spec["synthetic"]["density"] == 1.0
        assert spec["synthetic"]["seed"] == 0

    def test_equivalent_specs_share_a_fingerprint(self):
        explicit = {"synthetic": {"d": 10, "m": 50, "density": 1.0,
                                  "support_fraction": 0.2, "noise": 0.05, "seed": 0}}
        implicit = {"synthetic": {"d": 10, "m": 50}}
        assert problem_fingerprint(explicit) == problem_fingerprint(implicit)

    def test_different_problems_differ(self):
        a = problem_fingerprint({"synthetic": {"d": 10, "m": 50}})
        b = problem_fingerprint({"synthetic": {"d": 10, "m": 51}})
        assert a != b

    @pytest.mark.parametrize("bad", [
        {},  # neither dataset nor synthetic
        {"dataset": "abalone", "synthetic": {"d": 1, "m": 1}},  # both
        {"dataset": "no_such_dataset"},
        {"dataset": "abalone", "size": "huge"},
        {"dataset": "abalone", "extra": 1},
        {"synthetic": {"m": 50}},  # missing d
        {"synthetic": {"d": 0, "m": 50}},
        {"synthetic": {"d": 10, "m": 50, "bogus": 1}},
        {"synthetic": {"d": 10, "m": 50, "seed": 1.5}},
        "not-a-dict",
        # Rejected at submit, not first in the worker that builds the problem.
        {"synthetic": {"d": 10, "m": 50, "seed": -1}},
        {"synthetic": {"d": 10, "m": 50, "seed": True}},
        {"synthetic": {"d": True, "m": 50}},
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValidationError):
            canonical_problem_spec(bad)


class TestObjectiveSpecKeys:
    def test_loss_and_penalty_default_and_canonicalise(self):
        spec = canonical_problem_spec({"synthetic": {"d": 10, "m": 50}})
        assert spec["loss"] == "squared" and spec["penalty"] == "l1"
        spec = canonical_problem_spec(
            {"dataset": "abalone", "loss": "logistic", "penalty": "elastic_net"}
        )
        assert spec["loss"] == "logistic"
        assert spec["penalty"] == "elastic_net:l2=1"

    def test_equivalent_penalty_specs_share_a_fingerprint(self):
        a = problem_fingerprint(
            {"synthetic": {"d": 10, "m": 50}, "penalty": "elastic_net"}
        )
        b = problem_fingerprint(
            {"synthetic": {"d": 10, "m": 50}, "penalty": "elastic_net:l2=1.0"}
        )
        assert a == b

    def test_distinct_objectives_never_collide(self):
        base = {"synthetic": {"d": 10, "m": 50}}
        fps = {
            problem_fingerprint({**base, "loss": loss, "penalty": pen})
            for loss in ("squared", "logistic")
            for pen in ("l1", "elastic_net:l2=0.5", "group_l1:size=4")
        }
        assert len(fps) == 6
        # ... and the default spec matches its explicit legacy spelling.
        assert problem_fingerprint(base) == problem_fingerprint(
            {**base, "loss": "squared", "penalty": "l1"}
        )

    @pytest.mark.parametrize("bad, needle", [
        ({"synthetic": {"d": 10, "m": 50}, "loss": "hinge"}, "squared, logistic"),
        ({"synthetic": {"d": 10, "m": 50}, "loss": 3}, "must be a string"),
        ({"synthetic": {"d": 10, "m": 50}, "penalty": "l0"}, "l1, elastic_net"),
        ({"synthetic": {"d": 10, "m": 50}, "penalty": "group_l1:size=0"}, "positive integer"),
        ({"synthetic": {"d": 10, "m": 50}, "penalty": "elastic_net:l2=-1"}, ">= 0"),
        ({"synthetic": {"d": 10, "m": 50}, "penalty": ["l1"]}, "must be a string"),
    ])
    def test_unknown_objective_maps_to_400_listing_allowed(self, bad, needle):
        with pytest.raises(ValidationError) as exc_info:
            canonical_problem_spec(bad)
        status, body = error_payload(exc_info.value)
        assert status == 400 and body["retryable"] is False
        assert needle in body["message"]


class TestSubmitRequest:
    def test_round_trip(self):
        req = SubmitRequest.from_json({
            "problem": {"synthetic": {"d": 5, "m": 20}},
            "tenant": "t1", "solver": "fista", "lam": 0.1,
            "max_iter": 42, "warm_start": False,
        })
        again = SubmitRequest.from_json(req.to_json())
        assert again == req

    def test_batch_key_groups_same_shape(self):
        a = SubmitRequest.from_json({"problem": {"synthetic": {"d": 5, "m": 20}}, "lam": 0.1})
        b = SubmitRequest.from_json({"problem": {"synthetic": {"d": 5, "m": 20}}, "lam": 0.2,
                                     "tenant": "other"})
        c = SubmitRequest.from_json({"problem": {"synthetic": {"d": 6, "m": 20}}, "lam": 0.1})
        assert a.batch_key == b.batch_key  # λ and tenant do not split batches
        assert a.batch_key != c.batch_key

    @pytest.mark.parametrize("bad", [
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "solver": "nope"},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "lam": -1.0},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "lam": "high"},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "max_iter": 0},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "rel_change_tol": -1e-9},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "tenant": ""},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "warm_start": "yes"},
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "surprise": 1},
        {"no_problem": True},
        [],
        # Retired: rc_sfista_dist runs the same RC-SFISTA schedule.
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "solver": "rc_sfista_spmd"},
        # A bool is an int subclass; it must not pass as max_iter=1.
        {"problem": {"synthetic": {"d": 5, "m": 20}}, "max_iter": True},
    ])
    def test_bad_requests_rejected(self, bad):
        with pytest.raises(ValidationError) as exc:
            SubmitRequest.from_json(bad)
        if isinstance(bad, dict) and "solver" in bad:
            assert f"solver must be one of {SERVE_SOLVERS}" in str(exc.value)


_BAD_RUNTIME = [
    ("seed", -1, "a non-negative integer"),
    ("seed", 1.5, "a non-negative integer"),
    ("nranks", "x", "an integer"),
    ("nranks", True, "an integer"),
    ("epochs", 2.0, "an integer"),
    ("iters_per_epoch", None, "an integer"),
    ("k", "2", "an integer"),
    ("S", [1], "an integer"),
    ("checkpoint_every", "often", "an integer"),
    ("max_recoveries", 1.0, "an integer"),
    ("b", "abc", "a number"),
    ("b", False, "a number"),
    ("mp_timeout", "10", "a number"),
    ("backend", 3, "a string"),
    ("machine", None, "a string"),
    ("comm", ["dense"], "a string"),
    ("comm_topology", 1, "a string"),
    ("comm_compress", None, "a string"),
    ("mp_failure_policy", 0, "a string"),
    ("on_nan", 1, "a string or null"),
    ("adaptive_restart", 1, "a boolean"),
]


class TestRuntimeKeys:
    """Malformed ``runtime`` objects are 400s at submission, never queued."""

    _SPEC = {"synthetic": {"d": 5, "m": 20}}

    def _reject(self, runtime):
        with pytest.raises(ValidationError) as exc:
            SubmitRequest.from_json({"problem": self._SPEC, "runtime": runtime})
        status, body = error_payload(exc.value)
        assert status == 400 and body["type"] == "ValidationError"
        return str(exc.value)

    def test_unknown_key_rejected_at_submit(self):
        assert "unknown runtime keys ['bogus']" in self._reject({"bogus": 1})

    @pytest.mark.parametrize(
        "key, value, kind", _BAD_RUNTIME,
        ids=[f"{key}-{type(value).__name__}" for key, value, _ in _BAD_RUNTIME],
    )
    def test_mistyped_value_rejected_at_submit(self, key, value, kind):
        assert f"runtime {key!r} must be {kind}" in self._reject({key: value})

    def test_well_typed_runtime_accepted(self):
        runtime = {
            "nranks": 2, "epochs": 1, "iters_per_epoch": 4, "k": 2, "S": 1,
            "b": 1, "seed": 0, "backend": "bsp", "machine": "comet_paper",
            "comm": "dense", "comm_topology": "flat", "comm_compress": "none",
            "mp_timeout": 30, "mp_failure_policy": "fail_fast",
            "checkpoint_every": 0, "on_nan": None, "max_recoveries": 3,
            "adaptive_restart": False,
        }
        req = SubmitRequest.from_json({"problem": self._SPEC, "runtime": runtime})
        assert req.runtime == runtime


def _result(w, converged=True):
    return SolveResult(w=np.asarray(w, dtype=float), converged=converged, n_iterations=7)


class TestErrorMapping:
    def test_validation_is_400_not_retryable(self):
        status, body = error_payload(ValidationError("bad"))
        assert status == 400 and body["retryable"] is False

    def test_queue_full_is_429_with_retry_after(self):
        status, body = error_payload(QueueFullError("full", retry_after=0.25))
        assert status == 429 and body["retryable"] and body["retry_after"] == 0.25

    def test_worker_failure_is_503_with_recovery_detail(self):
        exc = WorkerFailureError("rank died", ranks=(2,), action="shrink", new_nranks=3)
        status, body = error_payload(exc)
        assert status == 503
        assert body["retryable"] and body["retry_after"] > 0
        assert body["ranks"] == [2] and body["action"] == "shrink"
        assert body["new_nranks"] == 3

    def test_fault_error_is_503(self):
        status, body = error_payload(FaultError("torn collective"))
        assert status == 503 and body["retryable"]

    def test_convergence_error_ships_partial(self):
        exc = ConvergenceError("gave up", partial=_result([1.0, 0.0, 2.0], converged=False))
        status, body = error_payload(exc)
        assert status == 500 and body["retryable"]
        assert body["partial"]["nnz"] == 2
        assert body["partial"]["w"] == [1.0, 0.0, 2.0]

    def test_unknown_exception_is_500(self):
        status, body = error_payload(RuntimeError("boom"))
        assert status == 500 and body["retryable"] is False


def test_result_payload_summarises():
    payload = result_payload(_result([0.0, 3.0]), lam=0.5, warm_kind="path")
    assert payload["lam"] == 0.5
    assert payload["warm_start"] == "path"
    assert payload["nnz"] == 1
    assert payload["w"] == [0.0, 3.0]
    assert payload["n_iterations"] == 7
