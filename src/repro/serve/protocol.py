"""Wire protocol of the solve service: requests, job states, error mapping.

Everything that crosses the HTTP boundary is defined here so the server,
the client and the tests share one source of truth. The protocol is plain
JSON — no schema library, just explicit validation that raises
:class:`~repro.exceptions.ValidationError` with a message the server maps
to a 400 response.

A submitted job names its problem *by spec*, not by shipping matrices:
either a registry dataset (``{"dataset": "covtype", "size": "tiny"}``) or
a deterministic synthetic generator call (``{"synthetic": {"d": ..,
"m": .., "density": .., "seed": ..}}``). Either form may add an
objective: ``"loss"`` (one of :data:`~repro.core.model.LOSSES`, default
``"squared"``) and ``"penalty"`` (a spec string like ``"l1"`` or
``"elastic_net:l2=0.5"``, default ``"l1"``). Specs are canonicalised and
fingerprinted (:func:`problem_fingerprint`) — two requests naming the same
spec share one cached problem instance, its memoized CSC twin and its
warm-start ladder, while requests differing only in
loss or penalty never collide (docs/SERVING.md).

Failure mapping (the table in docs/SERVING.md):

====================================  ======  =========  ===========
exception                             status  retryable  retry-after
====================================  ======  =========  ===========
ValidationError / FormatError / ...   400     no         —
QueueFullError                        429     yes        yes
WorkerFailureError (pool healed)      503     yes        yes
other FaultError                      503     yes        yes
ConvergenceError (carries .partial)   500     yes        yes
any other exception                   500     no         —
====================================  ======  =========  ===========
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.model import canonical_penalty_spec, make_loss
from repro.data.datasets import DATASETS
from repro.exceptions import (
    ConvergenceError,
    FaultError,
    ReproError,
    ValidationError,
    WorkerFailureError,
)

__all__ = [
    "JOB_STATES",
    "RUNTIME_KEYS",
    "RUNTIME_SOLVER_KEYS",
    "SERVE_SOLVERS",
    "QueueFullError",
    "SubmitRequest",
    "canonical_problem_spec",
    "problem_fingerprint",
    "error_payload",
    "result_payload",
]

#: Lifecycle of a job. ``queued`` → ``running`` → one of the terminal
#: states ``done`` / ``failed`` / ``cancelled``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Solvers a job may request. The serial solvers accept warm starts
#: (``w0``); the runtime solvers execute on any RuntimeConfig backend and
#: still benefit from the cached problem.
SERVE_SOLVERS = ("fista", "ista", "sfista_dist", "rc_sfista_dist")

#: The keys a request's ``runtime`` object may carry, each with the JSON
#: type its value must have. :data:`RUNTIME_SOLVER_KEYS` parameterise the
#: solver call; the rest are :class:`~repro.runtime.RuntimeConfig` fields.
#: Only types are checked at submission: ranges (``nranks >= 1``, ``b`` in
#: (0, 1], ...) stay with the solvers and ``RuntimeConfig``, which raise
#: ValidationError (400) too.
RUNTIME_KEYS: dict[str, str] = {
    "nranks": "an integer",
    "epochs": "an integer",
    "iters_per_epoch": "an integer",
    "k": "an integer",
    "S": "an integer",
    "b": "a number",
    "seed": "a non-negative integer",
    "backend": "a string",
    "machine": "a string",
    "comm": "a string",
    "comm_topology": "a string",
    "comm_compress": "a string",
    "mp_timeout": "a number",
    "mp_failure_policy": "a string",
    "checkpoint_every": "an integer",
    "on_nan": "a string or null",
    "max_recoveries": "an integer",
    "adaptive_restart": "a boolean",
}
RUNTIME_SOLVER_KEYS = frozenset({"nranks", "epochs", "iters_per_epoch", "k", "S", "b", "seed"})


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_RUNTIME_TYPES: dict[str, Callable[[Any], bool]] = {
    "an integer": _is_int,
    "a non-negative integer": lambda v: _is_int(v) and v >= 0,
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
}

_SYNTHETIC_KEYS = {"d", "m", "density", "support_fraction", "noise", "seed"}
_SYNTHETIC_DEFAULTS = {
    "density": 1.0,
    "support_fraction": 0.2,
    "noise": 0.05,
    "seed": 0,
}


class QueueFullError(ReproError, RuntimeError):
    """The bounded job queue rejected a submission (HTTP 429)."""

    def __init__(self, message: str, *, retry_after: float = 0.5) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _canonical_objective(spec: Mapping[str, Any]) -> tuple[str, str]:
    """Validate and normalise the optional ``loss``/``penalty`` spec keys.

    Unknown names raise :class:`~repro.exceptions.ValidationError` — the
    model layer's messages list the allowed values, and the server maps
    the exception to a 400 response.
    """
    loss = spec.get("loss", "squared")
    if not isinstance(loss, str):
        raise ValidationError(f"problem 'loss' must be a string, got {loss!r}")
    make_loss(loss)  # raises with the allowed values on an unknown name
    penalty = spec.get("penalty", "l1")
    if not isinstance(penalty, str):
        raise ValidationError(f"problem 'penalty' must be a string, got {penalty!r}")
    return loss, canonical_penalty_spec(penalty)


def canonical_problem_spec(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and normalise a problem spec to its canonical dict form.

    The canonical form is what gets fingerprinted, so every optional key
    is resolved to an explicit value here — two ways of writing the same
    problem collapse to one cache entry, and the ``loss``/``penalty``
    keys are always present so distinct objectives never share one.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError(f"problem spec must be an object, got {type(spec).__name__}")
    has_dataset = "dataset" in spec
    has_synth = "synthetic" in spec
    if has_dataset == has_synth:
        raise ValidationError(
            "problem spec needs exactly one of 'dataset' or 'synthetic'"
        )
    loss, penalty = _canonical_objective(spec)
    if has_dataset:
        name = spec["dataset"]
        if name not in DATASETS:
            raise ValidationError(
                f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
            )
        size = spec.get("size", "tiny")
        if size not in ("tiny", "scaled"):
            raise ValidationError(f"dataset size must be 'tiny' or 'scaled', got {size!r}")
        extra = set(spec) - {"dataset", "size", "loss", "penalty"}
        if extra:
            raise ValidationError(f"unknown problem spec keys {sorted(extra)}")
        return {
            "dataset": str(name), "size": str(size),
            "loss": loss, "penalty": penalty,
        }
    synth = spec["synthetic"]
    if not isinstance(synth, Mapping):
        raise ValidationError("'synthetic' must be an object of generator parameters")
    extra = set(spec) - {"synthetic", "loss", "penalty"}
    if extra:
        raise ValidationError(f"unknown problem spec keys {sorted(extra)}")
    unknown = set(synth) - _SYNTHETIC_KEYS
    if unknown:
        raise ValidationError(f"unknown synthetic parameters {sorted(unknown)}")
    for required in ("d", "m"):
        if required not in synth:
            raise ValidationError(f"synthetic spec needs {required!r}")
        if not _is_int(synth[required]) or synth[required] < 1:
            raise ValidationError(f"synthetic {required!r} must be a positive integer")
    out: dict[str, Any] = {"d": synth["d"], "m": synth["m"]}
    for key, default in _SYNTHETIC_DEFAULTS.items():
        value = synth.get(key, default)
        if key == "seed":
            if not _is_int(value) or value < 0:
                raise ValidationError("synthetic seed must be a non-negative integer")
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"synthetic {key!r} must be numeric")
            value = float(value)
        out[key] = value
    return {"synthetic": out, "loss": loss, "penalty": penalty}


def problem_fingerprint(spec: Mapping[str, Any]) -> str:
    """Stable fingerprint of a canonical problem spec (cache key)."""
    canonical = canonical_problem_spec(spec)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SubmitRequest:
    """One validated solve request.

    ``problem`` is the canonical spec; ``lam`` of ``None`` means "the
    problem's default λ". ``rel_change_tol`` feeds a
    :class:`~repro.core.stopping.StoppingCriterion` so warm-started solves
    can stop after a few refinement iterations instead of burning the full
    budget. ``runtime`` carries the execution knobs for the distributed
    solvers (``nranks``, ``backend``, ``comm``, ...).
    """

    problem: dict[str, Any]
    tenant: str = "default"
    solver: str = "fista"
    lam: float | None = None
    max_iter: int = 500
    rel_change_tol: float | None = 1e-9
    warm_start: bool = True
    include_report: bool = False
    runtime: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.solver not in SERVE_SOLVERS:
            raise ValidationError(
                f"solver must be one of {SERVE_SOLVERS}, got {self.solver!r}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValidationError("tenant must be a non-empty string")
        if self.lam is not None and (not np.isfinite(self.lam) or self.lam <= 0):
            raise ValidationError(f"lam must be finite and > 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.rel_change_tol is not None and self.rel_change_tol <= 0:
            raise ValidationError(
                f"rel_change_tol must be > 0 or null, got {self.rel_change_tol}"
            )
        unknown = set(self.runtime) - set(RUNTIME_KEYS)
        if unknown:
            raise ValidationError(
                f"unknown runtime keys {sorted(unknown)}; allowed: {sorted(RUNTIME_KEYS)}"
            )
        for key, value in self.runtime.items():
            kind = RUNTIME_KEYS[key]
            if not _RUNTIME_TYPES[kind](value):
                raise ValidationError(f"runtime {key!r} must be {kind}, got {value!r}")

    @property
    def fingerprint(self) -> str:
        return problem_fingerprint(self.problem)

    @property
    def batch_key(self) -> tuple:
        """Jobs with equal batch keys may run as one multi-start batch."""
        return (
            self.fingerprint,
            self.solver,
            self.max_iter,
            self.rel_change_tol,
            tuple(sorted(self.runtime.items())),
        )

    @classmethod
    def from_json(cls, payload: Any) -> "SubmitRequest":
        if not isinstance(payload, Mapping):
            raise ValidationError("request body must be a JSON object")
        known = {
            "problem", "tenant", "solver", "lam", "max_iter",
            "rel_change_tol", "warm_start", "include_report", "runtime",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown request fields {sorted(unknown)}")
        if "problem" not in payload:
            raise ValidationError("request needs a 'problem' spec")
        runtime = payload.get("runtime", {})
        if not isinstance(runtime, Mapping):
            raise ValidationError("'runtime' must be an object")
        kwargs: dict[str, Any] = {
            "problem": canonical_problem_spec(payload["problem"]),
            "runtime": dict(runtime),
        }
        for key in ("tenant", "solver"):
            if key in payload:
                kwargs[key] = payload[key]
        if payload.get("lam") is not None:
            lam = payload["lam"]
            if isinstance(lam, bool) or not isinstance(lam, (int, float)):
                raise ValidationError("lam must be a number")
            kwargs["lam"] = float(lam)
        if "max_iter" in payload:
            if not _is_int(payload["max_iter"]):
                raise ValidationError("max_iter must be an integer")
            kwargs["max_iter"] = payload["max_iter"]
        if "rel_change_tol" in payload:
            tol = payload["rel_change_tol"]
            if tol is not None:
                if isinstance(tol, bool) or not isinstance(tol, (int, float)):
                    raise ValidationError("rel_change_tol must be a number or null")
                tol = float(tol)
            kwargs["rel_change_tol"] = tol
        for flag in ("warm_start", "include_report"):
            if flag in payload:
                if not isinstance(payload[flag], bool):
                    raise ValidationError(f"{flag} must be a boolean")
                kwargs[flag] = payload[flag]
        return cls(**kwargs)

    def to_json(self) -> dict[str, Any]:
        return {
            "problem": self.problem,
            "tenant": self.tenant,
            "solver": self.solver,
            "lam": self.lam,
            "max_iter": self.max_iter,
            "rel_change_tol": self.rel_change_tol,
            "warm_start": self.warm_start,
            "include_report": self.include_report,
            "runtime": dict(self.runtime),
        }


def result_payload(result: Any, *, lam: float, warm_kind: str) -> dict[str, Any]:
    """JSON-safe summary of a :class:`~repro.core.results.SolveResult`."""
    w = np.asarray(result.w, dtype=np.float64)
    payload: dict[str, Any] = {
        "lam": float(lam),
        "warm_start": warm_kind,
        "converged": bool(result.converged),
        "n_iterations": int(result.n_iterations),
        "n_comm_rounds": int(result.n_comm_rounds),
        "nnz": int(np.sum(w != 0)),
        "w": [float(v) for v in w],
    }
    if len(result.history):
        payload["final_objective"] = float(result.history.objectives[-1])
    if result.cost is not None:
        payload["sim_time"] = float(result.cost.get("elapsed", 0.0))
    return payload


def error_payload(exc: BaseException) -> tuple[int, dict[str, Any]]:
    """Map an exception to ``(http_status, structured error body)``.

    Retryable failures carry ``retry_after`` (seconds) which the server
    also surfaces as a ``Retry-After`` header; a ``ConvergenceError`` with
    a partial result additionally ships the best iterate reached so
    clients can degrade gracefully instead of losing the run.
    """
    body: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "retryable": False,
    }
    if isinstance(exc, QueueFullError):
        body.update(retryable=True, retry_after=exc.retry_after)
        return 429, body
    if isinstance(exc, WorkerFailureError):
        body.update(
            retryable=True,
            retry_after=1.0,
            ranks=list(exc.ranks),
            action=exc.action,
            new_nranks=exc.new_nranks,
        )
        return 503, body
    if isinstance(exc, FaultError):
        body.update(retryable=True, retry_after=1.0)
        return 503, body
    if isinstance(exc, ConvergenceError):
        body.update(retryable=True, retry_after=1.0)
        partial = exc.partial
        if partial is not None:
            w = np.asarray(partial.w, dtype=np.float64)
            body["partial"] = {
                "n_iterations": int(partial.n_iterations),
                "nnz": int(np.sum(w != 0)),
                "w": [float(v) for v in w],
            }
            if len(partial.history):
                body["partial"]["final_objective"] = float(partial.history.objectives[-1])
        return 500, body
    if isinstance(exc, ValidationError) or isinstance(exc, ReproError):
        return 400, body
    return 500, body
