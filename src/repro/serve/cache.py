"""Cross-request solve cache: problems and warm-start ladders.

The serving workload (ROADMAP item 2) is dominated by *repeats*: λ-grids
swept over one problem, the same problem re-submitted by many tenants,
refinement solves at a λ already seen. :class:`SolveCache` turns those
from cold solves into warm ones by keeping, per problem fingerprint:

* the constructed problem itself (`X`, `y`) — building a registry dataset
  or synthetic matrix is often more expensive than a warm solve;
* the matrix's **memoized CSC twin** (primed once, reused by every Gram
  evaluation — the 80× kernel of PR 5);
* a :class:`~repro.core.warmstart.WarmStartLadder` — the same
  implementation the regularization-path sweep uses — holding the best
  iterate per λ.

Entries are LRU-evicted beyond ``max_problems``. All bookkeeping is
guarded by one lock so scheduler worker threads can share the cache.

Metrics (when a registry is attached): ``serve_cache_requests_total``
labelled by ``kind`` ∈ {cold, exact, path} plus ``disabled`` for requests
that opted out, ``serve_cache_problem_{hits,misses}_total`` for the
problem-construction cache, and ``serve_cache_evictions_total``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.model import ERMObjective
from repro.core.objectives import build_objective
from repro.core.path import lambda_max
from repro.core.warmstart import WarmStartLadder
from repro.data.datasets import get_dataset
from repro.data.synthetic import make_regression
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import canonical_problem_spec, problem_fingerprint

__all__ = ["CacheEntry", "SolveCache"]


@dataclass
class CacheEntry:
    """Everything reusable across requests for one problem fingerprint."""

    fingerprint: str
    spec: dict[str, Any]
    problem: ERMObjective  # at the entry's default λ
    default_lam: float
    ladder: WarmStartLadder
    #: Cached problem views at previously requested λs (``at_lam`` views:
    #: the CSC memo, the Gram and the Lipschitz estimates stay shared).
    _at_lam: dict[float, ERMObjective] = field(default_factory=dict)
    #: Warm-start ladders for lossy comm-compression variants. Compressed
    #: solves converge to *different* iterates than uncompressed ones, so
    #: each canonical ``comm_compress`` spec gets its own ladder — a
    #: "topk:frac=0.1" result never warm-starts a "none" request or vice
    #: versa. The default ``ladder`` field is the "none" variant.
    _ladders: dict[str, WarmStartLadder] = field(default_factory=dict)

    def ladder_for(self, variant: str) -> WarmStartLadder:
        if variant == "none":
            return self.ladder
        lad = self._ladders.get(variant)
        if lad is None:
            lad = self._ladders[variant] = WarmStartLadder(self.ladder.d)
        return lad

    def problem_at(self, lam: float) -> ERMObjective:
        lam = float(lam)
        prob = self._at_lam.get(lam)
        if prob is None:
            base = self.problem
            prob = base if lam == base.lam else base.at_lam(lam)
            self._at_lam[lam] = prob
        return prob


def _build_problem(spec: Mapping[str, Any]) -> ERMObjective:
    if "dataset" in spec:
        base = get_dataset(spec["dataset"], size=spec["size"]).problem()
        X, y, lam = base.X, base.y, base.lam
    else:
        params = spec["synthetic"]
        X, y, _w_true = make_regression(
            params["d"],
            params["m"],
            density=params["density"],
            support_fraction=params["support_fraction"],
            noise=params["noise"],
            rng=params["seed"],
        )
        lam = 0.1 * lambda_max(build_objective(X, y, 1.0))
        if lam <= 0:
            raise ValidationError("synthetic problem has zero lambda_max")
    return build_objective(
        X, y, lam, loss=spec.get("loss", "squared"), penalty=spec.get("penalty", "l1")
    )


class SolveCache:
    """LRU cache of :class:`CacheEntry` keyed on the problem fingerprint."""

    def __init__(
        self,
        max_problems: int = 16,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_problems < 1:
            raise ValidationError(f"max_problems must be >= 1, got {max_problems}")
        self.max_problems = int(max_problems)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics
        self._warm_requests = 0
        self._warm_hits = 0

    # -- instrumentation ------------------------------------------------- #
    def _count(self, name: str, help: str, **labels: Any) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help=help).inc(**labels)

    # -- problems -------------------------------------------------------- #
    def entry_for(self, spec: Mapping[str, Any]) -> CacheEntry:
        """The cache entry for *spec*, building problem + ladder on miss."""
        canonical = canonical_problem_spec(spec)
        fp = problem_fingerprint(canonical)
        with self._lock:
            entry = self._entries.get(fp)
            if entry is not None:
                self._entries.move_to_end(fp)
                self._count(
                    "serve_cache_problem_hits_total",
                    "requests that found their problem already constructed",
                )
                return entry
        # Build outside the lock — dataset generation can take a while and
        # concurrent misses for *different* problems should not serialize.
        problem = _build_problem(canonical)
        if hasattr(problem.X, "to_csc"):
            problem.X.to_csc()  # prime the memoized CSC twin once, up front
        entry = CacheEntry(
            fingerprint=fp,
            spec=canonical,
            problem=problem,
            default_lam=float(problem.lam),
            ladder=WarmStartLadder(problem.d),
        )
        with self._lock:
            existing = self._entries.get(fp)
            if existing is not None:  # lost a build race; keep the first
                self._entries.move_to_end(fp)
                return existing
            self._entries[fp] = entry
            self._count(
                "serve_cache_problem_misses_total",
                "requests that had to construct their problem",
            )
            while len(self._entries) > self.max_problems:
                self._entries.popitem(last=False)
                self._count(
                    "serve_cache_evictions_total",
                    "LRU evictions of whole problem entries",
                )
        return entry

    # -- warm starts ----------------------------------------------------- #
    def warm_start(
        self, entry: CacheEntry, lam: float, *, enabled: bool = True,
        variant: str = "none",
    ) -> tuple[np.ndarray, str]:
        """Starting iterate for a solve at *lam*: ``(w0, kind)``.

        ``kind`` is ``"exact"`` (λ seen before), ``"path"`` (neighbouring
        λ's iterate) or ``"cold"``; opting out via *enabled* always
        returns a cold start and is counted separately. *variant* selects
        the comm-compression ladder (``"none"`` = the lossless default) —
        compressed and uncompressed iterates never cross-pollinate.
        """
        with self._lock:
            if not enabled:
                self._count(
                    "serve_cache_requests_total",
                    "warm-start lookups by outcome kind",
                    kind="disabled",
                )
                return np.zeros(entry.ladder.d), "cold"
            w0, kind = entry.ladder_for(variant).suggest(lam)
            self._warm_requests += 1
            if kind != "cold":
                self._warm_hits += 1
            self._count(
                "serve_cache_requests_total",
                "warm-start lookups by outcome kind",
                kind=kind,
            )
            return w0, kind

    def record(
        self, entry: CacheEntry, lam: float, w: np.ndarray, *, variant: str = "none"
    ) -> None:
        """Store a finished iterate for future warm starts (per variant)."""
        with self._lock:
            entry.ladder_for(variant).record(lam, w)

    # -- introspection --------------------------------------------------- #
    def stats(self) -> dict[str, Any]:
        with self._lock:
            requests = self._warm_requests
            hits = self._warm_hits
            return {
                "problems": len(self._entries),
                "warm_requests": requests,
                "warm_hits": hits,
                "hit_rate": (hits / requests) if requests else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
