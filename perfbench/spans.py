"""Host-time spans recorded from outside the program.

A :class:`Tracer` patches public functions and methods of the program
with wrappers that record a span per call: name, start, end, parent span
and the operation (solve or request) id it belongs to. Spans stay in
memory and are written out as Chrome trace-event JSON at the end.

Module functions are patched at the name the *caller* resolves: the
solvers import helpers by name (``from repro.core._dist_common import
hessian_reuse_update``), so the binding in ``repro.core.prox_newton`` is
the one that must be replaced. Class methods are patched on the class and
so seen by every caller. :meth:`Tracer.uninstall` restores every original,
so untraced runs in the same process execute the program untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

_NO_PARENT = -1


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid", "attrs")

    def __init__(self, sid: int, name: str, parent: int, op: Any, tid: int) -> None:
        self.id = sid
        self.name = name
        self.start = 0
        self.end = 0
        self.parent = parent
        self.op = op
        self.tid = tid
        self.attrs: dict | None = None

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records spans around calls; each thread keeps its own span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), name, stack[-1] if stack else _NO_PARENT,
            self.op, threading.get_ident(),
        )
        self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        """*fn* wrapped in a span; ``measure(args, kwargs, result)`` may
        return a dict of attributes (flops, bytes, ...) kept on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------- #
    def patch(self, owner: Any, attr: str, name: str, measure: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a module binding or class method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, measure))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------- #
    def self_times(self) -> dict[int, float]:
        """Span id → self seconds (duration minus its children's)."""
        child = defaultdict(int)
        for s in self.spans:
            if s.parent != _NO_PARENT:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start - child[s.id]) * 1e-9 for s in self.spans}

    def outermost(self, name: str, ops=None) -> list[Span]:
        """Spans called *name* with no ancestor of the same name.

        Recursive or layered calls (a matvec inside a matvec) would count
        their time twice if every span were summed.
        """
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name != name or (ops is not None and s.op not in ops):
                continue
            p = s.parent
            while p != _NO_PARENT and by_id[p].name != name:
                p = by_id[p].parent
            if p == _NO_PARENT:
                out.append(s)
        return out

    def total_s(self, name: str, ops=None) -> float:
        return sum(s.duration_s for s in self.outermost(name, ops))

    def count(self, name: str, ops=None) -> int:
        return sum(1 for s in self.spans if s.name == name and (ops is None or s.op in ops))

    def attr_sum(self, name: str, key: str, ops=None) -> float:
        return float(sum(
            (s.attrs or {}).get(key, 0.0)
            for s in self.spans
            if s.name == name and (ops is None or s.op in ops)
        ))

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) / 1e3,
                "dur": (s.end - s.start) / 1e3,
                "pid": 1,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, "op": s.op, **(s.attrs or {})},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def calibrate_overhead_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over the bare call, measured here."""

    def bare() -> None:
        return None

    wrapped = Tracer().wrap(bare, "calibrate")
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    base = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(0.0, (traced - base) / calls)
