"""Deterministic baselines: ISTA and FISTA (paper Alg. 2).

FISTA iterates, with step ``γ ≤ 1/L``:

.. math::

    t_n = \\frac{1 + \\sqrt{1 + 4 t_{n-1}^2}}{2}, \\qquad
    v_n = w_{n-1} + \\frac{t_{n-1} - 1}{t_n}(w_{n-1} - w_{n-2}), \\qquad
    w_n = \\mathrm{Prox}_γ(v_n - γ \\nabla f(v_n)).

Note: the paper's Alg. 2 prints the t-update as ``(1 + sqrt(1 + t²))/2``;
that recurrence converges to a fixed point (t → 4/3) and yields no
acceleration, so it is evidently a typo for the standard Beck–Teboulle
update ``(1 + sqrt(1 + 4t²))/2`` used here (and available for comparison
via ``t_update="paper_literal"``).
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.core.proximal import ProximalOperator
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.exceptions import ValidationError
from repro.utils.validation import check_positive

__all__ = ["fista", "ista", "t_next", "momentum_mu"]


def t_next(t_prev: float, variant: str = "standard") -> float:
    """One step of the FISTA t-recurrence."""
    if variant == "standard":
        return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
    if variant == "paper_literal":
        return 0.5 * (1.0 + math.sqrt(1.0 + t_prev * t_prev))
    raise ValidationError(f"unknown t-update variant {variant!r}")


def momentum_mu(t_prev: float, t_cur: float) -> float:
    """μ_n = (t_{n-1} − 1)/t_n (Eq. 15)."""
    return (t_prev - 1.0) / t_cur


def _prepare(
    problem: Any,
    step_size: float | None,
    prox: ProximalOperator | None,
    w0: np.ndarray | None,
) -> tuple[float, ProximalOperator, np.ndarray]:
    if prox is None:
        # An ERMObjective carries its penalty; any other smooth problem
        # must pass its prox explicitly.
        prox = getattr(problem, "penalty", None)
        if prox is None:
            raise ValidationError("prox operator required for problems without .penalty")
    if step_size is None:
        if hasattr(problem, "default_step"):
            step_size = problem.default_step()
        else:
            step_size = 1.0 / check_positive(problem.lipschitz(), "Lipschitz constant")
    step_size = check_positive(step_size, "step_size")
    d = problem.d
    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (d,):
        raise ValidationError(f"w0 must have shape ({d},), got {w.shape}")
    return step_size, prox, w


def _objective(problem: Any, prox: ProximalOperator, w: np.ndarray) -> float:
    """F(w) = smooth + regularizer, for either problem type."""
    if hasattr(problem, "value") and hasattr(problem, "reg_value"):
        return problem.value(w)
    return problem.value(w) + prox.value(w)


def fista(
    problem: Any,
    *,
    step_size: float | None = None,
    max_iter: int = 500,
    stopping: StoppingCriterion | None = None,
    w0: np.ndarray | None = None,
    prox: ProximalOperator | None = None,
    monitor_every: int = 1,
    restart: bool = False,
    t_update: str = "standard",
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> SolveResult:
    """Run FISTA on *problem* (anything with ``gradient``/``value``/``d``).

    Parameters
    ----------
    problem:
        Any :class:`~repro.core.model.ERMObjective`, or any object
        exposing ``gradient(w)``, ``value(w)`` and ``d`` (with an explicit
        *prox* when it has no ``penalty``).
    step_size:
        γ; defaults to ``1/L`` via the problem's Lipschitz estimate.
    stopping:
        Optional :class:`StoppingCriterion`; when omitted the solver runs
        the full *max_iter* budget.
    monitor_every:
        Objective-evaluation stride (monitoring is out-of-band).
    restart:
        Function-value adaptive restart (O'Donoghue–Candès): reset the
        momentum whenever the objective increases. Used by the
        high-accuracy reference solver.
    t_update:
        ``"standard"`` (Beck–Teboulle) or ``"paper_literal"`` (see module
        docstring).
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    gamma, prox_op, w = _prepare(problem, step_size, prox, w0)

    w_prev = w.copy()
    t_prev = 1.0
    history = History()
    prev_obj: float | None = None
    converged = False
    n_done = 0

    for n in range(1, max_iter + 1):
        t_cur = t_next(t_prev, t_update)
        mu = momentum_mu(t_prev, t_cur)
        v = w + mu * (w - w_prev)
        grad = problem.gradient(v)
        w_new = prox_op.prox(v - gamma * grad, gamma)
        w_prev, w = w, w_new
        t_prev = t_cur
        n_done = n

        if callback is not None:
            callback(n, w)

        if n % monitor_every == 0 or n == max_iter:
            obj = _objective(problem, prox_op, w)
            history.append(n, obj, stopping.rel_error(obj))
            if restart and prev_obj is not None and obj > prev_obj:
                t_prev = 1.0
                w_prev = w.copy()
            if stopping.satisfied(obj, prev_obj):
                converged = True
                prev_obj = obj
                break
            prev_obj = obj

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=n_done,
        history=history,
        meta={"solver": "fista", "step_size": gamma, "restart": restart, "t_update": t_update},
    )


def ista(
    problem: Any,
    *,
    step_size: float | None = None,
    max_iter: int = 500,
    stopping: StoppingCriterion | None = None,
    w0: np.ndarray | None = None,
    prox: ProximalOperator | None = None,
    monitor_every: int = 1,
) -> SolveResult:
    """Plain proximal gradient (ISTA) — the unaccelerated baseline."""
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    stopping = stopping or StoppingCriterion()
    gamma, prox_op, w = _prepare(problem, step_size, prox, w0)

    history = History()
    prev_obj: float | None = None
    converged = False
    n_done = 0
    for n in range(1, max_iter + 1):
        grad = problem.gradient(w)
        w = prox_op.prox(w - gamma * grad, gamma)
        n_done = n
        if n % monitor_every == 0 or n == max_iter:
            obj = _objective(problem, prox_op, w)
            history.append(n, obj, stopping.rel_error(obj))
            if stopping.satisfied(obj, prev_obj):
                converged = True
                break
            prev_obj = obj

    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=n_done,
        history=history,
        meta={"solver": "ista", "step_size": gamma},
    )
