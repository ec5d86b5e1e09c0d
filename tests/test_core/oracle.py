"""Independent numpy oracles: SFISTA / RC-SFISTA on the lasso, and the
dense Hessian of a general ERM objective.

:func:`rc_sfista_oracle` is dense arithmetic written straight from the
paper: the SVRG estimator of Eq. (9) with an epoch anchor and momentum
restart, and the ``S`` Hessian-reuse prox steps of Eqs. (20)–(23) with the
proximal-point damping ``eps_reg``. It shares only the seeded sample draws
and the problem's step-size inputs with the package, so the one solver body
can be checked against it at every rank count.

The overlap factor ``k`` does not appear: the ``k`` sets of a round are the
next ``k`` draws of the same stream, so it changes only where communication
happens, never the iterates (Eqs. 16–17).

:func:`hessian_at` is ``∇²f(w)`` formed densely, for the curvature tests of
losses whose Hessian depends on ``w``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sfista import stochastic_step_size
from repro.utils.rng import as_generator, minibatch_size, sample_indices


def rc_sfista_oracle(
    problem, *, S: int = 1, b: float, epochs: int = 1, iters_per_epoch: int, seed: int
) -> np.ndarray:
    """Final iterate of SVRG RC-SFISTA (``S = 1``: SFISTA) from zero."""
    X = problem.X if isinstance(problem.X, np.ndarray) else problem.X.to_dense()
    y, lam = problem.y, problem.lam
    d, m = X.shape
    mbar = minibatch_size(m, b)
    deviation = problem.sampled_hessian_deviation(mbar)
    gamma = stochastic_step_size(
        problem.lipschitz(), m, mbar, problem.max_sample_lipschitz,
        epoch_length=iters_per_epoch, deviation=deviation,
    )
    eps_reg = 0.25 * deviation if S > 1 else 0.0
    rng = as_generator(seed)

    w = np.zeros(d)
    for _epoch in range(epochs):
        anchor = w.copy()
        full_grad = X @ (X.T @ anchor - y) / m
        t, w_prev = 1.0, w.copy()  # momentum restarts every epoch
        for _n in range(iters_per_epoch):
            A = X[:, sample_indices(rng, m, mbar)]
            H = A @ A.T / mbar
            R = H @ anchor - full_grad  # Eq. (9): ĝ(u) = H(u − ŵ) + ∇f(ŵ) = Hu − R
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            v = w + (t - 1.0) / t_next * (w - w_prev)
            u = v
            for _s in range(S):
                z = u - gamma * (H @ u - R + eps_reg * (u - v))
                u = np.sign(z) * np.maximum(np.abs(z) - gamma * lam, 0.0)
            w_prev, w, t = w, u, t_next
    return w


def hessian_at(problem, w: np.ndarray) -> np.ndarray:
    """``∇²f(w) = (1/m) X diag(ℓ''(Xᵀw, y)) Xᵀ`` (dense, symmetrized)."""
    X = problem.X if isinstance(problem.X, np.ndarray) else problem.X.to_dense()
    weights = problem.loss.curvature(X.T @ np.asarray(w, dtype=np.float64), problem.y)
    H = (X * weights[None, :]) @ X.T / problem.m
    return 0.5 * (H + H.T)
