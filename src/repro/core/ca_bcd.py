"""Communication-avoiding block coordinate descent (CA-BCD) baseline.

The paper positions RC-SFISTA against the s-step communication-avoiding
methods of Devarakonda et al. (refs [13], [14]): those unroll ``s``
iterations of block coordinate descent, but "while these works reduce
communication costs by reducing the number of communication rounds, they
**increase the amount of communicated data at each round**" (§1). This
module implements that baseline for the lasso primal so the claim can be
measured rather than quoted.

Standard BCD step (block ``J`` of size ``blk``): communicate the block
Gram ``H_JJ`` and gradient — ``blk² + blk`` words per round. CA-BCD
chooses ``s`` blocks up front and communicates the full cross-Gram of
their union plus the initial gradients — ``(s·blk)² + s·blk`` words — so
each of the ``s`` local steps can reconstruct its exact gradient:

.. math::

    g_{J_t} = g^0_{J_t} + \\frac1m \\sum_{τ<t} X_{J_t} X_{J_τ}^T Δ_τ,

which is available from the cross-Gram once the earlier block updates
``Δ_τ`` are known locally. The arithmetic is *identical* to standard BCD
(the s-step property, verified by the tests); only the communication
schedule changes — latency ÷ s, **bandwidth × s** (contrast: RC-SFISTA's
bandwidth is flat in k, Table 1).
"""

from __future__ import annotations

import numpy as np

from repro.core.cd import coordinate_descent_quadratic
from repro.core.objectives import L1LeastSquares, require_squared_l1
from repro.core.results import History, SolveResult
from repro.core.stopping import StoppingCriterion
from repro.distsim.collectives import ceil_log2
from repro.exceptions import ValidationError
from repro.sparse.csr import CSCMatrix
from repro.utils.rng import RandomState, as_generator

__all__ = ["ca_bcd", "ca_bcd_communication"]


def _rows_dense(X, rows: np.ndarray) -> np.ndarray:
    """Dense ``X[rows, :]`` for any storage format."""
    if isinstance(X, np.ndarray):
        return X[rows]
    csr = X.to_csr() if isinstance(X, CSCMatrix) else X
    return csr.select_rows(rows).to_dense()


def ca_bcd(
    problem: L1LeastSquares,
    *,
    block_size: int = 8,
    s_step: int = 1,
    n_rounds: int = 100,
    inner_epochs: int = 20,
    seed: RandomState = 0,
    stopping: StoppingCriterion | None = None,
    monitor_every: int = 1,
) -> SolveResult:
    """Serial CA-BCD for l1-regularized least squares.

    Each *round* draws ``s_step`` disjoint random coordinate blocks of
    ``block_size``, builds their joint cross-Gram (the one communication of
    a distributed run), then performs ``s_step`` exact block minimizations
    (coordinate descent on each ``blk × blk`` subproblem, ``inner_epochs``
    sweeps). ``n_rounds`` counts communication rounds, so the iteration
    count is ``n_rounds × s_step`` block updates.

    ``n_comm_rounds`` and the ``meta['words_per_round']`` /
    ``meta['latency_per_round']`` fields carry the communication accounting
    used by the bandwidth-growth ablation.
    """
    require_squared_l1(problem, "ca_bcd")
    if block_size < 1 or s_step < 1 or n_rounds < 1 or inner_epochs < 1:
        raise ValidationError("block_size, s_step, n_rounds, inner_epochs must be >= 1")
    if block_size * s_step > problem.d:
        raise ValidationError(
            f"s_step·block_size = {block_size * s_step} exceeds d = {problem.d}"
        )
    stopping = stopping or StoppingCriterion()
    if monitor_every < 1:
        raise ValidationError(f"monitor_every must be >= 1, got {monitor_every}")
    rng = as_generator(seed)
    d, m, lam = problem.d, problem.m, problem.lam

    w = np.zeros(d)
    r = problem.predictions(w) - problem.y  # Xᵀw − y, maintained incrementally
    history = History()
    prev_obj: float | None = None
    converged = False
    rounds_done = 0

    for rnd in range(1, n_rounds + 1):
        union = rng.choice(d, size=block_size * s_step, replace=False).astype(np.int64)
        blocks = union.reshape(s_step, block_size)
        # ---- the one communication of the round: cross-Gram + gradients --- #
        A = _rows_dense(problem.X, union)  # (s·blk) × m
        G = A @ A.T / m  # (s·blk)² words
        g0 = A @ r / m  # s·blk words

        # ---- s local block updates, gradients reconstructed from G -------- #
        deltas = np.zeros(s_step * block_size)
        for t in range(s_step):
            sl = slice(t * block_size, (t + 1) * block_size)
            J = blocks[t]
            H_JJ = G[sl, sl]
            # g_{J_t} at the *current* iterate via the cross-Gram correction.
            g_t = g0[sl] + G[sl, :] @ deltas
            R_t = H_JJ @ w[J] - g_t
            u = coordinate_descent_quadratic(
                H_JJ, R_t, lam, u0=w[J], max_epochs=inner_epochs, tol=1e-14
            )
            deltas[sl] = u - w[J]
            w[J] = u
        # ---- apply the accumulated residual update ------------------------ #
        moved = deltas != 0.0
        if np.any(moved):
            r = r + A[moved].T @ deltas[moved]
        rounds_done = rnd

        if rnd % monitor_every == 0 or rnd == n_rounds:
            obj = 0.5 * float(r @ r) / m + lam * float(np.sum(np.abs(w)))
            history.append(rnd * s_step, obj, stopping.rel_error(obj), comm_round=rnd)
            if stopping.satisfied(obj, prev_obj):
                converged = True
                break
            prev_obj = obj

    blk_words = (block_size * s_step) ** 2 + block_size * s_step
    return SolveResult(
        w=w,
        converged=converged,
        n_iterations=rounds_done * s_step,
        history=history,
        n_comm_rounds=rounds_done,
        meta={
            "solver": "ca_bcd",
            "block_size": block_size,
            "s_step": s_step,
            "inner_epochs": inner_epochs,
            "words_per_round": blk_words,
            "latency_per_round": 1,
        },
    )


def ca_bcd_communication(
    d: int, block_size: int, s_step: int, n_block_updates: int, P: int
) -> dict[str, float]:
    """Per-processor L and W of a distributed CA-BCD run (analytic).

    ``n_block_updates`` block iterations executed as ``n/s`` rounds, each
    allreducing ``(s·blk)² + s·blk`` words with a log-P recursive-doubling
    schedule — the direct analogue of the Table 1 accounting used for
    RC-SFISTA, for apples-to-apples comparison in the ablation.
    """
    if min(d, block_size, s_step, n_block_updates, P) < 1:
        raise ValidationError("all arguments must be >= 1")
    if block_size * s_step > d:
        raise ValidationError("s_step·block_size exceeds d")
    rounds = -(-n_block_updates // s_step)
    log_p = ceil_log2(P)
    words_per_round = (block_size * s_step) ** 2 + block_size * s_step
    return {
        "rounds": float(rounds),
        "latency": float(rounds * log_p),
        "bandwidth": float(rounds * words_per_round * log_p),
        "words_per_round": float(words_per_round),
    }
