"""Closed-form cost model of RC-SFISTA (paper Table 1, Eq. 24).

SFISTA is RC-SFISTA at ``k = S = 1``; its Table 1 row and Eq. 24 runtime
are :func:`rc_sfista_costs` and :func:`rc_sfista_runtime` at those values.

Two levels of fidelity are provided:

* The **paper-literal** big-O expressions of Table 1 / Eq. (24), for
  qualitative reasoning and the parameter bounds of §4.2.
* The **detailed** per-iteration accounting that matches the simulator's
  exact charging (constants included), used by the Table 1 benchmark to
  verify that model and simulator agree *exactly* on message and word
  counts along the critical path. Its word counts are the shipped ones:
  each symmetric ``H`` block travels as its ``d(d + 1)/2``-word upper
  triangle, where Table 1 counts ``d²`` (``exact_words=False``).

Notation (paper): ``N`` total inner iterations, ``d`` features, ``m̄``
sampled columns per iteration, ``f`` fill fraction, ``P`` processors, ``k``
iteration-overlap factor, ``S`` Hessian-reuse inner steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.distsim.collectives import ceil_log2, sparse_payload_words
from repro.distsim.machine import MachineSpec, get_machine
from repro.exceptions import ValidationError
from repro.sparse.ops import packed_size

__all__ = [
    "AlgorithmCosts",
    "rc_sfista_costs",
    "rc_sfista_runtime",
    "predicted_speedup",
    "sparse_comm_words",
    "UPDATE_FLOPS_PER_STEP",
]

# Dense flops charged per Hessian-reuse inner step: g = H u - R is a d×d
# GEMV (2d²) plus O(d) vector work folded into the d² term's lower-order
# constant; see detailed_update_flops.
UPDATE_FLOPS_PER_STEP = 2.0


def _validate(N: int, d: int, P: int, k: int = 1, S: int = 1) -> None:
    if N <= 0 or d <= 0 or P <= 0 or k <= 0 or S <= 0:
        raise ValidationError(f"N, d, P, k, S must be positive (got {N}, {d}, {P}, {k}, {S})")
    if N % k:
        # The paper's Alg. 5 iterates n = 0..N/k; allow ragged final blocks
        # in the solvers but keep the model exact by requiring divisibility.
        raise ValidationError(f"model requires k | N (got N={N}, k={k})")


@dataclass(frozen=True)
class AlgorithmCosts:
    """Per-processor critical-path costs over a whole solve.

    ``latency`` counts messages (L), ``flops`` floating point operations
    (F), ``bandwidth`` words moved (W) — the three columns of Table 1.
    """

    latency: float
    flops: float
    bandwidth: float

    def time(self, machine: MachineSpec | str) -> float:
        """Eq. (7): T = γF + αL + βW."""
        m = get_machine(machine)
        return m.gamma * self.flops + m.alpha * self.latency + m.beta * self.bandwidth


# ---------------------------------------------------------------------- #
# detailed accounting (matches the simulator exactly for L and W)
# ---------------------------------------------------------------------- #
def hessian_flops_per_iteration(d: int, mbar: int, f: float, P: int) -> float:
    """Per-rank flops to form local H and R blocks each iteration.

    Sparse Gram formation charges ``2·Σ_s nnz(x_s)²``; with uniform fill the
    expectation is ``2·(m̄/P)·(d·f)²``, plus ``2·(m̄/P)·d·f`` for R. This is
    the expectation over sampling — exact counters depend on the realized
    sample and are compared with tolerance in the tests.
    """
    local = mbar / P
    return 2.0 * local * (d * f) ** 2 + 2.0 * local * d * f


def update_flops_per_step(d: int) -> float:
    """Flops per Hessian-reuse inner step: one d×d GEMV plus vector ops."""
    return UPDATE_FLOPS_PER_STEP * d * d + 8.0 * d


def sparse_comm_words(words: float, payload_density: float | None) -> float:
    """Wire size of a *words*-long allreduce payload under sparse encoding.

    *payload_density* is the fill fraction of the reduced payload (the
    union support over all ranks); ``None`` means the dense encoding. Uses
    the same :func:`~repro.distsim.collectives.sparse_payload_words`
    stream-and-switch rule the simulator charges, so model and simulator
    agree exactly on W in sparse mode too.
    """
    if payload_density is None:
        return float(words)
    if not (0.0 <= payload_density <= 1.0):
        raise ValidationError(f"payload_density must be in [0, 1], got {payload_density}")
    return sparse_payload_words(float(words), payload_density * float(words))


def rc_sfista_costs(
    N: int,
    d: int,
    mbar: int,
    f: float,
    P: int,
    k: int,
    S: int,
    *,
    exact_words: bool = True,
    payload_density: float | None = None,
) -> AlgorithmCosts:
    """Per-processor costs of N inner iterations of RC-SFISTA.

    One allreduce of ``k·(d(d+1)/2 + d)`` words every k iterations (the
    paper's ``k·d²`` with ``exact_words=False``): latency shrinks by k,
    bandwidth is unchanged (Table 1, RC-SFISTA row). The Hessian-reuse
    loop multiplies the update flops by S. ``k = S = 1`` is SFISTA
    (Table 1, SFISTA row). *payload_density* models the
    sparse-communication mode (see :func:`sparse_comm_words`).
    """
    _validate(N, d, P, k, S)
    log_p = ceil_log2(P)
    rounds = N // k
    words_per_round = sparse_comm_words(
        k * ((packed_size(d) + d) if exact_words else d * d), payload_density
    )
    return AlgorithmCosts(
        latency=float(rounds * log_p),
        flops=N * (hessian_flops_per_iteration(d, mbar, f, P) + S * update_flops_per_step(d)),
        bandwidth=float(rounds * words_per_round * log_p),
    )


# ---------------------------------------------------------------------- #
# paper-literal Eq. (24)
# ---------------------------------------------------------------------- #
def rc_sfista_runtime(
    machine: MachineSpec | str,
    N: int,
    d: int,
    mbar: int,
    f: float,
    P: int,
    k: int,
    S: int,
) -> float:
    """Eq. (24): T = γ(N d² m̄ f / P + S d²) + α N log(P)/k + β N d² log(P)."""
    _validate(N, d, P, k, S)
    m = get_machine(machine)
    log_p = math.log2(P) if P > 1 else 0.0
    flops = N * d * d * mbar * f / P + S * d * d
    latency = N * log_p / k
    bandwidth = N * d * d * log_p
    return m.gamma * flops + m.alpha * latency + m.beta * bandwidth


def predicted_speedup(
    machine: MachineSpec | str,
    N: int,
    d: int,
    mbar: int,
    f: float,
    P: int,
    k: int,
    S: int = 1,
    *,
    N_rc: int | None = None,
) -> float:
    """Model-predicted speedup of RC-SFISTA(k, S) over SFISTA.

    ``N_rc`` allows the RC variant to need a different iteration count (the
    Hessian-reuse effect of §3.2); defaults to the same N.
    """
    t_base = rc_sfista_runtime(machine, N, d, mbar, f, P, k=1, S=1)
    t_rc = rc_sfista_runtime(machine, N_rc if N_rc is not None else N, d, mbar, f, P, k, S)
    if t_rc <= 0:
        raise ValidationError("non-positive predicted RC-SFISTA runtime")
    return t_base / t_rc
