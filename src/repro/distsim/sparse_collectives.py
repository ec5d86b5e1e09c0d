"""Sparse-aware collectives: index+value buffers with exact numerics.

The paper's point is that communication volume dominates proximal Newton at
scale — and the vectors the solvers exchange (gradients under an active
set, sampled-Hessian blocks of a sparse design matrix) are themselves
sparse. SparCML (Renggli et al.) shows that shipping ``(index, value)``
pairs instead of the dense vector cuts the words on the wire to
O(nnz_union), switching back to the dense representation once fill makes
the encoding counterproductive ("stream-and-switch").

This module provides the *numerics* of that subsystem:

* :class:`SparseVector` — an immutable COO vector (sorted unique ``int64``
  indices + ``float64`` values over a logical length ``n``).
* :func:`sparse_allreduce_values` — union-of-supports reduction using the
  same pairwise tournament order as the dense
  :func:`~repro.distsim.collectives.allreduce_values`, so the two paths are
  **bit-identical** on the same inputs, for every allreduce algorithm and
  rank count.

The matching α-β-γ cost formulas, and the dense/sparse/auto decision,
live in :mod:`repro.distsim.collectives` (:func:`allreduce_charge`);
:class:`~repro.distsim.bsp.BSPCluster` and the mp backend's ledger glue
the two together and log densification decisions into the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, ValidationError
# COMM_MODES and resolve_comm_mode live beside the one charging path
# (collectives.allreduce_charge); re-exported here for the comm knob's users.
from repro.distsim.collectives import COMM_MODES, resolve_comm_mode, resolve_reduce_op

__all__ = [
    "SparseVector",
    "as_sparse_vector",
    "sparse_allreduce_values",
    "support_union_size",
    "COMM_MODES",
    "resolve_comm_mode",
]


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector in coordinate (index+value) form.

    Attributes
    ----------
    n:
        Logical (dense) length.
    indices:
        Sorted, unique ``int64`` positions of the stored entries.
    values:
        ``float64`` stored values. Explicit zeros are kept — they occupy
        wire words exactly like MPI would ship them.
    """

    n: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValidationError("indices and values must be one-dimensional")
        if indices.size != values.size:
            raise ValidationError(
                f"indices and values disagree in length: {indices.size} vs {values.size}"
            )
        if self.n < 0:
            raise ValidationError(f"vector length must be >= 0, got {self.n}")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n:
                raise ValidationError(f"indices out of range for length {self.n}")
            if np.any(np.diff(indices) <= 0):
                raise ValidationError("indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_dense(x: np.ndarray) -> "SparseVector":
        """Extract the nonzero support of a dense 1-D array."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError(f"from_dense expects a 1-D array, got shape {arr.shape}")
        idx = np.flatnonzero(arr)
        return SparseVector(n=arr.size, indices=idx.astype(np.int64), values=arr[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.float64)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        return self.nnz / self.n if self.n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVector(n={self.n}, nnz={self.nnz})"


def as_sparse_vector(value: "SparseVector | np.ndarray") -> SparseVector:
    """Accept either representation; densify nothing, sparsify dense input."""
    if isinstance(value, SparseVector):
        return value
    return SparseVector.from_dense(np.asarray(value, dtype=np.float64))


def _combine_sparse(
    a: SparseVector, b: SparseVector, combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> SparseVector:
    """Reduce two sparse vectors over the union of their supports.

    Missing entries participate as exact ``0.0``, so the floating-point
    operations performed are identical to the dense elementwise reduction
    at the union positions (and ``combine(0, 0) == 0`` elsewhere for
    sum/max/min/prod) — the source of the bit-identity guarantee.
    """
    union = np.union1d(a.indices, b.indices)
    av = np.zeros(union.size)
    bv = np.zeros(union.size)
    av[np.searchsorted(union, a.indices)] = a.values
    bv[np.searchsorted(union, b.indices)] = b.values
    return SparseVector(n=a.n, indices=union, values=combine(av, bv))


def sparse_allreduce_values(
    vectors: Sequence["SparseVector | np.ndarray"],
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] | str = "sum",
) -> SparseVector:
    """Reduce per-rank sparse vectors with the dense tournament order.

    The result's support is the union of the input supports (entries whose
    values cancel to zero stay stored, exactly as an MPI sparse allreduce
    would keep shipping them). The pairwise order mirrors
    :func:`~repro.distsim.collectives.allreduce_values`, making the dense
    and sparse paths bit-identical and algorithm-independent.
    """
    if len(vectors) == 0:
        raise CommunicatorError("sparse allreduce over zero ranks")
    svs = [as_sparse_vector(v) for v in vectors]
    n = svs[0].n
    for i, sv in enumerate(svs):
        if sv.n != n:
            raise CommunicatorError(
                f"sparse allreduce length mismatch: rank 0 has n={n}, rank {i} has n={sv.n}"
            )
    combine = resolve_reduce_op(op)
    level = list(svs)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_combine_sparse(level[i], level[i + 1], combine))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def support_union_size(vectors: Sequence["SparseVector | np.ndarray"]) -> int:
    """Number of entries in the union of the per-rank supports."""
    if len(vectors) == 0:
        raise CommunicatorError("support union over zero ranks")
    union: np.ndarray | None = None
    for v in vectors:
        idx = as_sparse_vector(v).indices
        union = idx if union is None else np.union1d(union, idx)
    return int(union.size)
