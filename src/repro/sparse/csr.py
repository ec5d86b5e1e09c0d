"""Compressed sparse row / column formats with vectorized kernels.

``CSRMatrix`` is the workhorse storage for the data matrix ``X`` (features ×
samples, matching the paper's layout). ``CSCMatrix`` is the column-major
twin used for fast *sample* (column) selection when building the sampled
Hessian ``H_n = (1/m̄) X I_n I_nᵀ Xᵀ``.

All kernels are pure functions of their inputs — flop accounting lives in
:mod:`repro.sparse.ops` so the numerics stay reusable outside the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ShapeError, ValidationError
from repro.sparse.coo import COOMatrix

__all__ = ["CSRMatrix", "CSCMatrix"]


def _validate_compressed(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n_major: int, n_minor: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.float64)
    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        raise ShapeError("indptr, indices and data must be one-dimensional")
    if indptr.size != n_major + 1:
        raise ShapeError(f"indptr must have length {n_major + 1}, got {indptr.size}")
    if indices.size != data.size:
        raise ShapeError("indices and data must have equal length")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValidationError("indptr must start at 0 and end at nnz")
    if np.any(np.diff(indptr) < 0):
        raise ValidationError("indptr must be non-decreasing")
    if indices.size and (indices.min() < 0 or indices.max() >= n_minor):
        raise ValidationError(f"minor indices out of range [0, {n_minor})")
    return indptr, indices, data


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Expand an indptr to a per-entry major-index array."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def _gather_segments(indptr: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (entry positions, new indptr) selecting major slices *picks*.

    Fully vectorized segment gather: supports duplicate picks (sampling with
    replacement) and preserves pick order.
    """
    starts = indptr[picks]
    lengths = indptr[picks + 1] - starts
    new_indptr = np.zeros(picks.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), new_indptr
    # positions = concat(arange(starts[i], starts[i]+lengths[i]))
    offsets = np.repeat(starts - new_indptr[:-1], lengths)
    positions = np.arange(total, dtype=np.int64) + offsets
    return positions, new_indptr


@dataclass(frozen=True)
class CSRMatrix:
    """Immutable CSR matrix of shape ``(n, m)``.

    ``indptr`` has length ``n+1``; row ``i`` owns entries
    ``indptr[i]:indptr[i+1]`` of ``indices`` (column ids) and ``data``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        n, m = self.shape
        indptr, indices, data = _validate_compressed(self.indptr, self.indices, self.data, n, m)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (int(n), int(m)))
        # Memoized column-major twin: the matrix is immutable, so the
        # first to_csc() result can be cached for the instance's lifetime.
        object.__setattr__(self, "_csc_cache", None)

    # ------------------------------------------------------------------ #
    # constructors / conversions
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_dense(dense: np.ndarray) -> "CSRMatrix":
        """Compress the non-zeros of a dense array."""
        return COOMatrix.from_dense(dense).to_csr()

    @staticmethod
    def eye(n: int) -> "CSRMatrix":
        """Identity matrix of order *n*."""
        return CSRMatrix(
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n),
            (n, n),
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[_row_ids(self.indptr), self.indices] = self.data
        return out

    def to_coo(self) -> COOMatrix:
        return COOMatrix(_row_ids(self.indptr), self.indices, self.data, self.shape)

    def to_csc(self) -> "CSCMatrix":
        """Convert to column-major storage (counting sort on columns).

        The result is memoized on the instance — repeated calls (e.g.
        ``sampled_gram`` in a solver inner loop) pay the counting sort
        once. Safe because both formats are immutable.
        """
        cached = self._csc_cache
        if cached is None:
            cached = self.to_coo().to_csc()
            object.__setattr__(self, "_csc_cache", cached)
        return cached

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a CSR matrix."""
        csc = self.to_csc()
        return CSRMatrix(csc.indptr, csc.indices, csc.data, (self.shape[1], self.shape[0]))

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        n, m = self.shape
        total = n * m
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        n, m = self.shape
        if x.shape != (m,):
            raise ShapeError(f"matvec expects x of shape ({m},), got {x.shape}")
        out = np.zeros(n, dtype=np.float64)
        if self.nnz:
            contrib = self.data * x[self.indices]
            nonempty = np.flatnonzero(np.diff(self.indptr))
            out[nonempty] = np.add.reduceat(contrib, self.indptr[nonempty])
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transposed product ``Aᵀ @ v``."""
        v = np.asarray(v, dtype=np.float64)
        n, m = self.shape
        if v.shape != (n,):
            raise ShapeError(f"rmatvec expects v of shape ({n},), got {v.shape}")
        out = np.zeros(m, dtype=np.float64)
        if self.nnz:
            np.add.at(out, self.indices, self.data * v[_row_ids(self.indptr)])
        return out

    def select_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Return ``A[rows, :]`` (duplicates allowed, order preserved)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ShapeError("row selection must be one-dimensional")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ValidationError("row selection out of range")
        positions, new_indptr = _gather_segments(self.indptr, rows)
        return CSRMatrix(
            new_indptr, self.indices[positions], self.data[positions], (rows.size, self.shape[1])
        )

    def row_norms_sq(self) -> np.ndarray:
        """Squared euclidean norm of every row."""
        out = np.zeros(self.shape[0], dtype=np.float64)
        if self.nnz:
            sq = self.data * self.data
            nonempty = np.flatnonzero(np.diff(self.indptr))
            out[nonempty] = np.add.reduceat(sq, self.indptr[nonempty])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


@dataclass(frozen=True)
class CSCMatrix:
    """Immutable CSC matrix of shape ``(n, m)``.

    ``indptr`` has length ``m+1``; column ``j`` owns entries
    ``indptr[j]:indptr[j+1]`` of ``indices`` (row ids) and ``data``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        n, m = self.shape
        indptr, indices, data = _validate_compressed(self.indptr, self.indices, self.data, m, n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (int(n), int(m)))

    @staticmethod
    def from_dense(dense: np.ndarray) -> "CSCMatrix":
        return COOMatrix.from_dense(dense).to_csc()

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def density(self) -> float:
        n, m = self.shape
        total = n * m
        return self.nnz / total if total else 0.0

    def col_nnz(self) -> np.ndarray:
        """Stored entries per column (read-only, memoized on the instance).

        Flop accounting asks for it on every sampled-Gram call; the matrix
        is immutable, so the count is taken once.
        """
        cached = self.__dict__.get("_col_nnz")
        if cached is None:
            cached = np.diff(self.indptr)
            cached.flags.writeable = False
            object.__setattr__(self, "_col_nnz", cached)
        return cached

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[self.indices, _row_ids(self.indptr)] = self.data
        return out

    def to_coo(self) -> COOMatrix:
        return COOMatrix(self.indices, _row_ids(self.indptr), self.data, self.shape)

    def to_csr(self) -> CSRMatrix:
        return self.to_coo().to_csr()

    def select_columns(self, cols: np.ndarray) -> "CSCMatrix":
        """Return ``A[:, cols]`` — the paper's ``X I_n`` sampling operator.

        Duplicate columns are allowed (sampling with replacement) and the
        requested order is preserved.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 1:
            raise ShapeError("column selection must be one-dimensional")
        if cols.size and (cols.min() < 0 or cols.max() >= self.shape[1]):
            raise ValidationError("column selection out of range")
        positions, new_indptr = _gather_segments(self.indptr, cols)
        return CSCMatrix(
            new_indptr, self.indices[positions], self.data[positions], (self.shape[0], cols.size)
        )

    def gather_columns_dense(self, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Densify ``A[:, cols]`` directly, skipping the CSC intermediate.

        Bit-identical to ``select_columns(cols).to_dense()`` (same scatter
        order, so duplicate columns resolve identically) without building
        the intermediate compressed matrix. ``out``, when given, must be a
        ``(n, len(cols))`` float64 array and is overwritten in place —
        pair with :class:`~repro.sparse.ops.GramWorkspace` to make the
        inner-loop column densification allocation-free.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 1:
            raise ShapeError("column selection must be one-dimensional")
        if cols.size and (cols.min() < 0 or cols.max() >= self.shape[1]):
            raise ValidationError("column selection out of range")
        shape = (self.shape[0], cols.size)
        if out is None:
            out = np.zeros(shape, dtype=np.float64)
        else:
            if out.shape != shape or out.dtype != np.float64:
                raise ShapeError(f"out must be float64 of shape {shape}")
            out.fill(0.0)
        positions, new_indptr = _gather_segments(self.indptr, cols)
        if positions.size:
            out[self.indices[positions], _row_ids(new_indptr)] = self.data[positions]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` via scatter-add over columns."""
        x = np.asarray(x, dtype=np.float64)
        n, m = self.shape
        if x.shape != (m,):
            raise ShapeError(f"matvec expects x of shape ({m},), got {x.shape}")
        out = np.zeros(n, dtype=np.float64)
        if self.nnz:
            np.add.at(out, self.indices, self.data * x[_row_ids(self.indptr)])
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``Aᵀ @ v`` via per-column reduction."""
        v = np.asarray(v, dtype=np.float64)
        n, m = self.shape
        if v.shape != (n,):
            raise ShapeError(f"rmatvec expects v of shape ({n},), got {v.shape}")
        out = np.zeros(m, dtype=np.float64)
        if self.nnz:
            contrib = self.data * v[self.indices]
            nonempty = np.flatnonzero(np.diff(self.indptr))
            out[nonempty] = np.add.reduceat(contrib, self.indptr[nonempty])
        return out

    def col_norms_sq(self) -> np.ndarray:
        """Squared euclidean norm of every column."""
        out = np.zeros(self.shape[1], dtype=np.float64)
        if self.nnz:
            sq = self.data * self.data
            nonempty = np.flatnonzero(np.diff(self.indptr))
            out[nonempty] = np.add.reduceat(sq, self.indptr[nonempty])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
