"""Coordinate (triplet) sparse format.

COO is the assembly format: easy to build incrementally, trivially
convertible to CSR/CSC by a counting sort. All conversions are vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ShapeError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sparse.csr import CSRMatrix, CSCMatrix

__all__ = ["COOMatrix"]


@dataclass(frozen=True)
class COOMatrix:
    """Immutable sparse matrix in coordinate format.

    Attributes
    ----------
    rows, cols:
        ``int64`` index arrays of equal length ``nnz``.
    data:
        ``float64`` value array of length ``nnz``. Explicit zeros are kept
        (they count as stored entries).
    shape:
        ``(n_rows, n_cols)``.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if not (rows.ndim == cols.ndim == data.ndim == 1):
            raise ShapeError("rows, cols and data must be one-dimensional")
        if not (rows.size == cols.size == data.size):
            raise ShapeError(
                f"triplet arrays disagree in length: {rows.size}, {cols.size}, {data.size}"
            )
        n, m = self.shape
        if n < 0 or m < 0:
            raise ValidationError(f"shape must be non-negative, got {self.shape}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n:
                raise ValidationError(f"row indices out of range for shape {self.shape}")
            if cols.min() < 0 or cols.max() >= m:
                raise ValidationError(f"column indices out of range for shape {self.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (int(n), int(m)))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_dense(dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix holding the non-zeros of *dense*."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"dense input must be 2-D, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return COOMatrix(rows, cols, dense[rows, cols], dense.shape)

    # ------------------------------------------------------------------ #
    # properties & simple transforms
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries (including explicit zeros)."""
        return int(self.data.size)

    @property
    def density(self) -> float:
        """Fill fraction ``nnz / (n·m)`` — the paper's ``f``."""
        n, m = self.shape
        total = n * m
        return self.nnz / total if total else 0.0

    def transpose(self) -> "COOMatrix":
        """Return the transpose (swap row/column indices — O(1) data reuse)."""
        return COOMatrix(self.cols, self.rows, self.data, (self.shape[1], self.shape[0]))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (duplicates are summed)."""
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.data)
        return out

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR via a stable counting sort on the row index."""
        from repro.sparse.csr import CSRMatrix

        n, _ = self.shape
        counts = np.bincount(self.rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.rows, kind="stable")
        return CSRMatrix(indptr, self.cols[order], self.data[order], self.shape)

    def to_csc(self) -> "CSCMatrix":
        """Convert to CSC (CSR of the transpose)."""
        from repro.sparse.csr import CSCMatrix

        csr_t = self.transpose().to_csr()
        return CSCMatrix(csr_t.indptr, csr_t.indices, csr_t.data, self.shape)

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
