"""LIBSVM text format reader/writer (from scratch).

The paper's datasets (Table 2) come from the LIBSVM collection. Files are
lines of ``label idx:val idx:val ...`` with 1-based feature indices. The
reader returns the matrix in the *paper's orientation*: features × samples
(one column per line of the file).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.exceptions import FormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSCMatrix

__all__ = ["load_libsvm", "save_libsvm", "parse_libsvm_lines"]


def parse_libsvm_lines(
    lines: "list[str] | TextIO", *, n_features: int | None = None, zero_based: bool = False
) -> tuple[CSCMatrix, np.ndarray]:
    """Parse LIBSVM-format lines into ``(X, y)`` with ``X`` of shape (d, m).

    Parameters
    ----------
    lines:
        An iterable of text lines (or an open text file).
    n_features:
        Force the feature dimension ``d`` (rows). Defaults to the largest
        index seen.
    zero_based:
        Interpret feature indices as 0-based instead of the LIBSVM default
        of 1-based.
    """
    labels: list[float] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    offset = 0 if zero_based else 1
    sample = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad label {parts[0]!r}") from exc
        if not np.isfinite(label):
            raise FormatError(f"line {lineno}: non-finite label {parts[0]!r}")
        labels.append(label)
        if len(parts) > 1:
            try:
                pairs = [p.split(":", 1) for p in parts[1:]]
                index_values = [int(i) - offset for i, _ in pairs]
                val = np.array([float(v) for _, v in pairs], dtype=np.float64)
            except (ValueError, IndexError) as exc:
                raise FormatError(f"line {lineno}: malformed feature pair") from exc
            try:
                idx = np.array(index_values, dtype=np.int64)
            except OverflowError as exc:
                raise FormatError(f"line {lineno}: feature index out of int64 range") from exc
            if not np.isfinite(val).all():
                raise FormatError(f"line {lineno}: non-finite feature value")
            if idx.size and idx.min() < 0:
                raise FormatError(f"line {lineno}: feature index below minimum")
            if np.any(np.diff(idx) <= 0):
                # LIBSVM requires ascending indices; tolerate but detect dups.
                if np.unique(idx).size != idx.size:
                    raise FormatError(f"line {lineno}: duplicate feature index")
            rows.append(idx)
            cols.append(np.full(idx.size, sample, dtype=np.int64))
            vals.append(val)
        sample += 1

    m = sample
    if rows:
        all_rows = np.concatenate(rows)
        all_cols = np.concatenate(cols)
        all_vals = np.concatenate(vals)
    else:
        all_rows = np.empty(0, dtype=np.int64)
        all_cols = np.empty(0, dtype=np.int64)
        all_vals = np.empty(0, dtype=np.float64)
    d = int(all_rows.max()) + 1 if all_rows.size else 0
    if n_features is not None:
        if all_rows.size and n_features <= int(all_rows.max()):
            raise FormatError(
                f"n_features={n_features} too small for max index {int(all_rows.max())}"
            )
        d = n_features
    coo = COOMatrix(all_rows, all_cols, all_vals, (d, m))
    return coo.to_csc(), np.asarray(labels, dtype=np.float64)


def load_libsvm(
    path: str | Path, *, n_features: int | None = None, zero_based: bool = False
) -> tuple[CSCMatrix, np.ndarray]:
    """Load a LIBSVM file from *path*; see :func:`parse_libsvm_lines`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm_lines(fh, n_features=n_features, zero_based=zero_based)


def save_libsvm(
    path: str | Path, X: CSCMatrix | np.ndarray, y: np.ndarray, *, zero_based: bool = False
) -> None:
    """Write ``(X, y)`` (``X`` of shape (d, m), one column per sample)."""
    y = np.asarray(y, dtype=np.float64)
    if isinstance(X, np.ndarray):
        X = CSCMatrix.from_dense(X)
    d, m = X.shape
    if y.shape != (m,):
        raise FormatError(f"y must have one entry per sample ({m}), got shape {y.shape}")
    offset = 0 if zero_based else 1
    buf = io.StringIO()
    for j in range(m):
        lo, hi = X.indptr[j], X.indptr[j + 1]
        feats = " ".join(
            f"{int(i) + offset}:{v:.17g}" for i, v in zip(X.indices[lo:hi], X.data[lo:hi])
        )
        buf.write(f"{y[j]:.17g} {feats}".rstrip() + "\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
