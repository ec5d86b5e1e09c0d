"""Feature/label preprocessing.

Standard lasso practice: scale feature rows to unit norm so a single λ is
meaningful across features. Sparse matrices are scaled without centering
to preserve sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.exceptions import ValidationError

__all__ = ["normalize_feature_rows", "normalize_sample_columns"]


def normalize_sample_columns(
    X: np.ndarray | CSRMatrix | CSCMatrix,
) -> tuple[np.ndarray | CSCMatrix, np.ndarray]:
    """Scale each *sample* (column of the d × m matrix) to unit norm.

    This mirrors the preprocessing of the paper's LIBSVM datasets (epsilon
    ships unit-normalized; mnist/covtype are conventionally scaled), and it
    is what makes the per-sample Lipschitz constants ``‖x_i‖² = 1`` so the
    stochastic step-size rule stays close to the deterministic one.
    Returns ``(X_scaled, norms)``; zero columns are left untouched. Sparse
    input comes back as CSC.
    """
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        norms = np.linalg.norm(X, axis=0)
        safe = np.where(norms > 0, norms, 1.0)
        return X / safe[None, :], norms
    csc = X.to_csc() if isinstance(X, CSRMatrix) else X
    if not isinstance(csc, CSCMatrix):
        raise ValidationError(f"unsupported matrix type {type(X).__name__}")
    norms = np.sqrt(csc.col_norms_sq())
    safe = np.where(norms > 0, norms, 1.0)
    col_ids = np.repeat(np.arange(csc.shape[1], dtype=np.int64), np.diff(csc.indptr))
    data = csc.data / safe[col_ids]
    return CSCMatrix(csc.indptr, csc.indices, data, csc.shape), norms


def normalize_feature_rows(
    X: np.ndarray | CSRMatrix | CSCMatrix,
) -> tuple[np.ndarray | CSRMatrix | CSCMatrix, np.ndarray]:
    """Scale each feature row of ``X`` (d × m) to unit euclidean norm.

    Returns ``(X_scaled, norms)``; zero rows are left untouched (their norm
    entry is reported as 0). The operation preserves the storage format.
    """
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        norms = np.linalg.norm(X, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return X / safe[:, None], norms
    if isinstance(X, CSRMatrix):
        norms = np.sqrt(X.row_norms_sq())
        safe = np.where(norms > 0, norms, 1.0)
        row_ids = np.repeat(np.arange(X.shape[0], dtype=np.int64), np.diff(X.indptr))
        data = X.data / safe[row_ids]
        return CSRMatrix(X.indptr, X.indices, data, X.shape), norms
    if isinstance(X, CSCMatrix):
        csr = X.to_csr()
        scaled, norms = normalize_feature_rows(csr)
        return scaled.to_csc(), norms  # type: ignore[union-attr]
    raise ValidationError(f"unsupported matrix type {type(X).__name__}")
