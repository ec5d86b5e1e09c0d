"""Sampled Gram-matrix kernels and flop accounting.

These implement the two quantities RC-SFISTA builds every inner iteration
(Eq. 18 of the paper):

.. math::

    H_n = \\frac{1}{\\bar m} X I_n I_n^T X^T, \\qquad
    R_n = \\frac{1}{\\bar m} X I_n I_n^T y

where ``X`` is the (d × m) data matrix, ``I_n`` selects ``m̄`` sampled
columns, and ``y`` holds the labels. For a general smooth loss the same
kernels build the sampled quadratic model at a point: ``weights`` puts
the curvatures ``c = ℓ''`` between the factors of ``H_n``, and the working
response ``r`` takes the place of ``y``. The flop helpers return the *sparse*
operation counts the paper's model charges (Table 1), computed from matrix
metadata so the cost model and the numerics cannot drift apart.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.rfp import RFPGram

__all__ = [
    "GramWorkspace",
    "sampled_gram",
    "sampled_rhs",
    "sampled_gram_blocks",
    "packed_size",
    "gram_flops",
    "rhs_flops",
]

Matrix = np.ndarray | CSRMatrix | CSCMatrix


class GramWorkspace:
    """Reusable buffers for the sampled-Gram kernels.

    Solvers densify (at most) the same number of sampled sparse columns
    every round, so the dense block they are gathered into can live in
    one pool: ``max_cols`` (a rank's ``k·m̄`` columns per round) sizes it
    at its first borrow, and it never regrows after. The ``(d, d)``
    scratch :func:`sampled_gram` forms its product in is allocated at its
    first borrow too (no solver path borrows it) and stays cache-resident
    across calls, and :func:`sampled_gram_blocks` borrows one
    :class:`~repro.sparse.rfp.RFPGram`, the stage-B writer with its BLAS
    arguments built once. All live and die with the workspace. Results
    are bit-identical to the allocating path.

    ``reuses`` counts borrows served without growing a buffer — it feeds
    the ``gram_workspace_reuses`` runtime counter (see docs/PERFORMANCE.md).
    """

    def __init__(self, d: int, max_cols: int = 0) -> None:
        d = int(d)
        if d < 1:
            raise ShapeError(f"GramWorkspace needs d >= 1, got {d}")
        self._pool_size = d * int(max_cols)
        self._pool = np.empty(0, dtype=np.float64)
        self._scratch = np.empty((0, 0), dtype=np.float64)
        self._rfp_gram: RFPGram | None = None
        self.reuses = 0

    def dense_block(self, rows: int, ncols: int) -> np.ndarray:
        """Borrow a C-contiguous ``(rows, ncols)`` float64 block.

        The block is a reshaped view of a flat pool, laid out like the
        freshly allocated ``to_dense()`` of a sparse column selection —
        BLAS summation order follows the layout, so this keeps results
        bit-identical. The pool is allocated at the first borrow (dense
        data never borrows it) and grows only past ``max_cols`` columns.
        """
        rows, ncols = int(rows), int(ncols)
        need = rows * ncols
        if need > self._pool.size:
            self._pool = np.empty(max(need, self._pool_size), dtype=np.float64)
        else:
            self.reuses += 1
        return self._pool[:need].reshape(rows, ncols)

    def gram_scratch(self, d: int) -> np.ndarray:
        """Borrow the ``(d, d)`` scratch the Gram product is formed in."""
        if self._scratch.shape != (d, d):
            self._scratch = np.empty((d, d), dtype=np.float64)
        else:
            self.reuses += 1
        return self._scratch

    def rfp_gram(self, d: int) -> RFPGram:
        """Borrow the stage-B writer of order *d* (see :func:`sampled_gram_blocks`)."""
        if self._rfp_gram is None or self._rfp_gram.d != d:
            self._rfp_gram = RFPGram(d)
        else:
            self.reuses += 1
        return self._rfp_gram


def _select_columns_dense(
    X: Matrix, cols: np.ndarray, workspace: GramWorkspace | None = None
) -> np.ndarray:
    """Materialize ``X[:, cols]`` densely for Gram formation."""
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-D, got shape {X.shape}")
        # Fancy indexing copies only the selected columns, F-ordered; a
        # pool block cannot take them without a second pass, and
        # np.take(..., out=) would first copy a strided X (a rank's column
        # slice) whole.
        return X[:, cols]
    if isinstance(X, CSRMatrix):
        X = X.to_csc()  # memoized on the CSR instance
    cols = np.asarray(cols, dtype=np.int64)
    if workspace is not None:
        return X.gather_columns_dense(cols, out=workspace.dense_block(X.shape[0], cols.size))
    return X.select_columns(cols).to_dense()


def _sqrt_weights(weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``√c_S`` of the sampled columns, rejecting negative curvatures."""
    c = np.asarray(weights, dtype=np.float64)[cols]
    if np.any(c < 0):
        raise ValidationError("sampled_gram weights must be non-negative")
    return np.sqrt(c)


def sampled_gram(
    X: Matrix,
    cols: np.ndarray,
    *,
    scale: float | None = None,
    workspace: GramWorkspace | None = None,
    out: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Dense sampled Gram matrix ``(1/m̄) X_S diag(c_S) X_Sᵀ`` with ``S = cols``.

    Parameters
    ----------
    X:
        Data matrix of shape ``(d, m)`` — dense, CSR or CSC.
    cols:
        Sampled column (sample) indices, duplicates allowed.
    scale:
        Override for the ``1/m̄`` normalization (``None`` → ``1/len(cols)``).
    workspace:
        Optional :class:`GramWorkspace`; when given, the dense column
        block and the product scratch are borrowed instead of allocated.
        Results are bit-identical to the allocating path.
    out:
        Optional ``(d, d)`` float64 output buffer, written in place.
    weights:
        Optional non-negative per-column weights ``c`` of length ``m``
        (curvatures ``ℓ''`` of a convex loss); ``None`` is ``c ≡ 1``. The
        gathered block is scaled in place by ``√c_S``, so the weighted
        Gram reuses the unweighted product and its buffers.

    Returns
    -------
    ``(d, d)`` dense symmetric positive semi-definite array.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_gram requires at least one sampled column")
    A = _select_columns_dense(X, cols, workspace)
    if weights is not None:
        # The gather is a fresh copy or workspace scratch, never X itself.
        A *= _sqrt_weights(weights, cols)
    s = (1.0 / cols.size) if scale is None else float(scale)
    d = A.shape[0]
    if out is None:
        out = np.empty((d, d), dtype=np.float64)
    elif out.shape != (d, d) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 of shape {(d, d)}")
    # numpy hands A @ A.T to BLAS syrk, which computes one triangle and
    # mirrors it, so the product is exactly symmetric (pinned by
    # tests/test_sparse/test_symmetry.py) and the scale is the only pass
    # after it. With a workspace the product runs in its cache-resident
    # scratch and out is written once, by the scale.
    if workspace is None:
        np.matmul(A, A.T, out=out)
        out *= s
    else:
        scratch = workspace.gram_scratch(d)
        np.matmul(A, A.T, out=scratch)
        np.multiply(scratch, s, out=out)
    return out


def sampled_rhs(
    X: Matrix,
    y: np.ndarray,
    cols: np.ndarray,
    *,
    scale: float | None = None,
    workspace: GramWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sampled right-hand side ``(1/m̄) X_S y_S``.

    ``workspace``/``out`` mirror :func:`sampled_gram`: borrow the dense
    column block and write the result in place, bit-identically.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        raise ShapeError("sampled_rhs requires at least one sampled column")
    y = np.asarray(y, dtype=np.float64)
    A = _select_columns_dense(X, cols, workspace)
    if y.ndim != 1 or A.shape[1] != cols.size:
        raise ShapeError("y must be 1-D and consistent with X")
    s = (1.0 / cols.size) if scale is None else float(scale)
    d = A.shape[0]
    if out is None:
        out = np.empty(d, dtype=np.float64)
    elif out.shape != (d,) or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 of shape {(d,)}")
    np.matmul(A, y[cols], out=out)
    out *= s
    return out


def packed_size(d: int) -> int:
    """Words of one packed symmetric ``(d, d)`` block: its ``d(d + 1)/2``
    distinct entries, in RFP (see :mod:`repro.sparse.rfp`)."""
    return d * (d + 1) // 2


def sampled_gram_blocks(
    X: Matrix,
    cols: np.ndarray,
    offsets: Sequence[int],
    *,
    scale: float,
    weights: np.ndarray | None = None,
    response: np.ndarray | None = None,
    rhs: bool = False,
    workspace: GramWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The packed sampled blocks of several column sets from one column gather.

    ``cols`` holds the sets one after another, set ``j`` being
    ``cols[offsets[j]:offsets[j + 1]]`` (an ``indptr``-style list of
    ``k + 1`` offsets). Row ``j`` of the ``(k, stride)`` result holds the
    ``d(d + 1)/2`` distinct entries of the symmetric ``H_j = scale·X_{S_j}
    diag(c) X_{S_j}ᵀ`` in rectangular full packed format
    (:mod:`repro.sparse.rfp`; ``stride = d(d + 1)/2``, see
    :func:`packed_size`), followed, with ``rhs``, by
    ``R_j = scale·X_{S_j} r_{S_j}`` (``stride = d(d + 1)/2 + d``;
    ``response=None`` zero-fills it). An empty set's block is zero.
    :meth:`RFPMatvec.bind <repro.sparse.rfp.RFPMatvec.bind>` multiplies a
    row as it stands.

    All of ``cols`` is gathered into one ``(d, len(cols))`` block and each
    block is computed on a column view of it: the ``R_j`` from the
    unweighted columns, then, after one in-place ``√c`` scaling of the
    whole block, the ``H_j``, written by BLAS ``dsfrk`` straight into its
    payload row with the scale as ``α`` (:class:`~repro.sparse.rfp.RFPGram`).
    ``H_j`` agrees with :func:`sampled_gram` on its own set to rounding
    (BLAS orders the sums of the RFP kernel differently from a full
    ``syrk``); ``R_j`` is bit-identical to :func:`sampled_rhs`. ``out``
    (C-contiguous) and ``workspace`` work as in :func:`sampled_gram`;
    size the workspace for ``len(cols)`` columns.
    """
    cols = np.asarray(cols, dtype=np.int64)
    offsets = [int(o) for o in offsets]
    if not offsets or offsets[0] != 0 or offsets[-1] != cols.size or any(
        lo > hi for lo, hi in zip(offsets, offsets[1:])
    ):
        raise ShapeError("offsets must rise from 0 to len(cols)")
    k = len(offsets) - 1
    d = X.shape[0]
    t = packed_size(d)
    stride = t + d if rhs else t
    if out is None:
        out = np.empty((k, stride), dtype=np.float64)
    elif out.shape != (k, stride) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"out must be C-contiguous float64 of shape {(k, stride)}")
    if cols.size == 0:
        out.fill(0.0)
        return out
    A = _select_columns_dense(X, cols, workspace)
    spans = []  # (first column, end column, output row) of each non-empty set
    for j, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        if hi > lo:
            spans.append((lo, hi, j))
        else:
            out[j].fill(0.0)
    if rhs and response is not None:
        r = np.asarray(response, dtype=np.float64)[cols]
        for lo, hi, j in spans:
            R_j = out[j, t:]
            np.matmul(A[:, lo:hi], r[lo:hi], out=R_j)
            R_j *= scale
    elif rhs:
        out[:, t:] = 0.0
    if weights is not None:
        # The gather is a fresh copy or workspace scratch, never X itself.
        A *= _sqrt_weights(weights, cols)
    gram = RFPGram(d) if workspace is None else workspace.rfp_gram(d)
    gram(A, spans, scale, out)
    return out


# ---------------------------------------------------------------------- #
# flop accounting (sparse-aware, used to charge the α-β-γ model)
# ---------------------------------------------------------------------- #
def _nnz_of_columns(X: Matrix, cols: np.ndarray) -> int:
    """Stored entries of ``X[:, cols]`` without materializing it."""
    cols = np.asarray(cols, dtype=np.int64)
    if isinstance(X, np.ndarray):
        d = X.shape[0]
        return int(d * cols.size)
    if isinstance(X, CSRMatrix):
        # Without a CSC view, estimate via average column fill; exact value
        # needs a column histogram which callers that care precompute.
        avg = X.nnz / X.shape[1] if X.shape[1] else 0.0
        return int(round(avg * cols.size))
    per_col = X.col_nnz()
    return int(per_col[cols].sum())


def gram_flops(
    X: Matrix, cols: np.ndarray, d: int | None = None, *, weighted: bool = False
) -> int:
    """Flops to form ``X_S X_Sᵀ`` sparsely: ``Σ_s nnz(x_s)²`` multiply-adds.

    The paper's Table 1 models this as ``O(d² m̄ f)``; with uniformly
    distributed non-zeros ``nnz(x_s) ≈ d·f`` and the two agree. We charge
    2 flops per multiply-add. ``weighted`` adds the one scaling multiply
    per stored entry of the curvature-weighted kernel.
    """
    cols = np.asarray(cols, dtype=np.int64)
    scaling = _nnz_of_columns(X, cols) if weighted else 0
    if isinstance(X, np.ndarray):
        dd = X.shape[0]
        return int(2 * dd * dd * cols.size) + scaling
    if isinstance(X, CSCMatrix):
        per_col = X.col_nnz()[cols].astype(np.int64)
        return int(2 * np.sum(per_col * per_col)) + scaling
    # CSR fallback: average fill model.
    dd = d if d is not None else X.shape[0]
    f = X.density
    return (int(round(2 * dd * dd * f * f * cols.size)) if f else 0) + scaling


def rhs_flops(X: Matrix, cols: np.ndarray) -> int:
    """Flops to form ``X_S y_S`` (2 per stored entry of the sampled block)."""
    return 2 * _nnz_of_columns(X, cols)
