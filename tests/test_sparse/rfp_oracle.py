"""A numpy oracle of the stage-C block layout, and the error bounds the
BLAS kernels are held to.

The layout is LAPACK's rectangular full packed format with
``TRANSR='N'``, ``UPLO='U'`` (the ``dtrttf`` definition): with
``n1 = ⌊d/2⌋``, ``n2 = d − n1`` the ``d(d+1)/2`` words are a column-major
array of ``lda`` rows (``d + 1`` for even ``d``, ``d`` for odd) and
``n2`` columns. Rows ``0 .. n1−1`` hold ``S = H[:n1, n1:]``; from row
``n1`` down sits the upper triangle of ``T2 = H[n1:, n1:]``, and from row
``lda − n1`` the lower triangle of ``T1 = H[:n1, :n1]``. This file reads
that definition directly and shares no code with ``repro.sparse.rfp``.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps


def rfp_to_dense(words: np.ndarray, d: int) -> np.ndarray:
    """The symmetric ``(d, d)`` matrix whose RFP words are *words*.

    Checks that the three pieces use every word exactly once and cover
    one triangle of the matrix.
    """
    words = np.asarray(words, dtype=np.float64)
    assert words.shape == (d * (d + 1) // 2,)
    n1 = d // 2
    n2 = d - n1
    lda = d + 1 if d % 2 == 0 else d
    A = words.reshape(n2, lda).T  # the column-major (lda, n2) array
    H = np.zeros((d, d))
    written = np.zeros((d, d), dtype=bool)
    used = np.zeros((lda, n2), dtype=bool)

    def put(rows, cols, src_rows, src_cols):
        H[rows, cols] = A[src_rows, src_cols]
        written[rows, cols] = True
        used[src_rows, src_cols] = True

    r, c = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    put(r.ravel(), n1 + c.ravel(), r.ravel(), c.ravel())  # S
    i, j = np.triu_indices(n2)
    put(n1 + i, n1 + j, n1 + i, j)  # T2, upper
    i, j = np.tril_indices(n1)
    put(i, j, lda - n1 + i, j)  # T1, lower
    assert used.all() and written.sum() == words.size
    assert (written | written.T).all()
    return np.where(written, H, H.T)


def assert_gram_close(got: np.ndarray, want: np.ndarray, ncols: int) -> None:
    """``got`` and ``want`` are one ``scale·A Aᵀ`` of *ncols* columns
    summed in two orders: each entry within the dot-product bound
    ``2(n + 2)ε·√(H_ii H_jj)`` (Cauchy–Schwarz bounds ``Σ|a_ik a_jk|``).
    Zero rows must agree exactly."""
    diag = np.sqrt(np.maximum(np.diag(want), 0.0))
    bound = 2.0 * (ncols + 2) * EPS * np.outer(diag, diag)
    err = np.abs(got - want)
    assert np.all(err <= bound), f"max excess {np.max(err - bound)}"


def assert_matvec_close(got: np.ndarray, H: np.ndarray, x: np.ndarray) -> None:
    """``got`` is ``H x`` to the matvec bound ``2(d + 2)ε·(|H| |x|)``."""
    d = H.shape[0]
    bound = 2.0 * (d + 2) * EPS * (np.abs(H) @ np.abs(x))
    err = np.abs(got - H @ x)
    assert np.all(err <= bound), f"max excess {np.max(err - bound)}"
