"""Rectangular full packed (RFP) storage of the symmetric stage-C blocks.

Every sampled ``H_j`` ships as its ``d(d + 1)/2`` distinct words in
LAPACK's rectangular full packed format with ``TRANSR='N'``,
``UPLO='U'`` (Gustavson, Waśniewski, Dongarra & Langou, ACM TOMS 37(2),
2010). With ``n1 = ⌊d/2⌋`` and ``n2 = d − n1`` the matrix splits as

.. math::

    H = \\begin{pmatrix} T_1 & S \\\\ S^T & T_2 \\end{pmatrix},

and the words are a column-major array of ``lda`` rows and ``n2``
columns (``lda = d + 1`` for even ``d``, ``d`` for odd ``d``): ``S``
(``n1 × n2``) at word 0, the upper triangle of ``T2`` (order ``n2``) at
word ``n1`` and the lower triangle of ``T1`` (order ``n1``) at word
``lda − n1``. BLAS writes the layout directly (``dsfrk``, stage B) and
multiplies it as shipped (``dsymv`` on each triangle, ``dgemv`` and its
transpose on ``S``, stage D), so no square copy of a block is formed at
either end.

The kernels come from numpy's own bundled OpenBLAS (the ``scipy_``-
prefixed ILP64 build numpy wheels ship), bound through ctypes on first
use, so importing this module loads nothing. Where that library or its
symbols are absent (a numpy built on Accelerate or MKL), a numpy fallback
writes and reads the same layout: a ``matmul`` and a gather of the RFP
words for stage B, two scatters into a square buffer and ``@`` for stage
D. The two paths agree to rounding, not bit for bit; :func:`gram_kernel`
names the one in use.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from repro.exceptions import ShapeError

__all__ = ["RFPGram", "RFPMatrix", "RFPMatvec", "gram_kernel", "openblas", "rfp_index"]

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p
_ENUM = ctypes.c_int
#: CBLAS enum values (cblas.h).
_COL_MAJOR, _NO_TRANS, _TRANS, _UPPER, _LOWER = 102, 111, 112, 121, 122
_WORD = 8  # bytes per float64


class _OpenBLAS:
    """The three kernels of numpy's bundled ILP64 OpenBLAS the layout uses."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        ref_i64, ref_f64 = ctypes.POINTER(_I64), ctypes.POINTER(_F64)
        # Fortran DSFRK(TRANSR, UPLO, TRANS, N, K, ALPHA, A, LDA, BETA, C)
        # plus the three hidden string lengths.
        self.sfrk = lib.scipy_dsfrk_64_
        self.sfrk.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ref_i64, ref_i64, ref_f64,
            _PTR, ref_i64, ref_f64, _PTR, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_size_t,
        ]
        self.sfrk.restype = None
        self.symv = lib.scipy_cblas_dsymv64_
        self.symv.argtypes = [_ENUM, _ENUM, _I64, _F64, _PTR, _I64, _PTR, _I64, _F64, _PTR, _I64]
        self.symv.restype = None
        self.gemv = lib.scipy_cblas_dgemv64_
        self.gemv.argtypes = [
            _ENUM, _ENUM, _I64, _I64, _F64, _PTR, _I64, _PTR, _I64, _F64, _PTR, _I64,
        ]
        self.gemv.restype = None


@functools.cache
def openblas() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS, loaded on the first call; ``None`` where absent.

    numpy has already mapped the library, so loading it again costs no
    memory, and no scipy module is imported.
    """
    root = Path(np.__file__).resolve().parent
    pattern = "*scipy_openblas64_*"  # numpy.libs/ on Linux and Windows, .dylibs/ on macOS
    candidates = [*root.parent.glob(f"numpy.libs/{pattern}"), *root.glob(f".dylibs/{pattern}")]
    for path in sorted(candidates):
        try:
            return _OpenBLAS(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):  # unloadable, or a build without the symbols
            continue
    return None


def gram_kernel() -> str:
    """The kernel path of this process: ``"openblas"``, or ``"numpy"`` (the fallback)."""
    return "numpy" if openblas() is None else "openblas"


def _split(d: int) -> tuple[int, int, int]:
    """``(n1, n2, lda)`` of the order-*d* RFP array."""
    n1 = d // 2
    return n1, d - n1, d + 1 if d % 2 == 0 else d


def rfp_index(d: int) -> np.ndarray:
    """Flat position, in a C-order ``(d, d)`` array, of every RFP word.

    Every position lies on the upper triangle (row ≤ column), so
    ``full.reshape(-1)[rfp_index(d)]`` packs a symmetric ``full``. Kept
    writeable: ``np.take`` copies a read-only index on every gather.
    """
    n1, n2, lda = _split(d)
    r = np.arange(lda)[:, None]
    c = np.arange(n2)[None, :]
    s_or_t2 = r <= n1 + c  # S: rows < n1; T2: rows n1 .. n1 + c
    row = np.where(s_or_t2, r, c)
    col = np.where(s_or_t2, n1 + c, r - (lda - n1))
    return (row * d + col).ravel(order="F")


class RFPGram:
    """Stage B: ``α·A_S A_Sᵀ`` of column blocks ``A_S`` of one gather, into RFP rows.

    Holds the ctypes arguments of ``dsfrk``, built once and updated in
    place per call, so one instance serves one thread at a time (a
    :class:`~repro.sparse.ops.GramWorkspace` is private to a rank under
    parallel maps). The fallback forms each product in a ``(d, d)``
    scratch and gathers its RFP words.
    """

    def __init__(self, d: int) -> None:
        self.d = int(d)
        self._blas = openblas()
        if self._blas is None:
            self._scratch = np.empty((self.d, self.d))
            self._index = rfp_index(self.d)
            return
        self._k, self._lda, self._alpha = _I64(0), _I64(0), _F64(0.0)
        self._n, self._beta = _I64(self.d), _F64(0.0)
        self._refs = tuple(
            ctypes.byref(v) for v in (self._n, self._k, self._alpha, self._lda, self._beta)
        )

    def __call__(
        self, A: np.ndarray, spans: list[tuple[int, int, int]], alpha: float, out: np.ndarray
    ) -> None:
        """For each ``(lo, hi, j)``: ``out[j, :d(d+1)/2] ← α·A[:, lo:hi] A[:, lo:hi]ᵀ``.

        ``A`` is the ``(d, n)`` gather and ``out`` a C-contiguous float64
        payload whose rows start with the RFP words.
        """
        d = self.d
        if A.shape[0] != d or out.ndim != 2 or out.shape[1] < d * (d + 1) // 2:
            raise ShapeError(f"RFPGram of order {d} got A {A.shape} and out {out.shape}")
        if not all(0 <= lo < hi <= A.shape[1] and 0 <= j < out.shape[0] for lo, hi, j in spans):
            raise ShapeError("spans must be non-empty column ranges of A and rows of out")
        if self._blas is None:
            t = d * (d + 1) // 2
            for lo, hi, j in spans:
                block = A[:, lo:hi]
                np.matmul(block, block.T, out=self._scratch)
                row = out[j, :t]
                np.take(self._scratch.reshape(-1), self._index, out=row, mode="clip")
                row *= alpha
            return
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ShapeError("out must be C-contiguous float64")
        if A.dtype != np.float64 or not (A.flags.c_contiguous or A.flags.f_contiguous):
            A = np.ascontiguousarray(A, dtype=np.float64)
        # A C-order (d, n) gather is the Fortran (n, d) matrix Aᵀ: TRANS='T'
        # with LDA = n. An F-order one is Fortran (d, n) itself.
        if A.flags.c_contiguous:
            trans, lda, col_bytes = b"T", A.shape[1], _WORD
        else:
            trans, lda, col_bytes = b"N", d, _WORD * d
        a0, c0, row_bytes = A.ctypes.data, out.ctypes.data, out.strides[0]
        n, k, alpha_ref, lda_ref, beta = self._refs
        self._lda.value = lda
        self._alpha.value = alpha
        for lo, hi, j in spans:
            self._k.value = hi - lo
            self._blas.sfrk(
                b"N", b"U", trans, n, k, alpha_ref, a0 + lo * col_bytes, lda_ref, beta,
                c0 + j * row_bytes, 1, 1, 1,
            )


class RFPMatvec:
    """Stage D: the vector buffers and BLAS arguments every ``H @ x`` goes through.

    One instance per order ``d`` and per thread (:meth:`RFPMatrix.__matmul__`
    writes its buffers); :meth:`bind` wraps each shipped block. The
    fallback mirrors a block into a ``(d, d)`` buffer once, at its first
    product, and multiplies that.
    """

    def __init__(self, d: int) -> None:
        self.d = d = int(d)
        self._blas = openblas()
        if self._blas is None:
            self._dense = np.empty((d, d))
            self._index = rfp_index(d)
            self._mirror = (self._index % d) * d + self._index // d
            self._holds: RFPMatrix | None = None
            return
        n1, n2, lda = _split(d)
        self._x, self._y = np.empty(d), np.empty(d)
        x, y = self._x.ctypes.data, self._y.ctypes.data
        self._offsets = (0, lda - n1, n1)  # words to S, T1 and T2
        self._args = (
            _ENUM(_COL_MAJOR), _ENUM(_LOWER), _ENUM(_UPPER), _ENUM(_NO_TRANS), _ENUM(_TRANS),
            _I64(n1), _I64(n2), _I64(lda), _F64(1.0), _F64(0.0), _I64(1),
            _PTR(x), _PTR(x + _WORD * n1), _PTR(y), _PTR(y + _WORD * n1),
        )

    def bind(self, words: np.ndarray) -> RFPMatrix:
        """The symmetric matrix whose RFP words are *words* (kept referenced, not copied)."""
        d = self.d
        t = d * (d + 1) // 2
        if words.shape != (t,) or words.dtype != np.float64 or not words.flags.c_contiguous:
            raise ShapeError(
                f"an RFP block of order {d} is {t} contiguous float64 entries, got {words.shape}"
            )
        if self._blas is None:
            return RFPMatrix(self, words, None)
        (col, lower, upper, no_trans, trans,
         n1, n2, lda, one, zero, unit, x1, x2, y1, y2) = self._args
        w = words.ctypes.data
        s, t1, t2 = (_PTR(w + _WORD * offset) for offset in self._offsets)
        symv, gemv = self._blas.symv, self._blas.gemv
        calls = (  # y1 = T1 x1; y1 += S x2; y2 = T2 x2; y2 += Sᵀ x1
            (symv, (col, lower, n1, one, t1, lda, x1, unit, zero, y1, unit)),
            (gemv, (col, no_trans, n1, n2, one, s, lda, x2, unit, one, y1, unit)),
            (symv, (col, upper, n2, one, t2, lda, x2, unit, zero, y2, unit)),
            (gemv, (col, trans, n1, n2, one, s, lda, x1, unit, one, y2, unit)),
        )
        return RFPMatrix(self, words, calls)

    def _dense_of(self, matrix: RFPMatrix) -> np.ndarray:
        if self._holds is not matrix:
            flat = self._dense.reshape(-1)
            flat[self._index] = matrix.words
            flat[self._mirror] = matrix.words
            self._holds = matrix
        return self._dense


class RFPMatrix:
    """A symmetric matrix held as its RFP words; ``H @ x`` multiplies it as shipped.

    Made by :meth:`RFPMatvec.bind`. A product returns a fresh vector.
    """

    __slots__ = ("_kernel", "words", "_calls")

    def __init__(self, kernel: RFPMatvec, words: np.ndarray, calls) -> None:
        self._kernel = kernel
        self.words = words
        self._calls = calls

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        kernel = self._kernel
        x = np.asarray(x)
        if x.shape != (kernel.d,):
            raise ShapeError(f"RFP matrix of order {kernel.d} times a vector of shape {x.shape}")
        if self._calls is None:
            return kernel._dense_of(self) @ x
        np.copyto(kernel._x, x)
        kernel._y.fill(0.0)  # beta = 0 must not meet a NaN left by an earlier product
        for fn, args in self._calls:
            fn(*args)
        return kernel._y.copy()
