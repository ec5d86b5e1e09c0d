"""Property-based tests (hypothesis) for the sparse substrate.

Strategy: draw small dense matrices with controlled magnitudes, convert
through the sparse formats, and assert format invariants and kernel
equivalence with dense arithmetic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSCMatrix, CSRMatrix

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)


@st.composite
def dense_matrices(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    mat = draw(arrays(np.float64, (n, m), elements=finite))
    # Sparsify deterministically so the format code paths are exercised.
    mask = draw(arrays(np.bool_, (n, m), elements=st.booleans()))
    return np.where(mask, mat, 0.0)


@st.composite
def matrix_and_vector(draw):
    mat = draw(dense_matrices())
    vec = draw(arrays(np.float64, (mat.shape[1],), elements=finite))
    return mat, vec


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_coo_roundtrip(dense):
    np.testing.assert_array_equal(COOMatrix.from_dense(dense).to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_csr_roundtrip(dense):
    np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_csr_csc_agree(dense):
    csr = CSRMatrix.from_dense(dense)
    csc = CSCMatrix.from_dense(dense)
    np.testing.assert_array_equal(csr.to_dense(), csc.to_dense())
    assert csr.nnz == csc.nnz == np.count_nonzero(dense)


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_csr_indptr_invariants(dense):
    csr = CSRMatrix.from_dense(dense)
    assert csr.indptr[0] == 0
    assert csr.indptr[-1] == csr.nnz
    assert np.all(np.diff(csr.indptr) >= 0)
    # Column indices within each row are strictly increasing (canonical form).
    for i in range(dense.shape[0]):
        seg = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
        assert np.all(np.diff(seg) > 0)


@settings(max_examples=60, deadline=None)
@given(matrix_and_vector())
def test_matvec_matches_dense(mv):
    dense, vec = mv
    csr = CSRMatrix.from_dense(dense)
    csc = CSCMatrix.from_dense(dense)
    expected = dense @ vec
    np.testing.assert_allclose(csr.matvec(vec), expected, atol=1e-9)
    np.testing.assert_allclose(csc.matvec(vec), expected, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_transpose_involution(dense):
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_array_equal(csr.transpose().transpose().to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(), st.data())
def test_column_selection_matches_fancy_indexing(dense, data):
    csc = CSCMatrix.from_dense(dense)
    m = dense.shape[1]
    cols = data.draw(st.lists(st.integers(0, m - 1), min_size=0, max_size=2 * m))
    cols = np.asarray(cols, dtype=np.int64)
    np.testing.assert_array_equal(csc.select_columns(cols).to_dense(), dense[:, cols])
