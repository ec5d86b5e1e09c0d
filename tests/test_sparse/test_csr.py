"""Unit tests for CSRMatrix / CSCMatrix kernels against scipy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix


@pytest.fixture(scope="module")
def dense(request):
    gen = np.random.default_rng(11)
    D = gen.standard_normal((9, 13))
    D[np.abs(D) < 0.7] = 0.0
    return D


class TestCSRConstruction:
    def test_validation_indptr_length(self):
        with pytest.raises(ShapeError):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_validation_indptr_monotone(self):
        with pytest.raises(ValidationError):
            CSRMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0]), (2, 2))

    def test_validation_indices_range(self):
        with pytest.raises(ValidationError):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 2))

    def test_validation_indptr_ends(self):
        with pytest.raises(ValidationError):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 2))

    def test_eye(self):
        np.testing.assert_array_equal(CSRMatrix.eye(3).to_dense(), np.eye(3))

    def test_from_dense_roundtrip(self, dense):
        np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_density(self, dense):
        m = CSRMatrix.from_dense(dense)
        assert m.density == np.count_nonzero(dense) / dense.size


class TestCSRKernels:
    def test_matvec(self, dense, rng):
        m = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(dense.shape[1])
        np.testing.assert_allclose(m.matvec(x), dense @ x)

    def test_matvec_shape_check(self, dense):
        m = CSRMatrix.from_dense(dense)
        with pytest.raises(ShapeError):
            m.matvec(np.ones(dense.shape[1] + 1))

    def test_rmatvec(self, dense, rng):
        m = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(dense.shape[0])
        np.testing.assert_allclose(m.rmatvec(v), dense.T @ v)

    def test_select_rows_with_duplicates(self, dense):
        m = CSRMatrix.from_dense(dense)
        rows = np.array([2, 2, 0, 8])
        np.testing.assert_array_equal(m.select_rows(rows).to_dense(), dense[rows])

    def test_select_rows_out_of_range(self, dense):
        m = CSRMatrix.from_dense(dense)
        with pytest.raises(ValidationError):
            m.select_rows(np.array([100]))

    def test_row_norms_sq(self, dense):
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(m.row_norms_sq(), (dense**2).sum(axis=1))

    def test_transpose(self, dense):
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.transpose().to_dense(), dense.T)

    def test_empty_rows_matvec(self):
        m = CSRMatrix(np.array([0, 0, 1]), np.array([0]), np.array([2.0]), (2, 1))
        np.testing.assert_array_equal(m.matvec(np.array([3.0])), [0.0, 6.0])

    def test_zero_matrix_kernels(self):
        m = CSRMatrix(np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64), np.array([]), (3, 5))
        np.testing.assert_array_equal(m.matvec(np.ones(5)), np.zeros(3))
        np.testing.assert_array_equal(m.rmatvec(np.ones(3)), np.zeros(5))


class TestCSC:
    def test_roundtrip(self, dense):
        m = CSCMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_indptr_matches_scipy(self, dense):
        m = CSCMatrix.from_dense(dense)
        ref = sp.csc_matrix(dense)
        np.testing.assert_array_equal(m.indptr, ref.indptr)

    def test_matvec(self, dense, rng):
        m = CSCMatrix.from_dense(dense)
        x = rng.standard_normal(dense.shape[1])
        np.testing.assert_allclose(m.matvec(x), dense @ x)

    def test_rmatvec(self, dense, rng):
        m = CSCMatrix.from_dense(dense)
        v = rng.standard_normal(dense.shape[0])
        np.testing.assert_allclose(m.rmatvec(v), dense.T @ v)

    def test_select_columns_duplicates_order(self, dense):
        m = CSCMatrix.from_dense(dense)
        cols = np.array([5, 1, 1, 12])
        np.testing.assert_array_equal(m.select_columns(cols).to_dense(), dense[:, cols])

    def test_select_columns_empty(self, dense):
        m = CSCMatrix.from_dense(dense)
        out = m.select_columns(np.array([], dtype=np.int64))
        assert out.shape == (dense.shape[0], 0)

    def test_select_columns_out_of_range(self, dense):
        m = CSCMatrix.from_dense(dense)
        with pytest.raises(ValidationError):
            m.select_columns(np.array([-1]))

    def test_col_norms_sq(self, dense):
        m = CSCMatrix.from_dense(dense)
        np.testing.assert_allclose(m.col_norms_sq(), (dense**2).sum(axis=0))

    def test_col_nnz(self, dense):
        m = CSCMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.col_nnz(), (dense != 0).sum(axis=0))

    def test_csr_csc_roundtrip(self, medium_csr):
        back = medium_csr.to_csc().to_csr()
        np.testing.assert_array_equal(back.to_dense(), medium_csr.to_dense())
