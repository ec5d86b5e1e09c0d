"""Unit tests for repro.sparse.coo against dense/scipy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError, ValidationError
from repro.sparse.coo import COOMatrix


def make(rows, cols, data, shape):
    return COOMatrix(np.array(rows), np.array(cols), np.array(data, dtype=float), shape)


class TestConstruction:
    def test_basic(self):
        m = make([0, 1], [1, 2], [1.0, 2.0], (2, 3))
        assert m.nnz == 2
        assert m.shape == (2, 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            make([0], [1, 2], [1.0, 2.0], (2, 3))

    def test_out_of_range_row(self):
        with pytest.raises(ValidationError):
            make([2], [0], [1.0], (2, 3))

    def test_out_of_range_col(self):
        with pytest.raises(ValidationError):
            make([0], [3], [1.0], (2, 3))

    def test_negative_shape(self):
        with pytest.raises(ValidationError):
            make([], [], [], (-1, 3))

    def test_empty_matrix(self):
        m = make([], [], [], (0, 0))
        assert m.nnz == 0
        assert m.density == 0.0

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((6, 4))
        dense[dense < 0.3] = 0.0
        m = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            COOMatrix.from_dense(np.ones(3))


class TestTransforms:
    def test_transpose(self, rng):
        dense = rng.standard_normal((5, 7))
        m = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.transpose().to_dense(), dense.T)

    def test_to_dense_sums_duplicates(self):
        m = make([0, 0], [0, 0], [1.0, 4.0], (1, 1))
        np.testing.assert_array_equal(m.to_dense(), [[5.0]])

    def test_density(self):
        m = make([0], [0], [1.0], (2, 2))
        assert m.density == 0.25


class TestConversions:
    def test_to_csr_matches_scipy(self, rng):
        dense = rng.standard_normal((8, 5))
        dense[np.abs(dense) < 0.8] = 0.0
        m = COOMatrix.from_dense(dense).to_csr()
        ref = sp.csr_matrix(dense)
        np.testing.assert_array_equal(m.indptr, ref.indptr)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_to_csc_matches_scipy(self, rng):
        dense = rng.standard_normal((8, 5))
        dense[np.abs(dense) < 0.8] = 0.0
        m = COOMatrix.from_dense(dense).to_csc()
        ref = sp.csc_matrix(dense)
        np.testing.assert_array_equal(m.indptr, ref.indptr)
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_to_csr_with_empty_rows(self):
        m = make([2], [1], [3.0], (4, 3))
        csr = m.to_csr()
        np.testing.assert_array_equal(np.diff(csr.indptr), [0, 0, 1, 0])
