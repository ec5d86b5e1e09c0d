"""Unit tests for sampled Gram kernels and flop accounting."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import (
    gram_flops,
    rhs_flops,
    sampled_gram,
    sampled_rhs,
)


@pytest.fixture(scope="module")
def data():
    gen = np.random.default_rng(2)
    D = gen.standard_normal((7, 30))
    D[np.abs(D) < 0.6] = 0.0
    y = gen.standard_normal(30)
    return D, y


class TestSampledGram:
    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc"])
    def test_matches_dense_formula(self, data, fmt):
        D, _ = data
        X = {"dense": D, "csr": CSRMatrix.from_dense(D), "csc": CSCMatrix.from_dense(D)}[fmt]
        cols = np.array([0, 4, 4, 29])
        H = sampled_gram(X, cols)
        A = D[:, cols]
        np.testing.assert_allclose(H, A @ A.T / 4, atol=1e-12)

    def test_symmetry_exact(self, data):
        D, _ = data
        H = sampled_gram(D, np.arange(10))
        np.testing.assert_array_equal(H, H.T)

    def test_psd(self, data):
        D, _ = data
        H = sampled_gram(D, np.arange(15))
        eigs = np.linalg.eigvalsh(H)
        assert eigs.min() >= -1e-12

    def test_custom_scale(self, data):
        D, _ = data
        cols = np.array([1, 2])
        np.testing.assert_allclose(
            sampled_gram(D, cols, scale=1.0), D[:, cols] @ D[:, cols].T
        )

    def test_empty_selection_raises(self, data):
        D, _ = data
        with pytest.raises(ShapeError):
            sampled_gram(D, np.array([], dtype=np.int64))


class TestSampledRhs:
    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc"])
    def test_matches_dense_formula(self, data, fmt):
        D, y = data
        X = {"dense": D, "csr": CSRMatrix.from_dense(D), "csc": CSCMatrix.from_dense(D)}[fmt]
        cols = np.array([3, 3, 11])
        R = sampled_rhs(X, y, cols)
        np.testing.assert_allclose(R, D[:, cols] @ y[cols] / 3, atol=1e-12)

    def test_empty_selection_raises(self, data):
        D, y = data
        with pytest.raises(ShapeError):
            sampled_rhs(D, y, np.array([], dtype=np.int64))


class TestFlopAccounting:
    def test_gram_flops_csc_exact(self, data):
        D, _ = data
        csc = CSCMatrix.from_dense(D)
        cols = np.array([0, 1, 1, 5])
        per_col = (D[:, cols] != 0).sum(axis=0)
        expected = 2 * int(np.sum(per_col.astype(np.int64) ** 2))
        assert gram_flops(csc, cols) == expected

    def test_gram_flops_dense(self, data):
        D, _ = data
        cols = np.array([0, 1])
        assert gram_flops(D, cols) == 2 * D.shape[0] ** 2 * 2

    def test_rhs_flops_csc(self, data):
        D, _ = data
        csc = CSCMatrix.from_dense(D)
        cols = np.array([2, 2])
        nnz = int((D[:, cols] != 0).sum())
        assert rhs_flops(csc, cols) == 2 * nnz

    def test_gram_flops_scale_with_density(self):
        gen = np.random.default_rng(0)
        dense_mat = gen.standard_normal((20, 50))
        sparse_mat = dense_mat.copy()
        sparse_mat[np.abs(sparse_mat) < 1.2] = 0.0
        cols = np.arange(50)
        f_dense = gram_flops(CSCMatrix.from_dense(dense_mat), cols)
        f_sparse = gram_flops(CSCMatrix.from_dense(sparse_mat), cols)
        assert f_sparse < f_dense
