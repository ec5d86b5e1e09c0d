"""Unit tests for data preprocessing."""

import numpy as np
import pytest

from repro.data.scaling import normalize_feature_rows, normalize_sample_columns
from repro.exceptions import ValidationError
from repro.sparse.csr import CSCMatrix


class TestNormalizeFeatureRows:
    def test_dense_unit_rows(self, rng):
        X = rng.standard_normal((5, 30))
        Xn, norms = normalize_feature_rows(X)
        np.testing.assert_allclose(np.linalg.norm(Xn, axis=1), 1.0)
        np.testing.assert_allclose(norms, np.linalg.norm(X, axis=1))

    def test_zero_row_untouched(self):
        X = np.zeros((2, 4))
        X[0, 0] = 3.0
        Xn, norms = normalize_feature_rows(X)
        np.testing.assert_array_equal(Xn[1], np.zeros(4))
        assert norms[1] == 0.0

    def test_csr_matches_dense(self, medium_csr):
        Xn_sparse, norms_sparse = normalize_feature_rows(medium_csr)
        Xn_dense, norms_dense = normalize_feature_rows(medium_csr.to_dense())
        np.testing.assert_allclose(Xn_sparse.to_dense(), Xn_dense, atol=1e-12)
        np.testing.assert_allclose(norms_sparse, norms_dense)

    def test_csc_roundtrip(self, medium_csr):
        csc = medium_csr.to_csc()
        Xn, _ = normalize_feature_rows(csc)
        assert isinstance(Xn, CSCMatrix)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            normalize_feature_rows(np.ones(3))


class TestNormalizeSampleColumns:
    def test_dense_unit_columns(self, rng):
        X = rng.standard_normal((5, 30))
        Xn, norms = normalize_sample_columns(X)
        np.testing.assert_allclose(np.linalg.norm(Xn, axis=0), 1.0)

    def test_sparse_matches_dense(self, medium_csr):
        Xn_sparse, _ = normalize_sample_columns(medium_csr.to_csc())
        Xn_dense, _ = normalize_sample_columns(medium_csr.to_dense())
        np.testing.assert_allclose(Xn_sparse.to_dense(), Xn_dense, atol=1e-12)

    def test_csr_input_returns_csc(self, medium_csr):
        Xn, _ = normalize_sample_columns(medium_csr)
        assert isinstance(Xn, CSCMatrix)

    def test_zero_column_untouched(self):
        X = np.zeros((3, 2))
        X[0, 0] = 2.0
        Xn, norms = normalize_sample_columns(X)
        np.testing.assert_array_equal(Xn[:, 1], np.zeros(3))
        assert norms[1] == 0.0

    def test_unit_sample_lipschitz_after_normalization(self, rng):
        from repro.core.objectives import L1LeastSquares

        X = rng.standard_normal((4, 50)) * 10
        Xn, _ = normalize_sample_columns(X)
        p = L1LeastSquares(Xn, rng.standard_normal(50), 0.1)
        assert p.max_sample_lipschitz == pytest.approx(1.0)
