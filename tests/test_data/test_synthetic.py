"""Unit tests for synthetic problem generators."""

import numpy as np
import pytest

from repro.data.synthetic import make_regression
from repro.exceptions import ValidationError
from repro.sparse.csr import CSCMatrix


class TestMakeRegression:
    def test_dense_shapes(self):
        X, y, w = make_regression(10, 50, rng=0)
        assert X.shape == (10, 50)
        assert y.shape == (50,)
        assert w.shape == (10,)

    def test_sparse_output_type_and_density(self):
        X, _, _ = make_regression(20, 100, density=0.3, rng=0)
        assert isinstance(X, CSCMatrix)
        assert X.density == pytest.approx(0.3, abs=0.01)

    def test_ground_truth_sparsity(self):
        _, _, w = make_regression(100, 50, support_fraction=0.2, rng=0)
        assert np.sum(w != 0) == 20

    def test_labels_follow_model_when_noiseless(self):
        X, y, w = make_regression(8, 40, noise=0.0, rng=1)
        np.testing.assert_allclose(y, X.T @ w, atol=1e-12)

    def test_deterministic(self):
        a = make_regression(5, 20, rng=3)
        b = make_regression(5, 20, rng=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_spectral_decay_shapes_hessian(self):
        X0, _, _ = make_regression(50, 2000, spectral_decay=0.0, rng=0)
        X2, _, _ = make_regression(50, 2000, spectral_decay=2.0, rng=0)
        e0 = np.linalg.eigvalsh(X0 @ X0.T / 2000)
        e2 = np.linalg.eigvalsh(X2 @ X2.T / 2000)
        # stronger decay → larger eigenvalue spread (worse conditioning)
        assert e2[-1] / e2[0] > e0[-1] / e0[0]

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            make_regression(0, 10)
        with pytest.raises(ValidationError):
            make_regression(5, 10, density=0.0)
        with pytest.raises(ValidationError):
            make_regression(5, 10, support_fraction=0.0)
        with pytest.raises(ValidationError):
            make_regression(5, 10, noise=-1.0)
