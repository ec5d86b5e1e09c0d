"""Synthetic sparse-regression problem generators.

Problems are generated in the paper's layout — ``X ∈ R^{d×m}`` with one
*column* per sample — from a sparse ground-truth coefficient vector, so
that l1 recovery is meaningful and the relative-objective-error curves
have the same qualitative behaviour as on the LIBSVM datasets.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSCMatrix
from repro.sparse.random import random_coo
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_in_range, check_positive

__all__ = ["make_regression"]


def _ground_truth(rng: np.random.Generator, d: int, support: int) -> np.ndarray:
    w = np.zeros(d)
    idx = rng.choice(d, size=support, replace=False)
    w[idx] = rng.standard_normal(support) * 2.0
    return w


def make_regression(
    d: int,
    m: int,
    *,
    density: float = 1.0,
    support_fraction: float = 0.2,
    noise: float = 0.05,
    spectral_decay: float = 1.0,
    rng: RandomState = 0,
) -> tuple[np.ndarray | CSCMatrix, np.ndarray, np.ndarray]:
    """Generate ``(X, y, w_true)`` with ``y = Xᵀ w_true + ε``.

    Parameters
    ----------
    d, m:
        Features and samples (``X`` has shape ``(d, m)``).
    density:
        Fill fraction of ``X``; 1.0 yields a dense ndarray, anything lower
        a :class:`CSCMatrix` with exactly that realized fill.
    support_fraction:
        Fraction of features with non-zero ground-truth coefficient.
    noise:
        Standard deviation of the additive label noise.
    spectral_decay:
        Power-law exponent α of the feature covariance: row ``j`` is scaled
        by ``(j+1)^{-α/2}``, giving Hessian eigenvalues decaying like
        ``j^{-α}``. Real datasets (mnist pixels, covtype measurements) have
        fast-decaying spectra — which is precisely what makes subsampled
        Hessian approximation effective; α = 0 reproduces the isotropic
        worst case.
    """
    if d < 1 or m < 1:
        raise ValidationError(f"d and m must be >= 1, got ({d}, {m})")
    check_in_range(density, "density", 0.0, 1.0, low_inclusive=False)
    check_in_range(support_fraction, "support_fraction", 0.0, 1.0, low_inclusive=False)
    check_positive(noise, "noise", strict=False)
    check_positive(spectral_decay, "spectral_decay", strict=False)
    gen = as_generator(rng)
    support = max(1, int(round(support_fraction * d)))
    w_true = _ground_truth(gen, d, support)
    # Random feature permutation so the decaying scales are not correlated
    # with the ground-truth support layout.
    scales = np.arange(1, d + 1, dtype=np.float64) ** (-0.5 * spectral_decay)
    scales = scales[gen.permutation(d)]

    if density >= 1.0:
        X: np.ndarray | CSCMatrix = scales[:, None] * gen.standard_normal((d, m))
        predictions = X.T @ w_true
    else:
        coo = random_coo(d, m, density, rng=gen)
        X = COOMatrix(coo.rows, coo.cols, coo.data * scales[coo.rows], coo.shape).to_csc()
        predictions = X.rmatvec(w_true)
    y = predictions + noise * gen.standard_normal(m)
    return X, y, w_true
