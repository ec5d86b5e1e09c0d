"""Symmetry guard for the sampled-Gram kernels.

``sampled_gram`` skips the ``0.5·(S + Sᵀ)`` pass: numpy hands ``A @ A.T``
to BLAS syrk, which computes one triangle and mirrors it, so the raw
product is exactly symmetric. This file pins that property for every
block layout the kernels multiply — dense (F-ordered fancy-index
gathers) and CSR/CSC (C-ordered densified gathers), weighted and
unweighted, both memory orders, and column views of a ``k·n̄``-column
gather whose leading dimension is ``k·n̄``. The stage-C payload stores
each off-diagonal entry once (RFP), so its blocks are symmetric by
construction; they must agree with the full kernel output to rounding
for the same layouts.
"""

import numpy as np
import pytest

from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import (
    GramWorkspace,
    _select_columns_dense,
    packed_size,
    sampled_gram,
    sampled_gram_blocks,
)
from tests.test_sparse.rfp_oracle import assert_gram_close, rfp_to_dense

#: (d, k, n̄): a degenerate shape, small odd ones, and the mnist (196, 25)
#: and epsilon (400, 40) rank shapes of the solve benchmarks.
SHAPES = [(1, 1, 1), (7, 4, 3), (54, 8, 5), (196, 4, 25), (400, 8, 40)]


def _data(kind: str, d: int, m: int, rng) -> np.ndarray | CSRMatrix | CSCMatrix:
    dense = rng.standard_normal((d, m))
    dense[rng.random((d, m)) > 0.3] = 0.0
    if kind == "csr":
        return CSRMatrix.from_dense(dense)
    if kind == "csc":
        return CSCMatrix.from_dense(dense)
    return dense


def _assert_symmetric(S: np.ndarray) -> None:
    assert np.array_equal(S, S.T), f"max asymmetry {np.max(np.abs(S - S.T))}"


@pytest.mark.parametrize("d, k, nbar", SHAPES, ids=lambda v: str(v))
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_raw_product_is_exactly_symmetric(kind, weighted, order, d, k, nbar):
    rng = np.random.default_rng([d, k, nbar])
    m = 3 * k * nbar
    X = _data(kind, d, m, rng)
    cols = rng.integers(0, m, size=k * nbar)
    cols[-1] = cols[0]  # sampling with replacement repeats columns
    A = _select_columns_dense(X, cols, GramWorkspace(d, cols.size))
    A = np.asfortranarray(A) if order == "F" else np.ascontiguousarray(A)
    if weighted:
        A *= np.sqrt(rng.uniform(0.0, 0.25, cols.size))
    scratch = np.empty((d, d))
    for j in range(k):
        view = A[:, j * nbar : (j + 1) * nbar]  # leading dimension k·n̄ when C-ordered
        _assert_symmetric(view @ view.T)
        np.matmul(view, view.T, out=scratch)
        _assert_symmetric(scratch)
    _assert_symmetric(A @ A.T)


@pytest.mark.parametrize("d, k, nbar", SHAPES, ids=lambda v: str(v))
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_kernel_outputs_are_exactly_symmetric(kind, weighted, d, k, nbar):
    rng = np.random.default_rng([d, k, nbar, 1])
    m = 3 * k * nbar
    X = _data(kind, d, m, rng)
    weights = rng.uniform(0.0, 0.25, m) if weighted else None
    cols = rng.integers(0, m, size=k * nbar)
    offsets = list(range(0, cols.size + 1, nbar))
    for workspace in (None, GramWorkspace(d, cols.size)):
        blocks = sampled_gram_blocks(
            X, cols, offsets, scale=1.0 / nbar, weights=weights, workspace=workspace
        )
        assert blocks.shape == (k, packed_size(d))
        for lo, row in zip(offsets, blocks):
            full = sampled_gram(X, cols[lo : lo + nbar], scale=1.0 / nbar, weights=weights)
            _assert_symmetric(full)
            assert_gram_close(rfp_to_dense(row, d), full, nbar)
        _assert_symmetric(sampled_gram(X, cols, weights=weights, workspace=workspace))
