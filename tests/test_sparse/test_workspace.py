"""Gram workspaces, CSC memoization and the direct dense-gather kernels.

These are the satellite guarantees of the wall-clock fast path
(docs/PERFORMANCE.md): the buffers change *where* results live, never
*what* they are — every fast-path output is bit-identical to the
allocating slow path, including duplicate sample indices.
"""

import numpy as np
import pytest

from repro.exceptions import ShapeError, ValidationError
from repro.sparse.ops import GramWorkspace, sampled_gram, sampled_rhs
from repro.sparse.random import random_csr


@pytest.fixture()
def csr():
    return random_csr(30, 400, 0.15, rng=0)


@pytest.fixture()
def csc(csr):
    return csr.to_csc()


@pytest.fixture()
def dense(csr):
    return csr.to_dense()


@pytest.fixture()
def idx():
    rng = np.random.default_rng(5)
    draws = rng.integers(0, 400, size=60)
    draws[10] = draws[0]  # force duplicates — bootstrap sampling has them
    return draws


class TestCscMemoization:
    def test_to_csc_returns_same_object(self, csr):
        assert csr.to_csc() is csr.to_csc()

    def test_memoized_twin_matches_fresh_conversion(self, csr):
        memo = csr.to_csc()
        fresh = csr.to_coo().to_csc()
        np.testing.assert_array_equal(memo.to_dense(), fresh.to_dense())


class TestGatherDense:
    def test_gather_columns_matches_select(self, csc, idx):
        expected = csc.select_columns(idx).to_dense()
        got = csc.gather_columns_dense(idx)
        assert np.array_equal(got, expected)

    def test_gather_columns_into_dirty_out(self, csc, idx):
        out = np.full((csc.shape[0], idx.size), 9.0)
        got = csc.gather_columns_dense(idx, out=out)
        assert got is out
        assert np.array_equal(out, csc.select_columns(idx).to_dense())

    def test_gather_rejects_bad_out_shape(self, csc, idx):
        with pytest.raises(ShapeError):
            csc.gather_columns_dense(idx, out=np.empty((1, 1)))


class TestWorkspaceBitIdentity:
    @pytest.mark.parametrize(
        "kind, weighted",
        [
            pytest.param(kind, weighted, id=kind + ("-weighted" if weighted else ""))
            for weighted in (False, True)
            for kind in ("dense", "csr", "csc")
        ],
    )
    def test_sampled_gram_identical(self, kind, weighted, dense, csr, csc, idx):
        X = {"dense": dense, "csr": csr, "csc": csc}[kind]
        # Curvature-like weights, zeros included (squared hinge's are 0/1).
        weights = np.random.default_rng(3).uniform(0.0, 0.25, 400) if weighted else None
        if weighted:
            weights[:50] = 0.0
        workspace = GramWorkspace(X.shape[0], idx.size)
        slow = sampled_gram(X, idx, weights=weights)
        fast = sampled_gram(X, idx, workspace=workspace, weights=weights)
        assert np.array_equal(slow, fast)
        # Second pass reuses the warm buffers — still bit-identical.
        again = sampled_gram(X, idx, workspace=workspace, weights=weights)
        assert np.array_equal(slow, again)
        assert workspace.reuses > 0
        if weighted:
            A = dense[:, idx]
            reference = (A * weights[idx]) @ A.T / idx.size
            np.testing.assert_allclose(slow, reference, rtol=1e-12, atol=1e-14)
        else:
            # weights=None is c ≡ 1, bit for bit.
            assert np.array_equal(slow, sampled_gram(X, idx, weights=np.ones(400)))

    @pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
    def test_sampled_rhs_identical(self, kind, dense, csr, csc, idx):
        X = {"dense": dense, "csr": csr, "csc": csc}[kind]
        y = np.random.default_rng(9).standard_normal(400)
        workspace = GramWorkspace(X.shape[0], idx.size)
        slow = sampled_rhs(X, y, idx, scale=1.0 / idx.size)
        fast = sampled_rhs(X, y, idx, scale=1.0 / idx.size, workspace=workspace)
        assert np.array_equal(slow, fast)

    def test_out_buffer_is_returned_and_reused(self, dense, idx):
        workspace = GramWorkspace(dense.shape[0], idx.size)
        out = np.empty((dense.shape[0], dense.shape[0]))
        got = sampled_gram(dense, idx, workspace=workspace, out=out)
        assert got is out
        assert np.array_equal(out, sampled_gram(dense, idx))

    def test_pool_grows_mid_stream(self, csc):
        # Sparse gathers densify into the pool (dense gathers never borrow it).
        rng = np.random.default_rng(2)
        workspace = GramWorkspace(csc.shape[0], 8)
        small = rng.integers(0, 400, size=8)
        large = rng.integers(0, 400, size=64)  # exceeds the initial pool
        for draws in (small, large, small):
            assert np.array_equal(
                sampled_gram(csc, draws, workspace=workspace),
                sampled_gram(csc, draws),
            )

    def test_product_scratch_is_allocated_at_first_borrow(self):
        workspace = GramWorkspace(50)
        first = workspace.gram_scratch(50)
        assert first.shape == (50, 50) and workspace.reuses == 0
        assert workspace.gram_scratch(50) is first
        assert workspace.reuses == 1

    def test_workspace_validates_dimension(self):
        with pytest.raises(ShapeError):
            GramWorkspace(0)

    def test_weights_must_be_non_negative(self, dense, idx):
        weights = np.ones(400)
        weights[idx[3]] = -1.0
        with pytest.raises(ValidationError, match="non-negative"):
            sampled_gram(dense, idx, weights=weights)
