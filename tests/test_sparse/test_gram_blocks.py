"""The batched stage-B kernel: one column gather per rank per round.

``RankPlacement.pack`` builds a rank's k blocks from a single gather of
its local columns (``sampled_gram_blocks``). Every block must equal the
per-block allocating reference — the same kernel on that block's own
columns, one set per call, no workspace — byte for byte, whatever the
layout of the shared gather (``test_packed_blocks.py`` holds each block
against ``sampled_gram``/``sampled_rhs``). The dense gather itself must
touch only the selected columns of a rank's strided column slice.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core._dist_common import RankPlacement, distribute_problem
from repro.core.objectives import L1LeastSquares
from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import (
    GramWorkspace,
    _select_columns_dense,
    gram_flops,
    packed_size,
    rhs_flops,
    sampled_gram,
    sampled_gram_blocks,
)

D, M, NRANKS, MBAR = 12, 160, 4, 30
T = packed_size(D)


def _problem(kind: str) -> L1LeastSquares:
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((D, M))
    dense[rng.random((D, M)) > 0.35] = 0.0
    X = {"dense": dense, "csr": CSRMatrix.from_dense(dense), "csc": CSCMatrix.from_dense(dense)}
    return L1LeastSquares(X[kind], rng.standard_normal(M), 0.1)


def _sample_sets(k: int, rng) -> list[np.ndarray]:
    """k sets of MBAR draws with duplicates; every third lies wholly on rank 0,
    so ranks 1..3 see an empty local set there."""
    sets = []
    for j in range(k):
        hi = M // NRANKS if j % 3 == 1 else M
        idx = rng.integers(0, hi, size=MBAR)
        idx[1] = idx[0]
        sets.append(idx)
    return sets


def _reference(rank_data, idx_sets, *, weights, response, rhs) -> bytes:
    """The allocating kernel one set at a time, each from its own gather."""
    parts = []
    for idx in idx_sets:
        local = rank_data._restrict(idx)
        parts.append(sampled_gram_blocks(
            rank_data.X_local, local, [0, local.size], scale=1.0 / MBAR, weights=weights,
            response=response, rhs=rhs,
        ))
    return np.concatenate(parts).tobytes()


def _reference_flops(rank_data, idx_sets, *, weighted, rhs_charged) -> float:
    total = 0.0
    for idx in idx_sets:
        local = rank_data._restrict(idx)
        total += gram_flops(rank_data.X_local, local, weighted=weighted)
        if rhs_charged:
            total += rhs_flops(rank_data.X_local, local)
    return total


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("rhs, with_response", [(False, False), (True, False), (True, True)],
                         ids=["no-rhs", "rhs-zero", "rhs"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_pack_is_bit_identical_to_per_block_reference(kind, weighted, rhs, with_response, k):
    problem = _problem(kind)
    data = distribute_problem(problem, NRANKS)
    loop = SimpleNamespace(backend=SimpleNamespace(parallel_ranks=False), workspace=None)
    placement = RankPlacement(data, loop, mbar=MBAR, blocks=k, rhs=rhs)
    rng = np.random.default_rng([k, int(weighted), int(rhs)])
    # A short final round (fewer sets than blocks) reuses the same buffers.
    rounds = [_sample_sets(k, rng), _sample_sets(k, rng), _sample_sets(max(1, k - 1), rng)]
    saw_empty = False
    for idx_sets in rounds:
        for p, rank_data in enumerate(data.ranks):
            weights = rng.uniform(0.0, 0.25, rank_data.m_local) if weighted else None
            if weighted:
                weights[::5] = 0.0  # squared hinge curvatures are 0/1
            response = rng.standard_normal(rank_data.m_local) if with_response else None
            buf, flops = placement.pack(p, idx_sets, weights=weights, response=response)
            want = _reference(rank_data, idx_sets, weights=weights, response=response, rhs=rhs)
            assert buf.tobytes() == want
            assert flops == _reference_flops(
                rank_data, idx_sets, weighted=weighted, rhs_charged=with_response
            )
            saw_empty |= any(rank_data._restrict(idx).size == 0 for idx in idx_sets)
    assert saw_empty or k == 1


@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_blocks_without_workspace_match_the_workspace_path(kind):
    X = _problem(kind).X
    rng = np.random.default_rng(4)
    cols = rng.integers(0, M, size=50)
    offsets = [0, 10, 10, 35, 50]  # an empty set in the middle
    weights, response = rng.uniform(0.0, 1.0, M), rng.standard_normal(M)
    kwargs = dict(scale=0.1, weights=weights, response=response, rhs=True)
    fresh = sampled_gram_blocks(X, cols, offsets, **kwargs)
    pooled = sampled_gram_blocks(X, cols, offsets, workspace=GramWorkspace(D, 50), **kwargs)
    assert fresh.tobytes() == pooled.tobytes()
    assert not fresh[1].any()


class TestChecks:
    def test_offsets_must_cover_cols(self):
        X = _problem("dense").X
        cols = np.arange(6)
        for offsets in ([0, 5], [1, 6], [0, 4, 2, 6], []):
            with pytest.raises(ShapeError, match="offsets"):
                sampled_gram_blocks(X, cols, offsets, scale=1.0)

    def test_weights_must_be_non_negative(self):
        X = _problem("csc").X
        weights = np.ones(M)
        weights[3] = -1.0
        with pytest.raises(ValidationError, match="non-negative"):
            sampled_gram_blocks(X, np.array([1, 3]), [0, 1, 2], scale=1.0, weights=weights)

    def test_out_shape(self):
        X = _problem("dense").X
        with pytest.raises(ShapeError, match="out"):
            sampled_gram_blocks(X, np.arange(4), [0, 4], scale=1.0, rhs=True,
                                out=np.empty((1, T)))

    def test_column_range(self):
        X = _problem("csc").X
        with pytest.raises(ValidationError, match="range"):
            sampled_gram_blocks(X, np.array([0, M]), [0, 2], scale=1.0,
                                workspace=GramWorkspace(D, 2))

    def test_rank_data_checks_d(self):
        rank_data = distribute_problem(_problem("dense"), 2).ranks[0]
        with pytest.raises(ShapeError):
            rank_data.sampled_hessian_contribution([np.arange(3)], 3, D + 1)


def test_dense_gather_from_a_strided_rank_slice_copies_only_the_selection():
    """A rank's dense block is the strided view ``X[:, sl]``: the gather must
    allocate O(d·n̄), not copy the whole d×m_local slice first."""
    d, m_local, nbar = 200, 5000, 20
    rng = np.random.default_rng(8)
    X = rng.standard_normal((d, 2 * m_local))
    X_local = X[:, m_local:]
    assert not X_local.flags.c_contiguous and not X_local.flags.f_contiguous
    cols = rng.integers(0, m_local, size=nbar)
    workspace = GramWorkspace(d, nbar)
    workspace.gram_scratch(d)  # the lazily allocated product scratch is no gather copy
    out = np.empty((1, packed_size(d)))
    H = np.empty((d, d))
    selection = d * nbar * 8
    tracemalloc.start()
    try:
        for gather in (
            lambda: _select_columns_dense(X_local, cols, workspace),
            lambda: sampled_gram(X_local, cols, workspace=workspace, out=H),
            lambda: sampled_gram_blocks(X_local, cols, [0, nbar], scale=1.0,
                                        workspace=workspace, out=out),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gather()
            peak = tracemalloc.get_traced_memory()[1] - base
            # The whole-slice copy would be d·m_local·8 = 8 MB.
            assert peak <= 2 * selection + 16384, peak
    finally:
        tracemalloc.stop()
