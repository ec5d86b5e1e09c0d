"""The packed stage-C layout: each symmetric ``H_j`` ships once.

``sampled_gram_blocks`` writes row ``j`` of a rank's payload as
``[rfp(H_j) | R_j]``: the ``d(d+1)/2`` distinct entries of ``H_j`` in
rectangular full packed format, then, with ``rhs``, ``R_j`` (``d``
words). These tests read the layout with an independent oracle
(``rfp_oracle.rfp_to_dense``, from LAPACK's definition) and pin the
round trip against the per-block allocating kernels, the reduce-then-
unpack order the solvers rely on, the stage-D product on the shipped
words, and the payload length ``k(d(d+1)/2 + d)`` the cost model charges.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core._dist_common import RankPlacement, distribute_problem
from repro.core.objectives import L1LeastSquares
from repro.distsim.collectives import ceil_log2
from repro.exceptions import ShapeError
from repro.perf.model import rc_sfista_costs
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import packed_size, sampled_gram, sampled_rhs
from repro.sparse.rfp import RFPMatvec, rfp_index
from tests.test_sparse.rfp_oracle import assert_gram_close, assert_matvec_close, rfp_to_dense

D, M, NRANKS, MBAR = 9, 120, 3, 24
T = packed_size(D)


def _problem(kind: str) -> L1LeastSquares:
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((D, M))
    dense[rng.random((D, M)) > 0.4] = 0.0
    X = {"dense": dense, "csr": CSRMatrix.from_dense(dense), "csc": CSCMatrix.from_dense(dense)}
    return L1LeastSquares(X[kind], rng.standard_normal(M), 0.1)


def _sample_sets(k: int, rng) -> list[np.ndarray]:
    """k sets of MBAR draws, each with a repeated column; every second set
    lies wholly on rank 0, so the other ranks see an empty local set."""
    sets = []
    for j in range(k):
        hi = M // NRANKS if j % 2 == 1 else M
        idx = rng.integers(0, hi, size=MBAR)
        idx[-1] = idx[0]
        sets.append(idx)
    return sets


def _placement(kind: str, k: int, rhs: bool):
    data = distribute_problem(_problem(kind), NRANKS)
    loop = SimpleNamespace(backend=SimpleNamespace(parallel_ranks=False), workspace=None)
    return data, RankPlacement(data, loop, mbar=MBAR, blocks=k, rhs=rhs)


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("rhs, with_response", [(False, False), (True, False), (True, True)],
                         ids=["no-rhs", "rhs-zero", "rhs"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("kind", ["dense", "csr", "csc"])
def test_unpacked_blocks_are_the_per_block_kernels(kind, weighted, rhs, with_response, k):
    data, placement = _placement(kind, k, rhs)
    rng = np.random.default_rng([k, int(weighted), int(rhs), int(with_response)])
    saw_empty = False
    # The short final round reuses the buffers sized for k blocks.
    for idx_sets in (_sample_sets(k, rng), _sample_sets(max(1, k - 1), rng)):
        for p, rank_data in enumerate(data.ranks):
            weights = rng.uniform(0.0, 0.5, rank_data.m_local) if weighted else None
            response = rng.standard_normal(rank_data.m_local) if with_response else None
            buf, _flops = placement.pack(p, idx_sets, weights=weights, response=response)
            assert buf.shape == (len(idx_sets) * (T + D if rhs else T),)
            for idx, row in zip(idx_sets, buf.reshape(len(idx_sets), -1)):
                local = rank_data._restrict(idx)
                saw_empty |= local.size == 0
                H_ref, R_ref = np.zeros((D, D)), np.zeros(D)
                if local.size:
                    X = rank_data.X_local
                    H_ref = sampled_gram(X, local, scale=1.0 / MBAR, weights=weights)
                    if with_response:
                        R_ref = sampled_rhs(X, response, local, scale=1.0 / MBAR)
                assert_gram_close(rfp_to_dense(row[:T], D), H_ref, local.size)
                if rhs:
                    assert row[T:].tobytes() == R_ref.tobytes()
    assert saw_empty or k == 1


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_reduce_then_unpack_equals_unpack_then_reduce(kind):
    """Summing the packed payloads over ranks and mirroring once gives the
    bytes of summing the full blocks in the same order: the reduction
    cannot move with the layout."""
    data, placement = _placement(kind, 4, True)
    rng = np.random.default_rng(2)
    idx_sets = _sample_sets(4, rng)
    packed_sum = np.zeros(4 * (T + D))
    full_sum = np.zeros((4, D, D))
    for p, rank_data in enumerate(data.ranks):
        weights = rng.uniform(0.0, 0.5, rank_data.m_local)
        buf, _ = placement.pack(p, idx_sets, weights=weights)
        packed_sum += buf
        for j, row in enumerate(buf.reshape(4, -1)):
            full_sum[j] += rfp_to_dense(row[:T], D)
    for j, row in enumerate(packed_sum.reshape(4, -1)):
        assert rfp_to_dense(row[:T], D).tobytes() == full_sum[j].tobytes()


@pytest.mark.parametrize("kind", ["dense", "csc"])
def test_stage_d_multiplies_the_shipped_block(kind):
    """``placement.block`` reads a reduced row as shipped: ``H_j @ u`` is
    the oracle's dense product to rounding, ``R_j`` a view of the row."""
    data, placement = _placement(kind, 4, True)
    rng = np.random.default_rng(3)
    idx_sets = _sample_sets(4, rng)
    combined = sum(placement.pack(p, idx_sets)[0].copy() for p in range(NRANKS))
    for j in range(4):
        H, R = placement.block(combined, j)
        dense = rfp_to_dense(combined[j * (T + D) : j * (T + D) + T], D)
        for u in (rng.standard_normal(D), np.zeros(D)):
            assert_matvec_close(H @ u, dense, u)
        assert np.shares_memory(R, combined) and R.shape == (D,)


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("d", [1, 9, 196, 400])
def test_payload_length_is_the_charged_word_count(d, k):
    """``k(d(d+1)/2 + d)`` words per round, as the model charges; the paper
    counts ``k·d²`` (``exact_words=False``)."""
    assert packed_size(d) == d * (d + 1) // 2
    P, N = 8, 2 * k
    log_p = ceil_log2(P)
    assert rc_sfista_costs(N, d, 10, 0.1, P, k, 1).bandwidth == 2 * k * (packed_size(d) + d) * log_p
    assert rc_sfista_costs(N, d, 10, 0.1, P, k, 1, exact_words=False).bandwidth == 2 * k * d * d * log_p
    assert rc_sfista_costs(N, d, 10, 0.1, P, 1, 1).bandwidth == N * (packed_size(d) + d) * log_p


@pytest.mark.parametrize("rhs", [False, True], ids=["no-rhs", "rhs"])
def test_placement_buffers_hold_k_packed_blocks(rhs):
    data, placement = _placement("csc", 4, rhs)
    for buf in placement.buffers:
        assert buf.shape == (4 * (T + D if rhs else T),)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 63, 64, 65, 128, 196])
def test_unpack_inverts_the_upper_triangle(d):
    """The oracle inverts the library's RFP index (the numpy fallback's
    stage-B gather), which reads only the upper triangle."""
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    S = A + A.T
    index = rfp_index(d)
    assert np.all(index // d <= index % d)
    assert rfp_to_dense(S.reshape(-1)[index], d).tobytes() == S.tobytes()
    lower_nan = np.triu(S) + np.tril(np.full((d, d), np.nan), -1)
    assert rfp_to_dense(lower_nan.reshape(-1)[index], d).tobytes() == S.tobytes()


class TestUnpackChecks:
    def test_packed_length(self):
        with pytest.raises(ShapeError, match="entries"):
            RFPMatvec(D).bind(np.zeros(T + 1))

    @pytest.mark.parametrize(
        "words",
        [np.zeros(T, dtype=np.float32), np.zeros(2 * T)[::2], np.zeros((1, T))],
        ids=["dtype", "strided", "2d"],
    )
    def test_block_words(self, words):
        """Words go to BLAS by pointer: only contiguous float64 rows."""
        with pytest.raises(ShapeError, match="entries"):
            RFPMatvec(D).bind(words)

    def test_vector_shape(self):
        H = RFPMatvec(D).bind(np.zeros(T))
        for x in (np.zeros(D + 1), np.zeros((D, 1)), 1.0):
            with pytest.raises(ShapeError, match="vector"):
                H @ x
