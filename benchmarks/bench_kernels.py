"""Substrate micro-benchmarks (real wall-clock, pytest-benchmark timing).

Unlike the figure benches (which regenerate paper artifacts once), these
time the hot kernels the solvers are built on — the numbers that determine
how large a simulated experiment the repo can run per second of host time.

``test_kernel_speedups`` additionally measures the wall-clock *ratios* of
the fast-path kernels (Gram workspaces, CSC memo, the Gram-form
objective value, the RFP stage-B write and stage-D product — see
docs/PERFORMANCE.md) against their slow-path equivalents and writes them to
``benchmarks/output/kernels_run.json``; the CI perf gate diffs that
report against ``benchmarks/baselines/kernels.json``. Ratios of two runs
on the same host are machine-independent, so the committed floors hold on
any runner.
"""

import time

import numpy as np
import pytest

from benchmarks._common import emit, emit_json
from repro.core.objectives import L1LeastSquares
from repro.distsim.collectives import allreduce_values
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.sparse.ops import GramWorkspace, packed_size, sampled_gram
from repro.sparse.random import random_csr
from repro.sparse.rfp import RFPGram, RFPMatvec, rfp_index


@pytest.fixture(scope="module")
def csr():
    return random_csr(200, 5000, 0.2, rng=0)


@pytest.fixture(scope="module")
def csc(csr):
    return csr.to_csc()


@pytest.fixture(scope="module")
def dense(csr):
    return csr.to_dense()


def test_spmv_csr(benchmark, csr):
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    out = benchmark(csr.matvec, x)
    assert out.shape == (200,)


def test_spmv_transpose_csr(benchmark, csr):
    v = np.random.default_rng(0).standard_normal(csr.shape[0])
    out = benchmark(csr.rmatvec, v)
    assert out.shape == (5000,)


def test_column_selection_csc(benchmark, csc):
    idx = np.random.default_rng(1).integers(0, csc.shape[1], size=200)
    out = benchmark(csc.select_columns, idx)
    assert out.shape == (200, 200)


def test_sampled_gram_sparse(benchmark, csc):
    idx = np.random.default_rng(2).integers(0, csc.shape[1], size=100)
    H = benchmark(sampled_gram, csc, idx)
    assert H.shape == (200, 200)


def test_sampled_gram_dense(benchmark, dense):
    idx = np.random.default_rng(2).integers(0, dense.shape[1], size=100)
    H = benchmark(sampled_gram, dense, idx)
    assert H.shape == (200, 200)


def test_allreduce_values_64_ranks(benchmark):
    gen = np.random.default_rng(3)
    buffers = [gen.standard_normal(3000) for _ in range(64)]
    out = benchmark(allreduce_values, buffers)
    np.testing.assert_allclose(out, np.sum(buffers, axis=0), atol=1e-9)


@pytest.mark.mp
def test_mp_shm_allreduce_4_ranks(benchmark):
    """Shared-memory tournament round-trip: the mp backend's data plane.

    Measured wall-clock of one P=4 allreduce through
    ``multiprocessing.shared_memory`` (scatter, worker reduction levels,
    gather) — the real-hardware counterpart of the simulated collective
    above. See bench_wallclock.py for the CI-gated ratio.
    """
    from repro.runtime.mpbackend import MultiprocessingBackend, live_segment_names

    gen = np.random.default_rng(3)
    buffers = [gen.standard_normal(50_000) for _ in range(4)]
    be = MultiprocessingBackend(4, timeout=120.0)
    try:
        out = benchmark(be.allreduce, buffers)
        assert np.array_equal(out, allreduce_values(buffers))
    finally:
        be.close()
    assert live_segment_names() == frozenset()


def test_csr_to_csc_conversion(benchmark, csr):
    out = benchmark(csr.to_csc)
    assert isinstance(out, CSCMatrix)


def test_dense_roundtrip(benchmark, csr):
    out = benchmark(CSRMatrix.from_dense, csr.to_dense())
    assert out.nnz == csr.nnz


# --------------------------------------------------------------------- #
# Wall-clock speedup report (fast path vs slow path, CI-gated ratios)
# --------------------------------------------------------------------- #


def _best_of(fn, repeats=3):
    """Best-of-N wall-clock of ``fn()`` — robust to one-off scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gram_speedup_csr(csr):
    """Memoized CSC + workspace vs a fresh CSR→COO→CSC conversion per call."""
    rng = np.random.default_rng(2)
    idx = rng.integers(0, csr.shape[1], size=100)
    workspace = GramWorkspace(csr.shape[0], idx.size)
    csr.to_csc()  # warm the memo, as the solvers do via distribute_problem

    def slow():
        for _ in range(5):
            sampled_gram(csr.to_coo().to_csc(), idx)

    def fast():
        for _ in range(5):
            sampled_gram(csr, idx, workspace=workspace)

    assert np.array_equal(
        sampled_gram(csr, idx, workspace=workspace),
        sampled_gram(csr.to_coo().to_csc(), idx),
    )
    return _best_of(slow) / _best_of(fast)


def _gram_speedup_csc(csc):
    """Workspace-backed CSC Gram vs the allocating slow path."""
    rng = np.random.default_rng(2)
    idx = rng.integers(0, csc.shape[1], size=100)
    workspace = GramWorkspace(csc.shape[0], idx.size)
    sampled_gram(csc, idx, workspace=workspace)  # warm the buffers

    def slow():
        for _ in range(20):
            sampled_gram(csc, idx)

    def fast():
        for _ in range(20):
            sampled_gram(csc, idx, workspace=workspace)

    assert np.array_equal(
        sampled_gram(csc, idx, workspace=workspace), sampled_gram(csc, idx)
    )
    return _best_of(slow) / _best_of(fast)


def _csc_memo_speedup(csr):
    """Memoized ``to_csc`` vs re-converting through COO every call."""
    csr.to_csc()  # warm the memo

    def slow():
        csr.to_coo().to_csc()

    def fast():
        csr.to_csc()

    return _best_of(slow) / _best_of(fast)


def _value_gram_speedup(d=400, m=4000, evals=50):
    """Gram-form ``value`` (``½wᵀHw − Rᵀw + ½‖y‖²/m``) vs the residual
    formula ``½‖Xᵀw − y‖²/m`` on dense data of the epsilon shape."""
    gen = np.random.default_rng(5)
    problem = L1LeastSquares(gen.standard_normal((d, m)), gen.standard_normal(m), 0.01)
    ws = gen.standard_normal((evals, d))
    problem.value(ws[0])  # builds the cached Gram once, as the first monitor call does

    def direct(w):
        smooth = problem.loss.total(problem.predictions(w), problem.y) / problem.m
        return smooth + problem.reg_value(w)

    for w in ws[:5]:
        assert abs(problem.value(w) - direct(w)) <= 1e-12 * direct(w)
    return _best_of(lambda: [direct(w) for w in ws]) / _best_of(
        lambda: [problem.value(w) for w in ws]
    )


def _rfp_blocks(d, nbar, k, seed):
    """A dense epsilon-shaped rank gather (F-ordered, as ``X[:, cols]``)
    of *k* sets of *nbar* columns, and its column spans."""
    A = np.asfortranarray(np.random.default_rng(seed).standard_normal((d, k * nbar)))
    return A, [(j * nbar, (j + 1) * nbar, j) for j in range(k)]


def _rfp_gram_speedup(d=400, nbar=40, k=8):
    """Stage B: ``dsfrk`` straight into the RFP rows vs inline numpy —
    the full ``A @ A.T`` product, then a gather of its upper triangle
    into the row and the scale pass (the row-major triangle layout)."""
    A, spans = _rfp_blocks(d, nbar, k, 6)
    scale = 1.0 / nbar
    out = np.empty((k, packed_size(d)))
    gram = RFPGram(d)
    scratch = np.empty((d, d))
    r = np.arange(d)
    upper = np.flatnonzero(r[:, None] <= r)

    def slow():
        for lo, hi, j in spans:
            np.matmul(A[:, lo:hi], A[:, lo:hi].T, out=scratch)
            np.take(scratch.reshape(-1), upper, out=out[j], mode="clip")
            out[j] *= scale

    def fast():
        gram(A, spans, scale, out)

    fast()
    for lo, hi, j in spans:
        full = A[:, lo:hi] @ A[:, lo:hi].T * scale
        np.testing.assert_allclose(out[j], full.reshape(-1)[rfp_index(d)], rtol=0, atol=1e-13)
    return _best_of(slow) / _best_of(fast)


def _rfp_matvec_speedup(d=400, nbar=40, k=8, products=3):
    """Stage D of one round: ``products`` ``H_j @ u`` per shipped block
    (S = 2 plus the SVRG right-hand side). The RFP path multiplies the
    words as shipped; the slow side is inline numpy on the row-major
    upper-triangle layout — scatter it into ``(d, d)``, mirror it in
    64-row tiles, then dense ``H @ u``. A bare dense product without that
    rebuild is faster than the four-call RFP product at this size."""
    A, spans = _rfp_blocks(d, nbar, k, 7)
    rows = np.empty((k, packed_size(d)))
    RFPGram(d)(A, spans, 1.0 / nbar, rows)
    r = np.arange(d)
    upper_mask = r[:, None] <= r
    tile_lower = np.tri(64, k=-1, dtype=bool)
    triangles = [(A[:, lo:hi] @ A[:, lo:hi].T / nbar)[upper_mask] for lo, hi, _ in spans]
    u = np.random.default_rng(8).standard_normal(d)
    H = np.empty((d, d))
    matvec = RFPMatvec(d)

    def rebuild(tri):
        H[upper_mask] = tri
        for lo in range(0, d, 64):
            hi = min(lo + 64, d)
            H[lo:hi, :lo] = H[:lo, lo:hi].T
            tile = H[lo:hi, lo:hi]
            np.copyto(tile, tile.T, where=tile_lower[: hi - lo, : hi - lo])

    def slow():
        for tri in triangles:
            rebuild(tri)
            for _ in range(products):
                H @ u

    def fast():
        for row in rows:
            block = matvec.bind(row)
            for _ in range(products):
                block @ u

    rebuild(triangles[0])
    assert np.array_equal(H, H.T)
    np.testing.assert_allclose(matvec.bind(rows[0]) @ u, H @ u, rtol=1e-12, atol=1e-12)
    return _best_of(slow) / _best_of(fast)


def test_kernel_speedups(csr, csc):
    """Measure fast-path/slow-path wall-clock ratios and emit the report."""
    speedups = {
        "gram_workspace_csr": _gram_speedup_csr(csr),
        "gram_workspace_csc": _gram_speedup_csc(csc),
        "csc_memoization": _csc_memo_speedup(csr),
        "value_gram_dense": _value_gram_speedup(),
        "rfp_gram": _rfp_gram_speedup(),
        "rfp_matvec": _rfp_matvec_speedup(),
    }
    lines = [f"{name:>24s}: {ratio:8.2f}x" for name, ratio in speedups.items()]
    emit("kernels_speedups", "\n".join(lines))
    emit_json("kernels_run", {"speedups": speedups})
    # Correctness is asserted inline above; the wall-clock floors are
    # enforced by the CI gate (benchmarks/check_regression.py), not here,
    # so a loaded laptop doesn't fail the unit run.
    for name, ratio in speedups.items():
        assert ratio > 0, name
