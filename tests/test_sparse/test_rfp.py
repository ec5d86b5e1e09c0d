"""The RFP kernels: stage B writes each ``H_j`` in rectangular full packed
format and stage D multiplies the words as shipped.

Held against the numpy oracle of ``rfp_oracle.py`` (LAPACK's layout
definition) across orders ``d`` — 1, 2, odd, even —, empty sample sets,
loss weights and the ``rhs`` row stride; the numpy fallback (forced by
replacing the library loader, as on a numpy without the bundled
OpenBLAS) is held against the BLAS path within the same rounding bounds,
and every distributed solver records which path ran. Binding the library
must not pull in scipy.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.exceptions import ShapeError
from repro.runtime import RuntimeConfig
from repro.sparse import rfp
from repro.sparse.csr import CSCMatrix
from repro.sparse.ops import packed_size, sampled_gram, sampled_gram_blocks, sampled_rhs
from tests.test_sparse.rfp_oracle import assert_gram_close, assert_matvec_close, rfp_to_dense

ORDERS = [1, 2, 3, 4, 7, 10, 25, 64]

requires_openblas = pytest.mark.skipif(
    rfp.openblas() is None, reason="numpy's bundled OpenBLAS is not available"
)


def _data(d: int, m: int, sparse: bool, seed: int):
    rng = np.random.default_rng([d, m, seed])
    dense = rng.standard_normal((d, m))
    dense[rng.random((d, m)) > 0.5] = 0.0
    dense[0, :] = 0.0  # a feature no sample touches: a zero row and column
    return CSCMatrix.from_dense(dense) if sparse else dense, rng


def _blocks(d: int, *, sparse: bool, weighted: bool, rhs: bool):
    """Four sets (one empty) of one gather, with the per-set references."""
    m = 40
    X, rng = _data(d, m, sparse, 1)
    cols = rng.integers(0, m, size=30)
    cols[5] = cols[0]
    offsets = [0, 12, 12, 19, 30]
    weights = rng.uniform(0.0, 2.0, m) if weighted else None
    response = rng.standard_normal(m) if rhs else None
    out = sampled_gram_blocks(
        X, cols, offsets, scale=0.05, weights=weights, response=response, rhs=rhs
    )
    refs = []
    for lo, hi in zip(offsets, offsets[1:]):
        if hi == lo:
            refs.append((np.zeros((d, d)), np.zeros(d), 0))
            continue
        H = sampled_gram(X, cols[lo:hi], scale=0.05, weights=weights)
        R = sampled_rhs(X, response, cols[lo:hi], scale=0.05) if rhs else None
        refs.append((H, R, hi - lo))
    return out, refs, rng


@pytest.mark.parametrize("rhs", [False, True], ids=["no-rhs", "rhs"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
@pytest.mark.parametrize("d", ORDERS)
def test_blocks_and_products_match_the_oracle(d, sparse, weighted, rhs):
    out, refs, rng = _blocks(d, sparse=sparse, weighted=weighted, rhs=rhs)
    t = packed_size(d)
    assert out.shape == (4, t + d if rhs else t)
    matvec = rfp.RFPMatvec(d)
    for row, (H_ref, R_ref, ncols) in zip(out, refs):
        H = rfp_to_dense(row[:t], d)
        assert_gram_close(H, H_ref, ncols)
        assert not H[0].any()  # the untouched feature stays exactly zero
        if rhs:
            assert row[t:].tobytes() == R_ref.tobytes()
        block = matvec.bind(row[:t])
        for u in (rng.standard_normal(d), np.zeros(d)):
            assert_matvec_close(block @ u, H, u)
    assert not out[1].any()  # the empty set's block, R included


@requires_openblas
@pytest.mark.parametrize("d", ORDERS)
def test_fallback_matches_blas(d, monkeypatch):
    """The numpy fallback writes and reads the same layout: both paths
    agree to the rounding bounds, block by block and product by product."""
    blas, refs, rng = _blocks(d, sparse=True, weighted=True, rhs=True)
    blas_matvec = rfp.RFPMatvec(d)
    monkeypatch.setattr(rfp, "openblas", lambda: None)
    fallback, _refs, _ = _blocks(d, sparse=True, weighted=True, rhs=True)
    fallback_matvec = rfp.RFPMatvec(d)
    t = packed_size(d)
    for a, b, (_H, _R, ncols) in zip(blas, fallback, refs):
        H_blas, H_fallback = rfp_to_dense(a[:t], d), rfp_to_dense(b[:t], d)
        assert_gram_close(H_blas, H_fallback, ncols)
        assert a[t:].tobytes() == b[t:].tobytes()
        u = rng.standard_normal(d)
        assert_matvec_close(blas_matvec.bind(a[:t]) @ u, H_fallback, u)
        assert_matvec_close(fallback_matvec.bind(b[:t]) @ u, H_blas, u)


@pytest.mark.parametrize("path", ["openblas", "numpy"])
def test_products_recover_from_a_non_finite_one(path, monkeypatch):
    """A NaN product (a diverged iterate) leaves nothing behind in the
    reused vector buffers, and stage B overwrites a NaN payload row."""
    if path == "numpy":
        monkeypatch.setattr(rfp, "openblas", lambda: None)
    elif rfp.openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    d, nbar = 9, 5
    A = np.random.default_rng(4).standard_normal((d, nbar))
    out = np.full((1, packed_size(d)), np.nan)
    rfp.RFPGram(d)(A, [(0, nbar, 0)], 0.5, out)
    H = rfp_to_dense(out[0], d)
    assert_gram_close(H, 0.5 * A @ A.T, nbar)
    block = rfp.RFPMatvec(d).bind(out[0])
    assert np.isnan(block @ np.full(d, np.nan)).all()
    u = np.arange(d, dtype=np.float64)
    assert_matvec_close(block @ u, H, u)


@pytest.mark.parametrize("span", [(0, 0, 0), (2, 7, 0), (0, 3, 1), (-1, 3, 0)],
                         ids=["empty", "past-A", "past-out", "negative"])
def test_writer_checks_spans(span):
    """Spans become pointer offsets: each must lie inside A and out."""
    d = 4
    with pytest.raises(ShapeError, match="spans"):
        rfp.RFPGram(d)(np.ones((d, 6)), [span], 1.0, np.empty((1, packed_size(d))))


def test_concurrent_writers_match_serial():
    """Rank threads run stage B concurrently, each with its own writer (one
    per workspace): interleaved calls must give the serial bytes."""
    d, nbar, k, nthreads = 30, 6, 4, 6
    rng = np.random.default_rng(9)
    gathers = [rng.standard_normal((d, k * nbar)) for _ in range(nthreads)]
    spans = [(j * nbar, (j + 1) * nbar, j) for j in range(k)]
    want = []
    for A in gathers:
        out = np.empty((k, packed_size(d)))
        rfp.RFPGram(d)(A, spans, 0.1, out)
        want.append(out)
    got = [np.empty((k, packed_size(d))) for _ in range(nthreads)]

    def work(p: int) -> None:
        gram = rfp.RFPGram(d)
        for _ in range(50):
            gram(gathers[p], spans, 0.1, got[p])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(p,)) for p in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


_SOLVES = {
    "rc_sfista_distributed": lambda prob, rt: rc_sfista_distributed(
        prob, 3, k=2, S=2, b=0.2, iters_per_epoch=6, seed=0, runtime=rt
    ),
    # Distributed SFISTA: the same body at k = S = 1.
    "sfista_distributed": lambda prob, rt: rc_sfista_distributed(
        prob, 3, k=1, S=1, b=0.2, iters_per_epoch=6, seed=0, runtime=rt
    ),
    "proximal_newton_distributed": lambda prob, rt: proximal_newton_distributed(
        prob, 3, n_outer=2, inner_iters=4, k=2, S=2, b=0.2, seed=0, runtime=rt
    ),
}


@pytest.mark.parametrize("solver", sorted(_SOLVES))
def test_solvers_record_the_kernel_path(solver, small_sparse_problem, monkeypatch):
    """``meta["gram_kernel"]`` names the path; the fallback's objectives
    match the BLAS path's to 1e-10 relative (the bound the solvers are
    held to across kernel changes)."""
    runtime = RuntimeConfig(backend="bsp")
    blas = _SOLVES[solver](small_sparse_problem, runtime)
    assert blas.meta["gram_kernel"] == rfp.gram_kernel()
    monkeypatch.setattr(rfp, "openblas", lambda: None)
    fallback = _SOLVES[solver](small_sparse_problem, runtime)
    assert fallback.meta["gram_kernel"] == "numpy"
    assert fallback.n_iterations == blas.n_iterations
    np.testing.assert_allclose(
        fallback.history.objectives, blas.history.objectives, rtol=1e-10, atol=0
    )
    assert fallback.cost == blas.cost  # a permutation of the same words


def test_binding_imports_no_scipy():
    """``src/`` never imports scipy, and binding numpy's OpenBLAS keeps it
    so: the entry points import nothing of it, FISTA and the imports load
    no library, and an RFP solve loads it without scipy."""
    code = """
import sys
import repro, repro.cli, repro.core, repro.serve, repro.runtime.mpbackend
import repro.experiments.runner
from repro.sparse import rfp
from repro.core.fista import fista
from repro.core.objectives import L1LeastSquares
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression

assert "scipy" not in sys.modules, "import"
X, y, _ = make_regression(8, 60, density=0.5, rng=1)
problem = L1LeastSquares(X, y, 0.01)
fista(problem, max_iter=5)
assert rfp.openblas.cache_info().currsize == 0, "fista bound the library"
res = rc_sfista_distributed(problem, 2, k=2, b=0.2, iters_per_epoch=4, seed=0)
assert "scipy" not in sys.modules, "solve"
print(res.meta["gram_kernel"])
"""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == rfp.gram_kernel()
