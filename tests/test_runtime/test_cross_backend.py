"""Cross-backend conformance matrix: iterates are backend-independent.

The contract for the runtime layer: for a fixed algorithm config,
{serial, BSP, mp, threads} × {dense, sparse, auto} all produce the
same iterates — bit-identical where the reduction order matches (same
rank count), allclose across different partitionings — and every
cost-charging backend produces the *identical* charged α-β-γ summary.

The BSP reference is itself pinned bit-for-bit to checked-in golden
traces (``tests/test_distsim/test_golden_trace.py``), so equality with
BSP here transitively pins every backend in the matrix to the golden
accounting.
"""

import numpy as np
import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.runtime import RuntimeConfig

SERIAL = RuntimeConfig(backend="serial")

#: One fixed-budget run per host-view solver, small enough that the full
#: matrix stays cheap but long enough to exercise sampling, momentum and
#: (for prox-newton) outer refreshes.
SOLVER_RUNS = {
    "rc_sfista_dist": lambda prob, rt, P=4: rc_sfista_distributed(
        prob, P, k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6,
        monitor_every=6, runtime=rt,
    ),
    "sfista_dist": lambda prob, rt, P=4: rc_sfista_distributed(
        prob, P, b=0.2, seed=3, epochs=1, iters_per_epoch=8, runtime=rt,
    ),
    "prox_newton": lambda prob, rt, P=4: proximal_newton_distributed(
        prob, P, inner="rc_sfista", n_outer=2, inner_iters=8, k=2, b=0.2,
        seed=1, runtime=rt,
    ),
}

# BSP reference runs, cached per (solver, comm): every real-parallelism
# case compares against the same reference object.
_BSP_REFERENCE: dict = {}


def _bsp_reference(problem, solver, comm):
    key = (solver, comm)
    if key not in _BSP_REFERENCE:
        _BSP_REFERENCE[key] = SOLVER_RUNS[solver](problem, RuntimeConfig(comm=comm))
    return _BSP_REFERENCE[key]


class TestSerialVsBsp:
    def test_rc_sfista_serial_backend(self, tiny_covtype_problem):
        kwargs = dict(k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6)
        bsp = rc_sfista_distributed(tiny_covtype_problem, 1, **kwargs)
        ser = rc_sfista_distributed(tiny_covtype_problem, 1, runtime=SERIAL, **kwargs)
        assert np.array_equal(bsp.w, ser.w)
        assert bsp.cost is not None
        assert ser.cost is None  # the serial backend charges nothing
        assert ser.meta["machine"] == "serial"

    def test_sfista_serial_backend(self, tiny_covtype_problem):
        kwargs = dict(b=0.2, seed=3, epochs=1, iters_per_epoch=8)
        bsp = rc_sfista_distributed(tiny_covtype_problem, 1, **kwargs)
        ser = rc_sfista_distributed(tiny_covtype_problem, 1, runtime=SERIAL, **kwargs)
        assert np.array_equal(bsp.w, ser.w)
        assert ser.cost is None

    def test_prox_newton_serial_backend(self, tiny_covtype_problem):
        kwargs = dict(inner="rc_sfista", n_outer=2, inner_iters=10, k=2, b=0.2, seed=1)
        bsp = proximal_newton_distributed(tiny_covtype_problem, 1, **kwargs)
        ser = proximal_newton_distributed(
            tiny_covtype_problem, 1, runtime=SERIAL, **kwargs
        )
        assert np.array_equal(bsp.w, ser.w)
        assert ser.cost is None

    def test_serial_vs_multirank_allclose(self, tiny_covtype_problem):
        """Different partitioning only reorders the reduction sums."""
        kwargs = dict(k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6)
        ser = rc_sfista_distributed(tiny_covtype_problem, 1, runtime=SERIAL, **kwargs)
        bsp4 = rc_sfista_distributed(tiny_covtype_problem, 4, **kwargs)
        np.testing.assert_allclose(ser.w, bsp4.w, atol=1e-9)


class TestRealParallelismConformance:
    """{mp, threads} × {dense, sparse, auto} × every host-view solver.

    The strongest pin in the matrix: both the iterates *and* the charged
    cost summary must be identical to BSP — the real backends execute
    genuinely parallel data movement, yet nothing observable may move.
    """

    @pytest.mark.parametrize(
        "backend",
        [pytest.param("mp", marks=pytest.mark.mp), "threads"],
    )
    @pytest.mark.parametrize("comm", ["dense", "sparse", "auto"])
    @pytest.mark.parametrize("solver", sorted(SOLVER_RUNS))
    def test_bit_identical_iterates_and_charges(
        self, tiny_covtype_problem, solver, comm, backend
    ):
        ref = _bsp_reference(tiny_covtype_problem, solver, comm)
        res = SOLVER_RUNS[solver](
            tiny_covtype_problem, RuntimeConfig(backend=backend, comm=comm)
        )
        assert np.array_equal(ref.w, res.w)
        assert res.cost == ref.cost  # byte-identical charged α-β-γ summary
        assert res.n_comm_rounds == ref.n_comm_rounds

    @pytest.mark.parametrize(
        "backend",
        [pytest.param("mp", marks=pytest.mark.mp), "threads"],
    )
    def test_gradient_comm_mode(self, tiny_covtype_problem, backend):
        """The per-iteration-gradient variant exercises map_ranks + allreduce."""
        kwargs = dict(b=0.2, seed=3, epochs=1, iters_per_epoch=8, comm_mode="gradient")
        ref = rc_sfista_distributed(tiny_covtype_problem, 4, **kwargs)
        res = rc_sfista_distributed(
            tiny_covtype_problem, 4, runtime=RuntimeConfig(backend=backend), **kwargs
        )
        assert np.array_equal(ref.w, res.w)
        assert res.cost == ref.cost

    @pytest.mark.mp
    @pytest.mark.parametrize("solver", ["prox_newton", "rc_sfista_dist"])
    def test_odd_rank_count_on_mp(self, tiny_covtype_problem, solver):
        """P=3: an unpaired rank in the tournament, and ranks 1-2 on pool
        threads while rank 0 runs on the calling thread."""
        ref = SOLVER_RUNS[solver](tiny_covtype_problem, RuntimeConfig(), P=3)
        res = SOLVER_RUNS[solver](tiny_covtype_problem, RuntimeConfig(backend="mp"), P=3)
        assert np.array_equal(ref.w, res.w)
        assert res.cost == ref.cost
        assert res.n_iterations == ref.n_iterations

    @pytest.mark.mp
    def test_single_rank_matches_serial(self, tiny_covtype_problem):
        """P=1 closes the matrix corner: mp ≡ serial iterates (no reduction)."""
        kwargs = dict(k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6)
        ser = rc_sfista_distributed(tiny_covtype_problem, 1, runtime=SERIAL, **kwargs)
        mp1 = rc_sfista_distributed(
            tiny_covtype_problem, 1, runtime=RuntimeConfig(backend="mp"), **kwargs
        )
        assert np.array_equal(ser.w, mp1.w)
        assert mp1.cost is not None  # mp still charges; serial does not


@pytest.mark.collectives
class TestCompressedConformance:
    """Collectives v2 slice: {bsp, mp, threads} × {topk, quant} × 2 solvers.

    Compression is a deterministic host-side transform of the allreduce
    contributions, so compressed modes must produce bit-identical iterates
    and identical charged costs on every backend — even though they differ
    from the uncompressed baseline.
    """

    COMPRESS = ("topk:frac=0.25", "quant:bits=8")
    SOLVERS = ("rc_sfista_dist", "sfista_dist")

    _REFERENCE: dict = {}

    def _reference(self, problem, solver, compress):
        key = (solver, compress)
        if key not in self._REFERENCE:
            self._REFERENCE[key] = SOLVER_RUNS[solver](
                problem, RuntimeConfig(comm_compress=compress)
            )
        return self._REFERENCE[key]

    @pytest.mark.parametrize(
        "backend",
        [pytest.param("mp", marks=pytest.mark.mp), "threads"],
    )
    @pytest.mark.parametrize("compress", COMPRESS)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_bit_identical_iterates_and_charges(
        self, tiny_covtype_problem, solver, compress, backend
    ):
        ref = self._reference(tiny_covtype_problem, solver, compress)
        res = SOLVER_RUNS[solver](
            tiny_covtype_problem,
            RuntimeConfig(backend=backend, comm_compress=compress),
        )
        assert np.array_equal(ref.w, res.w)
        assert res.cost == ref.cost
        assert res.n_comm_rounds == ref.n_comm_rounds

    @pytest.mark.parametrize("compress", COMPRESS)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_differs_from_uncompressed_baseline(
        self, tiny_covtype_problem, solver, compress
    ):
        """Lossy modes genuinely change the trajectory (and cost less)."""
        base = _bsp_reference(tiny_covtype_problem, solver, "dense")
        res = self._reference(tiny_covtype_problem, solver, compress)
        assert not np.array_equal(base.w, res.w)
        assert res.cost["words_total"] < base.cost["words_total"]

    @pytest.mark.parametrize("compress", COMPRESS)
    def test_serial_single_rank_matches_bsp(self, tiny_covtype_problem, compress):
        """The serial backend compresses its lone contribution as stream 0,
        exactly like a 1-rank BSP cluster."""
        kwargs = dict(k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6)
        bsp = rc_sfista_distributed(
            tiny_covtype_problem, 1,
            runtime=RuntimeConfig(comm_compress=compress), **kwargs,
        )
        ser = rc_sfista_distributed(
            tiny_covtype_problem, 1,
            runtime=RuntimeConfig(backend="serial", comm_compress=compress), **kwargs,
        )
        assert np.array_equal(bsp.w, ser.w)

    @pytest.mark.parametrize(
        "backend",
        [pytest.param("mp", marks=pytest.mark.mp), "threads"],
    )
    @pytest.mark.parametrize("compress", COMPRESS)
    def test_hier_topology_conformance(self, tiny_covtype_problem, backend, compress):
        """Hierarchical compressed reductions conform across backends too
        (node-leader partial streams instead of per-rank streams)."""
        rt = dict(machine="fat_tree", comm_topology="hier", comm_compress=compress)
        ref = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.2, seed=3, epochs=1, iters_per_epoch=8,
            runtime=RuntimeConfig(**rt),
        )
        res = rc_sfista_distributed(
            tiny_covtype_problem, 4, b=0.2, seed=3, epochs=1, iters_per_epoch=8,
            runtime=RuntimeConfig(backend=backend, **rt),
        )
        assert np.array_equal(ref.w, res.w)
        assert res.cost == ref.cost

    def test_hier_without_compression_is_byte_identical_to_flat(
        self, tiny_covtype_problem
    ):
        """Topology alone never moves a bit: iterates *and* charged costs."""
        kwargs = dict(b=0.2, seed=3, epochs=1, iters_per_epoch=8)
        flat = rc_sfista_distributed(
            tiny_covtype_problem, 4,
            runtime=RuntimeConfig(machine="fat_tree"), **kwargs,
        )
        hier = rc_sfista_distributed(
            tiny_covtype_problem, 4,
            runtime=RuntimeConfig(machine="fat_tree", comm_topology="hier"), **kwargs,
        )
        assert np.array_equal(flat.w, hier.w)
        assert flat.cost == hier.cost


class TestCommModesBitIdentical:
    @pytest.mark.parametrize(
        "solver_kwargs",
        [
            dict(k=2, b=0.2, seed=7, epochs=1, iters_per_epoch=6),
            dict(k=1, b=0.2, seed=3, epochs=1, iters_per_epoch=8),
        ],
        ids=["rc_sfista_dist", "sfista_dist"],
    )
    def test_encoding_never_changes_iterates(self, tiny_covtype_problem, solver_kwargs):
        runs = [
            rc_sfista_distributed(
                tiny_covtype_problem, 4, runtime=RuntimeConfig(comm=comm), **solver_kwargs
            )
            for comm in ("dense", "sparse", "auto")
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].w, other.w)
