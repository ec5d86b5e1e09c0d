"""Zero-copy collectives: frozen fan-out views, COW semantics, invariance.

The dedup fast path (docs/PERFORMANCE.md) replaces the per-rank deep
copies of replicated collective results with read-only views of one
shared array. These tests pin the contract: results are immutable (a
write raises), a rank's private copy leaves siblings untouched, the
``REPRO_NO_DEDUP`` escape hatch restores the copying behaviour, and — the
tentpole invariant — charged α-β-γ costs and reduced values are
byte-identical either way.
"""

import numpy as np
import pytest

from repro.distsim.bsp import BSPCluster
from repro.distsim.collectives import allreduce_values
from repro.distsim.engine import SPMDEngine
from repro.distsim.zerocopy import NO_DEDUP_ENV, dedup_enabled, freeze


class TestPrimitives:
    def test_freeze_returns_readonly_view(self):
        arr = np.arange(4.0)
        frozen = freeze(arr)
        assert not frozen.flags.writeable
        assert np.shares_memory(frozen, arr)
        # The original stays writable — freeze never mutates its argument.
        arr[0] = 7.0
        assert frozen[0] == 7.0

    def test_freeze_passes_non_arrays_through(self):
        assert freeze(3.5) == 3.5
        assert freeze(None) is None

    def test_dedup_enabled_env_escape_hatch(self, monkeypatch):
        monkeypatch.delenv(NO_DEDUP_ENV, raising=False)
        assert dedup_enabled(None) is True
        monkeypatch.setenv(NO_DEDUP_ENV, "1")
        assert dedup_enabled(None) is False
        monkeypatch.setenv(NO_DEDUP_ENV, "0")
        assert dedup_enabled(None) is True
        # An explicit override always wins over the environment.
        monkeypatch.setenv(NO_DEDUP_ENV, "1")
        assert dedup_enabled(True) is True
        assert dedup_enabled(False) is False


class TestBSPImmutability:
    def test_allreduce_host_view_stays_writable(self):
        """The BSP allreduce returns ONE host-view array — still mutable."""
        cluster = BSPCluster(4)
        out = cluster.allreduce([np.ones(3) for _ in range(4)])
        out[0] = 5.0  # must not raise
        np.testing.assert_allclose(out[1:], 4.0)


class TestSPMDImmutability:
    @staticmethod
    def _run_allreduce(dedup):
        engine = SPMDEngine(4, dedup=dedup)

        def program(ctx):
            out = yield ctx.allreduce(np.full(6, float(ctx.rank + 1)))
            return out

        return engine, engine.run(program)

    def test_injected_results_are_readonly(self):
        _, results = self._run_allreduce(True)
        for out in results:
            with pytest.raises(ValueError):
                out[0] = 0.0

    def test_cow_private_copy(self):
        _, results = self._run_allreduce(True)
        mine = results[2].copy()
        mine += 1.0
        for r, sibling in enumerate(results):
            np.testing.assert_array_equal(sibling, np.full(6, 10.0)), r


class TestCostInvariance:
    """Charged simulated costs never depend on the host fast path."""

    def test_spmd_costs_and_values_identical(self):
        def drive(dedup):
            engine = SPMDEngine(4, dedup=dedup)

            def program(ctx):
                total = np.zeros(32)
                for i in range(3):
                    out = yield ctx.allreduce(np.full(32, float(ctx.rank + i)))
                    total = total + out
                return total

            results = engine.run(program)
            return results, engine.cost.summary()

        res_on, cost_on = drive(True)
        res_off, cost_off = drive(False)
        assert cost_on == cost_off
        for a, b in zip(res_on, res_off):
            assert np.array_equal(a, b)


def _reference_allreduce(arrays, combine=np.add):
    """The pre-optimization tree reduction: copies at every level."""
    level = [a.copy() for a in arrays]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(combine(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


class TestAllreduceBufferReuse:
    """The in-place tree reduction is equivalent to the copying original."""

    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8, 16, 17])
    @pytest.mark.parametrize("combine", [np.add, np.maximum, np.multiply])
    def test_matches_reference_tree(self, nranks, combine):
        rng = np.random.default_rng(nranks)
        arrays = [rng.standard_normal(37) for _ in range(nranks)]
        snapshots = [a.copy() for a in arrays]
        out = allreduce_values(arrays, op=combine)
        ref = _reference_allreduce(snapshots, combine=combine)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("nranks", [1, 2, 5, 16])
    def test_never_mutates_or_aliases_inputs(self, nranks):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(12) for _ in range(nranks)]
        snapshots = [a.copy() for a in arrays]
        out = allreduce_values(arrays)
        for arr, snap in zip(arrays, snapshots):
            assert np.array_equal(arr, snap)
            assert not np.shares_memory(out, arr)
        out += 1.0  # the result is a private, writable buffer

    def test_custom_python_combiner_still_works(self):
        arrays = [np.full(4, float(i + 1)) for i in range(5)]

        def combine(a, b):
            return np.minimum(a, b)

        out = allreduce_values(arrays, op=combine)
        np.testing.assert_array_equal(out, np.full(4, 1.0))
