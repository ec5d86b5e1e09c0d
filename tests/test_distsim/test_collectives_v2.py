"""Collectives v2: hierarchical/compressed kernels + the unified charging path.

Property tests (hypothesis) for the new kernels:

* hierarchical allreduce is **bit-identical** to the flat tournament for
  power-of-two node sizes when compression is off — the per-node
  tournaments plus the tournament over node partials compute exactly the
  flat combine tree;
* top-k error feedback telescopes: the sum of what was sent plus the
  final residual equals the sum of what was produced;
* stochastic-rounding quantization stays within one grid step
  (``2^-bits · range``) of the input and replays bit-exactly from a
  snapshot.

Charging regression: :func:`repro.distsim.collectives.allreduce_charge`
is the *single* charging path for dense/sparse/top-k/quantized payloads;
the totals pinned here are what every backend reports through the same
``saved_words``/round counters, and a cluster's data-moving and
charge-only allreduce entries charge, trace and publish identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim import collectives as coll
from repro.distsim import sparse_collectives as sc
from repro.distsim.bsp import BSPCluster
from repro.distsim.compress import (
    CompressorBank,
    parse_compression_spec,
    quant_payload_words,
)
from repro.distsim.machine import HierarchicalMachine, MachineSpec, get_machine
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.collectives


def _arrays(nranks: int, n: int, seed: int) -> list[np.ndarray]:
    gen = np.random.default_rng(seed)
    return [gen.standard_normal(n) for _ in range(nranks)]


class TestHierarchicalAllreduce:
    @settings(max_examples=60, deadline=None)
    @given(
        nranks=st.integers(1, 24),
        node_size=st.sampled_from([1, 2, 4, 8]),
        n=st.integers(1, 32),
        seed=st.integers(0, 1000),
    )
    def test_bit_identical_to_flat_without_compression(self, nranks, node_size, n, seed):
        vals = _arrays(nranks, n, seed)
        flat = coll.allreduce_values(vals, "sum")
        hier = coll.hierarchical_allreduce_values(vals, "sum", node_size=node_size)
        assert np.array_equal(flat, hier)

    @settings(max_examples=30, deadline=None)
    @given(
        nranks=st.integers(1, 16),
        node_size=st.sampled_from([2, 4]),
        seed=st.integers(0, 100),
    )
    def test_other_ops_match_flat(self, nranks, node_size, seed):
        vals = _arrays(nranks, 8, seed)
        for op in ("max", "min"):
            assert np.array_equal(
                coll.allreduce_values(vals, op),
                coll.hierarchical_allreduce_values(vals, op, node_size=node_size),
            )


class TestTopkErrorFeedback:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        rounds=st.integers(1, 20),
        frac=st.floats(0.01, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_residual_telescopes_to_dense_sum(self, n, rounds, frac, seed):
        """sum(sent) + residual == sum(produced): nothing is ever dropped."""
        bank = CompressorBank(parse_compression_spec(f"topk:frac={frac:g}"))
        gen = np.random.default_rng(seed)
        produced = np.zeros(n)
        sent = np.zeros(n)
        for _ in range(rounds):
            x = gen.standard_normal(n)
            produced += x
            sent += bank.compress(x, label="g", stream=0)
        residual = bank._residuals[("g", 0, n)]
        np.testing.assert_allclose(sent + residual, produced, atol=1e-9)

    def test_keeps_exactly_k_largest(self):
        bank = CompressorBank(parse_compression_spec("topk:frac=0.25"))
        x = np.array([0.1, -5.0, 0.2, 3.0, -0.3, 0.0, 1.0, 0.4])
        out = bank.compress(x, label="g", stream=0)
        assert np.count_nonzero(out) == 2  # ceil(0.25 * 8)
        assert out[1] == -5.0 and out[3] == 3.0

    def test_streams_keep_independent_residuals(self):
        bank = CompressorBank(parse_compression_spec("topk:frac=0.5"))
        a = bank.compress(np.array([1.0, 2.0]), label="g", stream=0)
        b = bank.compress(np.array([8.0, 4.0]), label="g", stream=1)
        assert np.array_equal(a, [0.0, 2.0])
        assert np.array_equal(b, [8.0, 0.0])
        assert bank.residual_norm() == pytest.approx(np.hypot(1.0, 4.0))


class TestQuantization:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        bits=st.integers(1, 16),
        seed=st.integers(0, 1000),
    )
    def test_error_bounded_by_grid_step(self, n, bits, seed):
        bank = CompressorBank(parse_compression_spec(f"quant:bits={bits}"), seed=1)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(n) * gen.uniform(0.1, 100)
        out = bank.compress(x, label="q", stream=0)
        step = (x.max() - x.min()) * 2.0 ** (-bits)
        assert np.all(np.abs(out - x) <= step + 1e-12 * max(1.0, abs(x).max()))

    def test_constant_vector_is_exact(self):
        bank = CompressorBank(parse_compression_spec("quant:bits=4"))
        x = np.full(7, 3.25)
        assert np.array_equal(bank.compress(x, label="q", stream=0), x)

    def test_snapshot_restore_replays_bit_exactly(self):
        bank = CompressorBank(parse_compression_spec("quant:bits=8"), seed=3)
        x = np.linspace(-1, 1, 33)
        bank.compress(x, label="q", stream=0)  # advance the RNG stream
        snap = bank.snapshot()
        first = bank.compress(x, label="q", stream=0)
        bank.restore(snap)
        replay = bank.compress(x, label="q", stream=0)
        assert np.array_equal(first, replay)


class TestUnifiedCharging:
    """Pin the one charging helper's totals for every encoding."""

    MACHINE = MachineSpec(name="pin", alpha=1e-5, beta=1e-9, gamma=1e-10)

    def test_dense_matches_legacy_cost(self):
        charge = coll.allreduce_charge(self.MACHINE, 8, 1000.0)
        legacy = coll.allreduce_cost(self.MACHINE, 8, 1000.0)
        assert charge.cost == legacy
        assert charge.decision == "dense"
        assert charge.sparse_words == 0.0 and charge.saved_words == 0.0
        assert (charge.rounds_local, charge.rounds_remote) == (0, 3)

    def test_sparse_reports_saved_words(self):
        charge = coll.allreduce_charge(
            self.MACHINE, 8, 1000.0, mode="sparse", nnz_union=100.0
        )
        # index+value encoding: 2 * 100 = 200 payload words, 3 rounds.
        assert charge.cost.words == 600.0
        assert charge.sparse_words == 600.0
        assert charge.saved_words == 3000.0 - 600.0
        assert charge.decision == "sparse"

    def test_auto_densifies_above_switch_density(self):
        dense = coll.allreduce_charge(
            self.MACHINE, 8, 1000.0, mode="auto", nnz_union=900.0
        )
        assert dense.decision == "dense" and dense.saved_words == 0.0
        sparse = coll.allreduce_charge(
            self.MACHINE, 8, 1000.0, mode="auto", nnz_union=100.0
        )
        assert sparse.decision == "sparse" and sparse.saved_words > 0.0

    def test_topk_charges_union_support(self):
        charge = coll.allreduce_charge(
            self.MACHINE, 8, 1000.0,
            compress=parse_compression_spec("topk:frac=0.05"),
            compressed_nnz=80.0,
        )
        assert charge.cost.words == 3 * 160.0
        assert charge.saved_words == 3 * (1000.0 - 160.0)
        assert charge.decision == "topk"

    def test_quant_charges_packed_lanes(self):
        charge = coll.allreduce_charge(
            self.MACHINE, 8, 1000.0,
            compress=parse_compression_spec("quant:bits=8"),
        )
        payload = quant_payload_words(1000.0, 8)  # 2 + ceil(1000*8/64) = 127
        assert payload == 127.0
        assert charge.cost.words == 3 * payload
        assert charge.saved_words == 3 * (1000.0 - payload)
        assert charge.decision == "quant"

    def test_hier_compression_keeps_intra_dense(self):
        machine = get_machine("fat_tree")
        assert isinstance(machine, HierarchicalMachine)
        charge = coll.allreduce_charge(
            machine, 16, 1000.0,
            topology="hier",
            compress=parse_compression_spec("topk:frac=0.05"),
            compressed_nnz=80.0,
        )
        # 2 nodes of 8: 2*log2(8) dense intra exchanges + 1 compressed
        # inter round of 2*80 = 160 words.
        assert charge.cost.words == 2 * 1000.0 * 3 + 160.0
        assert (charge.rounds_local, charge.rounds_remote) == (6, 1)
        dense = coll.allreduce_cost(machine, 16, 1000.0)
        assert charge.saved_words == dense.words - charge.cost.words

    def test_round_counts_flat_vs_hier_machine(self):
        assert coll._round_counts(self.MACHINE, 16, "recursive_doubling") == (0, 4)
        machine = get_machine("fat_tree")
        assert coll._round_counts(machine, 16, "recursive_doubling") == (6, 1)
        assert coll._round_counts(machine, 1, "recursive_doubling") == (0, 0)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValidationError, match="topology"):
            coll.allreduce_charge(self.MACHINE, 4, 10.0, topology="torus")


class TestDataChargeParity:
    """``allreduce_comm`` and ``charge_allreduce_comm`` are one path.

    A fresh cluster that only *charges* a collective (the mp ledger, the
    dry-run replays) must end in exactly the state of one that moved the
    data: costs, trace events (detail strings included, also for
    million-entry vectors), the comm decision and every metric.
    """

    @staticmethod
    def _contributions(nranks: int, n: int, density: float) -> list:
        gen = np.random.default_rng(n + nranks)
        out = []
        for _ in range(nranks):
            idx = np.unique(gen.integers(0, n, size=max(1, int(density * n))))
            out.append(sc.SparseVector(n, idx, gen.standard_normal(idx.size)))
        return out

    @staticmethod
    def _state(cluster: BSPCluster, metrics: MetricsRegistry):
        events = [
            (e.kind, e.label, e.start, e.end, e.words, e.messages, e.detail)
            for e in cluster.trace.events
        ]
        return cluster.cost.summary(), events, cluster.last_comm_decision, metrics.snapshot()

    @pytest.mark.parametrize("mode", sc.COMM_MODES)
    @pytest.mark.parametrize(
        "machine,nranks,topology",
        [("comet_effective", 4, "flat"), ("comet_4ppn", 8, "hier")],
    )
    @pytest.mark.parametrize("n,density", [(64, 0.1), (64, 0.8), (2_000_003, 0.01)])
    def test_data_and_charge_paths_agree(self, mode, machine, nranks, topology, n, density):
        def cluster():
            metrics = MetricsRegistry()
            return (
                BSPCluster(nranks, machine, comm_topology=topology, metrics=metrics),
                metrics,
            )

        values = self._contributions(nranks, n, density)
        union = sc.support_union_size(values)
        data, data_metrics = cluster()
        data.allreduce_comm(values, mode=mode, label="stage_c")
        charged, charged_metrics = cluster()
        charged.charge_allreduce_comm(n, union, mode=mode, label="stage_c")
        assert self._state(charged, charged_metrics) == self._state(data, data_metrics)
        if mode == "sparse":
            assert data.trace.events[-1].detail == f"sparse nnz={union}/{n}"
