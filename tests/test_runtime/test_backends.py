"""ExecutionBackend implementations and the ResilientLoop driver."""

import numpy as np
import pytest

from repro.distsim.bsp import BSPCluster
from repro.exceptions import NumericalFaultError, ValidationError
from repro.runtime import (
    BSPBackend,
    ExecutionBackend,
    ResilientLoop,
    RollbackRequested,
    RuntimeConfig,
    SerialBackend,
    build_host_backend,
)


class TestSerialBackend:
    def test_satisfies_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)

    def test_allreduce_returns_copy(self):
        be = SerialBackend()
        x = np.arange(4.0)
        out = be.allreduce([x])
        np.testing.assert_array_equal(out, x)
        out[0] = 99.0
        assert x[0] == 0.0

    def test_rejects_multiple_contributions(self):
        with pytest.raises(ValidationError, match="exactly 1 contribution"):
            SerialBackend().allreduce([np.zeros(2), np.zeros(2)])

    def test_zero_cost_surface(self):
        be = SerialBackend()
        be.compute(1e9)
        be.checkpoint(100.0)
        be.recover(100.0)
        assert be.elapsed == 0.0
        assert be.cost_summary() is None
        assert be.trace is None
        assert be.injector is None
        assert be.machine_name == "serial"

    def test_comm_decision_resolves_density(self):
        be = SerialBackend(comm="auto")
        be.allreduce([np.array([0.0, 0.0, 0.0, 1.0])])
        assert be.last_comm_decision == "sparse"
        be.allreduce([np.ones(4)])
        assert be.last_comm_decision == "dense"
        assert SerialBackend(comm="dense").last_comm_decision is None

    def test_bad_comm_rejected(self):
        with pytest.raises(ValidationError):
            SerialBackend(comm="zipped")


class TestBSPBackend:
    def test_satisfies_protocol(self):
        be = BSPBackend.from_config(RuntimeConfig(), nranks=2)
        assert isinstance(be, ExecutionBackend)
        assert be.nranks == 2

    def test_allreduce_matches_cluster(self):
        contribs = [np.arange(3.0) + p for p in range(4)]
        be = BSPBackend.from_config(RuntimeConfig(), nranks=4)
        ref = BSPCluster(4, "comet_effective").allreduce_comm(contribs, mode="dense")
        np.testing.assert_array_equal(be.allreduce(contribs), ref)
        assert be.cost_summary()["words_total"] > 0

    def test_adopts_prebuilt_cluster(self):
        cluster = BSPCluster(3, "comet_effective")
        be = BSPBackend.from_config(RuntimeConfig(cluster=cluster), nranks=3)
        assert be.cluster is cluster

    def test_prebuilt_cluster_rank_mismatch(self):
        cluster = BSPCluster(3, "comet_effective")
        with pytest.raises(ValidationError, match="3 ranks"):
            BSPBackend.from_config(RuntimeConfig(cluster=cluster), nranks=4)


class TestBuildHostBackend:
    def test_serial_needs_one_rank(self):
        cfg = RuntimeConfig(backend="serial")
        assert isinstance(build_host_backend(cfg, 1), SerialBackend)
        with pytest.raises(ValidationError, match="exactly 1 rank"):
            build_host_backend(cfg, 4)

    def test_serial_rejects_cluster(self):
        cluster = BSPCluster(1, "comet_effective")
        with pytest.raises(ValidationError, match="prebuilt cluster"):
            build_host_backend(RuntimeConfig(backend="serial", cluster=cluster), 1)

    def test_default_is_bsp(self):
        assert isinstance(build_host_backend(RuntimeConfig(), 4), BSPBackend)


class TestResilientLoop:
    def _loop(self, **cfg):
        config = RuntimeConfig(backend="serial", **cfg)
        return ResilientLoop(SerialBackend(), config, solver="test")

    def test_screened_recompute_retries(self):
        loop = self._loop(on_nan="recompute", max_recoveries=3)
        outputs = iter([np.array([np.nan]), np.array([np.nan]), np.array([1.0])])
        out = loop.screened(lambda: next(outputs), "collective")
        np.testing.assert_array_equal(out, [1.0])
        assert loop.comm_rounds == 3  # every attempt charged
        assert loop.stats.recomputes == 2
        assert loop.stats.numerical_faults == 2

    def test_screened_recompute_exhausts(self):
        loop = self._loop(on_nan="recompute", max_recoveries=1)
        with pytest.raises(NumericalFaultError, match="stayed non-finite"):
            loop.screened(lambda: np.array([np.inf]), "collective")
        assert loop.comm_rounds == 2

    def test_rollback_replays_body_then_escalates(self):
        loop = self._loop(on_nan="rollback", max_recoveries=2)
        calls = []

        def body():
            calls.append(1)
            if len(calls) < 3:
                raise RollbackRequested("stage C")
            return "done"

        assert loop.run(body) == "done"
        assert loop.stats.rollbacks == 2

        loop2 = self._loop(on_nan="rollback", max_recoveries=1)
        with pytest.raises(NumericalFaultError, match="persisted after"):
            loop2.run(lambda: (_ for _ in ()).throw(RollbackRequested("stage C")))

    def test_screen_objective_requests_rollback(self):
        loop = self._loop(on_nan="rollback")
        loop.screen_objective(1.25)  # finite: no-op
        with pytest.raises(RollbackRequested):
            loop.screen_objective(float("nan"))

    def test_finish_injects_resilience_meta(self):
        loop = self._loop()
        meta = loop.finish({"converged": True})
        assert meta["converged"] is True
        assert meta["resilience"]["rollbacks"] == 0
