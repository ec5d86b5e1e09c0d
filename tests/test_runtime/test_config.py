"""RuntimeConfig validation and backend-spec parsing."""

import pytest

from repro.distsim.bsp import BSPCluster
from repro.distsim.faults import FaultPlan, RetryPolicy
from repro.exceptions import ValidationError
from repro.obs import MetricsRegistry
from repro.runtime import (
    BACKENDS,
    FAILURE_POLICIES,
    RuntimeConfig,
    parse_backend_spec,
)


class TestValidation:
    def test_defaults_valid(self):
        cfg = RuntimeConfig()
        assert cfg.backend == "bsp"
        assert cfg.comm == "dense"
        assert cfg.on_nan is None

    def test_backends_constant(self):
        assert BACKENDS == ("bsp", "serial", "mp", "threads")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="mpi"),
            dict(comm="compressed"),
            dict(on_nan="ignore"),
            dict(checkpoint_every=-1),
            dict(max_recoveries=-2),
            dict(mp_timeout=0.0),
            dict(mp_timeout=-5.0),
            dict(mp_timeout=float("inf")),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RuntimeConfig(**kwargs)

    @pytest.mark.parametrize(
        "extra",
        [
            # Torn collectives only exist on the simulated cluster; real
            # pipes don't lose messages that way.
            dict(faults=FaultPlan(collective_drop_rate=0.1)),
            dict(cluster=BSPCluster(2, "comet_effective")),
            dict(recv_timeout=1.0),
        ],
    )
    def test_mp_backend_excludes_simulation_knobs(self, extra):
        """Simulated faults/clusters/deadlines make no sense under mp."""
        with pytest.raises(ValidationError):
            RuntimeConfig(backend="mp", **extra)

    def test_mp_backend_accepts_real_process_chaos(self):
        """Crashes/stalls/corruption are real under mp; retry guards real acks."""
        cfg = RuntimeConfig(
            backend="mp",
            faults=FaultPlan(stall_rate=0.1, corrupt_rate=0.1),
            retry=RetryPolicy(),
            mp_failure_policy="respawn",
        )
        assert cfg.mp_failure_policy == "respawn"

    def test_failure_policies_constant(self):
        assert FAILURE_POLICIES == ("fail_fast", "respawn", "shrink")

    def test_bad_failure_policy_rejected(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(mp_failure_policy="restart")

    def test_threads_backend_keeps_simulation_knobs(self):
        """threads runs its collectives on the BSP cluster — faults stay legal."""
        cfg = RuntimeConfig(backend="threads", faults=FaultPlan(collective_drop_rate=0.1),
                            retry=RetryPolicy())
        assert cfg.backend == "threads"

    @pytest.mark.parametrize(
        "extra",
        [
            dict(faults=FaultPlan(collective_drop_rate=0.1)),
            dict(retry=RetryPolicy()),
            dict(recv_timeout=1.0),
            dict(metrics=MetricsRegistry()),
        ],
    )
    def test_prebuilt_cluster_excludes_runtime_knobs(self, extra):
        cluster = BSPCluster(2, "comet_effective")
        with pytest.raises(ValidationError):
            RuntimeConfig(cluster=cluster, **extra)

    def test_replace_revalidates(self):
        cfg = RuntimeConfig(comm="sparse")
        assert cfg.replace(comm="auto").comm == "auto"
        assert cfg.comm == "sparse"  # frozen: original untouched
        with pytest.raises(ValidationError):
            cfg.replace(on_nan="nope")


@pytest.mark.collectives
class TestCollectivesV2Knobs:
    def test_defaults_off(self):
        cfg = RuntimeConfig()
        assert cfg.comm_topology == "flat"
        assert cfg.comm_compress == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(comm_compress="topk:frac=0.1"),
            dict(comm_compress="quant:bits=8"),
            dict(comm_compress="topk"),  # default frac
            dict(machine="fat_tree", comm_topology="hier"),
            dict(machine="comet_4ppn", comm_topology="hier", comm_compress="quant:bits=4"),
        ],
    )
    def test_valid_combinations(self, kwargs):
        RuntimeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            (dict(comm_topology="torus"), "comm_topology"),
            (dict(comm_compress="gzip"), "comm_compress"),
            (dict(comm_compress="topk:frac=0"), "frac"),
            (dict(comm_compress="topk:frac=1.5"), "frac"),
            (dict(comm_compress="quant:bits=0"), "bits"),
            (dict(comm_compress="quant:bits=64"), "bits"),
            # hier needs a hierarchical machine with node_size > 1 ...
            (dict(comm_topology="hier"), "hierarchical machine"),
            (dict(machine="comet_paper", comm_topology="hier"), "hierarchical machine"),
        ],
    )
    def test_invalid_rejected(self, kwargs, needle):
        with pytest.raises(ValidationError, match=needle):
            RuntimeConfig(**kwargs)

    def test_prebuilt_cluster_excludes_v2_knobs(self):
        with pytest.raises(ValidationError, match="supplied cluster"):
            RuntimeConfig(
                cluster=BSPCluster(2, "comet_effective"),
                comm_compress="topk:frac=0.1",
            )


class TestParseBackendSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("bsp", ("bsp", None)),
            ("serial", ("serial", None)),
            ("mp", ("mp", None)),
            ("mp:4", ("mp", 4)),
            ("threads:16", ("threads", 16)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_backend_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["mpi", "mp:0", "mp:-2", "mp:four", "mp:4:2", "", ":4"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_backend_spec(spec)
