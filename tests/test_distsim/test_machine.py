"""Unit tests for machine specifications."""

import numpy as np
import pytest

from repro.distsim.machine import MACHINES, MachineSpec, get_machine
from repro.exceptions import ValidationError


class TestMachineSpec:
    def test_compute_time(self):
        m = MachineSpec("t", alpha=0, beta=0, gamma=2e-10)
        assert m.compute_time(1e6) == pytest.approx(2e-4)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            MachineSpec("t", alpha=-1, beta=0, gamma=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            MachineSpec("t", alpha=0, beta=0, gamma=0, straggler_sigma=-0.1)

    def test_with_(self):
        m = get_machine("comet_paper").with_(alpha=5e-5)
        assert m.alpha == 5e-5
        assert m.beta == get_machine("comet_paper").beta


class TestJitter:
    def test_disabled_returns_ones(self):
        m = get_machine("comet_paper")
        np.testing.assert_array_equal(m.jitter_factors(4, np.random.default_rng(0)), np.ones(4))

    def test_none_rng_returns_ones(self):
        m = MACHINES["comet_effective_noisy"]
        np.testing.assert_array_equal(m.jitter_factors(4, None), np.ones(4))

    def test_enabled_positive_and_random(self):
        m = MACHINES["comet_effective_noisy"]
        f = m.jitter_factors(1000, np.random.default_rng(0))
        assert np.all(f > 0)
        # mean-one lognormal
        assert abs(f.mean() - 1.0) < 0.05


class TestRegistry:
    def test_paper_constants(self):
        comet = get_machine("comet_paper")
        assert comet.alpha == 1e-6
        assert comet.beta == 1.42e-10
        assert comet.gamma == 4e-10

    def test_all_presets_resolve(self):
        for name in MACHINES:
            assert get_machine(name).name == name

    def test_spec_passthrough(self):
        spec = MachineSpec("custom", 1, 1, 1)
        assert get_machine(spec) is spec

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown machine"):
            get_machine("cray-1")
