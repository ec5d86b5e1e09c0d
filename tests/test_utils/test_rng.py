"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.rng import (
    as_generator,
    minibatch_size,
    sample_indices,
    spawn_generators,
)


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(5).standard_normal(4)
        b = as_generator(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        a = as_generator(seq).standard_normal(3)
        b = as_generator(np.random.SeedSequence(9)).standard_normal(3)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="non-negative integer"):
            as_generator(seed)


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5

    def test_independent_streams(self):
        g1, g2 = spawn_generators(0, 2)
        assert not np.allclose(g1.standard_normal(8), g2.standard_normal(8))

    def test_deterministic(self):
        a = [g.standard_normal() for g in spawn_generators(3, 3)]
        b = [g.standard_normal() for g in spawn_generators(3, 3)]
        assert a == b

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            spawn_generators(0, -1)

    def test_zero_ok(self):
        assert spawn_generators(0, 0) == []


class TestMinibatchSize:
    def test_floor(self):
        assert minibatch_size(100, 0.155) == 15

    def test_at_least_one(self):
        assert minibatch_size(100, 0.001) == 1

    def test_full_batch(self):
        assert minibatch_size(100, 1.0) == 100

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            minibatch_size(100, 0.0)
        with pytest.raises(ValidationError):
            minibatch_size(100, 1.2)

    def test_invalid_m(self):
        with pytest.raises(ValidationError):
            minibatch_size(0, 0.5)


class TestSampleIndices:
    def test_range_and_size(self, rng):
        idx = sample_indices(rng, 50, 20)
        assert idx.shape == (20,)
        assert idx.min() >= 0 and idx.max() < 50

    def test_with_replacement_allows_duplicates(self):
        gen = np.random.default_rng(0)
        idx = sample_indices(gen, 3, 100)
        assert np.unique(idx).size <= 3

    def test_invalid_mbar(self, rng):
        with pytest.raises(ValidationError):
            sample_indices(rng, 10, 0)
        with pytest.raises(ValidationError):
            sample_indices(rng, 0, 5)

    def test_bootstrap_oversampling_allowed(self, rng):
        idx = sample_indices(rng, 3, 10)
        assert idx.shape == (10,)

    def test_deterministic_given_seed(self):
        a = sample_indices(np.random.default_rng(4), 100, 10)
        b = sample_indices(np.random.default_rng(4), 100, 10)
        np.testing.assert_array_equal(a, b)
