"""Shared utilities: validation and RNG handling."""

from repro.utils.validation import (
    check_array,
    check_vector,
    require,
    check_positive,
    check_in_range,
    check_probability,
)
from repro.utils.rng import (
    as_generator,
    spawn_generators,
    sample_indices,
    sample_indices_weighted,
)

__all__ = [
    "check_array",
    "check_vector",
    "require",
    "check_positive",
    "check_in_range",
    "check_probability",
    "as_generator",
    "spawn_generators",
    "sample_indices",
    "sample_indices_weighted",
]
