"""Seeded randomness helpers.

The paper's experiments rely on *reproducible* sampling: RC-SFISTA with
overlap parameter ``k`` must draw exactly the same index sets as SFISTA when
both start from the same seed (§5.2, "random sampling is fixed by using the
same random generator seed"). Everything here is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_probability

__all__ = [
    "as_generator",
    "spawn_generators",
    "sample_indices",
    "sample_indices_weighted",
    "minibatch_size",
]

RandomState = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (non-deterministic), a non-negative ``int``, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged, so
    callers can thread one generator through a pipeline). A negative
    integer raises :class:`~repro.exceptions.ValidationError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def spawn_generators(seed: RandomState, n: int) -> list[np.random.Generator]:
    """Split *seed* into *n* statistically independent generators."""
    if n < 0:
        raise ValidationError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)]  # type: ignore[union-attr]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def minibatch_size(m: int, b: float) -> int:
    """The paper's mini-batch size ``m̄ = ⌊b·m⌋`` clamped to ``[1, m]``."""
    check_probability(b, "sampling rate b")
    if m <= 0:
        raise ValidationError(f"number of samples m must be positive, got {m}")
    return max(1, min(m, int(np.floor(b * m))))


def sample_indices(rng: np.random.Generator, m: int, mbar: int) -> np.ndarray:
    """Draw the index set ``I_n`` of ``mbar`` sample indices from ``[0, m)``.

    The paper samples uniformly at random (Alg. 5 line 4), with
    replacement: the variant matching the variance analysis of Eq. (9).
    Any ``mbar >= 1`` is valid (a bootstrap sample).
    """
    if mbar <= 0 or m <= 0:
        raise ValidationError(f"need positive sizes, got m={m}, mbar={mbar}")
    return rng.integers(0, m, size=mbar, dtype=np.int64)


def sample_indices_weighted(
    rng: np.random.Generator, probabilities: np.ndarray, mbar: int
) -> np.ndarray:
    """Draw ``mbar`` indices i.i.d. from *probabilities* (with replacement).

    Used by importance sampling: the unbiased sampled-Hessian estimator
    then reweights each draw by ``1/(m̄ p_i)``.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 1 or probabilities.size == 0:
        raise ValidationError("probabilities must be a non-empty 1-D array")
    if np.any(probabilities < 0):
        raise ValidationError("probabilities must be non-negative")
    total = probabilities.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValidationError("probabilities must have positive finite mass")
    if mbar <= 0:
        raise ValidationError(f"mbar must be positive, got {mbar}")
    return rng.choice(probabilities.size, size=mbar, p=probabilities / total).astype(np.int64)
