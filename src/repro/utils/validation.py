"""Argument validation helpers.

These are deliberately small and allocation-free on the happy path: hot
solver loops call them once at entry, never per iteration.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ShapeError, ValidationError

__all__ = [
    "require",
    "check_array",
    "check_vector",
    "check_positive",
    "check_in_range",
    "check_probability",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition* holds."""
    if not condition:
        raise ValidationError(message)


def check_array(
    x: Any,
    name: str = "array",
    *,
    ndim: int | None = None,
    dtype: np.dtype | type = np.float64,
    allow_empty: bool = True,
) -> np.ndarray:
    """Coerce *x* to a contiguous ndarray of *dtype* and validate its rank.

    Parameters
    ----------
    x:
        Anything ``np.asarray`` accepts.
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions, or ``None`` to accept any rank.
    dtype:
        Target dtype; the input is converted (copying only when needed).
    allow_empty:
        When ``False``, reject arrays with zero elements.
    """
    try:
        arr = np.ascontiguousarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to {np.dtype(dtype)}: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must have ndim={ndim}, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def check_vector(x: Any, name: str = "vector", **kwargs: Any) -> np.ndarray:
    """Validate a rank-1 array (see :func:`check_array`)."""
    return check_array(x, name, ndim=1, **kwargs)


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate a (strictly) positive scalar and return it as ``float``."""
    v = float(value)
    if not np.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if strict and v <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and v < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return v


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Validate that ``low (<|<=) value (<|<=) high`` and return ``float(value)``."""
    v = float(value)
    lo_ok = (v >= low) if low_inclusive else (v > low)
    hi_ok = (v <= high) if high_inclusive else (v < high)
    if not (lo_ok and hi_ok and np.isfinite(v)):
        lb = "[" if low_inclusive else "("
        rb = "]" if high_inclusive else ")"
        raise ValidationError(f"{name} must lie in {lb}{low}, {high}{rb}, got {value!r}")
    return v


def check_probability(value: float, name: str = "probability") -> float:
    """Validate a sampling rate in ``(0, 1]`` (the paper's ``b``)."""
    return check_in_range(value, name, 0.0, 1.0, low_inclusive=False)
