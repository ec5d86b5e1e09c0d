"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ShapeError, ValidationError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
    check_probability,
    check_vector,
    require,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")


class TestCheckArray:
    def test_converts_list(self):
        arr = check_array([1, 2, 3])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_ndim_enforced(self):
        with pytest.raises(ShapeError):
            check_array([[1.0, 2.0]], ndim=1)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_array([np.inf])

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_array(["a", "b"])

    def test_empty_allowed_by_default(self):
        assert check_array([]).size == 0

    def test_empty_rejected_when_disallowed(self):
        with pytest.raises(ValidationError, match="empty"):
            check_array([], allow_empty=False)

    def test_dtype_override(self):
        arr = check_array([1, 2], dtype=np.int64)
        assert arr.dtype == np.int64


class TestMatrixVector:
    def test_check_vector_requires_1d(self):
        assert check_vector([1.0]).shape == (1,)
        with pytest.raises(ShapeError):
            check_vector([[1.0]])


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    def test_strict_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0.0, "x")

    def test_nonstrict_accepts_zero(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, "x", strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(float("nan"), "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_low(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, "x", 0.0, 1.0, low_inclusive=False)

    def test_exclusive_high(self):
        with pytest.raises(ValidationError):
            check_in_range(1.0, "x", 0.0, 1.0, high_inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_in_range(2.0, "x", 0.0, 1.0)


class TestCheckProbability:
    def test_valid(self):
        assert check_probability(0.5) == 0.5
        assert check_probability(1.0) == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            check_probability(0.0)

    def test_above_one_rejected(self):
        with pytest.raises(ValidationError):
            check_probability(1.5)
