"""Unit tests for table/series formatting."""

import pytest

from repro.perf.report import format_table, format_value


class TestFormatValue:
    def test_int(self):
        assert format_value(42) == "42"

    def test_bool(self):
        assert format_value(True) == "True"

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_small_float_scientific(self):
        assert "e" in format_value(1.23e-7)

    def test_regular_float(self):
        assert format_value(3.14159) == "3.142"

    def test_string(self):
        assert format_value("abc") == "abc"

    def test_large_float_scientific(self):
        # Pins the collapsed magnitude branch: ``g`` alone already renders
        # |v| >= 1e5 in scientific notation at the default precision.
        assert format_value(123456.789) == "1.235e+05"

    def test_mid_range_float_stays_positional(self):
        assert format_value(0.25) == "0.25"
        assert format_value(99999.0) == "1e+05"

    def test_precision_widens_before_scientific(self):
        assert format_value(123456.789, precision=9) == "123456.789"


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1
        assert lines[1].startswith("-")

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
