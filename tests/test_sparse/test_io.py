"""Unit tests for the LIBSVM reader/writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FormatError
from repro.sparse.io import load_libsvm, parse_libsvm_lines, save_libsvm


SAMPLE = [
    "1.0 1:0.5 3:-2.0",
    "-1.0 2:1.5",
    "0.5",  # all-zero sample
    "2.0 1:1.0 2:2.0 3:3.0",
]


class TestParse:
    def test_shapes(self):
        X, y = parse_libsvm_lines(SAMPLE)
        assert X.shape == (3, 4)  # d=3 features, m=4 samples
        assert y.shape == (4,)

    def test_values(self):
        X, y = parse_libsvm_lines(SAMPLE)
        dense = X.to_dense()
        np.testing.assert_array_equal(y, [1.0, -1.0, 0.5, 2.0])
        np.testing.assert_array_equal(dense[:, 0], [0.5, 0.0, -2.0])
        np.testing.assert_array_equal(dense[:, 2], [0.0, 0.0, 0.0])

    def test_zero_based(self):
        X, _ = parse_libsvm_lines(["1 0:2.0 1:3.0"], zero_based=True)
        np.testing.assert_array_equal(X.to_dense()[:, 0], [2.0, 3.0])

    def test_comments_and_blank_lines(self):
        X, y = parse_libsvm_lines(["# header", "", "1.0 1:1.0  # trailing"])
        assert y.shape == (1,)
        assert X.to_dense()[0, 0] == 1.0

    def test_n_features_override(self):
        X, _ = parse_libsvm_lines(["1 1:1.0"], n_features=10)
        assert X.shape == (10, 1)

    def test_n_features_too_small(self):
        with pytest.raises(FormatError):
            parse_libsvm_lines(["1 5:1.0"], n_features=2)

    def test_bad_label(self):
        with pytest.raises(FormatError, match="bad label"):
            parse_libsvm_lines(["abc 1:1.0"])

    def test_malformed_pair(self):
        with pytest.raises(FormatError):
            parse_libsvm_lines(["1.0 1:x"])
        with pytest.raises(FormatError):
            parse_libsvm_lines(["1.0 notapair"])

    @pytest.mark.parametrize(
        "line, what",
        [
            ("1 1:nan", "feature value"),
            ("1 1:2 3:-inf", "feature value"),
            ("1 1:1e400", "feature value"),
            ("inf 1:2", "label"),
            ("nan", "label"),
            ("-1e400 1:2", "label"),
        ],
    )
    def test_non_finite_rejected(self, line, what):
        with pytest.raises(FormatError, match=f"line 2: non-finite {what}"):
            parse_libsvm_lines(["1 1:1.0", line])

    def test_duplicate_feature_index(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_libsvm_lines(["1.0 1:1.0 1:2.0"])

    def test_empty_input(self):
        X, y = parse_libsvm_lines([])
        assert X.shape == (0, 0)
        assert y.size == 0

    @pytest.mark.parametrize(
        "line", ["1 99999999999999999999:1", "1 -99999999999999999999:1", "1 1:1 9223372036854775809:2"]
    )
    def test_index_overflow_is_format_error(self, line):
        with pytest.raises(FormatError, match="line 2: feature index out of int64 range"):
            parse_libsvm_lines(["1 1:1.0", line])


#: Field-shaped tokens, including the ones a parser trips on: huge and
#: negative indices, non-finite values, stray separators.
_ODD = st.sampled_from(
    ["", "nan", "inf", "-1e400", ":", "1:", ":1", "#", "1:2:3", "x", "0x1", "1_0",
     "99999999999999999999", "-99999999999999999999", "9223372036854775808"]
)
_NUMBER = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_PAIR = st.builds(
    "{}:{}".format, st.one_of(st.integers(-(2**70), 2**70).map(str), _ODD), st.one_of(_NUMBER, _ODD)
)
_LINES = st.one_of(
    st.builds(
        lambda label, pairs: " ".join([label, *pairs]),
        st.one_of(_NUMBER, _ODD),
        st.lists(st.one_of(_PAIR, _ODD), max_size=5),
    ),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=3), zero_based=st.booleans())
def test_fuzzed_lines_parse_or_raise_format_error(lines, zero_based):
    """Arbitrary text either parses or raises FormatError, nothing else.

    Only parses: a huge feature index gives a huge row count, so the result
    is never densified.
    """
    try:
        X, y = parse_libsvm_lines(lines, zero_based=zero_based)
    except FormatError:
        return
    assert X.shape[1] == y.size
    assert np.all(np.isfinite(y))


class TestRoundtrip:
    def test_save_load(self, tmp_path, rng):
        d, m = 6, 10
        dense = rng.standard_normal((d, m))
        dense[np.abs(dense) < 0.5] = 0.0
        y = rng.standard_normal(m)
        path = tmp_path / "data.svm"
        save_libsvm(path, dense, y)
        X2, y2 = load_libsvm(path, n_features=d)
        np.testing.assert_allclose(X2.to_dense(), dense)
        np.testing.assert_allclose(y2, y)

    def test_save_zero_based_roundtrip(self, tmp_path, rng):
        dense = rng.standard_normal((3, 4))
        y = rng.standard_normal(4)
        path = tmp_path / "zb.svm"
        save_libsvm(path, dense, y, zero_based=True)
        X2, y2 = load_libsvm(path, zero_based=True, n_features=3)
        np.testing.assert_allclose(X2.to_dense(), dense)

    def test_save_shape_mismatch(self, tmp_path):
        with pytest.raises(FormatError):
            save_libsvm(tmp_path / "x.svm", np.ones((2, 3)), np.ones(4))

    def test_full_precision(self, tmp_path):
        X = np.array([[1.0 / 3.0]])
        y = np.array([np.pi])
        path = tmp_path / "prec.svm"
        save_libsvm(path, X, y)
        X2, y2 = load_libsvm(path)
        assert X2.to_dense()[0, 0] == X[0, 0]
        assert y2[0] == y[0]
