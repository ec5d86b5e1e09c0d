"""Unit + property tests for proximal operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.proximal import (
    ElasticNetProx,
    GroupL1Prox,
    L1Prox,
    soft_threshold,
)
from repro.exceptions import ValidationError

finite_vec = arrays(
    np.float64, st.integers(1, 12), elements=st.floats(-100, 100, allow_nan=False, width=64)
)


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([3.0, -3.0, 0.5]), 1.0), [2.0, -2.0, 0.0]
        )

    def test_zero_threshold_identity(self, rng):
        w = rng.standard_normal(10)
        np.testing.assert_array_equal(soft_threshold(w, 0.0), w)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            soft_threshold(np.ones(2), -1.0)

    def test_kills_small_entries(self):
        assert soft_threshold(np.array([0.1, -0.2]), 0.5).tolist() == [0.0, 0.0]


class TestL1Prox:
    def test_value(self):
        assert L1Prox(2.0).value(np.array([1.0, -3.0])) == 8.0

    def test_prox_is_soft_threshold(self, rng):
        w = rng.standard_normal(6)
        np.testing.assert_array_equal(L1Prox(0.5).prox(w, 2.0), soft_threshold(w, 1.0))

    def test_lambda_zero_identity(self, rng):
        w = rng.standard_normal(6)
        np.testing.assert_array_equal(L1Prox(0.0).prox(w, 1.0), w)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            L1Prox(-1.0)


class TestElasticNet:
    def test_reduces_to_l1(self, rng):
        w = rng.standard_normal(5)
        np.testing.assert_allclose(
            ElasticNetProx(0.3, 0.0).prox(w, 1.0), L1Prox(0.3).prox(w, 1.0)
        )

    def test_reduces_to_l2(self, rng):
        w = rng.standard_normal(5)
        np.testing.assert_allclose(ElasticNetProx(0.0, 0.7).prox(w, 1.0), w / 1.7)

    def test_value(self):
        v = ElasticNetProx(1.0, 2.0).value(np.array([2.0]))
        assert v == pytest.approx(2.0 + 4.0)


class TestGroupL1:
    def test_kills_small_group(self):
        groups = [np.array([0, 1]), np.array([2])]
        w = np.array([0.1, 0.1, 5.0])
        out = GroupL1Prox(1.0, groups).prox(w, 1.0)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(4.0)

    def test_shrinks_group_norm(self):
        groups = [np.array([0, 1])]
        w = np.array([3.0, 4.0])  # norm 5
        out = GroupL1Prox(1.0, groups).prox(w, 1.0)
        assert np.linalg.norm(out) == pytest.approx(4.0)

    def test_value(self):
        groups = [np.array([0, 1]), np.array([2])]
        v = GroupL1Prox(2.0, groups).value(np.array([3.0, 4.0, -1.0]))
        assert v == pytest.approx(2.0 * (5.0 + 1.0))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValidationError):
            GroupL1Prox(1.0, [np.array([0, 1]), np.array([1, 2])])


ALL_PROXES = [
    L1Prox(0.5),
    ElasticNetProx(0.3, 0.4),
]


@settings(max_examples=40, deadline=None)
@given(a=finite_vec, data=st.data(), gamma=st.floats(0.0, 10.0))
@pytest.mark.parametrize("prox", ALL_PROXES, ids=lambda p: type(p).__name__)
def test_nonexpansive(prox, a, data, gamma):
    """prox operators are 1-Lipschitz: ‖prox(a)−prox(b)‖ ≤ ‖a−b‖."""
    b = data.draw(
        arrays(np.float64, a.shape, elements=st.floats(-100, 100, allow_nan=False, width=64))
    )
    pa = prox.prox(a, gamma)
    pb = prox.prox(b, gamma)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(w=finite_vec, gamma=st.floats(1e-3, 10.0))
@pytest.mark.parametrize(
    "prox", [L1Prox(0.5), ElasticNetProx(0.3, 0.4)],
    ids=lambda p: type(p).__name__,
)
def test_moreau_optimality(prox, w, gamma):
    """prox(w) minimizes ½γ⁻¹‖x−w‖² + g(x): perturbations don't improve."""
    p = prox.prox(w, gamma)

    def objective(x):
        return 0.5 / gamma * float(np.sum((x - w) ** 2)) + prox.value(x)

    base = objective(p)
    gen = np.random.default_rng(0)
    for _ in range(5):
        perturbed = p + 1e-4 * gen.standard_normal(p.shape)
        assert objective(perturbed) >= base - 1e-8


@settings(max_examples=40, deadline=None)
@given(w=finite_vec, t=st.floats(0, 50))
def test_soft_threshold_properties(w, t):
    out = soft_threshold(w, t)
    # Never flips sign, never grows magnitude.
    assert np.all(out * w >= 0)
    assert np.all(np.abs(out) <= np.abs(w) + 1e-12)
    # Exactly |w|−t where it survives.
    alive = out != 0
    np.testing.assert_allclose(np.abs(out[alive]), np.abs(w[alive]) - t, atol=1e-12)


# --------------------------------------------------------------------- #
# shared properties of every operator (hypothesis-driven)
# --------------------------------------------------------------------- #
_D = 12
_GROUPS = [np.arange(0, 5), np.arange(5, 7), np.arange(7, 12)]
#: Every operator at fixed parameters, on d=12 vectors.
_ALL_OPERATORS = [
    L1Prox(0.7),
    ElasticNetProx(0.5, 0.2),
    GroupL1Prox(0.6, _GROUPS),
]

vec12 = arrays(
    np.float64, _D, elements=st.floats(-50, 50, allow_nan=False, width=64)
)

pytest_losses = pytest.mark.losses


@pytest_losses
@pytest.mark.parametrize("op", _ALL_OPERATORS, ids=lambda o: type(o).__name__)
@settings(max_examples=25, deadline=None)
@given(x=vec12, y=vec12, gamma=st.floats(0.01, 10))
def test_firm_nonexpansiveness(op, x, y, gamma):
    """⟨prox(x)−prox(y), x−y⟩ ≥ ‖prox(x)−prox(y)‖² for every prox."""
    px, py = op.prox(x, gamma), op.prox(y, gamma)
    diff = px - py
    lhs = float(np.dot(diff, diff))
    rhs = float(np.dot(x - y, diff))
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


@pytest_losses
@pytest.mark.parametrize("op", _ALL_OPERATORS, ids=lambda o: type(o).__name__)
@settings(max_examples=25, deadline=None)
@given(w=vec12)
def test_gamma_zero_is_identity(op, w):
    np.testing.assert_array_equal(op.prox(w, 0.0), w)


@pytest_losses
@settings(max_examples=40, deadline=None)
@given(w=vec12, gamma=st.floats(0.01, 10), lam=st.floats(0.01, 5))
def test_moreau_decomposition_l1(w, gamma, lam):
    """w = prox_{γλ‖·‖₁}(w) + γ·proj_{‖·‖∞≤λ}(w/γ)."""
    op = L1Prox(lam)
    dual = np.clip(w / gamma, -lam, lam)
    np.testing.assert_allclose(op.prox(w, gamma) + gamma * dual, w, atol=1e-9)


@pytest_losses
@settings(max_examples=40, deadline=None)
@given(w=vec12, gamma=st.floats(0.01, 10), lam=st.floats(0.01, 5))
def test_moreau_decomposition_group_l1(w, gamma, lam):
    """Blockwise: w_g = prox(w)_g + γ·proj_{‖·‖₂≤λ}(w_g/γ)."""
    op = GroupL1Prox(lam, _GROUPS)
    dual = w / gamma
    dual = dual.copy()
    for g in _GROUPS:
        norm = np.linalg.norm(dual[g])
        if norm > lam:
            dual[g] *= lam / norm
    np.testing.assert_allclose(op.prox(w, gamma) + gamma * dual, w, atol=1e-9)


@pytest_losses
@pytest.mark.parametrize("op", _ALL_OPERATORS, ids=lambda o: type(o).__name__)
@settings(max_examples=15, deadline=None)
@given(w=vec12, gamma=st.floats(0.05, 5), seed=st.integers(0, 2**16))
def test_prox_minimizes_its_objective(op, w, gamma, seed):
    """prox(w, γ) beats random perturbations on ½‖x−w‖²/γ + g(x)."""
    p = op.prox(w, gamma)

    def objective(x):
        r = x - w
        return 0.5 / gamma * float(np.dot(r, r)) + op.value(x)

    base = objective(p)
    assert np.isfinite(base)
    gen = np.random.default_rng(seed)
    for _ in range(3):
        assert objective(p + 1e-3 * gen.standard_normal(_D)) >= base - 1e-9
