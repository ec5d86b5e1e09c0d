"""Unit tests for problem objects (values, gradients, Hessian, Lipschitz)."""

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares, QuadraticModel
from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix


@pytest.fixture(scope="module")
def small():
    gen = np.random.default_rng(0)
    X = gen.standard_normal((6, 40))
    y = gen.standard_normal(40)
    return L1LeastSquares(X, y, 0.1)


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            L1LeastSquares(np.ones((3, 5)), np.ones(4), 0.1)

    def test_empty_matrix(self):
        with pytest.raises(ValidationError):
            L1LeastSquares(np.ones((0, 5)), np.ones(5), 0.1)

    def test_negative_lambda(self):
        with pytest.raises(ValidationError):
            L1LeastSquares(np.ones((2, 3)), np.ones(3), -0.1)


class TestValuesAndGradients:
    def test_value_decomposition(self, small, rng):
        w = rng.standard_normal(small.d)
        assert small.value(w) == pytest.approx(small.smooth_value(w) + small.reg_value(w))

    def test_smooth_value_formula(self, small, rng):
        w = rng.standard_normal(small.d)
        r = small.X.T @ w - small.y
        assert small.smooth_value(w) == pytest.approx(0.5 * r @ r / small.m)

    def test_gradient_finite_difference(self, small, rng):
        w = rng.standard_normal(small.d)
        g = small.gradient(w)
        eps = 1e-6
        for j in range(small.d):
            e = np.zeros(small.d)
            e[j] = eps
            fd = (small.smooth_value(w + e) - small.smooth_value(w - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_gradient_hessian_relation(self, small, rng):
        """Eq. (5): ∇f(w) = Hw − R."""
        w = rng.standard_normal(small.d)
        np.testing.assert_allclose(
            small.gradient(w), small.hessian @ w - small.rhs, atol=1e-10
        )

    def test_gradient_zero_at_ls_solution(self):
        gen = np.random.default_rng(1)
        X = gen.standard_normal((3, 50))
        w_star = gen.standard_normal(3)
        y = X.T @ w_star  # exact fit
        p = L1LeastSquares(X, y, 0.0)
        np.testing.assert_allclose(p.gradient(w_star), np.zeros(3), atol=1e-10)

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_sparse_storage_agrees_with_dense(self, small, rng, fmt):
        dense = small.X
        X = CSRMatrix.from_dense(dense) if fmt == "csr" else CSCMatrix.from_dense(dense)
        p = L1LeastSquares(X, small.y, small.lam)
        w = rng.standard_normal(small.d)
        assert p.value(w) == pytest.approx(small.value(w))
        np.testing.assert_allclose(p.gradient(w), small.gradient(w), atol=1e-10)
        np.testing.assert_allclose(p.hessian, small.hessian, atol=1e-10)


class TestCurvature:
    def test_hessian_matches_formula(self, small):
        np.testing.assert_allclose(
            small.hessian, small.X @ small.X.T / small.m, atol=1e-12
        )

    def test_lipschitz_is_top_eigenvalue(self, small):
        exact = np.linalg.eigvalsh(small.hessian)[-1]
        assert small.lipschitz() == pytest.approx(exact, rel=1e-6)

    def test_lipschitz_cached(self, small):
        assert small.lipschitz() is not None
        assert small._gram_lipschitz_cache is not None

    def test_default_step(self, small):
        assert small.default_step() == pytest.approx(1.0 / small.lipschitz())

    def test_max_sample_lipschitz(self, small):
        expected = max(np.linalg.norm(small.X[:, i]) ** 2 for i in range(small.m))
        assert small.max_sample_lipschitz == pytest.approx(expected)

    def test_sampled_deviation_positive_and_cached(self, small):
        dev = small.sampled_hessian_deviation(5)
        assert dev > 0
        assert small.sampled_hessian_deviation(5) == dev

    def test_sampled_deviation_shrinks_with_batch(self, small):
        small_batch = small.sampled_hessian_deviation(2)
        big_batch = small.sampled_hessian_deviation(small.m)
        assert big_batch < small_batch

    def test_sampled_deviation_invalid_mbar(self, small):
        with pytest.raises(ValidationError):
            small.sampled_hessian_deviation(0)


class TestOptimalityResidual:
    def test_zero_at_optimum(self, small_dense_problem, small_reference):
        assert small_dense_problem.optimality_residual(small_reference.w) <= 1e-8

    def test_positive_away_from_optimum(self, small):
        assert small.optimality_residual(np.ones(small.d)) > 0


class TestQuadraticModel:
    def test_gradient(self, rng):
        H = np.eye(3) * 2.0
        R = np.array([1.0, 2.0, 3.0])
        model = QuadraticModel(H, R)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(model.gradient(u), H @ u - R)

    def test_from_linearization_matches_expansion(self, small, rng):
        w = rng.standard_normal(small.d)
        grad = small.gradient(w)
        model = QuadraticModel.from_linearization(small.hessian, grad, w)
        u = rng.standard_normal(small.d)
        direct = 0.5 * (u - w) @ (small.hessian @ (u - w)) + grad @ (u - w)
        assert model.value(u) - model.value(w) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_model_gradient_at_center_equals_problem_gradient(self, small, rng):
        w = rng.standard_normal(small.d)
        model = QuadraticModel.from_linearization(small.hessian, small.gradient(w), w)
        np.testing.assert_allclose(model.gradient(w), small.gradient(w), atol=1e-10)

    def test_lipschitz(self):
        H = np.diag([1.0, 5.0, 3.0])
        assert QuadraticModel(H, np.zeros(3)).lipschitz() == pytest.approx(5.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            QuadraticModel(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ShapeError):
            QuadraticModel(np.eye(2), np.ones(3))


# --------------------------------------------------------------------- #
# squared+l1 pin: the paper's problem keeps its original arithmetic
# --------------------------------------------------------------------- #
def _xt(X, w):
    return X.T @ w if isinstance(X, np.ndarray) else X.rmatvec(w)


def _x(X, r):
    return X @ r if isinstance(X, np.ndarray) else X.matvec(r)


def _csc(X):
    return X.to_csc() if isinstance(X, CSRMatrix) else X


def _seed_lipschitz(X, m):
    gen = np.random.default_rng(0)
    u = gen.standard_normal(X.shape[0])
    u /= np.linalg.norm(u)
    lam_prev = 0.0
    for _ in range(100):
        hu = _x(X, _xt(X, u)) / m
        lam = float(np.dot(u, hu))
        u = hu / np.linalg.norm(hu)
        if abs(lam - lam_prev) <= 1e-9 * max(1.0, abs(lam)):
            lam_prev = lam
            break
        lam_prev = lam
    return abs(lam_prev)


def _seed_deviation(X, m, mbar):
    gen = np.random.default_rng(0)
    worst = 0.0
    for _ in range(3):
        idx = gen.integers(0, m, size=mbar, dtype=np.int64)
        if isinstance(X, np.ndarray):
            A = X[:, idx]
        else:
            A = _csc(X).select_columns(idx).to_dense()
        u = gen.standard_normal(X.shape[0])
        u /= np.linalg.norm(u)
        lam = 0.0
        for _it in range(30):
            du = A @ (A.T @ u) / mbar - _x(X, _xt(X, u)) / m
            lam = np.linalg.norm(du)
            u = du / lam
        worst = max(worst, lam)
    return worst


def _seed_subgradient_residual(grad, w, lam):
    res = np.where(
        w != 0.0,
        np.abs(grad + lam * np.sign(w)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(np.max(res))


class TestSquaredL1Pin:
    """``L1LeastSquares`` is ``ERMObjective(squared, l1)``, and every number
    it produces equals, bit for bit, the least-squares formulas the
    reproduction's golden traces were recorded with."""

    @pytest.fixture(params=["dense", "csr", "csc"])
    def problem(self, request):
        gen = np.random.default_rng(7)
        D = gen.standard_normal((9, 101)) * (gen.random((9, 101)) < 0.4)
        y = gen.standard_normal(101)
        X = {"dense": D, "csr": CSRMatrix.from_dense(D), "csc": CSCMatrix.from_dense(D)}
        return L1LeastSquares(X[request.param], y, 0.05)

    def test_numerics_match_seed_formulas(self, problem):
        X, y, m, lam = problem.X, problem.y, problem.m, problem.lam
        # Several points: a summation-order change shows on only some.
        for w in np.random.default_rng(1).standard_normal((8, problem.d)):
            w[::3] = 0.0
            r = _xt(X, w) - y
            smooth = 0.5 * float(np.dot(r, r)) / m
            assert problem.smooth_value(w) == smooth
            assert problem.value(w) == smooth + lam * float(np.sum(np.abs(w)))
            grad = _x(X, r) / m
            assert np.array_equal(problem.gradient(w), grad)
            assert problem.optimality_residual(w) == _seed_subgradient_residual(grad, w, lam)
        D = X if isinstance(X, np.ndarray) else X.to_dense()
        H = D @ D.T / m
        assert np.array_equal(problem.hessian, 0.5 * (H + H.T))
        assert np.array_equal(problem.rhs, _x(X, y) / m)
        assert problem.lipschitz() == _seed_lipschitz(X, m)
        norms = np.einsum("ij,ij->j", D, D) if isinstance(X, np.ndarray) else _csc(X).col_norms_sq()
        assert problem.max_sample_lipschitz == float(norms.max())
        assert problem.sampled_hessian_deviation(12) == _seed_deviation(X, m, 12)

    def test_residual_is_the_subgradient_form(self):
        # f(w) = ¼‖w‖², so ∇f = w/2 and γ = 1/L ≈ 2. At w = (0.01, 0.01)
        # the subgradient distance is 0.005 + λ while the prox-gradient
        # step lands on 0 and reads only w/γ ≈ 0.005.
        problem = L1LeastSquares(np.eye(2), np.zeros(2), 0.1)
        w = np.array([0.01, 0.01])
        grad = problem.gradient(w)
        gamma = problem.default_step()
        prox_form = float(np.max(np.abs(w - problem.penalty.prox(w - gamma * grad, gamma)) / gamma))
        subgradient = _seed_subgradient_residual(grad, w, 0.1)
        assert subgradient == pytest.approx(0.105)
        assert prox_form == pytest.approx(0.005)
        assert problem.optimality_residual(w) == subgradient


def _squared_l1_only_solvers():
    from repro.core.ca_bcd import ca_bcd
    from repro.core.cd import coordinate_descent_lasso
    from repro.core.proxcocoa import proxcocoa
    from repro.core.rc_sfista import rc_sfista
    from repro.core.sfista import sfista

    return {
        "sfista": lambda p: sfista(p, epochs=1, iters_per_epoch=2),
        "rc_sfista": lambda p: rc_sfista(p, epochs=1, iters_per_epoch=2),
        "proxcocoa": lambda p: proxcocoa(p, 2, n_rounds=1),
        "coordinate_descent_lasso": lambda p: coordinate_descent_lasso(p, max_epochs=1),
        "ca_bcd": lambda p: ca_bcd(p, block_size=2, n_rounds=1),
    }


@pytest.mark.parametrize("objective", ["logistic+l1", "squared+elastic_net"])
@pytest.mark.parametrize("solver", list(_squared_l1_only_solvers()))
def test_squared_l1_solvers_reject_other_objectives(solver, objective):
    from repro.core.logistic import L1Logistic
    from repro.core.model import ERMObjective

    gen = np.random.default_rng(3)
    X = gen.standard_normal((6, 30))
    labels = np.where(gen.standard_normal(30) >= 0, 1.0, -1.0)
    if objective == "logistic+l1":
        problem = L1Logistic(X, labels, 0.05)
    else:
        problem = ERMObjective(X, labels, loss="squared", penalty="elastic_net", lam=0.05)
    with pytest.raises(ValidationError, match=rf"{solver} solves only the \(squared, l1\)"):
        _squared_l1_only_solvers()[solver](problem)
