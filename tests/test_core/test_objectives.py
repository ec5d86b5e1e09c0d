"""Unit tests for problem objects (values, gradients, Hessian, Lipschitz)."""

import numpy as np
import pytest

from repro.core.objectives import L1LeastSquares
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc"])
    def test_non_finite_X_rejected(self, fmt, bad):
        """A NaN/Inf in X fails at construction, naming X, not deep in a solve."""
        X = np.arange(1.0, 25.0).reshape(4, 6)
        X[2, 3] = bad
        if fmt != "dense":
            X = CSRMatrix.from_dense(X) if fmt == "csr" else CSCMatrix.from_dense(X)
        with pytest.raises(ValidationError, match="X must contain only finite"):
            L1LeastSquares(X, np.ones(6), 0.1)


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

    def test_lipschitz_cached(self, small, monkeypatch):
        first = small.lipschitz()
        monkeypatch.setattr(
            "repro.core.model.gram_lipschitz",
            lambda *a, **k: pytest.fail("the memoized estimate was recomputed"),
        )
        assert small.lipschitz() == first

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
    reproduction's golden traces were recorded with. The one exception is
    the smooth value on dense ``X`` with ``d ≤ m``, which is pinned to the
    Gram form ``½wᵀHw − Rᵀw + ½‖y‖²/m`` (the residual form's bound is
    ``TestGramFormValue``)."""

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
            if isinstance(X, np.ndarray):
                H, R = problem.hessian, problem.rhs
                smooth = 0.5 * float(w @ (H @ w)) - float(R @ w) + 0.5 * float(np.dot(y, y)) / m
            else:
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
    return {
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


def _direct_smooth_value(problem, w):
    """The residual formula ``½‖Xᵀw − y‖²/m`` the Gram form replaces."""
    r = _xt(problem.X, w) - problem.y
    return 0.5 * float(np.dot(r, r)) / problem.m


class TestGramFormValue:
    """On dense ``X`` with ``d ≤ m`` the squared loss is evaluated as
    ``½wᵀHw − Rᵀw + ½‖y‖²/m`` from the cached Gram; every other layout
    keeps the residual formula bit for bit."""

    SHAPES = [(5, 5), (8, 60), (40, 300), (120, 400)]

    @pytest.mark.parametrize("d,m", SHAPES)
    def test_random_points_relative_error(self, d, m):
        gen = np.random.default_rng(d * 1000 + m)
        problem = L1LeastSquares(gen.standard_normal((d, m)), gen.standard_normal(m), 0.1)
        assert problem.gram_form
        for scale in (1e-3, 1.0, 1e3):
            for w in scale * gen.standard_normal((5, d)):
                direct = _direct_smooth_value(problem, w)
                assert abs(problem.smooth_value(w) - direct) <= 1e-12 * direct

    @pytest.mark.parametrize("d,m", SHAPES)
    def test_noise_free_optimum_absolute_error(self, d, m):
        # At w_true the residual is zero, so the Gram form's three terms
        # cancel; its error is bounded by the scale ½‖y‖²/m, not by f = 0.
        gen = np.random.default_rng(d + 7 * m)
        X = gen.standard_normal((d, m))
        w_true = gen.standard_normal(d)
        problem = L1LeastSquares(X, X.T @ w_true, 0.1)
        scale = problem.half_mean_y2
        assert abs(problem.smooth_value(w_true) - _direct_smooth_value(problem, w_true)) <= (
            1e-12 * scale
        )

    @pytest.mark.parametrize("d,m", SHAPES)
    def test_zero_is_exact(self, d, m):
        # λ ≥ λ_max puts the solution at w = 0, where F must read ½‖y‖²/m.
        gen = np.random.default_rng(3 * d + m)
        problem = L1LeastSquares(gen.standard_normal((d, m)), gen.standard_normal(m), 1.0)
        w = np.zeros(d)
        y = problem.y
        assert problem.smooth_value(w) == 0.5 * float(np.dot(y, y)) / m
        assert problem.value(w) == _direct_smooth_value(problem, w)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "wide"])
    def test_other_layouts_keep_the_residual_formula(self, fmt):
        gen = np.random.default_rng(11)
        shape = (30, 20) if fmt == "wide" else (8, 60)
        D = gen.standard_normal(shape) * (gen.random(shape) < 0.5)
        X = {"csr": CSRMatrix.from_dense, "csc": CSCMatrix.from_dense}.get(fmt, np.asarray)(D)
        problem = L1LeastSquares(X, gen.standard_normal(shape[1]), 0.1)
        assert not problem.gram_form
        for w in gen.standard_normal((5, shape[0])):
            assert problem.smooth_value(w) == _direct_smooth_value(problem, w)
        assert "hessian" not in problem._memo

    def test_non_constant_curvature_keeps_its_loss(self):
        from repro.core.logistic import L1Logistic

        gen = np.random.default_rng(12)
        X = gen.standard_normal((6, 50))
        problem = L1Logistic(X, np.where(gen.standard_normal(50) >= 0, 1.0, -1.0), 0.1)
        assert not problem.gram_form
        w = gen.standard_normal(6)
        z = X.T @ w
        assert problem.smooth_value(w) == problem.loss.total(z, problem.y) / problem.m

    @pytest.mark.parametrize("layout", ["C", "F", "column-slice", "both-strided"])
    def test_hessian_is_one_exactly_symmetric_buffer(self, layout):
        gen = np.random.default_rng(13)
        D = {
            "C": lambda: gen.standard_normal((70, 300)),
            "F": lambda: np.asfortranarray(gen.standard_normal((70, 300))),
            "column-slice": lambda: gen.standard_normal((70, 303))[:, 3:],
            "both-strided": lambda: gen.standard_normal((140, 600))[::2, ::2],
        }[layout]()
        problem = L1LeastSquares(D, gen.standard_normal(D.shape[1]), 0.1)
        H = problem.hessian
        assert H.flags.owndata and np.array_equal(H, H.T)
        # Bit for bit the allocating, symmetrizing formula.
        G = D @ D.T / problem.m
        assert np.array_equal(H, 0.5 * (G + G.T))


class TestAtLam:
    @pytest.fixture
    def base(self):
        gen = np.random.default_rng(21)
        return L1LeastSquares(gen.standard_normal((7, 50)), gen.standard_normal(50), 0.2)

    def test_view_changes_only_the_penalty(self, base):
        view = base.at_lam(0.05)
        assert type(view) is L1LeastSquares
        assert view.lam == 0.05 and view.penalty.lam == 0.05
        assert base.lam == 0.2 and base.penalty.lam == 0.2
        assert view.X is base.X and view.y is base.y and view.loss is base.loss
        w = np.random.default_rng(0).standard_normal(base.d)
        assert view.value(w) == view.smooth_value(w) + 0.05 * float(np.sum(np.abs(w)))

    def test_view_reuses_the_base_caches(self, base):
        view = base.at_lam(0.05)
        # Built through the view, seen by the base, and the other way round.
        assert base.hessian is view.hessian
        assert view.rhs is base.rhs
        assert view.lipschitz() == base.lipschitz()
        assert view.max_sample_lipschitz == base.max_sample_lipschitz
        assert view.sampled_hessian_deviation(9) == base.sampled_hessian_deviation(9)
        assert base.at_lam(0.01)._memo is base._memo

    def test_view_skips_the_power_iteration(self, base, monkeypatch):
        step = base.default_step()
        monkeypatch.setattr(
            "repro.core.model.gram_lipschitz",
            lambda *a, **k: pytest.fail("a λ view re-ran the power iteration"),
        )
        assert base.at_lam(0.01).default_step() == step

    def test_view_is_bit_identical_to_a_fresh_objective(self, base):
        fresh = L1LeastSquares(base.X, base.y, 0.05)
        view = base.at_lam(0.05)
        w = np.random.default_rng(1).standard_normal(base.d)
        assert view.value(w) == fresh.value(w)
        assert np.array_equal(view.hessian, fresh.hessian)
        assert view.lipschitz() == fresh.lipschitz()
        assert view.sampled_hessian_deviation(9) == fresh.sampled_hessian_deviation(9)

    def test_negative_lambda_rejected(self, base):
        with pytest.raises(ValidationError):
            base.at_lam(-1.0)
