"""The `repro.core.model` layer: losses, regularizers, ERM objectives.

Three contracts live here:

* analytic derivatives of every :class:`SmoothLoss` match central
  differences (the generalized solvers trust ``grad``/``curvature``);
* penalty specs parse, canonicalise and reject malformed input at
  build time, and :func:`build_objective` turns a (loss, penalty) spec
  into the problem itself: the paper's ``L1LeastSquares`` for
  (squared, l1), an ``ERMObjective`` for every other pair;
* every loss's sampled quadratic model ``(c, r)`` reproduces the sampled
  loss gradient, and the squared loss is its unweighted case — so
  squared+elastic_net charges the same sparse Gram flops as squared+l1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._dist_common import distribute_problem, svrg_rhs
from repro.core.model import (
    LOSSES,
    PENALTIES,
    ERMObjective,
    LogisticLoss,
    Regularizer,
    SquaredHingeLoss,
    SquaredLoss,
    canonical_penalty_spec,
    make_loss,
    make_penalty,
    parse_penalty_spec,
)
from repro.core.objectives import L1LeastSquares, build_objective
from repro.core.prox_newton import proximal_newton_distributed
from repro.core.proximal import ElasticNetProx, GroupL1Prox, L1Prox
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.data.synthetic import make_regression
from repro.distsim.bsp import BSPCluster
from repro.distsim.trace import Trace
from repro.exceptions import ValidationError
from repro.runtime import RuntimeConfig
from repro.sparse.csr import CSCMatrix
from repro.sparse.ops import packed_size
from tests.test_core.oracle import hessian_at
from tests.test_sparse.rfp_oracle import rfp_to_dense

pytestmark = pytest.mark.losses

ALL_LOSSES = [SquaredLoss(), LogisticLoss(), SquaredHingeLoss()]


def _labels_for(loss, rng, n):
    if loss.classification:
        return np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    return rng.standard_normal(n)


# --------------------------------------------------------------------- #
# losses: analytic derivatives vs central differences
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda lo: lo.name)
class TestSmoothLossDerivatives:
    H = 1e-6

    def _safe_points(self, loss, rng, n):
        """Predictions away from any kink (squared hinge at yz == 1)."""
        z = 3.0 * rng.standard_normal(n)
        y = _labels_for(loss, rng, n)
        if isinstance(loss, SquaredHingeLoss):
            keep = np.abs(1.0 - y * z) > 1e-3
            z, y = z[keep], y[keep]
        return z, y

    def test_grad_matches_central_difference(self, loss):
        rng = np.random.default_rng(0)
        z, y = self._safe_points(loss, rng, 64)
        num = (loss.values(z + self.H, y) - loss.values(z - self.H, y)) / (2 * self.H)
        np.testing.assert_allclose(loss.grad(z, y), num, rtol=1e-5, atol=1e-6)

    def test_curvature_matches_central_difference(self, loss):
        rng = np.random.default_rng(1)
        z, y = self._safe_points(loss, rng, 64)
        num = (loss.grad(z + self.H, y) - loss.grad(z - self.H, y)) / (2 * self.H)
        np.testing.assert_allclose(loss.curvature(z, y), num, rtol=1e-4, atol=1e-5)

    def test_curvature_bound_holds(self, loss):
        rng = np.random.default_rng(2)
        z, y = self._safe_points(loss, rng, 256)
        assert np.all(loss.curvature(z, y) <= loss.curvature_bound + 1e-12)
        assert np.all(loss.curvature(z, y) >= 0.0)

    def test_vectorized_shapes(self, loss):
        rng = np.random.default_rng(3)
        z, y = self._safe_points(loss, rng, 17)
        for fn in (loss.values, loss.grad, loss.curvature):
            assert fn(z, y).shape == z.shape


class TestLossFactoryAndLabels:
    def test_registry_covers_constant(self):
        assert LOSSES == ("squared", "logistic", "squared_hinge")
        for name in LOSSES:
            assert make_loss(name).name == name

    def test_instance_passthrough(self):
        loss = LogisticLoss()
        assert make_loss(loss) is loss

    def test_unknown_loss_lists_allowed(self):
        with pytest.raises(ValidationError, match="squared, logistic, squared_hinge"):
            make_loss("hinge")

    def test_classification_labels_validated(self):
        y_bad = np.array([1.0, 0.0, -1.0])
        for loss in (LogisticLoss(), SquaredHingeLoss()):
            with pytest.raises(ValidationError, match=r"\{-1, \+1\}"):
                loss.validate_labels(y_bad)
        SquaredLoss().validate_labels(y_bad)  # regression: any reals

    def test_constant_curvature_only_for_squared(self):
        assert SquaredLoss().constant_curvature
        assert not LogisticLoss().constant_curvature
        assert not SquaredHingeLoss().constant_curvature


# --------------------------------------------------------------------- #
# penalty specs and the Regularizer wrapper
# --------------------------------------------------------------------- #
class TestPenaltySpecs:
    def test_registry_constant(self):
        assert PENALTIES == ("l1", "elastic_net", "group_l1")

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("l1", ("l1", {})),
            ("elastic_net:l2=0.5", ("elastic_net", {"l2": 0.5})),
            ("group_l1:size=4", ("group_l1", {"size": 4.0})),
        ],
    )
    def test_parse_roundtrip(self, spec, expected):
        assert parse_penalty_spec(spec) == expected

    def test_canonicalisation_fills_defaults(self):
        assert canonical_penalty_spec("l1") == "l1"
        assert canonical_penalty_spec("elastic_net") == "elastic_net:l2=1"
        assert canonical_penalty_spec("elastic_net:l2=1.0") == "elastic_net:l2=1"
        assert canonical_penalty_spec("group_l1:size=4") == canonical_penalty_spec(
            "group_l1:size=4.0"
        )

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("l0", "allowed values"),
            ("elastic_net:l2=-1", ">= 0"),
            ("elastic_net:ridge=2", "does not accept"),
            ("group_l1:size=0", "positive integer"),
            ("group_l1:size=2.5", "positive integer"),
            ("group_l1:size", "key=value"),
            ("elastic_net:l2=much", "must be numeric"),
        ],
    )
    def test_malformed_specs_rejected(self, spec, needle):
        with pytest.raises(ValidationError, match=needle):
            parse_penalty_spec(spec)

    def test_group_l1_needs_dimension(self):
        with pytest.raises(ValidationError, match="d"):
            make_penalty("group_l1:size=4", lam=0.1)


class TestRegularizer:
    def test_wraps_prox_and_value(self):
        reg = make_penalty("l1", lam=0.3)
        assert isinstance(reg, Regularizer)
        assert isinstance(reg.op, L1Prox)
        w = np.array([1.0, -0.5, 0.1])
        assert reg.value(w) == pytest.approx(0.3 * np.abs(w).sum())
        np.testing.assert_array_equal(reg.prox(w, 1.0), L1Prox(0.3).prox(w, 1.0))

    def test_elastic_net_scales_ridge_with_lam(self):
        reg = make_penalty("elastic_net:l2=2", lam=0.25)
        assert isinstance(reg.op, ElasticNetProx)
        assert reg.op.lam2 == pytest.approx(2 * 0.25)  # λ₂ = l2·λ

    def test_group_l1_builds_contiguous_groups(self):
        reg = make_penalty("group_l1:size=4", lam=0.1, d=10)
        assert isinstance(reg.op, GroupL1Prox)
        sizes = [len(g) for g in reg.op.groups]
        assert sum(sizes) == 10 and max(sizes) <= 4

    def test_at_lam_rebuilds_preserving_spec(self):
        reg = make_penalty("elastic_net:l2=2", lam=0.25)
        moved = reg.at_lam(0.5)
        assert moved.lam == 0.5 and moved.spec == reg.spec
        assert moved.op.lam2 == pytest.approx(2 * 0.5)


# --------------------------------------------------------------------- #
# ERMObjective vs the historical L1LeastSquares
# --------------------------------------------------------------------- #
class TestERMObjectiveEquivalence:
    @pytest.fixture()
    def pair(self, tiny_covtype_problem):
        base = tiny_covtype_problem
        erm = ERMObjective(base.X, base.y, loss="squared", penalty="l1", lam=base.lam)
        return base, erm

    def test_value_gradient_hessian_match(self, pair):
        base, erm = pair
        rng = np.random.default_rng(5)
        for _ in range(3):
            w = rng.standard_normal(base.d)
            assert erm.value(w) == pytest.approx(base.value(w), rel=1e-12)
            np.testing.assert_allclose(erm.gradient(w), base.gradient(w), atol=1e-12)
        np.testing.assert_allclose(erm.hessian, base.hessian, atol=1e-12)

    def test_cached_hessian_guarded_for_nonconstant_curvature(self, pair):
        base, _ = pair
        erm = ERMObjective(
            base.X, np.where(base.y >= 0, 1.0, -1.0), loss="logistic", lam=base.lam
        )
        assert not erm.constant_curvature
        with pytest.raises(ValidationError):
            _ = erm.hessian
        H = hessian_at(erm, np.zeros(erm.d))
        assert H.shape == (erm.d, erm.d)
        # logistic at w=0: ℓ'' = 1/4 everywhere → H = X diag(1/4) Xᵀ / m
        X = base.X.to_dense() if hasattr(base.X, "to_dense") else np.asarray(base.X)
        np.testing.assert_allclose(H, 0.25 * (X @ X.T) / erm.m, atol=1e-10)

    def test_accuracy_and_residual(self, pair):
        base, _ = pair
        y = np.where(base.y >= 0, 1.0, -1.0)
        erm = ERMObjective(base.X, y, loss="logistic", lam=base.lam)
        w0 = np.zeros(erm.d)
        assert 0.0 <= erm.accuracy(w0) <= 1.0
        assert erm.optimality_residual(w0) >= 0.0


class TestBuildObjective:
    """The CLI and serve build every problem through ``build_objective``."""

    @pytest.mark.parametrize("penalty", ["l1", "l1:"])
    def test_squared_l1_is_the_papers_problem(self, tiny_covtype_problem, penalty):
        base = tiny_covtype_problem
        problem = build_objective(base.X, base.y, base.lam, loss="squared", penalty=penalty)
        assert type(problem) is L1LeastSquares
        assert problem.X is base.X and problem.lam == base.lam
        np.testing.assert_array_equal(problem.y, base.y)
        assert type(build_objective(base.X, base.y, base.lam)) is L1LeastSquares

    @pytest.mark.parametrize(
        "loss, penalty, spec",
        [
            ("squared", "elastic_net", "elastic_net:l2=1"),
            ("squared", "group_l1:size=4", "group_l1:size=4"),
            ("logistic", "l1", "l1"),
            ("squared_hinge", "elastic_net:l2=0.5", "elastic_net:l2=0.5"),
        ],
    )
    def test_other_pairs_are_erm_objectives(self, tiny_covtype_problem, loss, penalty, spec):
        base = tiny_covtype_problem
        problem = build_objective(base.X, base.y, base.lam, loss=loss, penalty=penalty)
        assert type(problem) is ERMObjective
        assert problem.loss.name == loss and problem.penalty.spec == spec
        assert problem.X is base.X and problem.lam == base.lam

    @pytest.mark.parametrize("loss", ["logistic", "squared_hinge"])
    def test_classification_labels_are_signs(self, loss):
        X = np.arange(8.0).reshape(2, 4)
        y = np.array([0.5, 0.0, -2.0, -0.0])
        problem = build_objective(X, y, 0.1, loss=loss)
        np.testing.assert_array_equal(problem.y, [1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(build_objective(X, y, 0.1).y, y)


# --------------------------------------------------------------------- #
# general objectives descend through all three runtime solvers
# --------------------------------------------------------------------- #
def _run(solver, problem):
    if solver is proximal_newton_distributed:
        return solver(problem, 3, n_outer=2, inner_iters=6, b=0.25, seed=11)
    return solver(problem, 3, b=0.25, epochs=1, iters_per_epoch=8, seed=11)


@pytest.mark.parametrize(
    "solver",
    [rc_sfista_distributed, proximal_newton_distributed],
    ids=lambda s: s.__name__,
)
@pytest.mark.parametrize("penalty", ["elastic_net:l2=1", "group_l1:size=4"])
def test_logistic_general_penalties_descend(solver, penalty, tiny_covtype_problem):
    base = tiny_covtype_problem
    problem = ERMObjective(
        base.X, np.where(base.y >= 0, 1.0, -1.0), loss="logistic",
        penalty=penalty, lam=base.lam,
    )
    res = _run(solver, problem)
    assert np.all(np.isfinite(res.w))
    start = problem.value(np.zeros(problem.d))
    assert problem.value(res.w) <= start + 1e-12


# --------------------------------------------------------------------- #
# property tests: objective values stay consistent with their pieces
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), lam=st.floats(0.01, 1.0))
def test_erm_value_decomposes(seed, lam):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, 20))
    y = np.where(rng.standard_normal(20) >= 0, 1.0, -1.0)
    erm = ERMObjective(X, y, loss="logistic", penalty="elastic_net:l2=1", lam=lam)
    w = rng.standard_normal(6)
    assert erm.value(w) == pytest.approx(erm.smooth_value(w) + erm.reg_value(w))
    z = erm.predictions(w)
    assert erm.smooth_value(w) == pytest.approx(
        float(np.mean(erm.loss.values(z, y)))
    )


# --------------------------------------------------------------------- #
# one objective path: the sampled quadratic model and its charges
# --------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from(ALL_LOSSES),
    sparse=st.booleans(),
)
def test_sampled_model_gradient_is_the_sampled_loss_gradient(seed, loss, sparse):
    """``H a − R`` built from ``(c, r)`` at ``a`` is ``(1/m̄) X_S ℓ'(z_a)``,
    and the SVRG right-hand side adds exactly ``−ĝ_S(ŵ) + ∇f(ŵ)``."""
    rng = np.random.default_rng(seed)
    d, m, mbar = 6, 40, 15
    dense = rng.standard_normal((d, m))
    if sparse:
        dense[rng.random((d, m)) > 0.4] = 0.0
    X = CSCMatrix.from_dense(dense) if sparse else dense
    y = _labels_for(loss, rng, m)
    rd = distribute_problem(ERMObjective(X, y, loss=loss, lam=0.1), 1).ranks[0]
    idx = rng.integers(0, m, size=mbar)
    a, anchor = rng.standard_normal(d), rng.standard_normal(d)
    full_grad = rng.standard_normal(d)

    def blocks(c, r):
        out, _, _ = rd.sampled_hessian_contribution(
            [idx], mbar, d, weights=c, response=r, rhs=True
        )
        t = packed_size(d)
        return rfp_to_dense(out[0, :t], d), out[0, t:]

    def sampled_grad(point):
        z = dense[:, idx].T @ point
        return dense[:, idx] @ loss.grad(z, y[idx]) / mbar

    def close(got, want, scale):
        assert np.linalg.norm(got - want) <= 1e-12 * max(scale, 1.0)

    c, r, _ = rd.local_model(a, loss)
    H, R = blocks(c, r)
    close(H @ a - R, sampled_grad(a), np.linalg.norm(H @ a) + np.linalg.norm(R))

    c, corr, _ = rd.local_model(a, loss, anchor=anchor)
    H, R = blocks(c, corr)
    R_svrg = svrg_rhs(H, R, anchor, full_grad, loss)
    want = sampled_grad(a) - sampled_grad(anchor) + full_grad
    close(H @ a - R_svrg, want, np.linalg.norm(H @ a) + np.linalg.norm(R_svrg))


def _sparse_problem(penalty):
    X, y, _ = make_regression(60, 600, density=0.02, noise=0.05, rng=3)
    return ERMObjective(X, y, penalty=penalty, lam=0.01)


@pytest.mark.parametrize(
    "solver, k",
    [
        pytest.param(rc_sfista_distributed, 4, id="rc_sfista_distributed"),
        # Distributed SFISTA: the same body at k = S = 1.
        pytest.param(rc_sfista_distributed, 1, id="sfista_distributed"),
        pytest.param(proximal_newton_distributed, 4, id="proximal_newton_distributed"),
    ],
)
def test_general_penalty_charges_the_sparse_gram(solver, k):
    """The penalty does not change stage B: squared+elastic_net builds the
    same blocks with the same sparse Gram kernel, and is charged the same
    flops for them, as squared+l1."""

    def hessian_block_flops(penalty):
        cluster = BSPCluster(4, "comet_paper", trace=Trace())
        runtime = RuntimeConfig(cluster=cluster)
        if solver is proximal_newton_distributed:
            solver(_sparse_problem(penalty), 4, n_outer=2, inner_iters=8, k=k, b=0.1,
                   seed=0, runtime=runtime)
        else:
            solver(_sparse_problem(penalty), 4, k=k, b=0.1, iters_per_epoch=8,
                   estimator="plain", seed=0, runtime=runtime)
        return sum(e.flops for e in cluster.trace.events if e.label == "hessian_blocks")

    l1 = hessian_block_flops("l1")
    assert l1 > 0
    assert hessian_block_flops("elastic_net:l2=1e-12") == l1
