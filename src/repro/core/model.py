"""Generalized objective layer: losses, regularizers, and ERM objectives.

The paper frames Eq. (1) as general empirical risk minimization —
"including logistic regression and regularized least squares" (§2.1):

.. math::

    F(w) = \\underbrace{\\frac{1}{m} \\sum_i \\ell(x_i^T w, y_i)}_{f(w)}
           + \\underbrace{g(w)}_{\\text{prox-friendly penalty}}.

This module is the one place that knows what ``ℓ`` and ``g`` can be:

* :class:`SmoothLoss` — a scalar loss ``ℓ(z, y)`` with per-sample value,
  derivative and curvature (``SquaredLoss``, ``LogisticLoss``,
  ``SquaredHingeLoss``).
* :class:`Regularizer` — a *named* penalty wrapping the
  :class:`~repro.core.proximal.ProximalOperator` hierarchy (``l1``,
  ``elastic_net``, ``group_l1``) so configs, specs, and fingerprints can
  refer to it canonically.
* :class:`ERMObjective` — the data-backed composite objective built
  from any (loss, penalty) pair. ``L1LeastSquares`` (the paper's
  problem) and ``L1Logistic`` are its named (squared, l1) and
  (logistic, l1) instances; every other pair instantiates the base class.
* :func:`resolve_objective` — the bridge the runtime solvers use: given a
  problem plus the ``RuntimeConfig(loss=..., penalty=...)`` overrides it
  returns the objective to run and the loss/penalty pair.

Every solver runs one path for every pair. At a linearization point
``a`` the sampled quadratic model is ``H = (1/m̄) X_S diag(c) X_Sᵀ`` and
``R = (1/m̄) X_S r`` with ``c = ℓ''(z_a)`` and the working response
``r = c·z_a − ℓ'(z_a)`` (:meth:`SmoothLoss.model`, the IRLS form), so the
model gradient ``Hu − R`` has the paper's Eq. 18 form for any loss. The
squared loss is the case ``c ≡ 1, r = y``: the data-only Gram and
right-hand side of the least-squares problem.

Adding a loss
-------------
Subclass :class:`SmoothLoss`, implement ``values``/``grad``/``curvature``
(all per-sample, vectorized over ``z``), set ``curvature_bound`` (a global
upper bound on ``ℓ''``) and register it in ``_LOSS_FACTORIES``. Every
solver, the serving layer and the CLI pick it up through
:func:`make_loss`; the central-difference property tests in
``tests/test_core/test_model.py`` cover it automatically once added to
their loss list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.proximal import (
    ElasticNetProx,
    GroupL1Prox,
    L1Prox,
    ProximalOperator,
)
from repro.exceptions import ShapeError, ValidationError
from repro.sparse.csr import CSCMatrix, CSRMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive, check_vector

__all__ = [
    "LOSSES",
    "PENALTIES",
    "SmoothLoss",
    "SquaredLoss",
    "LogisticLoss",
    "SquaredHingeLoss",
    "Regularizer",
    "ERMObjective",
    "ResolvedObjective",
    "make_loss",
    "make_penalty",
    "parse_penalty_spec",
    "resolve_objective",
]

Matrix = np.ndarray | CSRMatrix | CSCMatrix

#: Canonical loss names accepted by configs, specs and the CLI.
LOSSES = ("squared", "logistic", "squared_hinge")
#: Canonical penalty names accepted by configs, specs and the CLI.
PENALTIES = ("l1", "elastic_net", "group_l1")


def _matvec_xt(X: Matrix, w: np.ndarray) -> np.ndarray:
    """Compute ``Xᵀ w`` (per-sample predictions) for any storage format."""
    if isinstance(X, np.ndarray):
        return X.T @ w
    return X.rmatvec(w)


def _matvec_x(X: Matrix, r: np.ndarray) -> np.ndarray:
    """Compute ``X r`` for any storage format."""
    if isinstance(X, np.ndarray):
        return X @ r
    return X.matvec(r)


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + e^z)``."""
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------- #
class SmoothLoss(ABC):
    """A smooth per-sample loss ``ℓ(z, y)`` of the prediction ``z = xᵀw``.

    All three methods are vectorized over samples: given predictions
    ``z`` and labels ``y`` of shape ``(n,)`` they return shape ``(n,)``.
    The ERM smooth part is ``f(w) = (1/m) Σ_i ℓ(z_i, y_i)``, so

    * ``∇f(w) = (1/m) X ℓ'(z, y)``  (``grad`` is ``dℓ/dz``), and
    * ``∇²f(w) = (1/m) X diag(ℓ''(z, y)) Xᵀ``  (``curvature`` is
      ``d²ℓ/dz²``) — the weighted Gram every sampled-Hessian stage builds.
    """

    #: canonical name, the key used in configs/specs/fingerprints
    name: str = "abstract"
    #: global upper bound on ``ℓ''`` — scales the squared-loss Lipschitz
    #: and step-size machinery to the general case
    curvature_bound: float = 1.0
    #: ``ℓ'' ≡ 1`` (squared loss): the Hessian is the plain data Gram,
    #: constant in ``w`` — solvers may then cache it, and the model at a
    #: point needs no predictions (see :meth:`model`)
    constant_curvature: bool = False
    #: labels restricted to {-1, +1}
    classification: bool = False

    @abstractmethod
    def values(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample losses ``ℓ(z_i, y_i)``."""

    @abstractmethod
    def grad(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample derivatives ``∂ℓ/∂z``."""

    @abstractmethod
    def curvature(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample second derivatives ``∂²ℓ/∂z²`` (a.e. where kinked)."""

    def total(self, z: np.ndarray, y: np.ndarray) -> float:
        """``Σ_i ℓ(z_i, y_i)`` — the unnormalized smooth value."""
        return float(np.sum(self.values(z, y)))

    def model(
        self, z: np.ndarray | None, y: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Per-sample quadratic model ``(c, r)`` at predictions ``z``.

        ``c = ℓ''(z, y)`` are the curvature weights and ``r = c·z − ℓ'(z, y)``
        the working response, so ``c·z − r = ℓ'(z, y)``: the sampled model
        ``H = (1/m̄) X_S diag(c) X_Sᵀ``, ``R = (1/m̄) X_S r`` has gradient
        ``Ha − R = (1/m̄) X_S ℓ'(z_a)`` at the linearization point ``a``.
        A constant-curvature loss returns ``c = None`` (meaning ``c ≡ 1``)
        and an ``r`` independent of ``z``, which it accepts as ``None``.
        """
        c = self.curvature(z, y)
        return c, c * z - self.grad(z, y)

    def validate_labels(self, y: np.ndarray) -> None:
        """Reject labels outside this loss's domain (classification: ±1)."""
        if self.classification and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValidationError("labels must be in {-1, +1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}()"


class SquaredLoss(SmoothLoss):
    """``ℓ(z, y) = ½(z − y)²`` — the paper's least-squares instance."""

    name = "squared"
    curvature_bound = 1.0
    constant_curvature = True

    def values(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = z - y
        return 0.5 * r * r

    def total(self, z: np.ndarray, y: np.ndarray) -> float:
        # ½‖r‖² as one dot product: the least-squares value's summation order.
        r = z - y
        return 0.5 * float(np.dot(r, r))

    def grad(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return z - y

    def curvature(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.ones_like(z)

    def model(
        self, z: np.ndarray | None, y: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        # c ≡ 1 and r = z − (z − y) = y: the data-only Gram and X_S y.
        return None, y


class LogisticLoss(SmoothLoss):
    """``ℓ(z, y) = log(1 + e^{−yz})``, labels in {-1, +1}."""

    name = "logistic"
    curvature_bound = 0.25
    classification = True

    def values(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _log1pexp(-y * z)

    def grad(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -y * _sigmoid(-y * z)

    def curvature(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        sig = _sigmoid(y * z)
        return sig * (1.0 - sig)


class SquaredHingeLoss(SmoothLoss):
    """``ℓ(z, y) = ½ max(0, 1 − yz)²`` — smooth (C¹) SVM loss, labels ±1."""

    name = "squared_hinge"
    curvature_bound = 1.0
    classification = True

    def values(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.maximum(0.0, 1.0 - y * z)
        return 0.5 * t * t

    def grad(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.maximum(0.0, 1.0 - y * z)
        return -y * t

    def curvature(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        # ℓ'' = 1 on the active side of the (C¹) kink, 0 elsewhere.
        return np.where(1.0 - y * z > 0.0, 1.0, 0.0)


_LOSS_FACTORIES: dict[str, type[SmoothLoss]] = {
    "squared": SquaredLoss,
    "logistic": LogisticLoss,
    "squared_hinge": SquaredHingeLoss,
}


def make_loss(loss: str | SmoothLoss) -> SmoothLoss:
    """Resolve a loss name (or pass an instance through)."""
    if isinstance(loss, SmoothLoss):
        return loss
    factory = _LOSS_FACTORIES.get(loss)
    if factory is None:
        raise ValidationError(
            f"unknown loss {loss!r}; allowed values: {', '.join(LOSSES)}"
        )
    return factory()


# --------------------------------------------------------------------- #
# regularizers
# --------------------------------------------------------------------- #
def parse_penalty_spec(spec: str) -> tuple[str, dict[str, float]]:
    """Parse and validate ``"name"`` / ``"name:k=v,..."`` penalty specs.

    Validation happens *here*, at config-build time — malformed params
    (negative strengths, non-integer group sizes, unknown keys) are
    rejected before any solver starts. Supported forms:

    * ``"l1"`` — no parameters,
    * ``"elastic_net:l2=0.5"`` — ``l2`` is the ridge-to-l1 *ratio*
      (``λ₂ = l2·λ``; default 1.0) so the whole penalty scales with λ,
    * ``"group_l1:size=4"`` — contiguous coordinate groups of ``size``
      (default 4; the last group may be smaller).
    """
    name, sep, tail = str(spec).partition(":")
    if name not in PENALTIES:
        raise ValidationError(
            f"unknown penalty {name!r}; allowed values: {', '.join(PENALTIES)}"
        )
    params: dict[str, float] = {}
    if sep and tail:
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValidationError(
                    f"malformed penalty parameter {item!r} in {spec!r}; "
                    "expected key=value"
                )
            try:
                params[key] = float(val)
            except ValueError:
                raise ValidationError(
                    f"penalty parameter {key!r} must be numeric, got {val!r}"
                ) from None
    allowed = {"l1": set(), "elastic_net": {"l2"}, "group_l1": {"size"}}[name]
    unknown = set(params) - allowed
    if unknown:
        raise ValidationError(
            f"penalty {name!r} does not accept parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    if name == "elastic_net":
        l2 = params.setdefault("l2", 1.0)
        if not (np.isfinite(l2) and l2 >= 0):
            raise ValidationError(f"elastic_net l2 ratio must be >= 0, got {l2}")
    if name == "group_l1":
        size = params.setdefault("size", 4.0)
        if size != int(size) or int(size) < 1:
            raise ValidationError(
                f"group_l1 size must be a positive integer, got {size}"
            )
        params["size"] = float(int(size))
    return name, params


def canonical_penalty_spec(spec: str) -> str:
    """The canonical string form of a penalty spec (sorted, normalized).

    Used by the serving layer so equivalent specs share one fingerprint
    (``"elastic_net"`` ≡ ``"elastic_net:l2=1.0"``) while distinct
    parameters never collide.
    """
    name, params = parse_penalty_spec(spec)
    if not params:
        return name
    tail = ",".join(f"{k}={params[k]:g}" for k in sorted(params))
    return f"{name}:{tail}"


def _contiguous_groups(d: int, size: int) -> list[np.ndarray]:
    return [np.arange(lo, min(lo + size, d), dtype=np.int64) for lo in range(0, d, size)]


class Regularizer:
    """A named penalty ``g`` wrapping a :class:`ProximalOperator`.

    Carries the canonical ``(name, params, λ)`` identity alongside the
    operator so configs, serve specs and warm-start caches can key on it,
    and :meth:`at_lam` can rebuild the same penalty family at another λ
    (regularization paths, λ-grid serving).
    """

    def __init__(
        self,
        name: str,
        op: ProximalOperator,
        *,
        lam: float,
        params: dict[str, float] | None = None,
    ) -> None:
        self.name = name
        self.op = op
        self.lam = check_positive(lam, "lambda", strict=False)
        self.params = dict(params or {})

    # -- the ProximalOperator surface (duck-compatible) ----------------- #
    def value(self, w: np.ndarray) -> float:
        return self.op.value(w)

    def prox(self, w: np.ndarray, gamma: float) -> np.ndarray:
        return self.op.prox(w, gamma)

    # -- identity -------------------------------------------------------- #
    @property
    def spec(self) -> str:
        if not self.params:
            return self.name
        tail = ",".join(f"{k}={self.params[k]:g}" for k in sorted(self.params))
        return f"{self.name}:{tail}"

    def at_lam(self, lam: float, d: int | None = None) -> "Regularizer":
        """The same penalty family rebuilt at another λ."""
        return make_penalty(self.spec, lam=lam, d=d)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Regularizer({self.spec!r}, lam={self.lam})"


def make_penalty(
    penalty: str | Regularizer | ProximalOperator,
    *,
    lam: float,
    d: int | None = None,
) -> Regularizer:
    """Build a :class:`Regularizer` from a spec string at strength *lam*.

    ``d`` (the problem dimension) is required for ``group_l1``, whose
    groups tile ``[0, d)``. A prebuilt :class:`Regularizer` passes
    through unchanged; a bare :class:`ProximalOperator` is wrapped under
    the name ``"custom"`` (valid everywhere except serve specs, which
    need a canonical string).
    """
    if isinstance(penalty, Regularizer):
        return penalty
    if isinstance(penalty, ProximalOperator):
        return Regularizer("custom", penalty, lam=lam)
    name, params = parse_penalty_spec(penalty)
    if name == "l1":
        return Regularizer(name, L1Prox(lam), lam=lam)
    if name == "elastic_net":
        return Regularizer(
            name, ElasticNetProx(lam, params["l2"] * lam), lam=lam, params=params
        )
    # group_l1
    if d is None:
        raise ValidationError(
            "group_l1 needs the problem dimension to lay out its groups; "
            "build it through resolve_objective or pass d="
        )
    size = int(params["size"])
    return Regularizer(
        name, GroupL1Prox(lam, _contiguous_groups(d, size)), lam=lam, params=params
    )


# --------------------------------------------------------------------- #
# curvature helpers shared by generic objectives
# --------------------------------------------------------------------- #
def gram_lipschitz(
    X: Matrix, m: int, *, n_iter: int = 100, tol: float = 1e-9, rng: RandomState = 0
) -> float:
    """``λmax((1/m) X Xᵀ)`` via power iteration (loss-independent)."""
    d = X.shape[0]
    gen = as_generator(rng)
    u = gen.standard_normal(d)
    norm = np.linalg.norm(u)
    if norm == 0:  # pragma: no cover - probability zero
        u = np.ones(d)
        norm = np.sqrt(d)
    u /= norm
    lam_prev = 0.0
    for _ in range(n_iter):
        hu = _matvec_x(X, _matvec_xt(X, u)) / m
        lam = float(np.dot(u, hu))
        norm = np.linalg.norm(hu)
        if norm == 0:
            return 0.0
        u = hu / norm
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            lam_prev = lam
            break
        lam_prev = lam
    return abs(lam_prev)


def gram_deviation(
    X: Matrix,
    m: int,
    mbar: int,
    *,
    trials: int = 3,
    power_iters: int = 30,
    rng: RandomState = 0,
) -> float:
    """Estimate ``max ‖(1/m̄) X_S X_Sᵀ − (1/m) X Xᵀ‖₂`` over random S.

    The loss-independent core of the stochastic step-size rule; general
    losses scale it by their ``curvature_bound`` (ℓ'' ≤ bound pointwise,
    so the weighted deviation is bounded by the unweighted one times it).
    """
    if not (0 < mbar <= m):
        raise ValidationError(f"mbar must lie in (0, {m}], got {mbar}")
    d = X.shape[0]
    gen = as_generator(rng)
    worst = 0.0
    for _ in range(trials):
        idx = gen.integers(0, m, size=mbar, dtype=np.int64)
        if isinstance(X, np.ndarray):
            A = X[:, idx]
        else:
            csc = X.to_csc() if isinstance(X, CSRMatrix) else X
            A = csc.select_columns(idx).to_dense()
        u = gen.standard_normal(d)
        u /= np.linalg.norm(u)
        lam = 0.0
        for _it in range(power_iters):
            du = A @ (A.T @ u) / mbar - _matvec_x(X, _matvec_xt(X, u)) / m
            norm = np.linalg.norm(du)
            if norm == 0:
                lam = 0.0
                break
            lam = norm
            u = du / norm
        worst = max(worst, lam)
    return worst


# --------------------------------------------------------------------- #
# the generic ERM objective
# --------------------------------------------------------------------- #
class ERMObjective:
    """General composite objective ``F(w) = (1/m) Σ ℓ(x_iᵀw, y_i) + g(w)``.

    ``X`` is features × samples (paper layout, one column per sample).
    Every (loss, penalty) pair runs the same code; the per-loss and
    per-penalty rules live on :class:`SmoothLoss` and the penalty name.
    :class:`~repro.core.objectives.L1LeastSquares` and
    :class:`~repro.core.logistic.L1Logistic` only name two pairs. All
    solvers consume the same surface: ``value``/``smooth_value``/
    ``reg_value``/``gradient``/``hessian``/``hessian_at``/``rhs``/
    ``lipschitz``/``default_step`` plus the step-size statistics
    ``max_sample_lipschitz`` and ``sampled_hessian_deviation``.
    """

    loss: SmoothLoss
    penalty: Regularizer

    def __init__(
        self,
        X: Matrix,
        y: np.ndarray,
        *,
        loss: str | SmoothLoss = "squared",
        penalty: str | Regularizer | ProximalOperator = "l1",
        lam: float | None = None,
    ) -> None:
        d, m = X.shape
        if m == 0 or d == 0:
            raise ValidationError(f"X must be non-empty, got shape {(d, m)}")
        y = check_vector(y, "y")
        if y.shape != (m,):
            raise ShapeError(f"y must have shape ({m},), got {y.shape}")
        loss = make_loss(loss)
        loss.validate_labels(y)
        if lam is None and isinstance(penalty, Regularizer):
            lam = penalty.lam
        if lam is None:
            raise ValidationError("ERMObjective needs lam= (the penalty strength)")
        self.X = X
        self.y = y
        self.d = d
        self.m = m
        self.lam = check_positive(lam, "lambda", strict=False)
        self.loss = loss
        self.penalty = make_penalty(penalty, lam=self.lam, d=d)
        self._gram_lipschitz_cache: float | None = None
        self._gram_deviation_cache: dict[int, float] = {}

    # -- values and derivatives ------------------------------------------ #
    def predictions(self, w: np.ndarray) -> np.ndarray:
        """Per-sample predictions ``z = Xᵀw``."""
        return _matvec_xt(self.X, np.asarray(w, dtype=np.float64))

    def smooth_value(self, w: np.ndarray) -> float:
        z = self.predictions(w)
        return self.loss.total(z, self.y) / self.m

    def reg_value(self, w: np.ndarray) -> float:
        return self.penalty.value(np.asarray(w, dtype=np.float64))

    def value(self, w: np.ndarray) -> float:
        return self.smooth_value(w) + self.reg_value(w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        z = self.predictions(w)
        return _matvec_x(self.X, self.loss.grad(z, self.y)) / self.m

    def hessian_at(self, w: np.ndarray) -> np.ndarray:
        """``∇²f(w) = (1/m) X diag(ℓ''(z, y)) Xᵀ`` (dense, symmetrized)."""
        z = self.predictions(w)
        weights = self.loss.curvature(z, self.y)
        dense = self.X if isinstance(self.X, np.ndarray) else self.X.to_dense()
        H = (dense * weights[None, :]) @ dense.T / self.m
        return 0.5 * (H + H.T)

    @property
    def constant_curvature(self) -> bool:
        """True when ``∇²f`` does not depend on ``w`` (squared loss)."""
        return self.loss.constant_curvature

    def _require_constant_curvature(self) -> None:
        if not self.constant_curvature:
            raise ValidationError(
                f"the {self.loss.name} loss has w-dependent curvature; "
                "use hessian_at(w)"
            )

    @cached_property
    def hessian(self) -> np.ndarray:
        """The constant dense Hessian ``H = (1/m) X Xᵀ`` (Eq. 4; cached).

        Constant-curvature losses only. ``D @ D.T`` on one buffer runs as a
        symmetric rank-k update, which ``hessian_at``'s weighted product
        does not, so the two differ in the last bits.
        """
        self._require_constant_curvature()
        dense = self.X if isinstance(self.X, np.ndarray) else self.X.to_dense()
        H = dense @ dense.T / self.m
        return 0.5 * (H + H.T)

    @cached_property
    def rhs(self) -> np.ndarray:
        """``R = (1/m) X y`` so that ``∇f(w) = Hw − R`` (Eq. 5; cached)."""
        self._require_constant_curvature()
        return _matvec_x(self.X, self.y) / self.m

    # -- curvature constants ---------------------------------------------- #
    def gram_lipschitz(self, **kwargs: Any) -> float:
        """Memoized ``λmax((1/m) X Xᵀ)`` (default arguments only)."""
        if not kwargs and self._gram_lipschitz_cache is not None:
            return self._gram_lipschitz_cache
        result = gram_lipschitz(self.X, self.m, **kwargs)
        if not kwargs:
            self._gram_lipschitz_cache = result
        return result

    def lipschitz(self, **kwargs: Any) -> float:
        """Gradient Lipschitz bound: ``curvature_bound · λmax((1/m)XXᵀ)``."""
        return self.loss.curvature_bound * self.gram_lipschitz(**kwargs)

    @cached_property
    def max_sample_lipschitz(self) -> float:
        """``curvature_bound · max_i ‖x_i‖²`` — worst sampled-Hessian norm
        (``λmax(H_S)`` of any sample set; the stochastic step-size rule)."""
        if isinstance(self.X, np.ndarray):
            norms = np.einsum("ij,ij->j", self.X, self.X)
        else:
            csc = self.X.to_csc() if isinstance(self.X, CSRMatrix) else self.X
            norms = csc.col_norms_sq()
        peak = float(norms.max()) if norms.size else 0.0
        return self.loss.curvature_bound * peak

    def sampled_hessian_deviation(self, mbar: int, **kwargs: Any) -> float:
        """``curvature_bound``-scaled Gram deviation (memoized per ``m̄``)."""
        if not kwargs:
            cached = self._gram_deviation_cache.get(mbar)
            if cached is not None:
                return cached
        result = self.loss.curvature_bound * gram_deviation(
            self.X, self.m, mbar, **kwargs
        )
        if not kwargs:
            self._gram_deviation_cache[mbar] = result
        return result

    def default_step(self, **kwargs: Any) -> float:
        L = self.lipschitz(**kwargs)
        if L <= 0:
            raise ValidationError("cannot derive a step size: the data matrix is zero")
        return 1.0 / L

    # -- optimality and reporting ----------------------------------------- #
    def optimality_residual(self, w: np.ndarray) -> float:
        """A residual that is zero iff ``w`` minimizes ``F`` (∞-norm).

        For the l1 penalty it is the distance of ``−∇f(w)`` from ``∂g(w)``:
        on the support ``∇f_j = −λ·sign(w_j)``, off it ``|∇f_j| ≤ λ``. Every
        other penalty uses the prox-gradient mapping
        ``(w − prox_γ(w − γ∇f))/γ`` at ``γ = 1/L``, which is never larger
        than the subgradient distance, so l1 keeps the stricter form.
        """
        w = np.asarray(w, dtype=np.float64)
        grad = self.gradient(w)
        if self.penalty.name == "l1":
            lam = self.penalty.lam
            res = np.where(
                w != 0.0,
                np.abs(grad + lam * np.sign(w)),
                np.maximum(np.abs(grad) - lam, 0.0),
            )
        else:
            gamma = self.default_step()
            res = np.abs(w - self.penalty.prox(w - gamma * grad, gamma)) / gamma
        return float(np.max(res)) if res.size else 0.0

    def accuracy(self, w: np.ndarray) -> float:
        """Training classification accuracy of ``sign(Xᵀw)`` (±1 labels)."""
        preds = np.sign(self.predictions(w))
        preds[preds == 0] = 1.0
        return float(np.mean(preds == self.y))

    def quadratic_model(self, w: np.ndarray):
        """The PN subproblem smooth part (Eq. 19) linearized around ``w``."""
        from repro.core.objectives import QuadraticModel

        w = np.asarray(w, dtype=np.float64)
        return QuadraticModel.from_linearization(self.hessian_at(w), self.gradient(w), w)


# --------------------------------------------------------------------- #
# the runtime bridge
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedObjective:
    """What a runtime solver actually optimizes after config overrides.

    ``objective`` is the problem to evaluate/monitor: the original when
    the overrides name its own loss and penalty, else a fresh
    :class:`ERMObjective` view over the same ``X``/``y``. ``loss`` and
    ``penalty`` are the pair every solver stage runs with.
    """

    objective: Any
    loss: SmoothLoss
    penalty: Regularizer


def resolve_objective(
    problem: Any,
    *,
    loss: str | SmoothLoss | None = None,
    penalty: str | Regularizer | ProximalOperator | None = None,
) -> ResolvedObjective:
    """Merge a problem's own (loss, penalty) with config overrides.

    An override that names the problem's own loss and penalty (same spec
    at the same λ) resolves to the problem itself; any other pair to a
    fresh :class:`ERMObjective` over the problem's data.
    """
    base_loss: SmoothLoss = problem.loss
    base_penalty: Regularizer = problem.penalty
    resolved_loss = make_loss(loss) if loss is not None else base_loss
    if resolved_loss.name == base_loss.name:
        resolved_loss = base_loss
    resolved_penalty = (
        make_penalty(penalty, lam=problem.lam, d=problem.d)
        if penalty is not None
        else base_penalty
    )
    # Two "custom" operators share a spec but not their math.
    if resolved_penalty.name != "custom" and (
        resolved_penalty.spec, resolved_penalty.lam
    ) == (base_penalty.spec, base_penalty.lam):
        resolved_penalty = base_penalty
    if resolved_loss is base_loss and resolved_penalty is base_penalty:
        objective = problem
    else:
        objective = ERMObjective(
            problem.X,
            problem.y,
            loss=resolved_loss,
            penalty=resolved_penalty,
            lam=problem.lam,
        )
    return ResolvedObjective(
        objective=objective, loss=resolved_loss, penalty=resolved_penalty
    )
