"""Benchmark dataset registry mirroring the paper's Table 2.

The paper evaluates on five LIBSVM datasets (abalone, SUSY, covtype,
mnist, epsilon). Those files are not available offline, so each registry
entry generates a synthetic problem with the *shape signature* that drives
the paper's trade-offs — aspect ratio m/d, fill fraction f, dense/sparse
storage and the per-dataset regularization λ of §5.1 — at container scale.
Paper-scale dimensions are retained in the spec for reporting (Table 2
regeneration) and the scaled dimensions are what experiments run on.

``abalone`` is small enough to keep at full paper size. ``mnist`` and
``epsilon`` keep their aspect regime but shrink ``d`` (the d² Hessian
traffic stays the experiments' dominant term, just smaller). Every
generated problem is deterministic given the registry seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objectives import L1LeastSquares
from repro.data.scaling import normalize_sample_columns
from repro.data.synthetic import make_regression
from repro.exceptions import DatasetError
from repro.sparse.csr import CSCMatrix

__all__ = [
    "Dataset",
    "DatasetSpec",
    "DATASETS",
    "get_dataset",
    "dataset_table",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: paper-scale facts plus the scaled generation recipe."""

    name: str
    paper_rows: int  # samples in the paper's Table 2 ("Row numbers")
    paper_cols: int  # features ("Column numbers")
    paper_density: float  # percentage of nnz, f
    paper_size: str  # storage size as printed in Table 2
    scaled_m: int  # samples generated here
    scaled_d: int  # features generated here
    density: float  # fill of the generated matrix
    lam: float  # the paper's tuned λ (§5.1), reported in Table 2 output
    lam_ratio: float  # this repo's λ as a fraction of λ_max = ‖∇f(0)‖∞
    seed: int  # generation seed (deterministic)
    note: str = ""


@dataclass(frozen=True)
class Dataset:
    """A generated benchmark problem.

    Samples (columns) are unit-normalized — mirroring the preprocessing of
    the paper's LIBSVM datasets — and ``lam`` is the effective λ computed
    as ``spec.lam_ratio × ‖∇f(0)‖∞`` for *this* problem instance (the
    paper tunes λ per dataset; the ratio preserves relative strength
    across scales).
    """

    spec: DatasetSpec
    X: np.ndarray | CSCMatrix
    y: np.ndarray
    w_true: np.ndarray
    lam: float

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def density(self) -> float:
        if isinstance(self.X, np.ndarray):
            return float(np.count_nonzero(self.X)) / self.X.size
        return self.X.density

    def problem(self, lam: float | None = None) -> L1LeastSquares:
        """Build the :class:`L1LeastSquares` instance (effective λ default)."""
        return L1LeastSquares(self.X, self.y, self.lam if lam is None else lam)


DATASETS: dict[str, DatasetSpec] = {
    "abalone": DatasetSpec(
        name="abalone",
        paper_rows=4_177,
        paper_cols=8,
        paper_density=1.0,
        paper_size="258.7KB",
        scaled_m=4_177,
        scaled_d=8,
        density=1.0,
        lam=0.1,
        lam_ratio=0.1,
        seed=101,
        note="kept at full paper size (dense)",
    ),
    "susy": DatasetSpec(
        name="susy",
        paper_rows=5_000_000,
        paper_cols=18,
        paper_density=0.2539,
        paper_size="2.47GB",
        scaled_m=20_000,
        scaled_d=18,
        density=0.2539,
        lam=0.1,
        lam_ratio=0.1,
        seed=102,
        note="m scaled 5M → 20k; d and f preserved",
    ),
    "covtype": DatasetSpec(
        name="covtype",
        paper_rows=581_012,
        paper_cols=54,
        paper_density=0.2212,
        paper_size="71.2MB",
        scaled_m=10_000,
        scaled_d=54,
        density=0.2212,
        lam=0.1,
        lam_ratio=0.1,
        seed=103,
        note="m scaled 581k → 10k; d and f preserved",
    ),
    "mnist": DatasetSpec(
        name="mnist",
        paper_rows=60_000,
        paper_cols=780,
        paper_density=0.1922,
        paper_size="114.8MB",
        scaled_m=4_000,
        scaled_d=196,
        density=0.1922,
        lam=0.1,
        lam_ratio=0.1,
        seed=104,
        note="m 60k → 4k, d 780 → 196 (simulator memory); f preserved",
    ),
    "epsilon": DatasetSpec(
        name="epsilon",
        paper_rows=400_000,
        paper_cols=2_000,
        paper_density=1.0,
        paper_size="12.16GB",
        scaled_m=4_000,
        scaled_d=400,
        density=1.0,
        lam=1e-4,
        lam_ratio=0.01,
        seed=105,
        note="m 400k → 4k, d 2000 → 400; dense regime preserved",
    ),
}


def get_dataset(name: str, *, size: str = "scaled") -> Dataset:
    """Generate a registry dataset deterministically.

    ``size="scaled"`` (default) builds the container-scale problem;
    ``size="tiny"`` builds a ~10× smaller variant with the same shape
    signature, for fast tests.
    """
    try:
        spec = DATASETS[name]
    except KeyError:
        raise DatasetError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}") from None
    if size == "scaled":
        m, d = spec.scaled_m, spec.scaled_d
    elif size == "tiny":
        m, d = max(64, spec.scaled_m // 10), max(4, spec.scaled_d // 4)
    else:
        raise DatasetError(f"size must be 'scaled' or 'tiny', got {size!r}")
    X, y, w_true = make_regression(
        d,
        m,
        density=spec.density,
        support_fraction=0.3,
        noise=0.1,
        rng=spec.seed,
    )
    X, _norms = normalize_sample_columns(X)
    # λ_max = ‖∇f(0)‖∞ = ‖(1/m) X y‖∞: above it the lasso solution is 0.
    grad0 = (X @ y if isinstance(X, np.ndarray) else X.matvec(y)) / m
    lam = spec.lam_ratio * float(np.max(np.abs(grad0)))
    return Dataset(spec=spec, X=X, y=y, w_true=w_true, lam=lam)


def dataset_table(*, size: str = "scaled") -> list[dict[str, object]]:
    """Rows regenerating Table 2 (paper values + this repo's scaled values)."""
    rows = []
    for name in DATASETS:
        ds = get_dataset(name, size=size)
        spec = ds.spec
        rows.append(
            {
                "dataset": name,
                "paper_rows": spec.paper_rows,
                "paper_cols": spec.paper_cols,
                "paper_f": spec.paper_density,
                "paper_size": spec.paper_size,
                "scaled_rows": ds.m,
                "scaled_cols": ds.d,
                "scaled_f": round(ds.density, 4),
                "paper_lambda": spec.lam,
                "lambda": round(ds.lam, 6),
                "note": spec.note,
            }
        )
    return rows
