#!/usr/bin/env python
"""Model selection: regularization paths and cross-validated λ.

The paper tunes λ per dataset (§5.1). This example shows the library's
tooling for doing that systematically:

1. sweep a warm-started lasso path from λ_max downward,
2. pick λ by 5-fold cross-validation (min-MSE and the 1-SE rule),
3. solve the selected problem with RC-SFISTA and inspect the support.

Run:  python examples/model_selection.py
"""

import numpy as np

from repro.core import cross_validate_lambda, lasso_path, rc_sfista_distributed, solve_reference
from repro.core.objectives import L1LeastSquares
from repro.core.stopping import StoppingCriterion
from repro.data import make_regression
from repro.experiments.ascii_plot import ascii_chart
from repro.perf.report import format_table
from repro.runtime import RuntimeConfig


def main() -> None:
    # A planted-sparsity problem: 30 features, 6 of them active.
    X, y, w_true = make_regression(
        30, 600, noise=0.3, support_fraction=0.2, rng=11
    )
    problem = L1LeastSquares(X, y, 0.1)  # λ placeholder; the CV picks it
    true_support = np.flatnonzero(w_true)
    print(f"planted support: {sorted(true_support.tolist())}\n")

    # 1. Regularization path.
    path = lasso_path(problem, n_lambdas=25, lambda_min_ratio=1e-3, max_iter=400)
    print(ascii_chart(
        {"support size": (np.log10(path.lambdas).tolist(), path.n_nonzero.tolist())},
        title="lasso path: support size vs log10(lambda)",
        x_label="log10(lambda)",
        y_label="nnz",
        height=10,
    ))

    # 2. Cross-validation.
    cv = cross_validate_lambda(problem, n_folds=5, n_lambdas=25, max_iter=400, rng=0)
    rows = [
        [f"{lam:.4g}", f"{mu:.4g}", f"{sd:.3g}"]
        for lam, mu, sd in cv.summary_rows()[::4]
    ]
    print()
    print(format_table(["lambda", "cv mse", "std"], rows, title="cross-validation (every 4th grid point)"))
    print(f"\nbest lambda (min MSE): {cv.best_lambda:.5g}")
    print(f"1-SE lambda (sparser): {cv.best_lambda_1se:.5g}")

    # 3. Solve at the selected λ with the paper's algorithm.
    chosen = L1LeastSquares(X, y, cv.best_lambda_1se)
    fstar = solve_reference(chosen, tol=1e-9).meta["fstar"]
    res = rc_sfista_distributed(
        chosen, 1, k=4, S=2, b=0.05, epochs=30, iters_per_epoch=80,
        stopping=StoppingCriterion(tol=1e-3, fstar=fstar), seed=0,
        runtime=RuntimeConfig(backend="serial"),
    )
    found = np.flatnonzero(np.abs(res.w) > 1e-4)
    print(f"\nrc-sfista at the 1-SE lambda: {res.summary()}")
    print(f"recovered support: {sorted(found.tolist())}")
    overlap = len(set(found) & set(true_support))
    print(f"support overlap with ground truth: {overlap}/{true_support.size}")


if __name__ == "__main__":
    main()
