"""Optimization core: the paper's algorithms and baselines.

Solvers
-------
* :func:`repro.core.fista.fista` / :func:`repro.core.fista.ista` —
  deterministic baselines (paper Alg. 2).
* :func:`repro.core.rc_sfista_dist.rc_sfista_distributed` — RC-SFISTA
  with iteration overlapping ``k`` and Hessian-reuse ``S`` (paper Alg. 5,
  Fig. 1). At ``k = S = 1`` it is SFISTA, the stochastic
  variance-reduced FISTA of Algs. 3–4 (one allreduce per iteration).
* :func:`repro.core.prox_newton.proximal_newton_distributed` — the outer
  PN method (paper Alg. 1) with FISTA or RC-SFISTA (SFISTA at
  ``k = S = 1``) as the inner solver (Fig. 7).

  Each of these two is one body for every rank count: ``nranks=1`` with
  ``runtime=RuntimeConfig(backend="serial")`` is the serial solver.
* :func:`repro.core.cd.coordinate_descent_lasso` — coordinate-descent
  lasso (the CLI's ``cd`` solver and the ProxCoCoA local solver).
* :func:`repro.core.proxcocoa.proxcocoa` — the ProxCoCoA baseline
  (Smith et al. 2015) on the same simulated cluster.
* :func:`repro.core.reference.solve_reference` — high-accuracy optimum
  (the paper's TFOCS stand-in).
"""

from repro.core.proximal import (
    soft_threshold,
    L1Prox,
    ElasticNetProx,
    GroupL1Prox,
)
from repro.core.model import (
    LOSSES,
    PENALTIES,
    ERMObjective,
    LogisticLoss,
    Regularizer,
    SmoothLoss,
    SquaredHingeLoss,
    SquaredLoss,
    canonical_penalty_spec,
    make_loss,
    make_penalty,
    parse_penalty_spec,
)
from repro.core.objectives import L1LeastSquares
from repro.core.results import SolveResult, History
from repro.core.stopping import StoppingCriterion, relative_objective_error
from repro.core.fista import fista, ista
from repro.core.sfista import GradientEstimator, stochastic_step_size
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.prox_newton import proximal_newton_distributed
from repro.core.cd import coordinate_descent_lasso
from repro.core.proxcocoa import proxcocoa
from repro.core.reference import solve_reference
from repro.core.logistic import L1Logistic
from repro.core.path import lasso_path, lambda_max, PathResult
from repro.core.warmstart import WarmStartLadder
from repro.core.ca_bcd import ca_bcd, ca_bcd_communication
from repro.core.cv import cross_validate_lambda, kfold_indices, CVResult

__all__ = [
    "soft_threshold",
    "L1Prox",
    "ElasticNetProx",
    "GroupL1Prox",
    "LOSSES",
    "PENALTIES",
    "ERMObjective",
    "SmoothLoss",
    "SquaredLoss",
    "LogisticLoss",
    "SquaredHingeLoss",
    "Regularizer",
    "make_loss",
    "make_penalty",
    "parse_penalty_spec",
    "canonical_penalty_spec",
    "L1LeastSquares",
    "SolveResult",
    "History",
    "StoppingCriterion",
    "relative_objective_error",
    "fista",
    "ista",
    "GradientEstimator",
    "stochastic_step_size",
    "rc_sfista_distributed",
    "proximal_newton_distributed",
    "coordinate_descent_lasso",
    "proxcocoa",
    "solve_reference",
    "L1Logistic",
    "lasso_path",
    "lambda_max",
    "PathResult",
    "WarmStartLadder",
    "ca_bcd",
    "ca_bcd_communication",
    "cross_validate_lambda",
    "kfold_indices",
    "CVResult",
]
