"""repro — reproduction of *Reducing Communication in Proximal Newton
Methods for Sparse Least Squares Problems* (Soori et al., ICPP 2018).

The package implements RC-SFISTA (stochastic variance-reduced FISTA with
iteration overlapping and Hessian reuse), the proximal Newton framework it
serves as inner solver, the ProxCoCoA baseline, and a simulated
distributed-memory substrate with an α-β-γ performance model that stands
in for the paper's MPI clusters. See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro.data import get_dataset
    from repro.core import rc_sfista_distributed, solve_reference
    from repro.core.stopping import StoppingCriterion
    from repro.runtime import RuntimeConfig

    ds = get_dataset("covtype")
    problem = ds.problem()
    ref = solve_reference(problem, tol=1e-8)
    result = rc_sfista_distributed(          # P=1 on the serial backend
        problem, 1, k=4, S=2, b=0.01, iters_per_epoch=200,
        stopping=StoppingCriterion(tol=0.01, fstar=ref.meta["fstar"]),
        runtime=RuntimeConfig(backend="serial"),
    )
    print(result.summary())
"""

from repro import core, data, distsim, obs, perf, runtime, sparse, utils
from repro.exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "core",
    "data",
    "distsim",
    "obs",
    "perf",
    "runtime",
    "sparse",
    "utils",
    "ReproError",
    "__version__",
]
