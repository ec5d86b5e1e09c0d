"""Runtime-surface guard: ``runtime=`` is the only way in.

Every runtime knob lives on :class:`~repro.runtime.RuntimeConfig`, and the
distributed solvers accept it only as ``runtime=RuntimeConfig(...)``. This
test fails when a solver signature grows a parameter named after a config
field — a second, drifting path to the same knob.
"""

import dataclasses
import inspect

import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.distsim.faults import FaultPlan
from repro.runtime import RuntimeConfig

RUNTIME_SOLVERS = [
    rc_sfista_distributed,
    proximal_newton_distributed,
]

CONFIG_FIELDS = {f.name for f in dataclasses.fields(RuntimeConfig)}


@pytest.mark.parametrize("solver", RUNTIME_SOLVERS, ids=lambda s: s.__name__)
class TestSignatureLockstep:
    def test_exposes_runtime_kwarg(self, solver):
        params = inspect.signature(solver).parameters
        assert "runtime" in params, f"{solver.__name__} lost its runtime= kwarg"
        assert params["runtime"].default is None

    def test_no_config_field_in_signature(self, solver):
        exposed = set(inspect.signature(solver).parameters) & CONFIG_FIELDS
        assert not exposed, (
            f"{solver.__name__} exposes RuntimeConfig fields {sorted(exposed)} as "
            "kwargs — pass them through runtime=RuntimeConfig(...) instead"
        )

    def test_legacy_kwarg_is_a_type_error(self, small_dense_problem, solver):
        with pytest.raises(TypeError, match="faults"):
            solver(small_dense_problem, 2, faults=FaultPlan())
