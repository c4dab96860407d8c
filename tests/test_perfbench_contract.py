"""The benchmark's tracer finds every torusrd name it wraps, and its path
timers see the runs it counts.

perfbench/tracing.py patches torusrd's module globals and class attributes
by name, and a traced run stops on a name that no longer exists.  This
checks the same names against the imported package in a fraction of a
second, without running a workload, and times the paths of one tiny sweep.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import torusrd
import torusrd.config  # noqa: F401  (imports every module the tracer names)
from torusrd.experiments import ScalingLimitPlan, run_scaling_limit
from torusrd.fields import GridField, TorusGrid
from torusrd.reactions import build_builtin
from torusrd.solver import SolverConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _name(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("owner, attr", [
    *((owner, attr) for owner, attr, _ in tracing.layer_targets(torusrd)),
    *tracing.path_targets(torusrd),
], ids=lambda x: getattr(x, "__name__", x))
def test_traced_name_exists_where_the_tracer_patches_it(owner, attr):
    # the tracer looks the name up in the owner's own namespace
    assert attr in vars(owner), f"perfbench traces {_name(owner, attr)}, which is gone"
    assert callable(getattr(owner, attr))


def test_path_timers_see_one_reference_run_and_every_sweep_path():
    # the sweep's ms_per_step counts the paths' steps and the reference run
    # apart: the reference is the sweep's only run without noise
    grid = TorusGrid(2, 16)
    values = 0.5 * np.cos(2.0 * np.pi * grid.node_coordinates()[0])
    plan = ScalingLimitPlan(shells=(1,), gamma=0.0, nu=0.1, paths=2,
                            solver=SolverConfig(dt=0.01, T=0.04, noise_on=True),
                            sys=build_builtin("zero", [0.01]), v0=[GridField(grid, values)],
                            epsilon=0.05)
    tracer = tracing.Tracer()
    tracer.install_path_timers(torusrd)
    try:
        run_scaling_limit(plan)
    finally:
        tracer.restore()
    reference = tracing.REFERENCE_PATH
    records = [(path, steps) for path, _, _, steps in tracer.path_records]
    assert [r for r in records if r[0] == reference] == [(reference, 4)]  # T / dt steps
    assert sorted(r for r in records if r[0] != reference) == [(0, 4), (1, 4)]
    assert torusrd.experiments.run is torusrd.solver.run  # restored
