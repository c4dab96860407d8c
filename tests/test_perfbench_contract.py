"""The benchmark's tracer finds every torusrd name it wraps, its path
timers see the runs it counts, and the outputs its workloads check keep
their meaning.

perfbench/tracing.py patches torusrd's module globals and class attributes
by name, and a traced run stops on a name that no longer exists.  This
checks the same names against the imported package in a fraction of a
second, without running a workload, and times the paths of one tiny sweep.
perfbench/workloads.py checks a Wong-Zakai run by the sum of |c|^2 over
SimState.fields and a mass-action run by record.mass: small runs of both
pin what it reads.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import torusrd
import torusrd.config  # noqa: F401  (imports every module the tracer names)
from torusrd.config import (RunConfig, build_grid, build_noise, build_reaction,
                            build_solver_config, build_v0)
from torusrd.experiments import ScalingLimitPlan, run_scaling_limit
from torusrd.fields import GridField, TorusGrid
from torusrd.reactions import build_builtin
from torusrd.solver import SolverConfig, run

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


def _run_config(text: str):
    """solver.run of a config text, built the way the benchmark builds it."""
    cfg = RunConfig.from_text(text)
    grid, sys = build_grid(cfg), build_reaction(cfg)
    return run(sys, build_noise(cfg), build_solver_config(cfg), build_v0(cfg, grid, sys.ell))


def test_wong_zakai_state_energy_is_the_mean_square_of_its_values():
    # execute_wz reads sum |state.fields|^2 as the mean of v^2 (Parseval),
    # which holds for a state that keeps both members of each conjugate pair
    state, _ = _run_config("grid.n = 32\nnoise.shell_n = 2\nreaction.kind = builtin:zero\n"
                           "reaction.nu = [0.0]\nsolver.scheme = strat_substep\n"
                           "solver.dt = 0.001\nsolver.T = 0.005\nsolver.track_balance = false\n"
                           "v0.kind = random_smooth\nv0.offset = 0.5\nv0.amplitude = 0.3\n")
    energy = float(np.sum(np.abs(state.fields) ** 2))
    mean_square = float(np.sum(np.mean(state.grid_values**2, axis=(1, 2))))
    assert abs(energy - mean_square) <= 1e-14 * mean_square


def test_mass_action_record_mass_keeps_its_bits():
    # execute_mass checks record.mass of the criterion-7 system: its bits
    # on a 16^2 run with balance and cut-off, from before the state became
    # the band block
    _, record = _run_config(
        "grid.n = 16\nnoise.nu = 0.1\nnoise.shell_n = 1\nreaction.kind = mass_action\n"
        "reaction.q = [2, 0]\nreaction.p = [0, 1]\nreaction.nu = [0.05, 0.08]\n"
        "solver.dt = 0.0025\nsolver.T = 0.025\nsolver.record_every = 1\n"
        "solver.track_balance = true\nsolver.lq_norms = [2.0, 4.0]\nsolver.seed = 3\n"
        "cutoff.enabled = true\ncutoff.R = 1000000.0\nv0.kind = random_smooth\n"
        "v0.offset = 1.0\nv0.amplitude = 0.3\nv0.seed = 3\n")
    assert record.mass.shape == (11, 2)
    assert (hashlib.sha256(record.mass.tobytes()).hexdigest()
            == "02e2d5a960440aa3399933e54d93d37ce6c41bdea521e5904fbb1fa19b702b8b")
