"""The benchmark's workloads, their output checks and their metrics.

Each workload is a config text run through the public API
(`config.RunConfig.from_text` + `config.build_*`, then
`experiments.run_scaling_limit` or `solver.run`).  A run repeats one fixed
unit of work until its time is up; unit k of seed s runs with
`solver.seed = 1000 s + k`, so the same seed gives the same inputs; unit 0
is an untimed warm-up.  Every unit checks its outputs, the sweep also
checks the criterion-6 law on the paths of all units together, and a failed
check counts against `failed`.

Why these three (see README.md for the layer -> metric -> workload map):

* ito_shell_sweep -- the paper's headline experiment (criterion-6 shape):
  many cheap Ito steps, where velocity assembly, transport, RNG, the
  blow-up norm and the streaming-distance observer dominate;
* wz_substep -- the Wong-Zakai substep (criterion-5 shape): ~280 advection
  right-hand sides per step against a frozen velocity, almost all FFT;
* mass_action_balance -- the criterion-7 system with cut-off, balance
  tracking and per-step sampling: reaction drift and diagnostics heavy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np

import torusrd.config as config
import torusrd.experiments as experiments
import torusrd.solver as solver

from calibration import Calibrator
from tracing import REFERENCE_PATH, Tracer

_ITO_SHELL_SWEEP = """
grid.d = 2
grid.n = 96
noise.nu = 0.1
reaction.kind = builtin:zero
reaction.nu = [0.01]
solver.scheme = euler_maruyama_ito
solver.dt = 0.0025
solver.T = 0.25
solver.record_every = 5
solver.track_balance = false
solver.seed = {seed}
v0.kind = single_mode
v0.amplitude = 1.0
v0.mode = [1, 0]
experiment.shells = [1, 2, 4, 8]
experiment.paths = 4
experiment.r = 2.0
experiment.q = 2.0
"""

_WZ_SUBSTEP = """
grid.d = 2
grid.n = 64
noise.nu = 0.1
noise.shell_n = 2
reaction.kind = builtin:zero
reaction.nu = [0.0]
solver.scheme = strat_substep
solver.dt = 0.001
solver.T = 0.04
solver.record_every = 1000000000
solver.track_balance = false
solver.seed = {seed}
v0.kind = single_mode
v0.amplitude = 1.0
v0.mode = [1, 0]
experiment.paths = 1
"""

_MASS_ACTION_BALANCE = """
grid.d = 2
grid.n = 64
noise.nu = 0.1
noise.shell_n = 1
reaction.kind = mass_action
reaction.q = [2, 0]
reaction.p = [0, 1]
reaction.nu = [0.05, 0.08]
solver.dt = 0.0025
solver.T = 0.25
solver.record_every = 1
solver.track_balance = true
solver.lq_norms = [2.0, 4.0]
solver.seed = {seed}
cutoff.enabled = true
cutoff.R = 1000000.0
v0.kind = random_smooth
v0.offset = 1.0
v0.amplitude = 0.3
v0.seed = {seed}
experiment.paths = 2
"""

WZ_ENERGY_TOL = 1e-6  # criterion 5
MASS_DRIFT_TOL = 1e-8  # criterion 7
MASS_ALPHA = np.array([1.0, 2.0])


@dataclass
class Prepared:
    """Everything set-up produces; execute() starts at the first step."""

    sys: object
    noise: object
    solver: object
    v0: list
    paths: int
    plan: object = None


@dataclass
class UnitResult:
    checks: list[bool]
    reference_bytes: int = 0  # computed: kept reference snapshots x size
    distances: np.ndarray | None = None  # sweep only: shells x paths


def prepare(text: str, wrap_f: Callable | None = None, sweep: bool = False) -> Prepared:
    """Parse the config and build grid, noise, reactions, initial data and plan."""
    cfg = config.RunConfig.from_text(text)
    grid = config.build_grid(cfg)
    sys_ = config.build_reaction(cfg)
    if wrap_f is not None:
        sys_ = dataclasses.replace(sys_, f=wrap_f(sys_.f))
    scfg = config.build_solver_config(cfg)
    v0 = config.build_v0(cfg, grid, sys_.ell)
    if not sweep:
        return Prepared(sys_, config.build_noise(cfg), scfg, v0, cfg["experiment.paths"])
    plan = experiments.ScalingLimitPlan(
        shells=tuple(cfg["experiment.shells"]),
        gamma=cfg["noise.gamma"],
        nu=cfg["noise.nu"],
        paths=cfg["experiment.paths"],
        solver=scfg,
        sys=sys_,
        v0=v0,
        epsilon=cfg["experiment.epsilon"],
        r=cfg["experiment.r"],
        q=cfg["experiment.q"],
    )
    return Prepared(sys_, None, scfg, v0, plan.paths, plan)


def execute_sweep(p: Prepared) -> UnitResult:
    """Every path of every shell finite and without blow-up."""
    result = experiments.run_scaling_limit(p.plan, threads=1)
    checks = []
    for shell in result.shells:
        taus = shell.taus or [None] * len(shell.distances)
        checks += [tau is None and bool(np.isfinite(d)) for tau, d in zip(taus, shell.distances)]
    values = p.v0[0].values
    ref_bytes = len(result.reference_times) * len(p.v0) * values.nbytes
    distances = np.array([s.distances for s in result.shells])
    return UnitResult(checks, ref_bytes, distances)


def sweep_law(results: list[UnitResult]) -> list[bool]:
    """Criterion-6 law on the paths of all units pooled: shell means strictly
    decrease and D(8) < D(1)/2.  A unit has too few paths to test it alone."""
    means = np.concatenate([r.distances for r in results], axis=1).mean(axis=1)
    return [bool(np.all(np.diff(means) < 0)), bool(means[-1] < 0.5 * means[0])]


def execute_wz(p: Prepared) -> UnitResult:
    """Criterion-5 bound on every path: | |v(T)|^2 - |v0|^2 | < 1e-6."""
    # Parseval: the sum of |normalized coefficient|^2 is the mean square
    e0 = sum(float(np.mean(f.values**2)) for f in p.v0)
    checks = []
    for path in range(p.paths):
        state, _ = solver.run(p.sys, p.noise, p.solver, p.v0, path_index=path)
        drift = abs(float(np.sum(np.abs(state.fields) ** 2)) - e0)
        checks.append(state.blown_up is None and drift < WZ_ENERGY_TOL)
    return UnitResult(checks)


def execute_mass(p: Prepared) -> UnitResult:
    """Criterion-7 bound on every path: weighted-mass drift (alpha = (1, 2)) < 1e-8."""
    checks = []
    for path in range(p.paths):
        state, record = solver.run(p.sys, p.noise, p.solver, p.v0, path_index=path)
        mass = record.mass @ MASS_ALPHA
        drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
        checks.append(state.blown_up is None and drift < MASS_DRIFT_TOL)
    return UnitResult(checks)


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    execute: Callable[[Prepared], UnitResult]
    # span names a traced run must record at least one call of
    layers: tuple[str, ...]
    sweep: bool = False

    def text(self, seed: int) -> str:
        return self.config_text.format(seed=seed)


# layers every workload goes through
_COMMON_LAYERS = (
    "fft", "solver.run", "solver.step", "solver.stepper_init", "solver.to_values",
    "solver.lq_norm", "noise.velocity_field", "noise.rng", "diagnostics.sample",
    "config.parse", "config.build",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ito_shell_sweep", _ITO_SHELL_SWEEP, execute_sweep,
                 _COMMON_LAYERS + ("solver.transport", "experiments.run_scaling_limit",
                                   "experiments.observer"),
                 sweep=True),
        Workload("wz_substep", _WZ_SUBSTEP, execute_wz, _COMMON_LAYERS),
        Workload("mass_action_balance", _MASS_ACTION_BALANCE, execute_mass,
                 _COMMON_LAYERS + ("solver.transport", "solver.reaction_drift",
                                   "solver.gradients", "reactions.f", "diagnostics.balance")),
    )
}


# -- the run ---------------------------------------------------------------


# set-up takes about a millisecond, so each unit repeats it and the run
# reports the median of all repetitions
SETUP_REPS = 5


@dataclass
class UnitTiming:
    setups: list[tuple[float, float]]  # (start, end) of each set-up repetition
    start: float  # first step
    end: float  # checked result
    result: UnitResult
    traced: bool

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _run_unit(tr_pkg, tracer: Tracer, wl: Workload, seed: int, traced: bool) -> UnitTiming:
    text = wl.text(seed)
    wrap_f = (lambda f: tracer.wrap("reactions.f", f)) if traced else None
    with tracer.layers(tr_pkg) if traced else contextlib.nullcontext():
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            prep = prepare(text, wrap_f, wl.sweep)
            setups.append((t0, time.perf_counter()))
        t0 = time.perf_counter()
        result = wl.execute(prep)
        t1 = time.perf_counter()
    return UnitTiming(setups, t0, t1, result, traced)


MIN_UNITS = 3  # measured units per run, however short --seconds is


def run_workload(tr_pkg, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run units of one workload for `seconds`, and at least MIN_UNITS of them.

    With trace off every unit is untraced, and the calibration kernel runs
    between solver steps and after every unit (see calibration.py).  With
    trace on each unit seed runs twice, once untraced and once traced, in
    alternating order, so that trace.overhead_frac compares the same
    inputs.  A traced run raises if a layer the workload exercises records
    no call.
    """
    wl = WORKLOADS[name]
    tracer = Tracer()
    calibrator = Calibrator()
    timings: list[UnitTiming] = []
    tracer.install_path_timers(tr_pkg)
    try:
        # warm-up unit: fills lazy caches (hyperplane bases, allocator, CPU
        # caches) before timing; its outputs are checked, its times dropped,
        # and tracemalloc follows it for peak_alloc_mb
        tracemalloc.start()
        try:
            warm = _run_unit(tr_pkg, tracer, wl, 1000 * seed, traced=False)
            peak_alloc = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracer.path_records.clear()
        if not trace:
            tracer.install_step_hook(tr_pkg, calibrator.tick)
        calibrator.sample()
        deadline = time.perf_counter() + seconds
        k = 0
        while k < MIN_UNITS or time.perf_counter() < deadline:
            unit_seed = 1000 * seed + k + 1
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                timings.append(_run_unit(tr_pkg, tracer, wl, unit_seed, traced))
                calibrator.sample()
            k += 1
    finally:
        tracer.restore()
    results = [warm.result] + [t.result for t in timings]
    checks = [c for r in results for c in r.checks] + (sweep_law(results) if wl.sweep else [])
    failed = checks.count(False)
    if trace:
        totals = tracer.layer_totals()
        silent = [layer for layer in wl.layers if layer not in totals]
        if silent:
            raise RuntimeError(f"{name}: traced run recorded no call of {', '.join(silent)}")
        metrics, raw = _layer_metrics(tracer, timings), {}
    else:
        metrics, raw = _end_to_end_metrics(tracer, timings, peak_alloc, calibrator)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "units": k,
        "tracer": tracer,
    }


def _end_to_end_metrics(
    tracer: Tracer, timings: list[UnitTiming], peak_alloc: int, calibrator: Calibrator
) -> tuple[dict, dict]:
    """The end-to-end metrics, times at the calibration's reference speed,
    and the same medians as raw wall-clock times."""
    paths = [(t0, t1, n) for path, t0, t1, n in tracer.path_records if path >= 0 and n > 0]
    if not paths:
        raise RuntimeError("no stochastic path run was timed")
    setups = [s for t in timings for s in t.setups]
    units = [(t.start, t.end) for t in timings]
    own = calibrator.program_s
    raw = {
        "setup_s": statistics.median(own(t0, t1) for t0, t1 in setups),
        "wall_s": statistics.median(own(t0, t1) for t0, t1 in units),
        "ms_per_step": statistics.median(1e3 * own(t0, t1) / n for t0, t1, n in paths),
        "calibration_kernel_s": statistics.median(calibrator.durations()),
    }
    scaled = calibrator.scaled
    metrics = {
        "setup_s": (statistics.median(scaled(t0, t1) for t0, t1 in setups), "s"),
        "wall_s": (statistics.median(scaled(t0, t1) for t0, t1 in units), "s"),
        "ms_per_step": (statistics.median(1e3 * scaled(t0, t1) / n for t0, t1, n in paths), "ms/step"),
        "peak_alloc_mb": (peak_alloc / 2**20, "MiB"),
    }
    return metrics, raw


def _layer_metrics(tracer: Tracer, timings: list[UnitTiming]) -> dict:
    totals = tracer.layer_totals()
    traced = [t for t in timings if t.traced]
    plain = [t for t in timings if not t.traced]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    steps = max(calls("solver.step"), 1)
    paths = max(calls("solver.run"), 1)
    n_traced = max(len(traced), 1)
    traced_wall = sum(t.wall_s for t in traced)
    ratios = [a.wall_s / b.wall_s for a, b in zip(traced, plain)]

    def ms_step(seconds):
        return (1e3 * seconds / steps, "ms/step")

    def per_step(count):
        return (count / steps, "calls/step")

    reference = sum(
        e - s for n, s, e, path in zip(tracer.names, tracer.starts, tracer.ends, tracer.paths)
        if n == "solver.run" and path == REFERENCE_PATH
    )
    config_setups = max(calls("config.parse"), 1)
    return {
        "fft.calls_per_step": per_step(calls("fft")),
        "fft.ms_per_step": ms_step(incl("fft")),
        "fft.share": (incl("fft") / traced_wall if traced_wall > 0 else 0.0, "1"),
        "fft.bytes_per_step": (tracer.fft_bytes / steps, "B/step"),
        "solver.step.ms_per_step": ms_step(incl("solver.step")),
        "solver.step.self_ms_per_step": ms_step(self_s("solver.step")),
        "solver.run.self_ms_per_step": ms_step(self_s("solver.run")),
        "solver.stepper_init.ms_per_path": (1e3 * incl("solver.stepper_init") / paths, "ms/path"),
        "solver.transport.ms_per_step": ms_step(incl("solver.transport")),
        "solver.to_values.ms_per_step": ms_step(incl("solver.to_values")),
        "solver.lq_norm.calls_per_step": per_step(calls("solver.lq_norm")),
        "solver.lq_norm.ms_per_step": ms_step(incl("solver.lq_norm")),
        "solver.reaction_drift.ms_per_step": ms_step(incl("solver.reaction_drift")),
        "solver.gradients.ms_per_step": ms_step(incl("solver.gradients")),
        "noise.velocity_field.ms_per_step": ms_step(incl("noise.velocity_field")),
        "noise.velocity_field.self_ms_per_step": ms_step(self_s("noise.velocity_field")),
        "noise.rng.ms_per_step": ms_step(incl("noise.rng")),
        "reactions.f.calls_per_step": per_step(calls("reactions.f")),
        "reactions.f.ms_per_step": ms_step(incl("reactions.f")),
        "diagnostics.sample.ms_per_step": ms_step(incl("diagnostics.sample")),
        "diagnostics.balance.ms_per_step": ms_step(incl("diagnostics.balance")),
        "experiments.self_ms_per_step": ms_step(
            self_s("experiments.run_scaling_limit") + self_s("experiments.observer")
        ),
        "experiments.reference_s": (reference / n_traced, "s"),
        "experiments.reference_bytes": (
            statistics.mean(t.result.reference_bytes for t in traced) if traced else 0.0, "B"
        ),
        "config.parse_ms": (1e3 * incl("config.parse") / config_setups, "ms"),
        "config.build_ms": (1e3 * incl("config.build") / config_setups, "ms"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0 if ratios else 0.0, "1"),
        "trace.spans_per_step": (len(tracer.starts) / steps, "spans/step"),
    }
