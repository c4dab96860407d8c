"""Monte-Carlo harnesses: scaling limit, survival sweeps, decay fits.

Paths are embarrassingly parallel; each one derives its randomness from a
counter-based key (seed, path_index), so aggregate tables are independent
of execution order and worker count.

The scaling-limit reference keeps the half band of its state's band block
(fields.half_band_index) on each record step, and like every path reads
its grid values at t = 0 and its last step only.  Of a drift-free system it
keeps the t = 0 half band only: its reference is the heat flow
v_j = E(dt)^j v_0, which each path regenerates bit for bit from the half
band of the propagator E(dt).  A path reads its grid values at its last
step only, and its distances from its own half band at the reference
times, read from its band block by the same open-mesh index: by Parseval
the L^2 distance and norm and the H^{-gamma} distance are weighted sums over
it (diagnostics.spectral_norm); an L^q distance with q != 2
inverse-transforms the path's and the difference's.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import lq_norm_vector, spectral_norm, spectral_weight, survival_estimate
from .fields import (ArgumentErrors, GridField, TorusGrid, copy_band, half_band_index,
                     integer_error, inverse_real, mode_error)
from .noise import (NoiseModel, build_theta_shell, resolution_error, shell_errors,
                    shell_max_k, step_guard_error)
from .reactions import ReactionSystem
from .solver import (SolverConfig, diffusion_propagator, exponent_error, horizon_steps,
                     negative_species, run)

DEFAULT_THREADS = 1


def _run_paths(plan, sys: ReactionSystem, noise: NoiseModel | None, first: int, count: int,
               threads: int, observer=None, record: bool = False
               ) -> list[tuple[float | None, object]]:
    """(tau, observer) of paths first, ..., first + count - 1 of sys from
    plan's v0 under plan's solver, in path order at any thread count;
    observer() makes each path's observer (None: no observer), which run
    calls after every step.  No experiment reads a path's record, so the
    paths track no balance and sample no L^q norm.  With record, the
    paths keep the plan's record_every, whose steps give their observers
    grid values; otherwise a path reads its grid values at its last step
    only, and its tau is the same at any cadence (the solver's sup-bound
    certificate)."""
    solver = replace(plan.solver, balance_q=(), lq_norms=())
    if not record:
        solver = replace(solver, record_every=max(1, horizon_steps(solver.T, solver.dt)))

    def path(p: int):
        obs = None if observer is None else observer()
        state, _ = run(sys, noise, solver, plan.v0, path_index=p, observer=obs)
        return state.blown_up, obs

    paths = range(first, first + count)
    if threads <= 1:
        return [path(p) for p in paths]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(path, paths))


class _Series(list):
    """An observer that appends sample(t, values, state) at every step that
    has grid values: the record steps of a _run_paths(record=True) path."""

    def __init__(self, sample):
        super().__init__()
        self.sample = sample

    def __call__(self, t: float, values: np.ndarray | None, state) -> None:
        if values is not None:
            self.append(self.sample(t, values, state))


def _paths_errors(paths: int) -> dict[str, str]:
    if problem := integer_error(paths):
        return {"paths": problem}
    return {"paths": f"must be >= 1, got {paths}"} if paths < 1 else {}


def _exponent_errors(**exponents: float) -> dict[str, str]:
    """The L^p exponents below 1 or infinite, each with its message."""
    return {k: problem for k, v in exponents.items() if (problem := exponent_error(v, 1.0))}


def _shell_noise(solver: SolverConfig, shell: int, gamma: float, d: int,
                 nu: float) -> NoiseModel | None:
    """The shell-noise model of a plan's paths: None with the noise off or
    nu = 0, where the paths have no stochastic forcing."""
    if not (solver.noise_on and nu > 0):
        return None
    return NoiseModel(build_theta_shell(shell, gamma, d), nu=nu)


def _check_shell_noise(plan, runs: dict[str, tuple[int, float]], shell_arg: str,
                       nu_arg: str) -> None:
    """Stepper.__init__'s checks of the _shell_noise of each label -> (shell,
    nu) on the plan's grid, before any path runs: the shell's own rules
    (shell_errors, with the plan's gamma), resolution (of shell_arg), then
    the step guard (of nu_arg), the first failure an ArgumentErrors."""
    n, dt = plan.v0[0].grid.n_per_dim, plan.solver.dt
    for label, (shell, nu) in runs.items():
        if plan.solver.noise_on and nu > 0:
            if problems := shell_errors(shell, plan.gamma):
                raise ArgumentErrors({shell_arg if arg == "shell_n" else arg: label + msg
                                      for arg, msg in problems.items()})
            max_k = shell_max_k(shell)
            if problem := resolution_error(max_k, n):
                raise ArgumentErrors({shell_arg: label + problem})
            if problem := step_guard_error(nu, max_k, n, dt):
                raise ArgumentErrors({nu_arg: label + problem})


def scaling_plan_errors(shells, paths: int, epsilon: float, r: float, q: float,
                        hminus_gamma: float | None) -> dict[str, str]:
    """The rules of a ScalingLimitPlan's shells, paths, epsilon, distance
    exponents r and q, and H^{-gamma} order (None: not tracked): each
    failing argument mapped to its message."""
    problems = {}
    if not shells or shells[0] < 1 or list(shells) != sorted(set(shells)):
        problems["shells"] = f"must be nonempty, positive, strictly increasing, got {list(shells)}"
    problems |= _paths_errors(paths)
    if not epsilon > 0:
        problems["epsilon"] = f"must be > 0, got {epsilon}"
    problems |= _exponent_errors(r=r, q=q)
    if hminus_gamma is not None and not hminus_gamma >= 0:
        problems["hminus_gamma"] = f"must be >= 0, got {hminus_gamma}"
    return problems


@dataclass(frozen=True)
class ScalingLimitPlan:
    shells: tuple[int, ...]
    gamma: float
    nu: float
    paths: int
    solver: SolverConfig
    sys: ReactionSystem
    v0: list[GridField]
    epsilon: float
    r: float = 2.0
    q: float = 2.0
    hminus_gamma: float | None = None  # also track sup_t H^{-gamma} distance

    def __post_init__(self) -> None:
        if problems := scaling_plan_errors(self.shells, self.paths, self.epsilon, self.r,
                                           self.q, self.hminus_gamma):
            raise ArgumentErrors(problems)
        _check_shell_noise(self, {f"shell {s}: ": (s, self.nu) for s in self.shells},
                           "shells", "nu")


@dataclass
class ShellResult:
    shell: int
    distances: np.ndarray  # per path
    hminus_distances: np.ndarray | None
    max_lq: float  # sup over paths and times of the vector L^q norm
    taus: list[float | None]  # per-path blow-up times

    @property
    def mean(self) -> float:
        return float(self.distances.mean())

    @property
    def stderr(self) -> float:
        if len(self.distances) < 2:
            return 0.0
        return float(self.distances.std(ddof=1) / np.sqrt(len(self.distances)))

    def p_exceed(self, epsilon: float) -> float:
        return float(np.mean(self.distances > epsilon))


@dataclass
class ScalingLimitResult:
    plan: ScalingLimitPlan
    reference_times: np.ndarray
    shells: list[ShellResult]

    def table(self) -> list[dict]:
        return [
            {
                "shell_n": s.shell,
                "mean_distance": s.mean,
                "stderr": s.stderr,
                "p_exceed_eps": s.p_exceed(self.plan.epsilon),
                "max_lq": s.max_lq,
            }
            for s in self.shells
        ]


class _Reference:
    """The deterministic reference of a sweep, as every path's
    _StreamingDistance reads it, and the observer of its run: at step 0,
    every record_every-th step and the last step (last) it keeps the time
    and the half band of the state's band block (half_band_index).  Given
    the reference's diffusion propagator (diffusion_propagator, a band
    block), the run of a drift-free system, it keeps the half band of that
    propagator and the t = 0 half band only.  It holds the distance
    exponents r and q, and the spectral_norm weights of L^2 and of
    H^{-gamma} (hminus_gamma None: no H^{-gamma} distance), built once for
    all paths."""

    def __init__(self, grid: TorusGrid, r: float, q: float, record_every: int, last: int,
                 hminus_gamma: float | None = None, propagator: np.ndarray | None = None):
        band = grid.dealias_band
        self.times: list[float] = []
        self.halves: list[np.ndarray] = []
        self.shape, self.band, self.r, self.q = grid.shape, band, r, q
        self.every, self.last = record_every, last
        self.index = half_band_index(2 * band + 1, grid.d, band)
        self.propagator = None if propagator is None else propagator[self.index]
        self.l2 = spectral_weight(grid.d, band, 0.0)
        self.hminus = None if hminus_gamma is None else spectral_weight(grid.d, band, hminus_gamma)

    def __call__(self, t: float, values: np.ndarray | None, state) -> None:
        if state.step_index % self.every == 0 or state.step_index == self.last:
            self.times.append(t)
            if self.propagator is None or not self.halves:
                self.halves.append(state.fields[self.index])


class _StreamingDistance:
    """Accumulates a path's L^r(0,T;L^q) distance to a _Reference, with the
    sup over time of its own L^q norm (max_lq) and of its H^{-gamma}
    distance, from the half band of its state at each reference time.  The
    solver calls it after every step, so a path that steps past a reference
    time without sampling it is off the reference cadence: an error.

    Against a reference with a propagator it carries its own copy of the
    t = 0 half band (heat) and multiplies it in place by the propagator
    after every step, as the reference run multiplies its state, so it
    reads the half bands that run had, bit for bit.  It drops the copy
    after its last call: the last reference time, or a blow-up step."""

    def __init__(self, ref: _Reference):
        self.ref = ref
        self.norms: list[float] = []  # one per reference sample reached
        self.hminus_sup = 0.0
        self.max_lq = 0.0
        # in the stored half band's memory order, so that every sum over the
        # difference adds its terms in the order it would against that run
        self.heat = None if ref.propagator is None else ref.halves[0].copy(order="K")

    def __call__(self, t: float, values: np.ndarray | None, state) -> None:
        ref, j, heat = self.ref, len(self.norms), self.heat
        if j == len(ref.times) or t > ref.times[j] + 1e-12:
            raise ValueError(f"stochastic path at t = {t:g} stepped off the reference cadence")
        if heat is not None:
            if state.step_index:
                heat *= ref.propagator
            if state.blown_up is not None or t > ref.times[-1] - 1e-12:
                self.heat = None
        if t < ref.times[j] - 1e-12:
            return  # between reference times
        half = state.fields[ref.index]
        diff = half - (ref.halves[j] if heat is None else heat)
        if ref.q == 2.0:
            norm, own = spectral_norm(diff, ref.l2), spectral_norm(half, ref.l2)
        else:  # the path's grid values and the difference's, in one transform
            n = ref.shape[-1]
            stack = np.zeros((2, len(half)) + ref.shape[:-1] + (n // 2 + 1,), dtype=complex)
            for dst, src in zip(stack, (half, diff)):
                copy_band(src, dst, len(ref.shape), ref.band, half=True)
            values, diff_values = inverse_real(stack, ref.shape)
            norm, own = lq_norm_vector(diff_values, ref.q), lq_norm_vector(values, ref.q)
        self.norms.append(norm)
        self.max_lq = max(self.max_lq, own)
        if ref.hminus is not None:
            self.hminus_sup = max(self.hminus_sup, spectral_norm(diff, ref.hminus))

    def distance(self) -> float:
        arr = np.array(self.norms)
        return float(np.trapezoid(arr**self.ref.r, self.ref.times[:len(arr)]) ** (1.0 / self.ref.r))


def run_scaling_limit(plan: ScalingLimitPlan, threads: int = DEFAULT_THREADS) -> ScalingLimitResult:
    """Distance of stochastic shell runs to the deterministic enhanced solution.

    The reference is integrated once with the same grid, dt and dealiasing
    as the stochastic paths, so the measured distance isolates the noise
    effect from discretization bias; one that blows up by T is an error.
    """
    grid, solver = plan.v0[0].grid, plan.solver
    ref_sys = plan.sys.enhanced(plan.nu)
    # a drift-free reference steps by its diffusion propagator alone, of which
    # _Reference keeps the half band.  The reference reads its state's band
    # on the record steps, and its grid values at t = 0 and its last step only
    ref = _Reference(grid, plan.r, plan.q, solver.record_every,
                     horizon_steps(solver.T, solver.dt), plan.hminus_gamma,
                     diffusion_propagator(grid, ref_sys.nu, solver.dt)
                     if ref_sys.is_drift_free else None)
    [(tau, _)] = _run_paths(plan, ref_sys, None, 0, 1, 1, lambda: ref)
    if tau is not None:
        raise ValueError(f"the deterministic reference blows up at tau = {tau:g}, by "
                         f"T = {plan.solver.T:g}: no L^r(0,T;L^q) distance to it exists")

    shell_results = []
    for si, n in enumerate(plan.shells):
        # noise off or nu = 0: deterministic paths, which reproduce the
        # reference at nu = 0; at nu > 0 they run nu_i unenhanced against the
        # nu_i + nu reference, so every shell reads the same nonzero gap
        noise = _shell_noise(plan.solver, n, plan.gamma, grid.d, plan.nu)
        taus, dists = zip(*_run_paths(plan, plan.sys, noise, si * plan.paths, plan.paths,
                                      threads, lambda: _StreamingDistance(ref)))
        shell_results.append(ShellResult(
            shell=n,
            distances=np.array([d.distance() for d in dists]),
            hminus_distances=None if ref.hminus is None else np.array([d.hminus_sup for d in dists]),
            max_lq=float(max(d.max_lq for d in dists)),
            taus=list(taus),
        ))
    return ScalingLimitResult(plan=plan, reference_times=np.array(ref.times),
                              shells=shell_results)


def survival_plan_errors(nus, paths: int) -> dict[str, str]:
    """The rules of a SurvivalPlan's nus and paths, as scaling_plan_errors."""
    problems = {}
    if not (nus and all(nu >= 0 for nu in nus)):
        problems["nus"] = f"must be nonempty and >= 0, got {list(nus)}"
    return problems | _paths_errors(paths)


@dataclass(frozen=True)
class SurvivalPlan:
    nus: tuple[float, ...]
    shell_n: int
    gamma: float
    paths: int
    solver: SolverConfig
    sys: ReactionSystem
    v0: list[GridField]

    def __post_init__(self) -> None:
        if problems := survival_plan_errors(self.nus, self.paths):
            raise ArgumentErrors(problems)
        if negative_species(self.v0) is not None:
            raise ValueError("survival experiments require v0 >= 0")
        _check_shell_noise(self, {f"nu = {nu}: ": (self.shell_n, nu) for nu in self.nus},
                           "shell_n", "nus")


@dataclass
class SurvivalRow:
    nu: float
    taus: list[float | None]
    p_hat: float
    wilson: tuple[float, float]
    mean_tau_blowups: float | None


@dataclass
class SurvivalResult:
    plan: SurvivalPlan
    rows: list[SurvivalRow]

    def monotone_in_nu(self) -> bool:
        ps = [r.p_hat for r in self.rows]
        return all(b >= a for a, b in zip(ps, ps[1:]))

    def table(self) -> list[dict]:
        return [
            {
                "nu": r.nu,
                "p_hat": r.p_hat,
                "wilson_lo": r.wilson[0],
                "wilson_hi": r.wilson[1],
                "mean_tau_blowups": r.mean_tau_blowups,
            }
            for r in self.rows
        ]


def run_survival(plan: SurvivalPlan, threads: int = DEFAULT_THREADS) -> SurvivalResult:
    grid = plan.v0[0].grid
    rows = []
    for vi, nu in enumerate(plan.nus):
        noise = _shell_noise(plan.solver, plan.shell_n, plan.gamma, grid.d, nu)
        taus = [tau for tau, _ in _run_paths(plan, plan.sys, noise, vi * plan.paths,
                                             plan.paths, threads)]
        p_hat, wilson = survival_estimate(taus, plan.solver.T)
        blow = [t for t in taus if t is not None and t < plan.solver.T]
        rows.append(SurvivalRow(
            nu=nu,
            taus=taus,
            p_hat=p_hat,
            wilson=wilson,
            mean_tau_blowups=float(np.mean(blow)) if blow else None,
        ))
    return SurvivalResult(plan=plan, rows=rows)


def decay_plan_errors(paths: int, tail_fraction: float, q0: float, tracked_mode,
                      d: int, n: int) -> dict[str, str]:
    """The rules of a DecayPlan's paths, tail_fraction, norm exponent q0 and
    tracked_mode (empty or None: none) on a d-dimensional grid of n points
    per axis, as scaling_plan_errors: the fit window is the last
    tail_fraction of the samples, and the tracked mode must not alias."""
    problems = _paths_errors(paths)
    if not 0.0 < tail_fraction <= 1.0:
        problems["tail_fraction"] = f"must lie in (0, 1], got {tail_fraction}"
    if problem := mode_error(tracked_mode or (), d, n, empty_ok=True):
        problems["tracked_mode"] = problem
    return problems | _exponent_errors(q0=q0)


@dataclass(frozen=True)
class DecayPlan:
    solver: SolverConfig
    sys: ReactionSystem
    v0: list[GridField]
    q0: float = 2.0
    paths: int = 1
    shell_n: int = 1
    gamma: float = 0.0
    nu: float = 0.0  # noise intensity; 0 disables the noise
    tracked_mode: tuple[int, ...] | None = None
    tail_fraction: float = 0.5

    def __post_init__(self) -> None:
        grid = self.v0[0].grid
        if problems := decay_plan_errors(self.paths, self.tail_fraction, self.q0,
                                         self.tracked_mode, grid.d, grid.n_per_dim):
            raise ArgumentErrors(problems)
        if self.sys.mass_consts is None:
            raise ValueError("decay experiments need declared mass constants")
        a0, a1 = self.sys.mass_consts
        if a0 != 0.0 or a1 >= 0.0:
            raise ValueError(f"decay regime requires a0 = 0 and a1 < 0, got ({a0}, {a1})")
        _check_shell_noise(self, {"": (self.shell_n, self.nu)}, "shell_n", "nu")


@dataclass
class DecayReport:
    degenerate: bool
    fitted_rate: float | None
    expected_rate: float | None
    mode_rate: float | None  # fitted decay of the tracked mean mode amplitude
    mode_expected: float | None  # mode_rate of the linear f = a1 v, not of another f


def _tail_fit(times: np.ndarray, values: np.ndarray, tail_fraction: float) -> float | None:
    """Least-squares slope of log(values) on the trailing window."""
    start = int(len(times) * (1.0 - tail_fraction))
    t, v = times[start:], values[start:]
    keep = v > 0
    if keep.sum() < 3:
        return None
    slope = np.polyfit(t[keep], np.log(v[keep]), 1)[0]
    return float(-slope)


def run_decay(plan: DecayPlan, threads: int = DEFAULT_THREADS) -> DecayReport:
    """Fit the exponential-decay regime and compare with the |a1| rate.

    Without noise the L^{q0} norm of the single deterministic path is
    fitted, and only that one path is run whatever plan.paths says; with
    noise the mean of the tracked mode amplitude over paths decays at
    mode_expected = |a1| + 4 pi^2 |k|^2 (nu_i + nu) if f = a1 v is linear
    (a nonlinear f decays at its own rate).  With the noise off (solver.noise_on
    false) and nu > 0, nu enhances the diffusion of that one path instead,
    and its tracked mode decays at the same rate.
    """
    grid = plan.v0[0].grid
    a1 = plan.sys.mass_consts[1]
    noise = _shell_noise(plan.solver, plan.shell_n, plan.gamma, grid.d, plan.nu)

    if all(np.all(f.values == 0.0) for f in plan.v0):
        return DecayReport(True, None, None, None, None)

    mode = plan.tracked_mode
    index = None if mode is None else tuple(mode)  # signed: the band block is in fftn order

    def sample(t, values, state):
        norm = float(np.mean(np.abs(values[0]) ** plan.q0) ** (1.0 / plan.q0))
        return t, norm, None if index is None else complex(state.fields[0][index])

    # without noise every path is the same deterministic, enhanced path
    sys, paths = (plan.sys, plan.paths) if noise else (plan.sys.enhanced(plan.nu), 1)
    _, series = zip(*_run_paths(plan, sys, noise, 0, paths, threads, lambda: _Series(sample),
                                record=True))
    times = np.array([row[0] for row in series[0]])
    norms, amps = (np.array([[row[i] for row in s] for s in series]) for i in (1, 2))
    mode_rate = mode_expected = None
    if mode is not None:
        mode_rate = _tail_fit(times, np.abs(np.mean(amps, axis=0)), plan.tail_fraction)
        k2 = float(np.dot(mode, mode))
        nu_eff = plan.sys.nu[0] + plan.nu
        mode_expected = abs(a1) + 4.0 * np.pi**2 * k2 * nu_eff
    rate = _tail_fit(times, np.mean(norms, axis=0), plan.tail_fraction)
    return DecayReport(
        degenerate=rate is None,
        fitted_rate=rate,
        expected_rate=abs(a1),
        mode_rate=mode_rate,
        mode_expected=mode_expected,
    )
