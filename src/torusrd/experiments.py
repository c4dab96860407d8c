"""Monte-Carlo harnesses: scaling limit, survival sweeps, decay fits.

Paths are embarrassingly parallel; each one derives its randomness from a
counter-based key (seed, path_index), so aggregate tables are independent
of execution order and worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import hminus_gamma_norm, hminus_weight, lq_norm_vector, survival_estimate
from .fields import ArgumentErrors, GridField, forward, mode_error
from .noise import NoiseModel, build_theta_shell, resolution_error, step_guard_error
from .reactions import ReactionSystem
from .solver import SolverConfig, horizon_steps, negative_species, run

DEFAULT_THREADS = 1


def _run_paths(plan, sys: ReactionSystem, noise: NoiseModel | None, first: int, count: int,
               threads: int, observer=None) -> list[tuple[float | None, object]]:
    """(tau, observer) of paths first, ..., first + count - 1 of sys from
    plan's v0 under plan's solver, in path order at any thread count;
    observer() makes each path's observer (None: no observer).  No
    experiment reads a path's record, so the paths track no balance and
    sample no L^q norm, and a path without an observer reads its grid
    values at its last step only: its tau is the same at any cadence (the
    solver's sup-bound certificate)."""
    solver = replace(plan.solver, balance_q=(), lq_norms=())
    if observer is None:
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
    """An observer that appends sample(t, values, state) at every sample."""

    def __init__(self, sample):
        super().__init__()
        self.sample = sample

    def __call__(self, t: float, values: np.ndarray, state) -> None:
        self.append(self.sample(t, values, state))


def _paths_errors(paths: int) -> dict[str, str]:
    return {"paths": f"must be >= 1, got {paths}"} if paths < 1 else {}


def _exponent_errors(**exponents: float) -> dict[str, str]:
    """The L^p exponents below 1, each mapped to its message."""
    return {k: f"must be >= 1, got {v}" for k, v in exponents.items() if not v >= 1}


def _shell_noise(solver: SolverConfig, shell: int, gamma: float, d: int,
                 nu: float) -> NoiseModel | None:
    """The shell-noise model of a plan's paths: None with the noise off or
    nu = 0, where the paths have no stochastic forcing."""
    if not (solver.noise_on and nu > 0):
        return None
    return NoiseModel(build_theta_shell(shell, gamma, d), nu=nu)


def _shell_guard_error(solver: SolverConfig, shell: int, nu: float, n: int) -> str | None:
    """Why dt breaks the step guard of _shell_noise's model on n points per
    axis, or None; the shell annulus has max|k_j| = 2 shell, so this builds
    no spectrum."""
    if not (solver.noise_on and nu > 0):
        return None
    return step_guard_error(nu, 2 * shell, n, solver.dt)


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
        n = self.v0[0].grid.n_per_dim
        if problem := resolution_error(2 * max(self.shells), n):
            raise ValueError(f"shell {max(self.shells)}: {problem}")
        for s in self.shells:
            if problem := _shell_guard_error(self.solver, s, self.nu, n):
                raise ValueError(f"shell {s}: {problem}")


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


class _StreamingDistance:
    """Accumulates the L^r(0,T;L^q) distance to a reference trajectory."""

    def __init__(self, ref_times, ref_snaps, r: float, q: float,
                 hminus_weight: np.ndarray | None):
        self.ref_times = ref_times
        self.ref_snaps = ref_snaps
        self.r = r
        self.q = q
        self.hminus_weight = hminus_weight  # None: no H^{-gamma} distance
        self.norms: list[float] = []  # one per reference sample reached
        self.hminus_sup = 0.0
        self.max_lq = 0.0

    def __call__(self, t: float, values: np.ndarray, state) -> None:
        j = len(self.norms)
        if j >= len(self.ref_times) or abs(self.ref_times[j] - t) > 1e-12:
            if state.blown_up is not None:
                return  # final off-cadence sample of a blown-up path
            raise ValueError("stochastic path sampled off the reference cadence")
        diff = values - self.ref_snaps[j]
        self.norms.append(lq_norm_vector(diff, self.q))
        self.max_lq = max(self.max_lq, lq_norm_vector(values, self.q))
        if self.hminus_weight is not None:
            dspec = forward(diff, self.hminus_weight.ndim)
            self.hminus_sup = max(self.hminus_sup, hminus_gamma_norm(dspec, self.hminus_weight))

    def distance(self) -> float:
        arr = np.array(self.norms)
        return float(np.trapezoid(arr**self.r, self.ref_times[:len(arr)]) ** (1.0 / self.r))


def run_scaling_limit(plan: ScalingLimitPlan, threads: int = DEFAULT_THREADS) -> ScalingLimitResult:
    """Distance of stochastic shell runs to the deterministic enhanced solution.

    The reference is integrated once with the same grid, dt and dealiasing
    as the stochastic paths, so the measured distance isolates the noise
    effect from discretization bias.
    """
    grid = plan.v0[0].grid
    [(_, ref)] = _run_paths(plan, plan.sys.enhanced(plan.nu), None, 0, 1, 1,
                            lambda: _Series(lambda t, values, state: (t, values.copy())))
    rtimes = np.array([t for t, _ in ref])
    ref_snaps = [values for _, values in ref]
    weight = None if plan.hminus_gamma is None else hminus_weight(grid, plan.hminus_gamma)

    shell_results = []
    for si, n in enumerate(plan.shells):
        # noise off or nu = 0: deterministic paths, which reproduce the
        # reference at nu = 0; at nu > 0 they run nu_i unenhanced against the
        # nu_i + nu reference, so every shell reads the same nonzero gap
        noise = _shell_noise(plan.solver, n, plan.gamma, grid.d, plan.nu)
        taus, dists = zip(*_run_paths(
            plan, plan.sys, noise, si * plan.paths, plan.paths, threads,
            lambda: _StreamingDistance(rtimes, ref_snaps, plan.r, plan.q, weight)))
        shell_results.append(ShellResult(
            shell=n,
            distances=np.array([d.distance() for d in dists]),
            hminus_distances=None if weight is None else np.array([d.hminus_sup for d in dists]),
            max_lq=float(max(d.max_lq for d in dists)),
            taus=list(taus),
        ))
    return ScalingLimitResult(plan=plan, reference_times=rtimes, shells=shell_results)


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
        n = self.v0[0].grid.n_per_dim
        for nu in self.nus:
            if problem := _shell_guard_error(self.solver, self.shell_n, nu, n):
                raise ValueError(f"nu = {nu}: {problem}")


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
        if problem := _shell_guard_error(self.solver, self.shell_n, self.nu, grid.n_per_dim):
            raise ValueError(problem)


@dataclass
class DecayReport:
    degenerate: bool
    fitted_rate: float | None
    expected_rate: float | None
    mode_rate: float | None  # fitted decay of the tracked mean mode amplitude
    mode_expected: float | None


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
    |a1| + 4 pi^2 |k|^2 (nu_i + nu).  With the noise off (solver.noise_on
    false) and nu > 0, nu enhances the diffusion of that one path instead,
    and its tracked mode decays at the same rate.
    """
    grid = plan.v0[0].grid
    a1 = plan.sys.mass_consts[1]
    noise = _shell_noise(plan.solver, plan.shell_n, plan.gamma, grid.d, plan.nu)

    if all(np.all(f.values == 0.0) for f in plan.v0):
        return DecayReport(True, None, None, None, None)

    mode = plan.tracked_mode
    index = None if mode is None else tuple(m % grid.n_per_dim for m in mode)

    def sample(t, values, state):
        norm = float(np.mean(np.abs(values[0]) ** plan.q0) ** (1.0 / plan.q0))
        return t, norm, None if index is None else complex(state.fields[0][index])

    # without noise every path is the same deterministic, enhanced path
    sys, paths = (plan.sys, plan.paths) if noise else (plan.sys.enhanced(plan.nu), 1)
    _, series = zip(*_run_paths(plan, sys, noise, 0, paths, threads, lambda: _Series(sample)))
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
