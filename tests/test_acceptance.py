"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavy Monte-Carlo criteria (4, 5, 6) dominate the runtime.

Criterion 4 (mean-L^2 conservation of pure transport at the stated dt and
path count) is asserted verbatim and is expected to FAIL: the exponential
Euler-Maruyama scheme's weak bias is saturated there (measured bias -0.4837
of the initial 0.5 at dt = 1e-3 against 3 SE = 0.0022, and a refinement
ratio of 1.004 where [1.5, 3] is needed).  Two known mechanisms act:

- stiffness: at the dealias edge |k| = 21 the step's stiffness is
  x = 8 pi^2 nu |k|^2 dt ~ 3.5, so the propagator damps the fresh increment
  at its target modes (a loss of 0.78 to 0.94 per path by T = 0.5);
- an edge leak in the code: the Ito propagator damps every mode by the
  continuum correction nu Delta, while the dealiased transport injects less
  energy near the edge of the band, so energy leaks there at any dt.  The
  diagonal correction of the dealiased system, tried in place of nu Delta,
  leaves the criterion at -0.4837 and 1.004.

The companion checks in this suite and in test_solver.py verify the
implementation independently (ellipticity identity, increment moments,
velocity covariance, Wong-Zakai pathwise conservation and the
enhanced-diffusion decay rate).
"""

import time

import numpy as np
import pytest

from torusrd.experiments import ScalingLimitPlan, run_scaling_limit
from torusrd.exponents import barrier_mu0, barrier_value, cutoff_r0
from torusrd.fields import GridField, TorusGrid
from torusrd.noise import (
    IncrementSet,
    NoiseModel,
    build_theta_shell,
    path_rng,
    sample_increments,
    verify_ellipticity,
)
from torusrd.reactions import MassActionSpec, build_builtin, mass_action_build
from torusrd.solver import (
    CutOffParams,
    SimState,
    SolverConfig,
    Stepper,
    run,
)

from spectral_helpers import mode_field


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_01_ellipticity_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for n in (1, 2, 4, 8):
            for gamma in (0.0, 1.0):
                model = NoiseModel(build_theta_shell(n, gamma, d), nu=0.1)
                worst = max(worst, verify_ellipticity(model))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"ellipticity identity: worst deviation {worst:.2e} "
                   f"(< 1e-12), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_shell_spectra():
    t0 = time.perf_counter()
    sp1 = build_theta_shell(1, 0.0, 2)
    sp2 = build_theta_shell(2, 0.0, 2)
    checks = [
        len(sp1.support) == 12,
        np.allclose(sp1.theta, 12**-0.5, atol=1e-14),
        len(sp2.support) == 40,
        np.allclose(sp2.theta, 40**-0.5, atol=1e-14),
    ]
    norm_devs = []
    linfs = []
    for n in (1, 2, 4, 8):
        sp = build_theta_shell(n, 0.0, 2)
        norm_devs.append(abs(float(np.sum(sp.theta**2)) - 1.0))
        linfs.append(sp.linf())
    checks.append(max(norm_devs) < 1e-14)
    checks.append(all(b < a for a, b in zip(linfs, linfs[1:])))
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    _report(2, ok, f"shell spectra: 12/40 modes, l2 dev {max(norm_devs):.1e} "
                   f"(< 1e-14), linf strictly decreasing {linfs[0]:.3f}.."
                   f"{linfs[-1]:.3f}, runtime {elapsed:.2f}s (< 1s)")


def test_criterion_03_exact_linear_diffusion():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 32)
    nu_i, nu, T = 0.01, 0.1, 0.5
    sys0 = build_builtin("zero", [nu_i])
    cfg = SolverConfig(dt=1e-3, T=T, noise_on=False, balance_q=(),
                       record_every=10**9)
    state, _ = run(sys0.enhanced(nu), None, cfg, [mode_field(grid, (1, 0), 0.5)])
    expected = 0.5 * np.exp(-4 * np.pi**2 * (nu_i + nu) * T)
    rel = abs(state.fields[0][1, 0] - expected) / expected
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-12 and elapsed < 1.0
    _report(3, ok, f"exact single-mode diffusion: relative error {rel:.2e} "
                   f"(< 1e-12), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_04_mean_l2_pure_transport():
    # d=2, shell n=2, nu=0.1, nu_i=0, N=64, dt=1e-3, T=0.5, 64 paths;
    # the dt/2 run reuses the same Brownian paths (coarse increments are the
    # pair sums of the fine ones)
    t0 = time.perf_counter()
    grid = TorusGrid(2, 64)
    noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
    sys0 = build_builtin("zero", [0.0])
    v0 = [mode_field(grid, (1, 0), 0.5)]
    E0, T, paths, seed = 0.5, 0.5, 64, 2024
    dt_f = 5e-4
    n_f = int(round(T / dt_f))
    bias_c, bias_f = [], []
    for p in range(paths):
        fine = [sample_increments(noise, dt_f, path_rng(seed, p, s)) for s in range(n_f)]
        coarse = [
            IncrementSet(2 * dt_f, noise, fine[2 * s].dw_plus + fine[2 * s + 1].dw_plus)
            for s in range(n_f // 2)
        ]
        for dt, incs, sink in ((1e-3, coarse, bias_c), (5e-4, fine, bias_f)):
            cfg = SolverConfig(dt=dt, T=T, noise_on=True, seed=seed,
                               balance_q=(), record_every=10**9)
            st, _ = run(sys0, noise, cfg, v0, path_index=p,
                        increments=lambda s, a=incs: a[s])
            sink.append(float(np.sum(np.abs(st.fields[0]) ** 2)) - E0)
    bias_c, bias_f = np.array(bias_c), np.array(bias_f)
    se = bias_c.std(ddof=1) / np.sqrt(paths)
    within_3se = abs(bias_c.mean()) <= 3 * se
    ratio = bias_c.mean() / bias_f.mean()
    ratio_ok = 1.5 <= ratio <= 3.0
    elapsed = time.perf_counter() - t0
    ok = within_3se and ratio_ok and elapsed < 120.0
    _report(4, ok,
            f"mean-L2 pure transport: bias(dt=1e-3) = {bias_c.mean():+.4f} "
            f"vs 3*SE = {3 * se:.4f} ({'ok' if within_3se else 'exceeded'}); "
            f"bias ratio dt/(dt/2) = {ratio:.3f} (need [1.5, 3]); "
            f"runtime {elapsed:.0f}s (< 120s). "
            "Expected red: the scheme's weak bias is saturated at these "
            "parameters (see module docstring)")


def test_criterion_05_pathwise_l2_strat_substep():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 64)
    noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
    sys0 = build_builtin("zero", [0.0])
    cfg = SolverConfig(dt=1e-3, T=0.5, scheme="strat_substep", noise_on=True,
                       balance_q=(), seed=3, record_every=10**9)
    v0 = [mode_field(grid, (1, 0), 0.5)]
    state, _ = run(sys0, noise, cfg, v0, path_index=0)
    drift = abs(float(np.sum(np.abs(state.fields[0]) ** 2)) - 0.5)
    elapsed = time.perf_counter() - t0
    ok = drift < 1e-6
    _report(5, ok, f"pathwise L2 conservation (Wong-Zakai substep): "
                   f"|drift| = {drift:.2e} (< 1e-6), runtime {elapsed:.0f}s "
                   f"(budget 30s)")


def test_criterion_06_enhanced_diffusion_scaling_limit():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 96)
    sys0 = build_builtin("zero", [0.01])
    cfg = SolverConfig(dt=2.5e-3, T=0.5, noise_on=True, balance_q=(),
                       record_every=5, seed=606)
    v0 = [mode_field(grid, (1, 0), 0.5)]
    plan = ScalingLimitPlan(
        shells=(1, 2, 4, 8), gamma=0.0, nu=0.1, paths=64,
        solver=cfg, sys=sys0, v0=v0, epsilon=0.05, r=2.0, q=2.0,
    )
    result = run_scaling_limit(plan)
    means = [s.mean for s in result.shells]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    halved = means[-1] < 0.5 * means[0]
    elapsed = time.perf_counter() - t0
    ok = decreasing and halved and elapsed < 900.0
    detail = ", ".join(f"D({s.shell})={s.mean:.4f}" for s in result.shells)
    _report(6, ok, f"scaling limit: {detail}; strictly decreasing = "
                   f"{decreasing}, D(8) < 0.5 D(1) = {halved}, "
                   f"runtime {elapsed:.0f}s (< 900s)")


def test_criterion_07_pathwise_weighted_mass():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 32)
    noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
    sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
    cfg = SolverConfig(dt=2.5e-3, T=1.0, noise_on=True, balance_q=(), seed=17)
    x, y = grid.node_coordinates()
    v0 = [
        GridField(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x)),
        GridField(grid, 0.8 + 0.2 * np.sin(2 * np.pi * y)),
    ]
    alpha = np.array([1.0, 2.0])
    worst = 0.0
    for p in range(4):
        _, record = run(sys, noise, cfg, v0, path_index=p)
        M = record.mass @ alpha
        worst = max(worst, float(np.abs(M - M[0]).max() / abs(M[0])))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    _report(7, ok, f"pathwise weighted mass (alpha = (1,2), noise on, T=1): "
                   f"worst relative drift {worst:.2e} (< 1e-8), "
                   f"runtime {elapsed:.0f}s (< 60s)")


def test_criterion_08_mass_decay_rate():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 16)
    sys = build_builtin("decay", [0.02])
    cfg = SolverConfig(dt=1e-3, T=2.0, noise_on=False, balance_q=(),
                       record_every=10)
    _, record = run(sys, None, cfg, [GridField(grid, np.full(grid.shape, 1.5))])
    M = record.mass[:, 0]
    rate = -np.polyfit(record.times, np.log(M), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = abs(rate - 1.0) <= 0.02 and elapsed < 10.0
    _report(8, ok, f"mass decay rate (a0=0, a1=-1): fitted {rate:.4f} "
                   f"(1.00 +- 0.02), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_09_cutoff_semantics():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 32)
    noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
    sys = build_builtin("logistic", [0.05])
    x = grid.node_coordinates()[0]
    v0 = [GridField(grid, 0.6 + 0.2 * np.cos(2 * np.pi * x))]

    def cfg_with(cutoff):
        return SolverConfig(dt=2e-3, T=0.1, noise_on=True, seed=21,
                            cutoff=cutoff, balance_q=())

    # huge R: bitwise identical to the cut-off-free run
    s_on, _ = run(sys, noise, cfg_with(CutOffParams(R=1e6, r=2.0, q=2.0)), v0)
    s_off, _ = run(sys, noise, cfg_with(None), v0)
    huge_ok = np.array_equal(s_on.fields, s_off.fields)

    # tiny R: frozen within ten steps, then bitwise linear
    cfg = cfg_with(CutOffParams(R=1e-3, r=2.0, q=2.0))
    _, record = run(sys, noise, cfg, v0)
    frozen = np.nonzero(record.phi == 0.0)[0]
    freeze_ok = len(frozen) > 0 and frozen[0] <= 10

    import dataclasses

    state, _ = run(sys, noise, dataclasses.replace(cfg, T=0.02), v0)
    stepper_nl = Stepper(grid, sys, noise, cfg)
    stepper_lin = Stepper(grid, build_builtin("zero", [0.05]), noise,
                          dataclasses.replace(cfg, cutoff=None))
    lin_state = SimState(t=state.t, fields=state.fields.copy(),
                         step_index=state.step_index)
    linear_ok = state.phi_value == 0.0
    for _ in range(40):
        inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, state.step_index))
        state = stepper_nl.step(state, inc)
        inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, lin_state.step_index))
        lin_state = stepper_lin.step(lin_state, inc)
        linear_ok = linear_ok and np.array_equal(state.fields, lin_state.fields)
    elapsed = time.perf_counter() - t0
    ok = huge_ok and freeze_ok and linear_ok and elapsed < 10.0
    _report(9, ok, f"cut-off semantics: R=1e6 bitwise = {huge_ok}, "
                   f"freeze within 10 steps = {freeze_ok} (step "
                   f"{frozen[0] if len(frozen) else 'never'}), frozen tail "
                   f"bitwise-linear = {linear_ok}, runtime {elapsed:.1f}s (< 10s)")


def test_criterion_10_exponent_suite():
    t0 = time.perf_counter()
    # sublinearity iff subcritical, on a 10x10x10 grid of raw formulas
    sweep_ok = True
    for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
        for h in np.linspace(1.2, 6.0, 10):
            for q in np.linspace(2.1, 40.0, 10):
                phi = max(0.0, (d * h - d - q) / (h * q))
                psi = (d / q) * (h - 1) / (h + 1)
                sub = phi * h < 1 and psi * (h + 1) / 2 < 1
                sweep_ok &= sub == (q > d * (h - 1) / 2)
    r0 = cutoff_r0(4, 3, 5, 8)
    r0_ok = abs(r0 - 48.0) < 1e-9
    res = barrier_mu0(R=1.0, e_bar=0.25, gamma=0.5, N=1.0, q=4.0)
    _, M = barrier_value(res.mu0, 1.0, 0.25, 0.5)
    barrier_ok = abs(M - 3.0) < 1e-10 and abs(res.mu0 - 6.0515) < 1e-3
    k0_ok = abs(res.K0 - 10.0) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = sweep_ok and r0_ok and barrier_ok and k0_ok and elapsed < 1.0
    _report(10, ok, f"exponent suite: sweep iff = {sweep_ok}, r0 = {r0:.6g} "
                    f"(48), mu0 = {res.mu0:.4f} with M - (2+N^q) = "
                    f"{M - 3.0:.1e} (< 1e-10), K0 = {res.K0:g} (10), "
                    f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_11_blowup_detector():
    t0 = time.perf_counter()
    grid = TorusGrid(2, 8)
    sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
    cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, balance_q=(),
                       blowup_threshold=1e3, blowup_norm_q0=4.0)
    state, _ = run(sys, None, cfg, [GridField(grid, np.full(grid.shape, 2.0))])
    tau = state.blown_up
    elapsed = time.perf_counter() - t0
    ok = tau is not None and abs(tau - 0.5) <= 0.1 and elapsed < 10.0
    _report(11, ok, f"blow-up detector (f = v^2, v0 = 2): tau = "
                    f"{tau if tau is not None else 'none'} vs 0.5 "
                    f"(within 20%), runtime {elapsed:.1f}s (< 10s)")
