"""Stepping schemes: exact diffusion, cut-off semantics, conservation, blow-up."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import torusrd.solver as solver_module
from torusrd.diagnostics import RecordBuilder, lq_norm_vector
from torusrd.experiments import ScalingLimitPlan, run_scaling_limit
from torusrd.fields import ArgumentErrors, GridField, TorusGrid, forward
from torusrd.noise import (
    IncrementSet,
    NoiseModel,
    build_theta_shell,
    path_rng,
    sample_increments,
)
from torusrd.reactions import MassActionSpec, ReactionSystem, build_builtin, mass_action_build
from torusrd.solver import (
    CutOffParams,
    EXPM_TAIL_TOL,
    SCHEMES,
    SimState,
    SolverConfig,
    Stepper,
    chebyshev_expm,
    initial_state,
    phi_bump,
    run,
    sup_bound,
)

from spectral_helpers import dealias_mask, mode_coeffs, mode_field


def grid_32():
    return TorusGrid(2, 32)


def constant_fields(grid, values):
    return [GridField(grid, np.full(grid.shape, v)) for v in values]


class TestPhiBump:
    def test_plateau(self):
        assert phi_bump(0.5) == 1.0
        assert phi_bump(1.0) == 1.0

    def test_tail(self):
        assert phi_bump(3.0) == 0.0
        assert phi_bump(2.0) == 0.0

    def test_midpoint(self):
        assert phi_bump(1.5) == pytest.approx(0.5)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 2.5, 400)
        ys = [phi_bump(x) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(ys, ys[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phi_bump(-0.1)


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, T=1.0)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=1.0, scheme="heun")

    def test_bad_q0(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=1.0, blowup_norm_q0=2.0)

    def test_horizon_not_multiple_of_dt_rejected(self):
        with pytest.raises(ValueError, match="multiple of dt"):
            SolverConfig(dt=0.3, T=0.5)

    def test_horizon_rounding_tolerated(self):
        assert 0.3 / 0.1 != 3  # 2.9999999999999996
        SolverConfig(dt=0.1, T=0.3)

    def test_dealias_option_removed(self):
        # the 2/3 mask is always on: both schemes' skewness needs it
        with pytest.raises(TypeError, match="dealias"):
            SolverConfig(dt=1e-3, T=0.1, scheme="strat_substep", dealias=False)

    @pytest.mark.parametrize("kwargs", [
        {"lq_norms": (0.0,)}, {"lq_norms": (2.0, -2.0)}, {"balance_q": (1.0,)},
    ])
    def test_out_of_range_norm_exponents_rejected(self, kwargs):
        with pytest.raises(ValueError, match="exponents"):
            SolverConfig(dt=0.1, T=1.0, **kwargs)

    # dt = inf once ran 0 steps, dt = nan skipped the T rule, and T = inf
    # raised a bare OverflowError from horizon_steps
    @pytest.mark.parametrize("kwargs, problems", [
        ({"dt": math.inf}, {"dt": "must be finite, got inf"}),
        ({"dt": math.nan}, {"dt": "must be finite, got nan"}),
        ({"T": math.inf}, {"T": "must be finite, got inf"}),
        ({"T": math.nan}, {"T": "must be finite, got nan"}),
        ({"dt": -math.inf}, {"dt": "must be > 0, got -inf"}),
    ])
    def test_non_finite_step_and_horizon_rejected(self, kwargs, problems):
        with pytest.raises(ArgumentErrors) as info:
            SolverConfig(**{"dt": 0.1, "T": 0.5, **kwargs})
        assert info.value.problems == problems

    def test_cutoff_params(self):
        with pytest.raises(ValueError):
            CutOffParams(R=1.0, r=1.0, q=2.0)

    def test_every_bad_argument_reported_at_once(self):
        with pytest.raises(ArgumentErrors) as info:
            SolverConfig(dt=0, T=0.5, record_every=0, lq_norms=(0.5,))
        assert info.value.problems == {
            "dt": "must be > 0, got 0",
            "record_every": "must be >= 1",
            "lq_norms": "exponents must be >= 1, got [0.5]",
        }
        with pytest.raises(ArgumentErrors) as info:
            CutOffParams(0, 1, 0)
        assert list(info.value.problems) == ["R", "r", "q"]

    def test_negative_enhancement_rejected(self):
        with pytest.raises(ValueError, match="enhancement nu must be >= 0, got -0.1"):
            build_builtin("zero", [0.02]).enhanced(-0.1)

    def test_cfl_guard(self):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.1])
        cfg = SolverConfig(dt=0.5, T=1.0, noise_on=True)
        with pytest.raises(ValueError, match="step guard"):
            Stepper(grid, sys0, noise, cfg)


class TestRealInverseTransforms:
    """Stepper's batched irfftn paths against one complex ifftn per field."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_to_values_and_gradients_match_complex_formulas(self, d, n, ell):
        grid = TorusGrid(d, n)
        N = grid.n_points
        cfg = SolverConfig(dt=0.1, T=0.1, noise_on=False)
        stepper = Stepper(grid, build_builtin("zero", [0.1] * ell, d=d), None, cfg)
        values = np.random.default_rng(ell).standard_normal((ell,) + grid.shape)
        fields = np.fft.fftn(values, axes=tuple(range(1, d + 1))) / N

        def inverse(c):
            return np.fft.ifftn(c).real * N

        got = stepper.to_values(fields)
        expected = np.stack([inverse(c) for c in fields])
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        for c in fields:
            z, g2 = stepper.gradients(c)
            assert (g2 is None) == (d == 2)
            grads = np.stack([z.real, z.imag] + ([g2] if d == 3 else []))
            expected = np.stack([inverse(m * c) for m in grid.derivative_multipliers])
            assert grads.shape == expected.shape
            assert np.abs(grads - expected).max() <= 1e-13 * np.abs(expected).max()


class TestLinearDiffusion:
    def test_single_mode_exact_decay(self):
        grid = grid_32()
        sys0 = build_builtin("zero", [0.02])
        cfg = SolverConfig(dt=1e-3, T=0.25, noise_on=False, balance_q=())
        v0 = [mode_field(grid, (2, 1), 0.3)]
        state, _ = run(sys0.enhanced(0.05), None, cfg, v0)
        expected = 0.3 * np.exp(-4 * np.pi**2 * 5 * (0.02 + 0.05) * 0.25)
        got = state.fields[0][2, 1]
        assert abs(got - expected) < 1e-12 * abs(expected)


class TestReactionStepping:
    def test_equilibrium_constant_state(self):
        grid = grid_32()
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.1])
        cfg = SolverConfig(dt=1e-2, T=0.5, noise_on=False, balance_q=())
        v0 = constant_fields(grid, [1.0, 1.0])
        state, _ = run(sys, None, cfg, v0)
        for i, target in enumerate([1.0, 1.0]):
            vals = np.fft.ifftn(state.fields[i]).real * grid.n_points
            assert np.abs(vals - target).max() < 1e-12

    def test_logistic_converges_to_one(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=1e-2, T=20.0, noise_on=False, balance_q=(),
                           record_every=10**9)
        state, _ = run(sys, None, cfg, constant_fields(grid, [0.5]))
        vals = np.fft.ifftn(state.fields[0]).real * grid.n_points
        assert np.abs(vals - 1.0).max() < 1e-6


class TestRunContract:
    def test_t_zero_returns_v0_unchanged(self):
        grid = grid_32()
        rng = np.random.default_rng(0)
        v0 = [GridField(grid, rng.standard_normal(grid.shape))]
        cfg = SolverConfig(dt=0.1, T=0.0, noise_on=False, balance_q=())
        state, record = run(build_builtin("zero", [0.1]), None, cfg, v0)
        back = np.fft.ifftn(state.fields[0]).real * grid.n_points
        assert np.abs(back - v0[0].values).max() < 1e-13
        assert state.t == 0.0 and len(record.times) == 1

    def test_bitwise_determinism(self):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys = build_builtin("logistic", [0.05])
        cfg = SolverConfig(dt=2e-3, T=0.1, noise_on=True, seed=42)
        v0 = [GridField(grid, 0.5 + 0.1 * np.cos(2 * np.pi * grid.node_coordinates()[0]))]
        s1, r1 = run(sys, noise, cfg, v0)
        s2, r2 = run(sys, noise, cfg, v0)
        assert np.array_equal(s1.fields, s2.fields)
        assert np.array_equal(r1.lq[2.0], r2.lq[2.0])
        assert np.array_equal(r1.grad_energy[2.0], r2.grad_energy[2.0])

    def test_time_is_step_index_times_dt(self):
        # accumulating t += 0.1 ten times ends at 0.9999999999999999
        grid = TorusGrid(2, 8)
        cfg = SolverConfig(dt=0.1, T=1.0, noise_on=False, balance_q=())
        state, record = run(build_builtin("zero", [0.1]), None, cfg,
                            constant_fields(grid, [1.0]))
        assert state.step_index == 10
        assert state.t == 1.0 and record.times[-1] == 1.0

    def test_require_nonneg(self):
        grid = grid_32()
        cfg = SolverConfig(dt=0.1, T=0.1, noise_on=False, require_nonneg=True)
        v0 = [GridField(grid, -np.ones(grid.shape))]
        with pytest.raises(ValueError, match="nonneg"):
            run(build_builtin("zero", [0.1]), None, cfg, v0)

    @pytest.mark.parametrize("v0, error", [
        ([GridField(TorusGrid(2, 8), np.full((8, 8), np.inf))], "non-finite"),
        ([GridField(TorusGrid(2, 8), np.ones((8, 8))),
          GridField(TorusGrid(2, 16), np.ones((16, 16)))], "share one grid"),
    ])
    def test_initial_state_checks_the_data_for_run(self, v0, error):
        cfg = SolverConfig(dt=0.1, T=0.1, noise_on=False)
        with pytest.raises(ValueError, match=error):
            initial_state(TorusGrid(2, 8), v0, cfg)
        with pytest.raises(ValueError, match=error):
            run(build_builtin("zero", [0.1] * len(v0)), None, cfg, v0)


class TestMeanModeDecayWithNoise:
    def test_enhanced_rate_within_mc_error(self):
        # mean amplitude of mode (1,0) decays at the nu-enhanced rate
        grid = TorusGrid(2, 48)
        noise = NoiseModel(build_theta_shell(8, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.01])
        T = 0.2
        cfg = SolverConfig(dt=2e-3, T=T, noise_on=True, balance_q=(),
                           record_every=10**9, seed=7)
        v0 = [mode_field(grid, (1, 0), 0.5)]
        amps = []
        for p in range(24):
            st, _ = run(sys0, noise, cfg, v0, path_index=p)
            amps.append(st.fields[0][1, 0])
        amps = np.array(amps)
        expected = 0.5 * np.exp(-4 * np.pi**2 * (0.01 + 0.1) * T)
        se = amps.std(ddof=1) / np.sqrt(len(amps))
        assert abs(amps.mean() - expected) <= 3 * abs(se)


class TestMassInvariance:
    def test_mode0_untouched_by_noise_and_diffusion(self):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.05])
        cfg = SolverConfig(dt=2e-3, T=0.1, noise_on=True, balance_q=(), seed=3)
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.5 + 0.5 * np.cos(2 * np.pi * x))]
        state, record = run(sys0, noise, cfg, v0)
        assert np.abs(record.mass[:, 0] - 1.5).max() < 1e-13

    def test_pathwise_weighted_mass_conserved(self):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=True, balance_q=(), seed=11)
        x, y = grid.node_coordinates()
        v0 = [
            GridField(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x)),
            GridField(grid, 1.0 + 0.3 * np.sin(2 * np.pi * y)),
        ]
        _, record = run(sys, noise, cfg, v0)
        M = record.mass @ np.array([1.0, 2.0])
        assert np.abs(M - M[0]).max() < 1e-10 * abs(M[0])

    def test_conservative_flux_leaves_mass_alone(self):
        grid = grid_32()
        sys = build_builtin("linear_flux", [0.05], d=2)
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=False, balance_q=())
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.0 + 0.4 * np.cos(2 * np.pi * x))]
        _, record = run(sys, None, cfg, v0)
        assert np.abs(record.mass[:, 0] - 1.0).max() < 1e-13

    def test_mass_decays_through_f(self):
        grid = grid_32()
        sys = build_builtin("decay", [0.1])
        cfg = SolverConfig(dt=1e-3, T=1.0, noise_on=False, balance_q=())
        _, record = run(sys, None, cfg, constant_fields(grid, [2.0]))
        expected = 2.0 * np.exp(-record.times)
        # explicit Euler on dM/dt = -M: rate error O(dt)
        assert np.abs(record.mass[:, 0] - expected).max() < 2e-3


class TestCutOffSemantics:
    def _setup(self, R, T=0.1):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys = build_builtin("logistic", [0.05])
        cutoff = CutOffParams(R=R, r=2.0, q=2.0) if R is not None else None
        cfg = SolverConfig(dt=2e-3, T=T, noise_on=True, seed=21, cutoff=cutoff,
                           balance_q=())
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 0.6 + 0.2 * np.cos(2 * np.pi * x))]
        return grid, noise, sys, cfg, v0

    def test_huge_R_bitwise_equals_disabled(self):
        grid, noise, sys, cfg_on, v0 = self._setup(R=1e6)
        _, _, _, cfg_off, _ = self._setup(R=None)
        s_on, _ = run(sys, noise, cfg_on, v0)
        s_off, _ = run(sys, noise, cfg_off, v0)
        assert np.array_equal(s_on.fields, s_off.fields)

    def test_tiny_R_freezes_within_ten_steps(self):
        grid, noise, sys, cfg, v0 = self._setup(R=1e-3)
        _, record = run(sys, noise, cfg, v0)
        frozen = np.nonzero(record.phi == 0.0)[0]
        assert len(frozen) > 0 and frozen[0] <= 10
        assert np.all(record.phi[frozen[0]:] == 0.0)  # phi never recovers

    def test_frozen_evolution_matches_linear_solver_bitwise(self):
        grid, noise, sys, cfg, v0 = self._setup(R=1e-3)
        stepper_nl = Stepper(grid, sys, noise, cfg)
        cfg_lin = dataclasses.replace(cfg, cutoff=None)
        sys_lin = build_builtin("zero", [0.05])
        stepper_lin = Stepper(grid, sys_lin, noise, cfg_lin)

        state, _ = run(sys, noise, dataclasses.replace(cfg, T=0.02), v0)
        assert state.phi_value == 0.0  # frozen by now
        lin_state = SimState(
            t=state.t, fields=state.fields.copy(), cutoff_acc=0.0,
            step_index=state.step_index,
        )
        for _ in range(20):
            inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, state.step_index))
            state = stepper_nl.step(state, inc)
            inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, lin_state.step_index))
            lin_state = stepper_lin.step(lin_state, inc)
            assert np.array_equal(state.fields, lin_state.fields)

    def test_accumulator_reuses_the_post_step_norm(self, monkeypatch):
        # two L^q norms per step (cut-off, blow-up) after the first: the
        # pre-step cut-off integrand is carried over from the previous step
        grid, noise, sys, cfg, v0 = self._setup(R=1.0)
        calls = []

        def counted(stack, q):
            calls.append(q)
            return lq_norm_vector(stack, q)

        monkeypatch.setattr(solver_module, "lq_norm_vector", counted)
        snapshots = []
        _, record = run(sys, noise, cfg, v0,
                        observer=lambda t, values, st: snapshots.append(values.copy()))
        n_steps = len(record.times) - 1
        assert len(calls) == 2 * n_steps + 1
        power = [lq_norm_vector(v, 2.0) ** 2.0 for v in snapshots]
        acc = [0.0]
        for pre, post in zip(power, power[1:]):
            acc.append(acc[-1] + 0.5 * cfg.dt * (pre + post))
        assert np.array_equal(record.cutoff_acc, acc)

    def test_accumulator_nondecreasing(self):
        grid, noise, sys, cfg, v0 = self._setup(R=1.0)
        _, record = run(sys, noise, cfg, v0)
        assert np.all(np.diff(record.cutoff_acc) >= 0)


DRIFT_KINDS = [("euler_maruyama_ito", True), ("euler_maruyama_ito", False),
               ("strat_substep", True)]
POISONS = ["nan_rate", "overflowing_rate", "nan_flux"]
POISON_DT = 5e-3


def _poisoned_run(scheme, noisy, poison, bad_step, record_every):
    """A 16^2 run to 10 dt whose rate or flux turns NaN or inf from step
    bad_step on."""
    grid = TorusGrid(2, 16)
    dt = POISON_DT

    def rates(t, Y):
        out = -0.5 * Y
        if round(t / dt) >= bad_step:
            if poison == "nan_rate":
                out[0, 1, 2] = np.nan
            elif poison == "overflowing_rate":
                with np.errstate(over="ignore"):
                    out[0] = np.exp(1000.0 * Y[0])
        return out

    def flux(t, Y):
        out = np.zeros((Y.shape[0], grid.d) + Y.shape[1:])
        out[:, 0] = Y
        if round(t / dt) >= bad_step:
            out[0, 0, 1, 2] = np.nan
        return out

    sys = ReactionSystem(ell=1, nu=np.array([0.05]), h=2.0, f=rates,
                         F=flux if poison == "nan_flux" else None)
    noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.05) if noisy else None
    cfg = SolverConfig(dt=dt, T=10 * dt, scheme=scheme, noise_on=noisy, seed=1,
                       blowup_threshold=1e300, record_every=record_every)
    x = grid.node_coordinates()[0]
    return run(sys, noise, cfg, [GridField(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x))])


class TestBlowUpDetection:
    def test_quadratic_ode_blowup_time(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, balance_q=(),
                           blowup_threshold=1e3, blowup_norm_q0=4.0)
        state, _ = run(sys, None, cfg, constant_fields(grid, [2.0]))
        assert state.blown_up is not None
        assert abs(state.blown_up - 0.5) < 0.1  # within 20% of 1/v0

    def test_non_finite_becomes_blowup_flag(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        # threshold too high to trip first: overflow produces inf -> flagged
        cfg = SolverConfig(dt=5e-2, T=10.0, noise_on=False, balance_q=(),
                           blowup_threshold=1e300, blowup_norm_q0=4.0)
        state, _ = run(sys, None, cfg, constant_fields(grid, [5.0]))
        assert state.blown_up is not None

    @pytest.mark.parametrize("value", [np.nan, 1e200])
    def test_non_finite_or_overflowing_post_state_flagged(self, value):
        # a linear step has a finite drift, so the L^{q0} norm alone must
        # flag a NaN state, or one whose squares overflow (1e200 is far
        # below the threshold)
        grid = TorusGrid(2, 8)
        cfg = SolverConfig(dt=1e-3, T=1.0, noise_on=False, balance_q=(),
                           blowup_threshold=1e300, blowup_norm_q0=4.0)
        stepper = Stepper(grid, build_builtin("zero", [0.1]), None, cfg)
        fields = np.zeros((1,) + grid.shape, dtype=complex)
        fields[0, 0, 0] = value
        state = stepper.step(SimState(t=0.0, fields=fields), None)
        assert state.blown_up == cfg.dt

    @pytest.mark.parametrize("scheme, noisy", DRIFT_KINDS)
    @pytest.mark.parametrize("poison", POISONS)
    def test_non_finite_drift_flags_blowup_at_its_step(self, scheme, noisy, poison):
        # a NaN or inf rate or flux spreads through the step's transforms,
        # so the L^{q0} norm flags the step that reads it: tau is that
        # step's end time
        state, _ = _poisoned_run(scheme, noisy, poison, bad_step=3, record_every=1)
        assert state.blown_up == 4 * POISON_DT

    @pytest.mark.parametrize("scheme, noisy", DRIFT_KINDS)
    @pytest.mark.parametrize("poison", POISONS)
    def test_non_finite_drift_flags_blowup_between_records(self, scheme, noisy, poison):
        # record_every = 4: the poisoned step 5 reads no values, and its
        # non-finite spectrum fails the sup_bound check, so tau is still
        # its end time
        state, record = _poisoned_run(scheme, noisy, poison, bad_step=5, record_every=4)
        assert state.blown_up == 6 * POISON_DT
        assert np.array_equal(record.times, [0.0, 4 * POISON_DT, state.blown_up])

    def test_stepping_after_blowup_rejected(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, balance_q=(),
                           blowup_threshold=10.0, blowup_norm_q0=4.0)
        state, _ = run(sys, None, cfg, constant_fields(grid, [2.0]))
        stepper = Stepper(grid, sys, None, dataclasses.replace(cfg, noise_on=False))
        with pytest.raises(ValueError, match="blew up"):
            stepper.step(state, None)


class TestStratSubstep:
    def test_pathwise_l2_conservation_short(self):
        grid = TorusGrid(2, 64)
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.0])
        cfg = SolverConfig(dt=1e-3, T=0.05, scheme="strat_substep", noise_on=True,
                           balance_q=(), seed=5, record_every=10**9)
        v0 = [mode_field(grid, (1, 0), 0.5)]
        state, _ = run(sys0, noise, cfg, v0)
        energy = np.sum(np.abs(state.fields[0]) ** 2)  # Parseval
        assert abs(energy - 0.5) < 1e-7


def _unpack(vel):
    """Real velocity components (d, n, ..., n) of a packed (w, u_2)."""
    w, u2 = vel
    return np.stack([w.real, -w.imag] + ([] if u2 is None else [u2]))


def _pack(u):
    """(w, u_2) = (u_0 - i u_1, u_2) of real velocity components."""
    w = np.empty(u.shape[1:], dtype=complex)
    w.real = u[0]
    np.negative(u[1], out=w.imag)
    return w, (u[2] if len(u) == 3 else None)


def _strat_stepper(d, n, max_u=0.3):
    """Stepper and a frozen displacement field u with max|u_j| = max_u."""
    grid = TorusGrid(d, n)
    noise = NoiseModel(build_theta_shell(1, 0.0, d), nu=0.1)
    cfg = SolverConfig(dt=1e-4, T=1e-4, scheme="strat_substep", noise_on=True,
                       balance_q=())
    stepper = Stepper(grid, build_builtin("zero", [0.0], d=d), noise, cfg)
    inc = sample_increments(noise, 1.0, path_rng(1, 0, 0))
    u = _unpack(stepper.noise_ops.velocity_field(inc))
    return stepper, u * (max_u / np.abs(u).max())


def _bessel_degree(rho):
    """Degree at which chebyshev_expm truncates, from its Bessel-tail rule."""
    from scipy.special import jv

    c = np.abs(jv(np.arange(2 * int(np.ceil(rho)) + 64), rho))
    return next(k for k in range(len(c)) if 2.0 * c[k + 1:].sum() < EXPM_TAIL_TOL)


class TestChebyshevExpm:
    @pytest.mark.parametrize("d, n", [(2, 12), (3, 8)])
    def test_matches_dense_expm(self, d, n):
        # reference: scipy's expm of the dense grid-space matrix of the
        # advection operator, built column by column from unit vectors
        stepper, u = _strat_stepper(d, n)
        vel = _pack(u)
        grid = stepper.grid
        N = grid.n_points

        def advect_values(vals):
            coeffs = np.fft.fftn(vals) / N
            return np.fft.ifftn(stepper._advection_rhs(coeffs, vel)).real * N

        dense = np.empty((N, N))
        for j in range(N):
            e = np.zeros(N)
            e[j] = 1.0
            dense[:, j] = advect_values(e.reshape(grid.shape)).ravel()
        # a random real field: its modes fill the grid, beyond the mask
        v = np.random.default_rng(d).standard_normal(grid.shape)
        expected = (scipy.linalg.expm(dense) @ v.ravel()).reshape(grid.shape)

        rho = np.sqrt(np.max(np.sum(u * u, axis=0))) * stepper.k_max
        assert rho > 5.0  # a nontrivial degree
        got = chebyshev_expm(lambda w: (2.0 / rho) * stepper._advection_rhs(w, vel),
                             np.fft.fftn(v) / N, rho)
        got_values = np.fft.ifftn(got) * N
        assert np.abs(got_values - expected).max() < 1e-12
        assert np.abs(got_values.imag).max() < 1e-12

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 8)])
    def test_advection_skew_on_dealiased_ball(self, d, n):
        stepper, u = _strat_stepper(d, n)
        vel = _pack(u)
        grid = stepper.grid
        rng = np.random.default_rng(5)
        mask = dealias_mask(grid)
        v, w = (np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n_points * mask
                for _ in range(2))
        Av, Aw = stepper._advection_rhs(v, vel), stepper._advection_rhs(w, vel)
        scale = np.linalg.norm(Av) * np.linalg.norm(w)
        assert abs(np.vdot(w, Av) + np.vdot(Aw, v)) < 1e-13 * scale

    @pytest.mark.parametrize("rho", [0.5, 4.0, 8.3, 30.0, 100.0])
    def test_apply_count_on_dense_skew_matrix(self, rho):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((40, 40))
        S = B - B.T
        S *= rho / np.linalg.norm(S, 2)
        calls = []

        def apply(w):
            calls.append(1)
            return (2.0 / rho) * (S @ w)

        v = rng.standard_normal(40)
        got = chebyshev_expm(apply, v, rho)
        assert np.abs(got - scipy.linalg.expm(S) @ v).max() < 1e-12 * np.linalg.norm(v)
        assert len(calls) == _bessel_degree(rho)
        # J_k(rho) turns over in a band of width ~rho^(1/3) around k = rho,
        # so the degree exceeds rho by O(rho^(1/3) log(1/tol)): within 20
        # up to rho = 4, 23 at the 64^2 criterion-5 rho of about 8.3
        assert len(calls) <= np.ceil(rho) + 20 * max(1.0, np.cbrt(rho / 4.0))

    def test_zero_rho_is_identity(self):
        v = np.arange(5.0)
        assert np.array_equal(chebyshev_expm(lambda w: 0.0 * w, v, 0.0), v)


def _product_stepper(d, n, shell, ell=1):
    grid = TorusGrid(d, n)
    noise = NoiseModel(build_theta_shell(shell, 0.0, d), nu=0.1)
    cfg = SolverConfig(dt=1e-4, T=1e-4, scheme="strat_substep", balance_q=())
    return Stepper(grid, build_builtin("zero", [0.0] * ell, d=d), noise, cfg)


def _full_grid_series(stepper, fields, inc):
    """The Wong-Zakai substep as one Chebyshev series of the n-grid
    right-hand side, with the packed velocity scaled by 2/rho."""
    u = _unpack(stepper.noise_ops.velocity_field(inc))
    rho = np.sqrt(np.max(np.sum(u * u, axis=0))) * stepper.k_max
    u *= 2.0 / rho
    vel = _pack(u)
    return np.stack([chebyshev_expm(lambda w: stepper._advection_rhs(w, vel), f, rho)
                     for f in fields])


class TestProductGrid:
    @pytest.mark.parametrize("d, n, shell, size", [
        (2, 64, 2, 48), (2, 96, 8, 84), (3, 32, 2, 28), (3, 24, 1, 20), (2, 48, 8, 48),
    ])
    def test_size_rule(self, d, n, shell, size):
        # smallest even fast length above 2 (n // 3) + 2 shell, capped at n
        assert _product_stepper(d, n, shell).product_n == size

    def test_ito_stays_on_the_grid(self):
        grid = TorusGrid(2, 64)
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        cfg = SolverConfig(dt=1e-4, T=1e-4, balance_q=())
        assert Stepper(grid, build_builtin("zero", [0.0]), noise, cfg).product_n == 64

    @pytest.mark.parametrize("d, n, shell, ell", [(2, 64, 2, 2), (3, 24, 1, 1)])
    def test_advect_matches_full_grid_series(self, d, n, shell, ell):
        stepper = _product_stepper(d, n, shell, ell)
        assert stepper.product_n < n
        grid = stepper.grid
        # random real data: its modes fill the grid, beyond the mask
        rng = np.random.default_rng(d)
        fields = np.fft.fftn(rng.standard_normal((ell,) + grid.shape),
                             axes=tuple(range(1, d + 1))) / grid.n_points
        inc = sample_increments(stepper.noise, 1e-3, path_rng(4, 0, 0))
        expected = _full_grid_series(stepper, fields, inc)
        got = fields.copy()
        stepper._advect(got, inc)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        # the data is not small outside the band, so the split is exercised
        assert np.abs(fields[:, ~dealias_mask(grid)]).max() > 1e-3 * np.abs(fields).max()

    def test_rho_bounds_the_product_grid_operator(self, monkeypatch):
        # rho comes from the n-grid velocity, and the series multiplies by the
        # product grid's, whose max|u| is larger at some steps.  The products
        # are exact in the band on both grids, so rho still bounds ||A||.
        stepper = _product_stepper(2, 16, 1)
        assert stepper.product_n == 14
        rhos = []
        monkeypatch.setattr(solver_module, "chebyshev_expm",
                            lambda apply, v, rho: rhos.append(rho) or v)
        lay, band = stepper.product_layout, stepper._product_band
        width = 2 * stepper.band + 1
        product_max_larger = False
        for step in range(20):
            inc = sample_increments(stepper.noise, 1e-3, path_rng(3, 0, step))
            stepper._advect(np.zeros((1, 16, 16), dtype=complex), inc)
            vel = stepper.product_noise_ops.velocity_field(inc)
            columns = []
            for unit in np.eye(width**2):
                y = np.zeros(lay.shape, dtype=complex)
                y[band] = unit.reshape(width, width)
                columns.append(stepper._advection_rhs(y, vel, lay)[band].ravel())
            assert rhos[-1] >= np.linalg.norm(np.array(columns).T, 2)
            u = _unpack(vel)
            product_max_larger |= np.sqrt(np.max(np.sum(u * u, axis=0))) * stepper.k_max > rhos[-1]
        assert product_max_larger

    def test_full_grid_when_product_grid_is_not_smaller(self):
        stepper = _product_stepper(2, 48, 8)
        assert stepper.product_n == 48
        assert not hasattr(stepper, "product_layout")
        rng = np.random.default_rng(9)
        fields = np.fft.fftn(rng.standard_normal((1, 48, 48)), axes=(1, 2)) / 48**2
        inc = sample_increments(stepper.noise, 1e-3, path_rng(4, 0, 0))
        expected = _full_grid_series(stepper, fields, inc)
        stepper._advect(fields, inc)
        assert np.array_equal(fields, expected)


class TestBatchedTransport:
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_matches_per_species_rhs(self, d, n):
        # one _advection_rhs on the species stack, bitwise the per-species ones
        grid = TorusGrid(d, n)
        noise = NoiseModel(build_theta_shell(2, 0.0, d), nu=0.1)
        cfg = SolverConfig(dt=1e-4, T=1e-4, balance_q=())
        stepper = Stepper(grid, build_builtin("zero", [0.0, 0.0], d=d), noise, cfg)
        values = np.random.default_rng(d).standard_normal((2,) + grid.shape)
        fields = np.fft.fftn(values, axes=tuple(range(1, d + 1))) / grid.n_points
        inc = sample_increments(noise, 1e-3, path_rng(2, 0, 0))
        vel = stepper.noise_ops.velocity_field(inc)
        expected = np.stack([stepper._advection_rhs(f, vel) for f in fields])
        got = stepper.transport(fields, inc)
        assert got.tobytes() == expected.tobytes()
        assert np.abs(got).max() > 0 and np.all(got[(Ellipsis,) + (0,) * d] == 0)

    @staticmethod
    def _unfused_step(d, n, sys):
        """A stepper's Ito step from random data at phi = 1/2, and
        E (v + dt phi f_hat + transport) with f transformed on its own."""
        grid = TorusGrid(d, n)
        noise = NoiseModel(build_theta_shell(2, 0.0, d), nu=0.1)
        # A = 2.25 puts the cut-off argument A^(1/r)/R at 1.5, where phi = 1/2
        cfg = SolverConfig(dt=1e-3, T=1e-3, balance_q=(),
                           cutoff=CutOffParams(R=1.0, r=2.0, q=4.0))
        stepper = Stepper(grid, sys, noise, cfg)
        values = 1.0 + 0.3 * np.random.default_rng(4).standard_normal((2,) + grid.shape)
        fields = forward(values, d)
        inc = sample_increments(noise, cfg.dt, path_rng(3, 0, 0))
        expected = fields + stepper.transport(fields, inc)
        if not sys.is_linear:
            assert stepper.reaction_drift(0.0, values) is None
            drift = forward(sys.f(0.0, values), d)
            drift[..., ~dealias_mask(grid)] = 0.0
            expected += cfg.dt * 0.5 * drift
        expected *= stepper.propagator
        state = stepper.step(SimState(t=0.0, fields=fields, grid_values=values,
                                      cutoff_acc=2.25), inc)
        assert state.phi_value == 0.5
        return state.fields, expected

    def test_ito_step_is_propagated_sum_of_terms(self):
        # f rides the transport's forward transform, and the transform of a
        # sum differs from the sum of the transforms in the last bit
        mass_action = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
        got, expected = self._unfused_step(2, 32, mass_action)
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_zero_reaction_ito_step_is_bitwise_propagated_sum(self):
        got, expected = self._unfused_step(2, 32, build_builtin("zero", [0.05, 0.08]))
        assert got.tobytes() == expected.tobytes()

    def test_mass_action_ito_step_matches_unfused_sum_in_3d(self):
        mass_action = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
        got, expected = self._unfused_step(3, 16, mass_action)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_transport_source_mode_zero_is_its_mean(self):
        # mode 0 of transport + source is the source's mean, so the weighted
        # mass moves only by dt phi mean(alpha . f)
        grid = TorusGrid(2, 32)
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        stepper = Stepper(grid, build_builtin("zero", [0.0, 0.0]), noise,
                          SolverConfig(dt=1e-3, T=1e-3, balance_q=()))
        rng = np.random.default_rng(6)
        fields = forward(rng.standard_normal((2,) + grid.shape), 2)
        source = rng.standard_normal((2,) + grid.shape)
        inc = sample_increments(noise, 1e-3, path_rng(5, 0, 0))
        got = stepper.transport(fields, inc, source)
        assert np.array_equal(got[:, 0, 0], source.mean(axis=(1, 2)))
        plain = stepper.transport(fields, inc)
        assert np.all(plain[:, 0, 0] == 0)
        expected = forward(source, 2)
        expected[..., ~dealias_mask(grid)] = 0.0
        expected += plain
        expected[:, 0, 0] = source.mean(axis=(1, 2))
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_stack_transport_peak_is_result_plus_velocity(self):
        # given the gradient, a transport holds its result and the velocity
        # only: a broadcast product or a mask product on the stack would add
        # a temporary the size of the stack (128 KiB here)
        grid = TorusGrid(2, 64)
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        stepper = Stepper(grid, build_builtin("zero", [0.0, 0.0]), noise,
                          SolverConfig(dt=1e-3, T=1e-3, balance_q=()))
        fields = forward(np.random.default_rng(8).standard_normal((2,) + grid.shape), 2)
        inc = sample_increments(noise, 1e-3, path_rng(6, 0, 0))
        stepper.transport(fields, inc, grad=stepper.gradients(fields))  # warm caches
        grad = stepper.gradients(fields)
        velocity_bytes = stepper.noise_ops.velocity_field(inc)[0].nbytes
        tracemalloc.start()
        try:
            out = stepper.transport(fields, inc, grad=grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + velocity_bytes + 16 * 1024

    def test_noisy_balance_step_calls_each_layer_once(self, monkeypatch):
        # transport, reaction_drift, gradients and f are the benchmark's
        # layer boundaries: one call each per nonlinear noisy step with balance
        calls = {name: 0 for name in ("transport", "reaction_drift", "gradients", "f")}
        for name in ("transport", "reaction_drift", "gradients"):
            original = getattr(Stepper, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Stepper, name, counted)
        grid = TorusGrid(2, 16)
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.05)
        base = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])

        def f(t, values):
            calls["f"] += 1
            return base.f(t, values)

        sys = dataclasses.replace(base, f=f)
        cfg = SolverConfig(dt=5e-3, T=1.5e-2, seed=2, cutoff=CutOffParams(R=1e6, r=2.0, q=4.0))
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.0 + 0.3 * np.cos(2 * np.pi * x)) for _ in range(2)]
        state, _ = run(sys, noise, cfg, v0)
        assert state.step_index == 3 and state.blown_up is None
        assert calls == {"transport": 3, "reaction_drift": 3, "gradients": 3, "f": 3}


class TestThreeDimensions:
    def test_noise_run_preserves_structure(self):
        grid = TorusGrid(3, 12)
        noise = NoiseModel(build_theta_shell(1, 0.0, 3), nu=0.05)
        sys0 = build_builtin("zero", [0.02])
        cfg = SolverConfig(dt=5e-3, T=0.05, noise_on=True, seed=8, balance_q=())
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.0 + 0.5 * np.cos(2 * np.pi * x))]
        state, record = run(sys0, noise, cfg, v0)
        assert state.blown_up is None
        # mode 0 untouched, output stays real
        assert np.abs(record.mass[:, 0] - 1.0).max() < 1e-13
        values = np.fft.ifftn(state.fields[0])
        assert np.abs(values.imag).max() < 1e-12 * np.abs(values.real).max()

    def test_strat_scheme_conserves_in_3d(self):
        grid = TorusGrid(3, 12)
        noise = NoiseModel(build_theta_shell(1, 0.0, 3), nu=0.05)
        sys0 = build_builtin("zero", [0.0])
        cfg = SolverConfig(dt=5e-3, T=0.03, scheme="strat_substep", noise_on=True,
                           seed=8, balance_q=())
        v0 = [mode_field(grid, (1, 0, 0), 0.4)]
        state, _ = run(sys0, noise, cfg, v0)
        energy = float(np.sum(np.abs(state.fields[0]) ** 2))
        assert abs(energy - 2 * 0.4**2) < 1e-7


class TestPureTransportMeanEnergy:
    def test_bias_shrinks_under_refinement(self):
        # weak-bias magnitude of E||v(T)||^2 decreases monotonically in dt
        # (mild-mixing regime; the coupled coarse increments are the pair
        # sums of the fine ones)
        grid = TorusGrid(2, 64)
        nu = 0.01
        noise = NoiseModel(build_theta_shell(2, 0.0, 2), nu=nu)
        sys0 = build_builtin("zero", [0.0])
        v0 = [mode_field(grid, (1, 0), 0.5)]
        T, paths, seed = 0.248, 16, 7  # 124 fine and 62 coarse steps
        dt_f = 2e-3
        n_f = int(round(T / dt_f))
        biases = {1: [], 2: []}
        for p in range(paths):
            fine = [sample_increments(noise, dt_f, path_rng(seed, p, s)) for s in range(n_f)]
            for mult in (1, 2):
                incs = [
                    IncrementSet(dt_f * mult, noise,
                                 sum(fine[mult * s + j].dw_plus for j in range(mult)))
                    for s in range(n_f // mult)
                ]
                cfg = SolverConfig(dt=dt_f * mult, T=T, noise_on=True, seed=seed,
                                   balance_q=(), record_every=10**9)
                st, _ = run(sys0, noise, cfg, v0, path_index=p,
                            increments=lambda s, a=incs: a[s])
                biases[mult].append(float(np.sum(np.abs(st.fields[0]) ** 2)) - 0.5)
        coarse, fine_b = np.mean(biases[2]), np.mean(biases[1])
        assert coarse < 0 and fine_b < 0
        assert abs(coarse) > 1.2 * abs(fine_b)



def _balanced_mass_action(d, n, scheme="euler_maruyama_ito", noise_on=True):
    """A mass-action stepper with cut-off and balance tracking, noisy unless
    noise_on is False, and its initial data: random, smooth."""
    grid = TorusGrid(d, n)
    noise = NoiseModel(build_theta_shell(1, 0.0, d), nu=0.05)
    sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
    cfg = SolverConfig(dt=5e-3, T=1.5e-2, scheme=scheme, noise_on=noise_on, seed=2,
                       balance_q=(2.0, 3.0),
                       cutoff=CutOffParams(R=1e6, r=2.0, q=4.0))
    values = 1.0 + 0.3 * np.random.default_rng(d).standard_normal((2,) + grid.shape)
    v0 = [GridField(grid, v) for v in values]
    return Stepper(grid, sys, noise, cfg), sys, noise, cfg, v0


# (scheme, noise_on) of the Ito step, the Wong-Zakai step and the noise-free step
STEP_KINDS = [("euler_maruyama_ito", True), ("strat_substep", True), ("euler_maruyama_ito", False)]


class TestSharedGradient:
    """The step takes the pre-step rates and packed gradient once, hands
    them to the balance, and reuses them in the drift and the Ito transport."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("scheme, noise_on", STEP_KINDS)
    @pytest.mark.parametrize("balance", [True, False])
    def test_step_takes_at_most_one_derivative_transform_of_its_input(
            self, d, n, scheme, noise_on, balance, monkeypatch):
        # the balance and the Ito transport read one gradient of the
        # pre-step fields; a Wong-Zakai step differentiates other arrays only
        inputs, calls = [], []
        original = Stepper._derivatives

        def counted(self, coeffs, lay):
            calls.append(sum(coeffs is f for f in inputs))
            return original(self, coeffs, lay)

        monkeypatch.setattr(Stepper, "_derivatives", counted)
        stepper, sys, noise, cfg, v0 = _balanced_mass_action(d, n, scheme, noise_on=noise_on)
        builder = RecordBuilder(sys, lq_list=(2.0,), balance_q=cfg.balance_q) if balance else None
        state = SimState(t=0.0, fields=forward(np.stack([f.values for f in v0]), d))
        for k in range(3):
            inc = sample_increments(noise, cfg.dt, path_rng(8, 0, k)) if noise_on else None
            inputs.append(state.fields)
            state = stepper.step(state, inc, builder)
        expected = 1 if balance or (noise_on and scheme == "euler_maruyama_ito") else 0
        assert sum(calls) == 3 * expected
        if balance:
            builder.sample(state.t, state.grid_values, state.phi_value, state.cutoff_acc)
            assert np.all(builder.finalize().grad_energy[2.0][-1] > 0)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("scheme, noise_on", STEP_KINDS)
    def test_balance_leaves_the_trajectory_bitwise(self, d, n, scheme, noise_on):
        *_, sys, noise, cfg, v0 = _balanced_mass_action(d, n, scheme, noise_on=noise_on)
        with_balance, rec = run(sys, noise, cfg, v0)
        without, rec_off = run(sys, noise, dataclasses.replace(cfg, balance_q=()), v0)
        assert with_balance.fields.tobytes() == without.fields.tobytes()
        for a, b in ((rec.lq[2.0], rec_off.lq[2.0]), (rec.mass, rec_off.mass),
                     (rec.phi, rec_off.phi), (rec.cutoff_acc, rec_off.cutoff_acc)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scheme, noise_on", STEP_KINDS)
    @pytest.mark.parametrize("balance", [True, False])
    @pytest.mark.parametrize("with_values", [True, False])
    def test_step_leaves_its_input_state_unchanged(self, scheme, noise_on, balance,
                                                   with_values):
        stepper, sys, noise, cfg, v0 = _balanced_mass_action(2, 16, scheme, noise_on=noise_on)
        builder = RecordBuilder(sys, lq_list=(2.0,), balance_q=cfg.balance_q) if balance else None
        fields = forward(np.stack([f.values for f in v0]), 2)
        # A = 2.25e12 puts the cut-off argument A^(1/r)/R at 1.5, where phi = 1/2
        state = SimState(t=0.0, fields=fields, cutoff_acc=2.25e12)
        if with_values:
            state.grid_values = stepper.to_values(fields)

        def snapshot():
            values = state.grid_values
            return state.fields.tobytes(), None if values is None else values.tobytes()

        before = snapshot()
        inc = sample_increments(noise, cfg.dt, path_rng(9, 0, 0)) if noise_on else None
        new = stepper.step(state, inc, builder)
        assert new.phi_value == 0.5 and state.phi_value == 1.0
        assert snapshot() == before  # values the step derives itself stay its own
        assert stepper.step(state, inc, builder).fields.tobytes() == new.fields.tobytes()


NUMPY_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class TestOneTransformBackend:
    """With numpy.fft's transforms disabled, runs still complete: every
    transform of the package goes through the scipy.fft helpers of fields."""

    @pytest.fixture(autouse=True)
    def numpy_fft_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy.fft transform was called")

        for name in NUMPY_TRANSFORMS:
            monkeypatch.setattr(np.fft, name, refuse)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_noisy_runs_with_reaction_flux_balance_and_cutoff(self, d, n, scheme):
        grid = TorusGrid(d, n)
        noise = NoiseModel(build_theta_shell(1, 0.0, d), nu=0.05)
        cfg = SolverConfig(dt=5e-3, T=0.02, scheme=scheme, seed=3, balance_q=(2.0, 3.0),
                           cutoff=CutOffParams(R=1e6, r=2.0, q=2.0))
        x = grid.node_coordinates()[0]
        mass_action = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
        systems = [(mass_action, 1.0 + 0.3 * np.cos(2 * np.pi * x)),
                   (build_builtin("linear_flux", [0.05], d=d), None)]
        for sys, values in systems:
            v0 = ([GridField(grid, values.copy()) for _ in range(sys.ell)] if values is not None
                  else [mode_field(grid, (1,) + (0,) * (d - 1), 0.5)])
            state, record = run(sys, noise, cfg, v0)
            assert state.step_index == 4 and state.blown_up is None
            assert np.all(np.isfinite(state.fields))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_field_conversions(self, d, n):
        grid, k = TorusGrid(d, n), (1, 2) + (0,) * (d - 2)
        c = mode_coeffs(grid, k, 0.5)
        assert np.abs(forward(mode_field(grid, k, 0.5).values, d) - c).max() < 1e-15

    def test_scaling_limit_with_hminus_distance(self):
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(dt=5e-3, T=0.02, balance_q=(), seed=4)
        plan = ScalingLimitPlan(shells=(1, 2), gamma=0.0, nu=0.05, paths=2, solver=cfg,
                                sys=build_builtin("zero", [0.01]),
                                v0=[mode_field(grid, (1, 0), 0.5)],
                                epsilon=0.1, hminus_gamma=0.5)
        result = run_scaling_limit(plan)
        assert all(np.all(s.hminus_distances > 0) for s in result.shells)


class TestValuesOnlyWhenRead:
    """A step whose grid values nobody reads rules out a blow-up by
    sup_bound and transforms nothing back; the exact norm decides wherever
    the bound does not clear the threshold."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.sampled_from([2, 3]), ell=st.sampled_from([1, 2]),
           roughness=st.floats(0.0, 2.0), spike=st.floats(0.0, 100.0))
    def test_bound_exceeds_the_sup_and_every_lq_norm(self, seed, d, ell, roughness, spike):
        grid = TorusGrid(d, 16 if d == 2 else 8)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((ell,) + grid.shape)
        values.flat[rng.integers(values.size)] += spike
        # an even weight growing with |k| keeps the spectrum Hermitian and rough
        coeffs = forward(values, d) * (1.0 + grid.k_squared) ** roughness
        cfg = SolverConfig(dt=1e-3, T=0.0, noise_on=False)
        stepper = Stepper(grid, build_builtin("zero", [0.1] * ell), None, cfg)
        grid_values = stepper.to_values(coeffs)
        bound = sup_bound(coeffs)
        assert np.sqrt(np.square(grid_values).sum(axis=0)).max() <= bound
        for q0 in (3.0, 4.0, 8.0):
            assert lq_norm_vector(grid_values, q0) <= bound

    def test_bound_of_non_finite_coefficients_fails_every_threshold(self):
        coeffs = np.zeros((1, 8, 8), dtype=complex)
        for value in (np.nan, np.inf, 1e200):
            coeffs[0, 1, 2] = value
            assert not sup_bound(coeffs) < 1e300

    def test_cap_keeps_the_exact_norm_from_overflowing(self):
        # 8^2 points of |v|^4 <= cap^4 sum below the largest float
        grid = TorusGrid(2, 8)
        cfg = SolverConfig(dt=1e-3, T=0.0, noise_on=False, blowup_threshold=1e300)
        cap = Stepper(grid, build_builtin("zero", [0.1]), None, cfg).bound_cap
        assert cap < 1e300 and np.isfinite(grid.n_points * cap**4)
        values = np.full((1,) + grid.shape, cap)
        assert np.isfinite(lq_norm_vector(values, 4.0))

    @staticmethod
    def _cases():
        grid = TorusGrid(2, 32)
        x = grid.node_coordinates()[0]
        sweep = (build_builtin("zero", [0.01]),
                 NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1),
                 SolverConfig(dt=2.5e-3, T=0.05, seed=7, record_every=5, balance_q=()),
                 [mode_field(grid, (1, 0), 0.5)])
        substep = (build_builtin("zero", [0.01]),
                   NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.05),
                   SolverConfig(dt=2e-3, T=0.02, scheme="strat_substep", seed=3,
                                record_every=3, balance_q=()),
                   [GridField(grid, 0.5 + 0.1 * np.cos(2 * np.pi * x))])
        small = TorusGrid(2, 8)
        blowup = (build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True), None,
                  SolverConfig(dt=5e-4, T=1.0, noise_on=False, balance_q=(), record_every=7,
                               blowup_threshold=1e3, blowup_norm_q0=4.0),
                  [GridField(small, 2.0 + 0.1 * np.cos(2 * np.pi * small.node_coordinates()[1]))])
        return {"ito_sweep": sweep, "strat_substep": substep, "quadratic_blowup": blowup}

    @pytest.mark.parametrize("case", ["ito_sweep", "strat_substep", "quadratic_blowup"])
    def test_run_is_bitwise_a_run_that_reads_every_step(self, case, monkeypatch):
        sys, noise, cfg, v0 = self._cases()[case]
        norms = []

        def counted(stack, q):
            norms.append(q)
            return lq_norm_vector(stack, q)

        monkeypatch.setattr(solver_module, "lq_norm_vector", counted)
        state, record = run(sys, noise, cfg, v0)
        lazy_norms = len(norms)

        step = Stepper.step
        monkeypatch.setattr(Stepper, "step", lambda self, state, inc, balance=None, values=True:
                            step(self, state, inc, balance, values=True))
        norms.clear()
        exact_state, exact_record = run(sys, noise, cfg, v0)
        assert len(norms) == exact_state.step_index > lazy_norms  # some steps took no norm

        assert state.fields.tobytes() == exact_state.fields.tobytes()
        assert state.blown_up == exact_state.blown_up and state.t == exact_state.t
        assert (state.blown_up is not None) == (case == "quadratic_blowup")
        for f in dataclasses.fields(record):
            got, want = getattr(record, f.name), getattr(exact_record, f.name)
            if isinstance(got, dict):
                assert got.keys() == want.keys()
                got, want = list(got.values()), list(want.values())
            assert np.array(got).tobytes() == np.array(want).tobytes(), f.name

    def test_unread_step_keeps_no_values(self):
        sys, noise, cfg, v0 = self._cases()["ito_sweep"]
        grid = v0[0].grid
        stepper = Stepper(grid, sys, noise, cfg)
        state = SimState(t=0.0, fields=forward(np.stack([f.values for f in v0]), grid.d))
        inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, 0))
        lazy = stepper.step(state, inc, values=False)
        exact = stepper.step(state, inc)
        assert lazy.grid_values is None and exact.grid_values is not None
        assert lazy.fields.tobytes() == exact.fields.tobytes()
        # a state without values steps on to the same next state
        inc = sample_increments(noise, cfg.dt, path_rng(cfg.seed, 0, 1))
        assert (stepper.step(lazy, inc).grid_values.tobytes()
                == stepper.step(exact, inc).grid_values.tobytes())
