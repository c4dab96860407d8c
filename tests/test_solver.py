"""Stepping schemes: exact diffusion, cut-off semantics, conservation, blow-up."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import torusrd.solver as solver_module
from torusrd.diagnostics import lq_norm_vector
from torusrd.experiments import ScalingLimitPlan, run_scaling_limit
from torusrd.fields import (
    GridField,
    SpectralField,
    TorusGrid,
    l2_norm_spectral,
    partial_derivative,
    single_mode,
    to_grid,
    to_spectral,
)
from torusrd.noise import (
    IncrementSet,
    NoiseModel,
    build_theta_shell,
    path_rng,
    sample_increments,
)
from torusrd.reactions import MassActionSpec, build_builtin, mass_action_build
from torusrd.solver import (
    CutOffParams,
    EXPM_TAIL_TOL,
    SCHEMES,
    SimState,
    SolverConfig,
    Stepper,
    chebyshev_expm,
    pack_velocity,
    phi_bump,
    run,
)


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

    def test_strat_substep_needs_dealias(self):
        with pytest.raises(ValueError, match="dealias"):
            SolverConfig(dt=1e-3, T=0.1, scheme="strat_substep", dealias=False)

    @pytest.mark.parametrize("kwargs", [
        {"lq_norms": (0.0,)}, {"lq_norms": (2.0, -2.0)}, {"balance_q": (1.0,)},
    ])
    def test_out_of_range_norm_exponents_rejected(self, kwargs):
        with pytest.raises(ValueError, match="exponents"):
            SolverConfig(dt=0.1, T=1.0, **kwargs)

    def test_cutoff_params(self):
        with pytest.raises(ValueError):
            CutOffParams(R=1.0, r=1.0, q=2.0)

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
            grads = stepper.gradients(c)
            spec = SpectralField(grid, c)
            expected = np.stack([inverse(partial_derivative(spec, j).coeffs) for j in range(d)])
            assert grads.shape == expected.shape
            assert np.abs(grads - expected).max() <= 1e-13 * np.abs(expected).max()


class TestLinearDiffusion:
    def test_single_mode_exact_decay(self):
        grid = grid_32()
        sys0 = build_builtin("zero", [0.02])
        cfg = SolverConfig(dt=1e-3, T=0.25, noise_on=False, track_balance=False)
        v0 = [to_grid(single_mode(grid, (2, 1), 0.3))]
        state, _ = run(sys0, None, cfg, v0, nu_enhancement=0.05)
        expected = 0.3 * np.exp(-4 * np.pi**2 * 5 * (0.02 + 0.05) * 0.25)
        got = state.fields[0][2, 1]
        assert abs(got - expected) < 1e-12 * abs(expected)


class TestReactionStepping:
    def test_equilibrium_constant_state(self):
        grid = grid_32()
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.1])
        cfg = SolverConfig(dt=1e-2, T=0.5, noise_on=False, track_balance=False)
        v0 = constant_fields(grid, [1.0, 1.0])
        state, _ = run(sys, None, cfg, v0)
        for i, target in enumerate([1.0, 1.0]):
            vals = np.fft.ifftn(state.fields[i]).real * grid.n_points
            assert np.abs(vals - target).max() < 1e-12

    def test_logistic_converges_to_one(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=1e-2, T=20.0, noise_on=False, track_balance=False,
                           record_every=10**9)
        state, _ = run(sys, None, cfg, constant_fields(grid, [0.5]))
        vals = np.fft.ifftn(state.fields[0]).real * grid.n_points
        assert np.abs(vals - 1.0).max() < 1e-6


class TestRunContract:
    def test_t_zero_returns_v0_unchanged(self):
        grid = grid_32()
        rng = np.random.default_rng(0)
        v0 = [GridField(grid, rng.standard_normal(grid.shape))]
        cfg = SolverConfig(dt=0.1, T=0.0, noise_on=False, track_balance=False)
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
        cfg = SolverConfig(dt=0.1, T=1.0, noise_on=False, track_balance=False)
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


class TestMeanModeDecayWithNoise:
    def test_enhanced_rate_within_mc_error(self):
        # mean amplitude of mode (1,0) decays at the nu-enhanced rate
        grid = TorusGrid(2, 48)
        noise = NoiseModel(build_theta_shell(8, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.01])
        T = 0.2
        cfg = SolverConfig(dt=2e-3, T=T, noise_on=True, track_balance=False,
                           record_every=10**9, seed=7)
        v0 = [to_grid(single_mode(grid, (1, 0), 0.5))]
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
        cfg = SolverConfig(dt=2e-3, T=0.1, noise_on=True, track_balance=False, seed=3)
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.5 + 0.5 * np.cos(2 * np.pi * x))]
        state, record = run(sys0, noise, cfg, v0)
        assert np.abs(record.mass[:, 0] - 1.5).max() < 1e-13

    def test_pathwise_weighted_mass_conserved(self):
        grid = grid_32()
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.05, 0.08])
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=True, track_balance=False, seed=11)
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
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=False, track_balance=False)
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.0 + 0.4 * np.cos(2 * np.pi * x))]
        _, record = run(sys, None, cfg, v0)
        assert np.abs(record.mass[:, 0] - 1.0).max() < 1e-13

    def test_mass_decays_through_f(self):
        grid = grid_32()
        sys = build_builtin("decay", [0.1])
        cfg = SolverConfig(dt=1e-3, T=1.0, noise_on=False, track_balance=False)
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
                           track_balance=False)
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
        _, record = run(sys, noise, cfg, v0, keep_snapshots=True)
        n_steps = len(record.times) - 1
        assert len(calls) == 2 * n_steps + 1
        power = [lq_norm_vector(v, 2.0) ** 2.0 for v in record.snapshots]
        acc = [0.0]
        for pre, post in zip(power, power[1:]):
            acc.append(acc[-1] + 0.5 * cfg.dt * (pre + post))
        assert np.array_equal(record.cutoff_acc, acc)

    def test_accumulator_nondecreasing(self):
        grid, noise, sys, cfg, v0 = self._setup(R=1.0)
        _, record = run(sys, noise, cfg, v0)
        assert np.all(np.diff(record.cutoff_acc) >= 0)


class TestBlowUpDetection:
    def test_quadratic_ode_blowup_time(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, track_balance=False,
                           blowup_threshold=1e3, blowup_norm_q0=4.0)
        state, record = run(sys, None, cfg, constant_fields(grid, [2.0]))
        assert state.blown_up is not None
        assert abs(state.blown_up - 0.5) < 0.1  # within 20% of 1/v0
        assert record.blowup_tau == state.blown_up

    def test_non_finite_becomes_blowup_flag(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        # threshold too high to trip first: overflow produces inf -> flagged
        cfg = SolverConfig(dt=5e-2, T=10.0, noise_on=False, track_balance=False,
                           blowup_threshold=1e300, blowup_norm_q0=4.0)
        state, _ = run(sys, None, cfg, constant_fields(grid, [5.0]))
        assert state.blown_up is not None

    def test_stepping_after_blowup_rejected(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, track_balance=False,
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
                           track_balance=False, seed=5, record_every=10**9)
        v0 = [to_grid(single_mode(grid, (1, 0), 0.5))]
        state, _ = run(sys0, noise, cfg, v0)
        energy = l2_norm_spectral(SpectralField(grid, state.fields[0])) ** 2
        assert abs(energy - 0.5) < 1e-7


def _strat_stepper(d, n, max_u=0.3):
    """Stepper and a frozen displacement field u with max|u_j| = max_u."""
    grid = TorusGrid(d, n)
    noise = NoiseModel(build_theta_shell(1, 0.0, d), nu=0.1)
    cfg = SolverConfig(dt=1e-4, T=1e-4, scheme="strat_substep", noise_on=True,
                       track_balance=False)
    stepper = Stepper(grid, build_builtin("zero", [0.0], d=d), noise, cfg)
    u = stepper.noise_ops.velocity_field(sample_increments(noise, 1.0, path_rng(1, 0, 0)))
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
        vel = pack_velocity(u)
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
        vel = pack_velocity(u)
        grid = stepper.grid
        rng = np.random.default_rng(5)
        mask = grid.dealias_mask()
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
    cfg = SolverConfig(dt=1e-4, T=1e-4, scheme="strat_substep", track_balance=False)
    return Stepper(grid, build_builtin("zero", [0.0] * ell, d=d), noise, cfg)


def _full_grid_series(stepper, fields, inc):
    """The Wong-Zakai substep as one Chebyshev series of the n-grid
    right-hand side, with the packed velocity scaled by 2/rho."""
    u = stepper.noise_ops.velocity_field(inc)
    rho = np.sqrt(np.max(np.sum(u * u, axis=0))) * stepper.k_max
    u *= 2.0 / rho
    vel = pack_velocity(u)
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
        cfg = SolverConfig(dt=1e-4, T=1e-4, track_balance=False)
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
        assert np.abs(fields[:, ~grid.dealias_mask()]).max() > 1e-3 * np.abs(fields).max()

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


class TestThreeDimensions:
    def test_noise_run_preserves_structure(self):
        grid = TorusGrid(3, 12)
        noise = NoiseModel(build_theta_shell(1, 0.0, 3), nu=0.05)
        sys0 = build_builtin("zero", [0.02])
        cfg = SolverConfig(dt=5e-3, T=0.05, noise_on=True, seed=8, track_balance=False)
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
                           seed=8, track_balance=False)
        v0 = [to_grid(single_mode(grid, (1, 0, 0), 0.4))]
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
        v0 = [to_grid(single_mode(grid, (1, 0), 0.5))]
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
                                   track_balance=False, record_every=10**9)
                st, _ = run(sys0, noise, cfg, v0, path_index=p,
                            increments=lambda s, a=incs: a[s])
                biases[mult].append(float(np.sum(np.abs(st.fields[0]) ** 2)) - 0.5)
        coarse, fine_b = np.mean(biases[2]), np.mean(biases[1])
        assert coarse < 0 and fine_b < 0
        assert abs(coarse) > 1.2 * abs(fine_b)


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
                  else [to_grid(single_mode(grid, (1,) + (0,) * (d - 1), 0.5))])
            state, record = run(sys, noise, cfg, v0)
            assert state.step_index == 4 and state.blown_up is None
            assert np.all(np.isfinite(state.fields))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_field_conversions(self, d, n):
        c = single_mode(TorusGrid(d, n), (1, 2) + (0,) * (d - 2), 0.5)
        assert np.abs(to_spectral(to_grid(c)).coeffs - c.coeffs).max() < 1e-15

    def test_scaling_limit_with_hminus_distance(self):
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(dt=5e-3, T=0.02, track_balance=False, seed=4)
        plan = ScalingLimitPlan(shells=(1, 2), gamma=0.0, nu=0.05, paths=2, solver=cfg,
                                sys=build_builtin("zero", [0.01]),
                                v0=[to_grid(single_mode(grid, (1, 0), 0.5))],
                                epsilon=0.1, hminus_gamma=0.5)
        result = run_scaling_limit(plan)
        assert all(np.all(s.hminus_distances > 0) for s in result.shells)
