"""Monte-Carlo harnesses: scaling limit, survival sweep, decay fits."""

import dataclasses

import numpy as np
import pytest

from torusrd.experiments import (
    DecayPlan,
    ScalingLimitPlan,
    SurvivalPlan,
    run_decay,
    run_scaling_limit,
    run_survival,
)
from torusrd.fields import GridField, TorusGrid, single_mode, to_grid
from torusrd.reactions import build_builtin
from torusrd.solver import SolverConfig


def small_heat_plan(nu=0.1, shells=(1, 2), paths=6, n=48, T=0.15):
    grid = TorusGrid(2, n)
    sys0 = build_builtin("zero", [0.01])
    cfg = SolverConfig(dt=2e-3, T=T, noise_on=nu > 0, track_balance=False,
                       record_every=5, seed=31)
    v0 = [to_grid(single_mode(grid, (1, 0), 0.5))]
    return ScalingLimitPlan(
        shells=tuple(shells), gamma=0.0, nu=nu, paths=paths,
        solver=cfg, sys=sys0, v0=v0, epsilon=0.02,
    )


class TestScalingLimit:
    def test_zero_noise_gives_zero_distance(self):
        plan = small_heat_plan(nu=0.0, shells=(1,), paths=2, n=16, T=0.05)
        result = run_scaling_limit(plan)
        assert np.abs(result.shells[0].distances).max() == 0.0

    def test_distance_decreases_with_shell(self):
        result = run_scaling_limit(small_heat_plan())
        means = [s.mean for s in result.shells]
        assert means[1] < means[0]
        assert all(m > 0 for m in means)

    def test_deterministic_tables(self):
        plan = small_heat_plan(paths=3, T=0.05)
        t1 = run_scaling_limit(plan).table()
        t2 = run_scaling_limit(plan).table()
        assert t1 == t2

    def test_unresolved_shell_rejected(self):
        with pytest.raises(ValueError, match="resolve"):
            small_heat_plan(shells=(1, 16), n=48)

    def test_step_guard_checked_for_every_shell_at_construction(self):
        # shells 1-8 pass the guard at 96^2, dt = 2.5e-3; shell 16 does not
        grid = TorusGrid(2, 96)
        cfg = SolverConfig(dt=2.5e-3, T=0.25, track_balance=False)
        with pytest.raises(ValueError, match="shell 16: dt = 0.0025 violates the noise step guard"):
            ScalingLimitPlan(shells=(1, 2, 4, 8, 16), gamma=0.0, nu=0.1, paths=1,
                             solver=cfg, sys=build_builtin("zero", [0.01]),
                             v0=[to_grid(single_mode(grid, (1, 0), 1.0))], epsilon=0.1)

    def test_shells_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_heat_plan(shells=(2, 1))

    def test_hminus_tracking(self):
        plan = small_heat_plan(paths=2, T=0.05)
        plan = ScalingLimitPlan(
            shells=plan.shells, gamma=plan.gamma, nu=plan.nu, paths=plan.paths,
            solver=plan.solver, sys=plan.sys, v0=plan.v0, epsilon=plan.epsilon,
            hminus_gamma=0.5,
        )
        result = run_scaling_limit(plan)
        assert result.shells[0].hminus_distances is not None
        assert np.all(result.shells[0].hminus_distances >= 0)

    def test_uniform_lq_bound_across_shells(self):
        # sup_t |v| stays of the order of the data uniformly over shells
        result = run_scaling_limit(small_heat_plan())
        for s in result.shells:
            assert s.max_lq < 2.0

    def test_blown_up_paths_are_tolerated_and_reported(self):
        grid = TorusGrid(2, 16)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=True, track_balance=False,
                           record_every=4, seed=5, blowup_threshold=5.0,
                           blowup_norm_q0=4.0)
        v0 = [GridField(grid, np.full(grid.shape, 4.0))]
        plan = ScalingLimitPlan(shells=(1,), gamma=0.0, nu=0.05, paths=2,
                                solver=cfg, sys=sys, v0=v0, epsilon=0.1)
        result = run_scaling_limit(plan)
        assert all(tau is not None for tau in result.shells[0].taus)

    def test_worker_count_does_not_change_tables(self):
        # counter-based path seeding: results are scheduling-invariant
        plan = small_heat_plan(paths=4, T=0.05)
        serial = run_scaling_limit(plan, threads=1)
        pooled = run_scaling_limit(plan, threads=3)
        for a, b in zip(serial.shells, pooled.shells):
            assert np.array_equal(a.distances, b.distances)

    def test_worker_count_does_not_change_product_grid_tables(self):
        # strat_substep at 32^2, shells 1 and 2: the Wong-Zakai series runs
        # on 24^2 and 28^2 product grids
        plan = small_heat_plan(shells=(1, 2), paths=4, n=32, T=0.02)
        plan = dataclasses.replace(
            plan, solver=dataclasses.replace(plan.solver, scheme="strat_substep"))
        serial = run_scaling_limit(plan, threads=1)
        pooled = run_scaling_limit(plan, threads=2)
        for a, b in zip(serial.shells, pooled.shells):
            assert np.array_equal(a.distances, b.distances)
            assert a.max_lq == b.max_lq


class TestSurvival:
    def test_gentle_system_always_survives(self):
        grid = TorusGrid(2, 16)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=5e-3, T=0.5, noise_on=True, track_balance=False, seed=3)
        v0 = [GridField(grid, np.full(grid.shape, 0.5))]
        plan = SurvivalPlan(nus=(0.05, 0.1), shell_n=1, gamma=0.0, paths=8,
                            solver=cfg, sys=sys, v0=v0)
        result = run_survival(plan)
        assert all(r.p_hat == 1.0 for r in result.rows)
        assert result.monotone_in_nu()

    def test_detector_calibration_mode(self):
        # f = v^2 with constant data 2 and no noise: every path blows up
        # near the 1/v0 = 0.5 mark
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, track_balance=False,
                           blowup_threshold=1e3, blowup_norm_q0=4.0)
        v0 = [GridField(grid, np.full(grid.shape, 2.0))]
        plan = SurvivalPlan(nus=(0.0,), shell_n=1, gamma=0.0, paths=4,
                            solver=cfg, sys=sys, v0=v0)
        result = run_survival(plan)
        row = result.rows[0]
        assert row.p_hat == 0.0
        assert abs(row.mean_tau_blowups - 0.5) < 0.1

    def test_step_guard_checked_for_every_nu_at_construction(self):
        # shell 1 on 32 points at dt = 1e-2: the guard allows nu <= 0.78
        grid = TorusGrid(2, 32)
        sys = build_builtin("logistic", [0.1])
        v0 = [GridField(grid, np.full(grid.shape, 0.5))]
        cfg = SolverConfig(dt=1e-2, T=0.1, noise_on=True, track_balance=False)
        with pytest.raises(ValueError, match="nu = 1.0: dt = 0.01 violates the noise step guard"):
            SurvivalPlan(nus=(0.1, 0.5, 1.0), shell_n=1, gamma=0.0, paths=2,
                         solver=cfg, sys=sys, v0=v0)
        # without noise no path samples it, so no guard applies
        SurvivalPlan(nus=(0.1, 1.0), shell_n=1, gamma=0.0, paths=2,
                     solver=dataclasses.replace(cfg, noise_on=False), sys=sys, v0=v0)

    def test_negative_data_rejected(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=5e-3, T=0.1, noise_on=True, track_balance=False)
        v0 = [GridField(grid, np.full(grid.shape, -1.0))]
        with pytest.raises(ValueError, match="v0 >= 0"):
            SurvivalPlan(nus=(0.1,), shell_n=1, gamma=0.0, paths=2,
                         solver=cfg, sys=sys, v0=v0)


class TestDecay:
    def _plan(self, v0_value=1.5, nu=0.0, paths=1, tracked=None, T=2.0, n=16):
        grid = TorusGrid(2, n)
        sys = build_builtin("decay", [0.01])
        cfg = SolverConfig(dt=2e-3, T=T, noise_on=nu > 0, track_balance=False,
                           record_every=20, seed=13)
        x = grid.node_coordinates()[0]
        vals = np.full(grid.shape, v0_value)
        if tracked is not None:
            vals = vals + 0.5 * np.cos(2 * np.pi * x)
        v0 = [GridField(grid, vals)]
        return DecayPlan(solver=cfg, sys=sys, v0=v0, q0=2.0, paths=paths,
                         shell_n=1, gamma=0.0, nu=nu, tracked_mode=tracked)

    def test_pure_decay_rate(self):
        report = run_decay(self._plan())
        assert not report.degenerate
        assert report.fitted_rate == pytest.approx(1.0, abs=0.02)
        assert report.expected_rate == 1.0

    def test_zero_data_degenerate(self):
        report = run_decay(self._plan(v0_value=0.0))
        assert report.degenerate

    def test_tracked_mode_rate_with_noise(self):
        plan = self._plan(nu=0.1, paths=32, tracked=(1, 0), T=0.8, n=32)
        report = run_decay(plan)
        assert report.mode_expected == pytest.approx(1.0 + 4 * np.pi**2 * 0.11)
        assert report.mode_rate == pytest.approx(report.mode_expected, rel=0.1)

    def test_decay_regime_enforced(self):
        grid = TorusGrid(2, 16)
        sys = build_builtin("logistic", [0.1])  # a1 = +1: not a decay system
        cfg = SolverConfig(dt=1e-2, T=0.5, noise_on=False, track_balance=False)
        with pytest.raises(ValueError, match="a1 < 0"):
            DecayPlan(solver=cfg, sys=sys, v0=[GridField(grid, np.ones(grid.shape))])
