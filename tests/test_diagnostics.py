"""Norms, balance residuals, survival statistics, H^{-gamma} norms."""

import dataclasses
import warnings

import numpy as np
import pytest

from torusrd.diagnostics import (
    RecordBuilder,
    grid_mean,
    lq_balance_residual,
    lq_norm_vector,
    spectral_norm,
    spectral_weight,
    survival_estimate,
)
from torusrd.fields import GridField, TorusGrid, forward, half_band_index, inverse_packed
from torusrd.noise import NoiseModel, build_theta_shell
from torusrd.reactions import MassActionSpec, build_builtin, mass_action_build
from torusrd.solver import SolverConfig, Stepper, run

from spectral_helpers import block_of, dealias_mask, full_layout, mode_coeffs, mode_field


def heat_run(dt, T=0.2, q=(2.0,), record_every=1):
    grid = TorusGrid(2, 32)
    sys0 = build_builtin("zero", [0.05])
    cfg = SolverConfig(dt=dt, T=T, noise_on=False, balance_q=q, lq_norms=q,
                       record_every=record_every)
    v0 = [mode_field(grid, (1, 0), 0.5)]
    return sys0, run(sys0, None, cfg, v0)


def _sampled_lq(values, q):
    builder = RecordBuilder(build_builtin("zero", [0.1] * len(values)), lq_list=(q,),
                            balance_q=())
    builder.sample(0.0, values, 1.0, 0.0)
    return builder.finalize().lq[q][0]


class TestLqNorms:
    """Square-based L^q norms against mean(|v|^q)^(1/q)."""

    @pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("ell", [1, 3])
    def test_match_direct_formula(self, q, ell):
        v = np.random.default_rng(ell).standard_normal((ell, 16, 16))
        vector = np.mean(np.sqrt(np.sum(v**2, axis=0)) ** q) ** (1.0 / q)
        assert lq_norm_vector(v, q) == pytest.approx(vector, rel=1e-13, abs=0)
        per_species = [np.mean(np.abs(vi) ** q) ** (1.0 / q) for vi in v]
        np.testing.assert_allclose(_sampled_lq(v, q), per_species, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0])
    def test_overflow_maps_to_inf(self, q):
        v = np.full((2, 8, 8), 1.0)
        v[1, 3, 5] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lq_norm_vector(v, q) == np.inf
            assert list(_sampled_lq(v, q)) == [1.0, np.inf]


class TestBalanceResidual:
    def test_equilibrium_residual_zero(self):
        grid = TorusGrid(2, 16)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.1])
        cfg = SolverConfig(dt=1e-2, T=0.3, noise_on=False, balance_q=(2.0,), lq_norms=(2.0,))
        v0 = [GridField(grid, np.ones(grid.shape))] * 2
        _, record = run(sys, None, cfg, v0)
        res = lq_balance_residual(record, 2.0, sys)
        assert np.abs(res).max() < 1e-12

    def test_reaction_evaluated_once_per_step(self):
        # the work integral and the step's drift share one f evaluation
        grid = TorusGrid(2, 16)
        base = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.1])
        times = []

        def f(t, Y):
            times.append(t)
            return base.f(t, Y)

        sys = dataclasses.replace(base, f=f)
        cfg = SolverConfig(dt=1e-2, T=0.1, noise_on=False, balance_q=(2.0,), lq_norms=(2.0,))
        x = grid.node_coordinates()[0]
        v0 = [GridField(grid, 1.0 + 0.2 * np.cos(2 * np.pi * x))] * 2
        _, record = run(sys, None, cfg, v0)
        assert times == list(record.times[:-1])
        assert np.all(record.work[2.0][-1] != 0.0)

    def test_linear_heat_refinement_halves_residual(self):
        # residual is O(dt): halving dt shrinks it by a factor in [1.5, 3]
        sys0, (_, rec_a) = heat_run(2e-3)
        _, (_, rec_b) = heat_run(1e-3)
        res_a = abs(lq_balance_residual(rec_a, 2.0, sys0)[-1, 0])
        res_b = abs(lq_balance_residual(rec_b, 2.0, sys0)[-1, 0])
        assert 1.5 <= res_a / res_b <= 3.0

    def test_untracked_exponent_rejected(self):
        sys0, (_, record) = heat_run(2e-3, T=0.02)
        with pytest.raises(ValueError, match="balance data"):
            lq_balance_residual(record, 4.0, sys0)

    def test_q_below_two_rejected(self):
        sys0, (_, record) = heat_run(2e-3, T=0.02)
        with pytest.raises(ValueError):
            lq_balance_residual(record, 1.5, sys0)

    def test_strat_transport_l2_drift_small(self):
        grid = TorusGrid(2, 32)
        noise = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        sys0 = build_builtin("zero", [0.0])
        cfg = SolverConfig(dt=2e-3, T=0.1, scheme="strat_substep", noise_on=True,
                           seed=3, balance_q=(2.0,), lq_norms=(2.0,))
        v0 = [mode_field(grid, (1, 0), 0.5)]
        _, record = run(sys0, noise, cfg, v0)
        # pathwise conservation: |v(t)|_2^2 stays at its initial value
        drift = record.lq[2.0][:, 0] ** 2 - record.lq[2.0][0, 0] ** 2
        assert np.abs(drift).max() < 1e-7


class TestBalanceGradientEnergy:
    """One accumulate_balance step (dt = 1) against closed forms of
    mean(|v|^(q-2) |grad v|^2) and of the work mean(|v|^(q-2) f v)."""

    @staticmethod
    def balance(d, n, q):
        grid = TorusGrid(d, n)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.2])
        values = 1.0 + 0.3 * np.random.default_rng(d).standard_normal((2,) + grid.shape)
        block = block_of(grid, forward(values, d))
        fields = full_layout(grid, block)
        stepper = Stepper(grid, sys, None, SolverConfig(dt=1.0, T=1.0, noise_on=False))
        builder = RecordBuilder(sys, lq_list=(q,), balance_q=(q,))
        builder.accumulate_balance(1.0, values, sys.f(0.0, values), stepper.gradients(block))
        builder.sample(1.0, values, 1.0, 0.0)
        record = builder.finalize()
        work = [np.mean(np.abs(v) ** (q - 2.0) * f * v)
                for v, f in zip(values, sys.f(0.0, values))]
        assert np.abs(record.work[q][-1] - work).max() <= 1e-13 * np.abs(work).max()
        return grid, values, fields, record.grad_energy[q][-1]

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_q2_is_parseval_sum(self, d, n):
        # sum_k sum_j |m_j(k)|^2 |v_k|^2 with the Nyquist-zeroed multipliers
        grid, _, fields, got = self.balance(d, n, 2.0)
        weight = sum(np.abs(m) ** 2 for m in grid.derivative_multipliers)
        expected = np.sum(weight * np.abs(fields) ** 2, axis=tuple(range(1, d + 1)))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_q3_matches_grid_weighted_formula(self, d, n):
        grid, values, fields, got = self.balance(d, n, 3.0)
        expected = []
        for v, c in zip(values, fields):
            grad_sq = sum(inverse_packed(m * c, d).real ** 2
                          for m in grid.derivative_multipliers)
            expected.append(np.mean(np.abs(v) * grad_sq))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_all_species_pass_is_bitwise_the_per_species_loop(self, d, n):
        # reference: the per-species loop the single pass over the stack replaced
        grid = TorusGrid(d, n)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.2])
        values = 1.0 + 0.3 * np.random.default_rng(d + 7).standard_normal((2,) + grid.shape)
        fields = block_of(grid, forward(values, d))
        stepper = Stepper(grid, sys, None, SolverConfig(dt=1.0, T=1.0, noise_on=False))
        qs, dt = (2.0, 3.0, 4.5), 2.5e-3
        builder = RecordBuilder(sys, lq_list=(2.0,), balance_q=qs)
        grad_ref = {q: np.zeros(2) for q in qs}
        work_ref = {q: np.zeros(2) for q in qs}
        for step in range(2):
            z, g2 = grad = stepper.gradients(fields)
            fvals = sys.f(0.0, values)
            builder.accumulate_balance(dt, values, fvals, grad)
            grads_sq = z.real**2 + z.imag**2 + (0.0 if g2 is None else g2**2)
            for i, grad_sq in enumerate(grads_sq):
                for q in qs:
                    weight = 1.0 if q == 2.0 else np.abs(values[i]) ** (q - 2.0)
                    grad_ref[q][i] += dt * float(np.mean(weight * grad_sq))
                    work_ref[q][i] += dt * float(np.mean(weight * fvals[i] * values[i]))
            fields, values = 1.5 * fields, 1.5 * values
        builder.sample(1.0, values, 1.0, 0.0)
        record = builder.finalize()
        for q in qs:
            assert record.grad_energy[q][0].tobytes() == grad_ref[q].tobytes()
            assert record.work[q][0].tobytes() == work_ref[q].tobytes()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestSameBitsAsTheDirectFormulas:
    """The norms skip ** 1.0, take np.square for ** 2.0 and sum with
    np.add.reduce where np.mean would: every output keeps the bits of the
    np.mean / ** formulas, in 2D and 3D."""

    SHAPES = [(2, 16, 16), (2, 8, 8, 8)]

    @staticmethod
    def values(shape):
        return np.random.default_rng(len(shape)).standard_normal(shape) * 1.7

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("axes", [None, (1, 2), (-2, -1), (0,)])
    def test_grid_mean_is_np_mean(self, shape, axes):
        v = self.values(shape)
        assert _bits(grid_mean(v, axes)) == _bits(np.mean(v, axis=axes))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_lq_norm_vector(self, shape, q):
        v = self.values(shape)
        sq = np.sum(np.square(v), axis=0)
        sq **= q / 2.0
        assert _bits(lq_norm_vector(v, q)) == _bits(float(np.mean(sq) ** (1.0 / q)))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_sampled_lq_and_mass_columns(self, shape, q):
        v = self.values(shape)
        axes = tuple(range(1, len(shape)))
        builder = RecordBuilder(build_builtin("zero", [0.1, 0.1]), lq_list=(q,), balance_q=())
        builder.sample(0.0, v, 1.0, 0.0)
        record = builder.finalize()
        assert _bits(record.lq[q][0]) == _bits(np.mean((v**2) ** (q / 2.0), axis=axes) ** (1.0 / q))
        assert _bits(record.mass[0]) == _bits(v.mean(axis=axes))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_balance_integrals(self, d, n):
        grid = TorusGrid(d, n)
        sys = mass_action_build(MassActionSpec(q=(2, 0), p=(0, 1)), nu=[0.1, 0.2])
        values = self.values((2,) + grid.shape) + 0.5
        stepper = Stepper(grid, sys, None, SolverConfig(dt=1.0, T=1.0, noise_on=False))
        qs, dt = (2.0, 3.0, 4.0), 2.5e-3
        rates, (z, g2) = sys.f(0.0, values), stepper.gradients(block_of(grid, forward(values, d)))
        grads_sq = z.real**2 + z.imag**2 + (0.0 if g2 is None else g2**2)
        builder = RecordBuilder(sys, lq_list=(), balance_q=qs)
        builder.accumulate_balance(dt, values, rates, (z, g2))
        builder.sample(dt, values, 1.0, 0.0)
        record = builder.finalize()
        axes = tuple(range(1, d + 1))
        for q in qs:
            weight = 1.0 if q == 2.0 else np.abs(values) ** (q - 2.0)
            work = rates * values if q == 2.0 else weight * rates * values
            expected_grad = np.zeros(2) + dt * np.mean(weight * grads_sq, axis=axes)
            expected_work = np.zeros(2) + dt * np.mean(work, axis=axes)
            assert _bits(record.grad_energy[q][0]) == _bits(expected_grad)
            assert _bits(record.work[q][0]) == _bits(expected_work)


class TestSurvivalEstimate:
    def test_all_survive(self):
        p, (lo, hi) = survival_estimate([None] * 12, T=1.0)
        assert p == 1.0
        assert hi == pytest.approx(1.0)

    def test_none_survive(self):
        p, (lo, hi) = survival_estimate([0.5] * 12, T=1.0)
        assert p == 0.0
        assert lo == pytest.approx(0.0)

    def test_nine_of_ten(self):
        taus = [None] * 9 + [0.3]
        p, (lo, hi) = survival_estimate(taus, T=1.0)
        assert p == pytest.approx(0.9)
        assert lo == pytest.approx(0.596, abs=1e-3)
        assert hi == pytest.approx(0.982, abs=1e-3)

    def test_tau_at_horizon_counts_as_survival(self):
        p, _ = survival_estimate([1.0, None], T=1.0)
        assert p == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            survival_estimate([], T=1.0)

    def test_wilson_width_shrinks_like_sqrt_paths(self):
        def width(n):
            taus = [None] * (9 * n) + [0.1] * n
            _, (lo, hi) = survival_estimate(taus, T=1.0)
            return hi - lo

        assert width(40) == pytest.approx(width(10) / 2, rel=0.15)

    def test_doubling_paths_stays_inside_previous_interval(self):
        # consistency of the estimator: in >= 90% of repeated trials the
        # doubled-sample estimate lands inside the smaller sample's interval
        rng = np.random.default_rng(5)
        hits = 0
        trials = 200
        for _ in range(trials):
            draws = rng.random(128) < 0.8
            taus_small = [None if s else 0.1 for s in draws[:64]]
            taus_big = [None if s else 0.1 for s in draws]
            _, (lo, hi) = survival_estimate(taus_small, T=1.0)
            p_big, _ = survival_estimate(taus_big, T=1.0)
            hits += lo <= p_big <= hi
        assert hits / trials >= 0.9


def _half(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    return coeffs[half_band_index(grid.n_per_dim, grid.d, grid.dealias_band)]


def _weight(grid: TorusGrid, gamma: float) -> np.ndarray:
    return spectral_weight(grid.d, grid.dealias_band, gamma)


class TestSpectralNorm:
    def test_single_mode_value(self):
        grid = TorusGrid(2, 16)
        c = mode_coeffs(grid, (3, 0), 0.5)
        # two conjugate modes at |k|^2 = 9, both in the k_d = 0 plane
        expected = np.sqrt(2 * 0.25 * (1 + 9.0) ** -0.5)
        got = spectral_norm(_half(grid, c), _weight(grid, 0.5))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_is_l2(self):
        # k_d = 1 > 0: the half band holds (2, 1) alone, at weight 2
        grid = TorusGrid(2, 16)
        c = mode_coeffs(grid, (2, 1), 1.0)
        assert spectral_norm(_half(grid, c), _weight(grid, 0.0)) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_stack_norm_is_root_sum_of_squared_species_norms(self, d, n):
        grid = TorusGrid(d, n)
        weight = _weight(grid, 0.75)
        stack = _half(grid, forward(np.random.default_rng(d).standard_normal((3,) + grid.shape), d))
        per_species = np.sqrt(sum(spectral_norm(c, weight) ** 2 for c in stack))
        assert spectral_norm(stack, weight) == pytest.approx(per_species, rel=1e-14)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 10)])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_half_band_norm_is_the_full_band_norm(self, d, n, gamma):
        # a real field in the band: the Hermitian weights count each mirror mode once
        grid = TorusGrid(d, n)
        coeffs = forward(np.random.default_rng(n).standard_normal((2,) + grid.shape), d)
        outside = ~dealias_mask(grid)
        coeffs[:, outside] = 0.0
        full = np.sqrt(np.sum((1.0 + grid.k_squared) ** -gamma * np.abs(coeffs) ** 2))
        assert spectral_norm(_half(grid, coeffs), _weight(grid, gamma)) == pytest.approx(
            full, rel=1e-14)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            spectral_weight(2, 5, -0.5)
