"""Mass-action builder, conservation weights, growth and flux evaluation."""

import numpy as np
import pytest

from torusrd.fields import GridField, TorusGrid, forward, inverse_packed
from torusrd.reactions import (
    MassActionSpec,
    ReactionSystem,
    build_builtin,
    check_mass_control,
    find_mass_weights,
    growth_certificate,
    mass_action_build,
    zero_rates,
)
from torusrd.solver import SimState, SolverConfig, Stepper, run

from spectral_helpers import block_of, dealias_mask, full_layout

TWO_TO_ONE = MassActionSpec(q=(2, 0), p=(0, 1))  # 2 V1 <-> V2


class TestMassActionBuild:
    def test_equilibrium_point(self):
        sys = mass_action_build(TWO_TO_ONE)
        y = np.array([1.0, 1.0])
        assert np.array_equal(sys.f(0.0, y), np.zeros(2))

    def test_hand_evaluated_point(self):
        sys = mass_action_build(TWO_TO_ONE)
        f = sys.f(0.0, np.array([2.0, 0.0]))
        assert f[0] == pytest.approx(-8.0)
        assert f[1] == pytest.approx(4.0)

    def test_growth_exponent(self):
        assert TWO_TO_ONE.h == 2.0
        assert MassActionSpec(q=(1, 0), p=(0, 1)).h == pytest.approx(1 + 1e-6)

    def test_positivity_structure(self):
        # f_i >= 0 on the face y_i = 0 whenever q_i >= 1
        sys = mass_action_build(TWO_TO_ONE)
        rng = np.random.default_rng(0)
        ys = rng.uniform(0, 5, size=(2, 500))
        ys[0] = 0.0  # q_1 = 2 >= 1
        assert np.min(sys.f(0.0, ys)[0]) >= -1e-12

    def test_flux_defaults_to_none(self):
        assert mass_action_build(TWO_TO_ONE).F is None

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            MassActionSpec(q=(0, 0), p=(0, 0))
        with pytest.raises(ValueError):
            MassActionSpec(q=(1,), p=(-1,))
        with pytest.raises(ValueError):
            MassActionSpec(q=(1,), p=(1,), r_plus=0.0)


class TestMassWeights:
    def test_two_to_one(self):
        assert np.allclose(find_mass_weights(TWO_TO_ONE), [1.0, 2.0])

    def test_four_species(self):
        spec = MassActionSpec(q=(1, 1, 0, 0), p=(0, 0, 1, 1))
        assert np.allclose(find_mass_weights(spec), [1.0, 1.0, 1.0, 1.0])

    def test_infeasible_single_species(self):
        assert find_mass_weights(MassActionSpec(q=(1,), p=(2,))) is None

    def test_trivial_when_balanced(self):
        spec = MassActionSpec(q=(1, 2), p=(1, 2))
        assert np.allclose(find_mass_weights(spec), [1.0, 1.0])

    def test_weighted_sum_cancels_identically(self):
        for spec in (TWO_TO_ONE, MassActionSpec(q=(1, 2), p=(2, 1))):
            sys = mass_action_build(spec)
            rng = np.random.default_rng(1)
            ys = rng.uniform(0, 10, size=(spec.ell, 2000))
            total = np.einsum("i,i...->...", sys.mass_alpha, sys.f(0.0, ys))
            assert np.abs(total).max() < 1e-11


class TestMassControl:
    def test_conservative_system(self):
        sys = mass_action_build(TWO_TO_ONE)
        holds, worst = check_mass_control(sys, samples=512, radius=10.0)
        assert holds
        assert worst <= 1e-12

    def test_pure_decay(self):
        sys = build_builtin("decay", [0.1, 0.1])
        holds, worst = check_mass_control(sys, samples=256, radius=5.0)
        assert holds
        assert worst <= 0.0

    def test_quadratic_violation_reported(self):
        def f(t, Y):
            return Y**2

        sys = ReactionSystem(
            ell=1, nu=np.array([0.1]), h=2.0, f=f,
            mass_alpha=np.ones(1), mass_consts=(1.0, 0.0),
        )
        holds, worst = check_mass_control(sys, samples=512, radius=10.0)
        assert not holds
        assert worst > 50.0  # max y^2 - 1 on [0, 10]

    def test_requires_declared_weights(self):
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        with pytest.raises(ValueError, match="mass"):
            check_mass_control(sys)


class TestGrowthCertificate:
    def test_mass_action_bounded(self):
        sys = mass_action_build(MassActionSpec(q=(1, 2), p=(2, 1)))
        cert = growth_certificate(sys, radius=10.0)
        assert np.isfinite(cert)
        # |f| <= 2 max(R-, R+) (1 + |y|^3) on the sampled ball
        assert cert < 4.0


def reaction_drift(sys, grid, values):
    """Spectral drift f + div F, dealiased, from the rates f(t, v) and
    Stepper.reaction_drift's spectral div F."""
    cfg = SolverConfig(dt=0.1, T=0.1, noise_on=False)
    stepper = Stepper(grid, sys, None, cfg)
    div = stepper.reaction_drift(0.0, values)
    drift = forward(sys.f(0.0, values), grid.d)
    drift[..., ~dealias_mask(grid)] = 0.0
    return drift if div is None else drift + full_layout(grid, div)


class TestEvaluateReaction:
    def setup_method(self):
        self.grid = TorusGrid(2, 16)

    def test_zero_fields(self):
        sys = mass_action_build(TWO_TO_ONE)
        values = np.zeros((2,) + self.grid.shape)
        out = sys.f(0.0, values)
        assert np.abs(reaction_drift(sys, self.grid, values)).max() == 0.0
        assert all(np.abs(f).max() == 0.0 for f in out)

    def test_equilibrium_fields(self):
        sys = mass_action_build(TWO_TO_ONE)
        out = sys.f(0.0, np.ones((2,) + self.grid.shape))
        assert all(np.abs(f).max() == 0.0 for f in out)

    def test_matches_scalar_oracle(self):
        sys = mass_action_build(MassActionSpec(q=(1, 2), p=(2, 1), r_plus=0.7, r_minus=1.3))
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 2, (2,) + self.grid.shape)
        out = sys.f(0.0, values)
        for idx in [(0, 0), (3, 7), (15, 2)]:
            y1, y2 = values[0][idx], values[1][idx]
            g = 1.3 * y1 * y2**2 - 0.7 * y1**2 * y2
            assert out[0][idx] == pytest.approx(g, rel=1e-14)
            assert out[1][idx] == pytest.approx(-g, rel=1e-14)

    def test_nan_flagged(self):
        def f(t, Y):
            return np.where(Y > 0.5, np.nan, Y)

        # a NaN rate flags blow-up at the step that reads it
        sys = ReactionSystem(ell=1, nu=np.array([0.1]), h=2.0, f=f)
        cfg = SolverConfig(dt=0.1, T=0.1, noise_on=False, balance_q=())
        fields = block_of(self.grid, forward(np.ones((1,) + self.grid.shape), self.grid.d))
        state = Stepper(self.grid, sys, None, cfg).step(SimState(t=0.0, fields=fields), None)
        assert state.blown_up == cfg.dt


class TestFluxDivergence:
    def setup_method(self):
        self.grid = TorusGrid(2, 32)

    def test_zero_flux(self):
        # F = None and f(1, 1) = 0: the drift vanishes exactly
        sys = mass_action_build(TWO_TO_ONE)
        out = reaction_drift(sys, self.grid, np.ones((2,) + self.grid.shape))
        assert all(np.abs(c).max() == 0.0 for c in out)

    def test_linear_flux_analytic_derivative(self):
        sys = build_builtin("linear_flux", [0.1], d=2)
        x = self.grid.node_coordinates()[0]
        out = reaction_drift(sys, self.grid, np.sin(2 * np.pi * x)[None])
        got = inverse_packed(out[0], 2).real
        expected = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.abs(got - expected).max() < 1e-10

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 12)])
    def test_divergence_is_dealiased(self, d, n):
        # linear_flux: div F_i = d_0 v_i, kept on the dealias band only
        grid = TorusGrid(d, n)
        sys = build_builtin("linear_flux", [0.1, 0.2], d=d)
        values = np.random.default_rng(7).standard_normal((2,) + grid.shape)
        stepper = Stepper(grid, sys, None, SolverConfig(dt=0.1, T=0.1, noise_on=False))
        div = full_layout(grid, stepper.reaction_drift(0.0, values))
        for v, got in zip(values, div):
            expected = grid.derivative_multipliers[0] * forward(v, d)
            expected[~dealias_mask(grid)] = 0.0
            assert np.array_equal(got, expected)

    def test_mode_zero_vanishes(self):
        sys = build_builtin("linear_flux", [0.1, 0.2], d=2)
        rng = np.random.default_rng(5)
        out = reaction_drift(sys, self.grid, rng.standard_normal((2,) + self.grid.shape))
        for c in out:
            assert c[0, 0] == 0.0


class TestBuiltins:
    def test_unsafe_gated(self):
        with pytest.raises(ValueError, match="unsafe"):
            build_builtin("quadratic_unsafe", [0.1])
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        assert sys.mass_alpha is None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            build_builtin("nope", [0.1])

    @pytest.mark.parametrize("name, nu", [
        ("logistic", [0.1, 0.2]), ("quadratic_unsafe", [0.1, 0.2]),
        ("cubic_nontriangular", [0.1]), ("cubic_nontriangular", [0.1, 0.1, 0.1]),
    ])
    def test_diffusivity_count_is_exact(self, name, nu):
        with pytest.raises(ValueError, match="nu: expected"):
            build_builtin(name, nu, allow_unsafe=True)

    def test_cubic_nontriangular_is_conservative(self):
        sys = build_builtin("cubic_nontriangular", [0.1, 0.1])
        assert sys.h == 3.0
        assert np.allclose(sys.mass_alpha, [1.0, 1.0])

    def test_logistic_fixed_points(self):
        sys = build_builtin("logistic", [0.1])
        assert sys.f(0.0, np.array([0.0]))[0] == 0.0
        assert sys.f(0.0, np.array([1.0]))[0] == 0.0

    def test_zero_reaction_is_drift_free(self):
        sys = build_builtin("zero", [0.1, 0.2])
        assert sys.is_drift_free
        assert np.abs(sys.f(0.0, np.ones((2, 4)))).max() == 0.0

    def test_drift_freedom_follows_the_evaluators_not_the_name(self):
        assert not build_builtin("linear_flux", [0.1]).is_drift_free
        assert ReactionSystem(ell=1, nu=[0.1], h=2.0, f=zero_rates, name="custom").is_drift_free

    def test_nonzero_reaction_named_zero_keeps_its_drift(self):
        # f = v^2 on a constant field: the drift must run whatever the name
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(dt=0.01, T=0.1, noise_on=False, balance_q=())
        v0 = [GridField(grid, np.full(grid.shape, 0.5))]
        means = []
        for name in ("custom", "zero"):
            sys = ReactionSystem(ell=1, nu=[0.1], h=2.0, f=lambda t, Y: Y**2, name=name)
            assert not sys.is_drift_free
            state, _ = run(sys, None, cfg, v0)
            means.append(state.fields[0][0, 0].real)
        assert means[0] == means[1] > 0.52


class TestEnhanced:
    def test_only_the_diffusivities_move(self):
        sys = build_builtin("linear_flux", [0.01, 0.03])
        enhanced = sys.enhanced(0.1)
        assert np.array_equal(enhanced.nu, [0.01 + 0.1, 0.03 + 0.1])
        assert (enhanced.f, enhanced.F, enhanced.h) == (sys.f, sys.F, sys.h)
        assert enhanced.name == sys.name
        assert np.array_equal(enhanced.mass_alpha, sys.mass_alpha)
        assert enhanced.mass_consts == sys.mass_consts
        assert np.array_equal(sys.nu, [0.01, 0.03])  # the system itself is unchanged


def _ones_start_rates(spec: MassActionSpec, Y: np.ndarray) -> np.ndarray:
    """The mass-action rates as first written: each monomial a product
    started from np.ones_like, both rates always multiplied in."""
    def monomial(expo):
        out = np.ones_like(Y[0])
        for y, e in zip(Y, expo):
            if e:
                out = out * y**e
        return out

    coeff = np.array([pi - qi for qi, pi in zip(spec.q, spec.p)], dtype=float)
    g = spec.r_minus * monomial(spec.q) - spec.r_plus * monomial(spec.p)
    return coeff.reshape((-1,) + (1,) * (Y.ndim - 1)) * g


class TestRatesKeepTheirBits:
    """The evaluator skips the ones start, y^1 and a rate of 1: the rates
    stay bitwise those of the product started from 1, also at NaN, inf
    and -0."""

    @pytest.mark.parametrize("q, p", [((2, 0), (0, 1)), ((1, 2), (2, 1)),
                                      ((3, 0, 1), (0, 2, 1)), ((0, 0), (3, 1))])
    @pytest.mark.parametrize("r_minus, r_plus", [(1.0, 1.0), (1.3, 0.7), (1.0, 3.0)])
    def test_bitwise_the_ones_start_formula(self, q, p, r_minus, r_plus):
        spec = MassActionSpec(q=q, p=p, r_plus=r_plus, r_minus=r_minus)
        rng = np.random.default_rng(len(q) + int(10 * r_plus))
        Y = rng.standard_normal((len(q), 12, 12)) * 3.0
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e200, -1e-320]
        for i in range(len(q)):
            Y[i].flat[i * len(specials): (i + 1) * len(specials)] = specials
            Y[i, -1, : len(specials)] = specials  # each special against every other species
        sys = mass_action_build(spec)
        with np.errstate(all="ignore"):
            got, expected = sys.f(0.0, Y), _ones_start_rates(spec, Y)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got).any() and np.isinf(got).any()

    def test_rates_do_not_alias_the_values(self):
        # a single y^1 factor is the values' own view: f must return a new array
        Y = np.array([[2.0, 3.0], [5.0, 7.0]])
        out = mass_action_build(MassActionSpec(q=(1, 0), p=(0, 1))).f(0.0, Y)
        assert not np.shares_memory(out, Y)
        assert np.array_equal(Y, [[2.0, 3.0], [5.0, 7.0]])
