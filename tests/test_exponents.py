"""Closed-form exponent arithmetic: windows, interpolation, r0, barrier."""

import numpy as np
import pytest

from torusrd.exponents import (
    ParamSet,
    admissibility,
    barrier_exponent,
    barrier_mu0,
    barrier_value,
    cutoff_r0,
    interp_exponents_strong,
    interp_feasible_tuple,
    mean_zero_gamma,
    subcriticality_error,
)


class TestAdmissibility:
    def test_d3_h3_window(self):
        rep = admissibility(ParamSet(d=3, h=3, q=4, p=8, delta=1.1))
        assert rep.q_lower == pytest.approx(3.0)
        assert rep.q_upper == pytest.approx(60 / 11)
        assert rep.q_in_window
        assert rep.p_min == pytest.approx(4.0)  # max(20/9, q)
        assert rep.p_ok
        assert rep.a_p_delta == pytest.approx(8 * 0.45 - 1)

    def test_d2_h3_delayed_blowup_floor(self):
        # q must exceed max(d(h-1)/2, 2) = 2
        ok = admissibility(ParamSet(d=2, h=3, q=2.5, p=8, delta=1.1))
        bad = admissibility(ParamSet(d=2, h=3, q=2.0, p=8, delta=1.1))
        assert ok.q_meets_delayed_blowup
        assert not bad.q_meets_delayed_blowup

    @pytest.mark.parametrize("d, h, q, floor", [(2, 3, 2.0, 2.0), (3, 3, 3.0, 3.0),
                                                (3, 2, 1.5, 2.0), (2, 3, float("nan"), 2.0)])
    def test_one_subcriticality_rule(self, d, h, q, floor):
        # at or below the floor max(d(h-1)/2, 2): the report, the strong
        # exponents and the message read the same rule
        message = f"q = {q} is not subcritical: need q > max(d(h-1)/2, 2) = {floor}"
        assert subcriticality_error(d, h, q) == message
        if q > 0:  # ParamSet rejects NaN
            assert not admissibility(ParamSet(d=d, h=h, q=q)).q_meets_delayed_blowup
        with pytest.raises(ValueError) as info:
            interp_exponents_strong(d, h, q)
        assert str(info.value) == message
        assert subcriticality_error(d, h, np.nextafter(floor, np.inf)) is None

    def test_delta_two_degenerate(self):
        rep = admissibility(ParamSet(d=3, h=3, q=4, p=8, delta=2.0))
        assert not rep.q_window_nonempty
        assert rep.p_min == np.inf
        assert not rep.p_ok

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ParamSet(d=1, h=3, q=4)
        with pytest.raises(ValueError):
            ParamSet(d=2, h=0.5, q=4)
        with pytest.raises(ValueError):
            ParamSet(d=2, h=3, q=4, delta=1.0)


class TestInterpExponents:
    def test_d4_h3_q5(self):
        phi, psi = interp_exponents_strong(4, 3, 5)
        assert phi == pytest.approx(0.2)
        assert phi * 3 == pytest.approx(0.6)

    def test_clipped_branch(self):
        # d=3, h=2, q=4: raw (dh - d - q)/(hq) = -1/8 < 0, so phi = 0
        phi, psi = interp_exponents_strong(3, 2, 4)
        assert phi == 0.0
        assert psi == pytest.approx((3 / 4) * (1 / 3))

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            interp_exponents_strong(3, 3, 2.5)  # d(h-1)/2 = 3 > q

    def test_sublinearity_iff_subcritical_sweep(self):
        # phi h < 1 and psi (h+1)/2 < 1 exactly when q > d(h-1)/2, checked
        # against the raw formulas on a 10x10x10 grid
        count = 0
        for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
            for h in np.linspace(1.2, 6.0, 10):
                for q in np.linspace(2.1, 40.0, 10):
                    phi_raw = max(0.0, (d * h - d - q) / (h * q))
                    psi_raw = (d / q) * (h - 1) / (h + 1)
                    sublinear = phi_raw * h < 1 and psi_raw * (h + 1) / 2 < 1
                    assert sublinear == (q > d * (h - 1) / 2)
                    count += 1
        assert count == 1000


class TestCutoffR0:
    def test_worked_example(self):
        # d=4, h=3, q=5, p=8: phi=0.2, psi=0.4, both terms equal 48
        assert cutoff_r0(4, 3, 5, 8) == pytest.approx(48.0)

    def test_plateau_at_large_q(self):
        # as q -> infinity both exponents vanish: r0 -> max(hp, p(h+1)/2) v 2
        h, p = 3.0, 8.0
        assert cutoff_r0(2, h, 1e7, p) == pytest.approx(max(h * p, p * (h + 1) / 2), rel=1e-5)

    def test_nonincreasing_in_q(self):
        qs = np.linspace(5.0, 60.0, 24)
        vals = [cutoff_r0(3, 3, q, 8) for q in qs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_criticality_guard_fires_one_ulp_above_the_boundary(self):
        # q is one ulp above d(h-1)/2 = 6, so q is subcritical, yet phi h
        # rounds to 1 and the denominator 1 - phi h to 0: the guard is live
        with pytest.raises(ValueError, match="criticality breach"):
            cutoff_r0(3, 5.0, 6.000000000000001, 8.0)


class TestInterpFeasibleTuple:
    def test_boundary_infeasible(self):
        d = 3
        with pytest.raises(ValueError, match="infeasible"):
            interp_feasible_tuple(d, 2 * (d + 2) / d)

    def test_d3_midrange_verifies(self):
        theta, r1, zeta1, xi1 = interp_feasible_tuple(3, 3.0)
        inv = 1 / 3.0
        assert (1 - theta) / r1 + theta / 2 <= inv - 1e-9
        assert (1 - theta) / zeta1 + theta / xi1 <= inv - 1e-9
        assert 0 < theta < 3 / 5 and 1 < zeta1 < 2 and 2 < xi1 < 6 and r1 > 2

    def test_near_trivial_corner(self):
        theta, r1, zeta1, xi1 = interp_feasible_tuple(3, 1.01)
        assert theta < 0.01
        inv = 1 / 1.01
        assert (1 - theta) / r1 + theta / 2 < inv
        assert (1 - theta) / zeta1 + theta / xi1 < inv

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_margin_invariant_across_psi(self, d):
        boundary = 2 * (d + 2) / d
        xi_star = 2 * d / (d - 2) if d >= 3 else np.inf
        for psi in np.linspace(1.05, boundary - 0.05, 40):
            theta, r1, zeta1, xi1 = interp_feasible_tuple(d, psi)
            inv = 1 / psi
            assert inv - ((1 - theta) / r1 + theta / 2) >= 1e-9
            assert inv - ((1 - theta) / zeta1 + theta / xi1) >= 1e-9
            # the bounds the search meets by construction
            assert 0 < theta < d / (d + 2) and 2 < r1 < np.inf
            assert 1 < zeta1 < 2 and 2 < xi1 < xi_star


class TestBarrier:
    def test_worked_example(self):
        # h=2, q=4, d=2: e_bar = 0.25, gamma = 0.5, R = N = 1
        res = barrier_mu0(R=1.0, e_bar=0.25, gamma=0.5, N=1.0, q=4.0)
        assert res.mu0 == pytest.approx(6.0515, abs=1e-3)
        # re-substitution reproduces M = 2 + N^q
        _, M = barrier_value(res.mu0, 1.0, 0.25, 0.5)
        assert abs(M - 3.0) < 1e-10
        assert res.M == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("R", [1e4, 1e6])
    def test_large_cutoff_level(self, R):
        # mu0 lies far below 1e-6 here (6e-10 and 6e-15): the report takes
        # the closed form, with no sampled check on a grid floored at 1e-6
        res = barrier_mu0(R=R, e_bar=0.25, gamma=0.5, N=1.0, q=4.0)
        assert res.mu0 < 1e-9
        assert res.M == pytest.approx(3.0, rel=1e-12, abs=0)

    def test_k0_example(self):
        res = barrier_mu0(R=1.0, e_bar=0.25, gamma=0.5, N=1.0, q=4.0)
        assert res.K0 == pytest.approx(10.0)

    def test_monotone_in_mu(self):
        maxima = [barrier_value(mu, 1.0, 0.25, 0.5)[1] for mu in np.linspace(1, 100, 50)]
        assert all(b > a for a, b in zip(maxima, maxima[1:]))

    def test_argmax_is_the_maximizer(self):
        m, M = barrier_value(7.3, 0.8, 0.4, 0.5)
        xs = np.linspace(0.5 * m, 2 * m, 200)
        psi = 0.8 * xs - 7.3 ** (-0.5) * xs**1.4
        assert psi.max() <= M + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            barrier_mu0(R=0.0, e_bar=0.25, gamma=0.5, N=1.0, q=4.0)

    def test_barrier_exponent(self):
        assert barrier_exponent(2.0, 4.0) == 0.25


class TestMeanZeroGamma:
    def test_values(self):
        assert mean_zero_gamma(2) == pytest.approx(0.5)
        assert mean_zero_gamma(3) == pytest.approx(0.6)

    def test_bounded_below_one(self):
        assert all(mean_zero_gamma(d) < 1 for d in range(2, 200))
