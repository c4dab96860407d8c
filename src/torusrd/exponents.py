"""Closed-form exponent, admissibility and threshold arithmetic.

Everything here is scalar arithmetic on the parameter set (d, h, q, p,
delta, N): the subcriticality window for q, the local-solvability floor for
p, the interpolation exponents (phi, psi) with phi*h < 1 and
psi*(h+1)/2 < 1, the cut-off time exponent r0, the feasible tuple for the
space-time interpolation step, and the high-diffusivity barrier
(m, M, mu0, K0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class ParamSet:
    d: int
    h: float
    q: float
    p: float = 8.0
    delta: float = 1.1
    N: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("dimension must be >= 2")
        if not self.h > 1:
            raise ValueError("growth exponent h must be > 1")
        if not 1 < self.delta <= 2:
            raise ValueError("delta must lie in (1, 2]")
        if not (self.q > 0 and self.p > 0 and self.N >= 1):
            raise ValueError("q, p must be positive and N >= 1")


@dataclass(frozen=True)
class AdmissibilityReport:
    q_lower: float
    q_upper: float
    q_window_nonempty: bool
    q_in_window: bool
    p_min: float
    p_ok: bool
    a_p_delta: float
    q_meets_delayed_blowup: bool  # q > d(h-1)/2 v 2


def admissibility(params: ParamSet) -> AdmissibilityReport:
    d, h, q, p, delta = params.d, params.h, params.q, params.p, params.delta
    q_lower = max(d * (h - 1) / 2.0, d / (d - delta))
    q_upper = d * (h - 1) / delta
    p_min = math.inf if delta >= 2 else max(2.0 / (2.0 - delta), q)
    return AdmissibilityReport(
        q_lower=q_lower,
        q_upper=q_upper,
        q_window_nonempty=q_lower < q_upper,
        q_in_window=q_lower < q < q_upper,
        p_min=p_min,
        p_ok=p >= p_min,
        a_p_delta=p * (1.0 - delta / 2.0) - 1.0,
        q_meets_delayed_blowup=subcriticality_error(d, h, q) is None,
    )


def subcriticality_error(d: int, h: float, q: float) -> str | None:
    """Why q fails the subcriticality rule q > max(d(h-1)/2, 2), or None."""
    if q > (floor := max(d * (h - 1) / 2.0, 2.0)):
        return None
    return f"q = {q} is not subcritical: need q > max(d(h-1)/2, 2) = {floor}"


def interp_exponents_strong(d: int, h: float, q: float) -> tuple[float, float]:
    """Interpolation exponents (phi, psi) of the sublinear nonlinearity bounds.

    phi = (dh - d - q)/(hq) clipped at 0 (the clip is the branch where the
    h-fold power already lands in L^q without smoothing); psi = (d/q)(h-1)/(h+1).
    Subcriticality q > d(h-1)/2 guarantees phi*h < 1 and psi*(h+1)/2 < 1.
    """
    if problem := subcriticality_error(d, h, q):
        raise ValueError(problem)
    phi = max(0.0, (d * h - d - q) / (h * q))
    psi = (d / q) * (h - 1.0) / (h + 1.0)
    return phi, psi


def cutoff_r0(d: int, h: float, q: float, p: float) -> float:
    """Smallest admissible cut-off time exponent r0.

    r0 = max{ (1-phi)hp/(1-phi h), ((1-psi)p/(1-psi(h+1)/2)) (h+1)/2 } v 2.
    """
    phi, psi = interp_exponents_strong(d, h, q)
    den_f = 1.0 - phi * h
    den_g = 1.0 - psi * (h + 1.0) / 2.0
    if den_f <= 0 or den_g <= 0:
        raise ValueError("criticality breach: interpolation denominators <= 0")
    term_f = (1.0 - phi) * h * p / den_f
    term_g = (1.0 - psi) * p / den_g * (h + 1.0) / 2.0
    return max(term_f, term_g, 2.0)


def mean_zero_gamma(d: int) -> float:
    """Interpolation weight for mean-zero fields: gamma = d/(d+2)."""
    return d / (d + 2.0)


def interp_feasible_tuple(
    d: int, psi_target: float, margin: float = 1e-9
) -> tuple[float, float, float, float]:
    """A verified tuple (theta, r1, zeta1, xi1) for the space-time interpolation.

        (1-theta)/r1 + theta/2     <= 1/psi
        (1-theta)/zeta1 + theta/xi1 <= 1/psi

    Search runs from the extreme values (d/(d+2), inf, 2, 2d/(d-2)) inward
    over an ascending theta grid and returns the first tuple satisfying both
    inequalities with strict margin and zeta1 < 2.  By construction theta is
    in (0, d/(d+2)), r1 >= 2.5, zeta1 >= 1.1, and xi1 in (2, 2d/(d-2)) for
    d >= 3, xi1 >= 100 for d = 2.
    """
    boundary = 2.0 * (d + 2.0) / d
    if not 1.0 < psi_target < boundary:
        raise ValueError(
            f"psi = {psi_target} infeasible: need 1 < psi < 2(d+2)/d = {boundary}"
        )
    inv_psi = 1.0 / psi_target
    theta_star = d / (d + 2.0)
    xi_star = 2.0 * d / (d - 2.0) if d >= 3 else math.inf

    thetas = theta_star * np.concatenate(
        [[1e-4, 1e-3, 1e-2], np.linspace(0.05, 0.999, 80)]
    )
    for theta in thetas:
        if d >= 3:
            xi1 = 2.0 + (xi_star - 2.0) * (1.0 - 1e-3)
        else:
            # extreme is infinity; any large finite value works
            slack = inv_psi - (1.0 - theta) / 2.0
            xi1 = max(100.0, 100.0 * theta / max(slack, 1e-12))
        avail1 = inv_psi - theta / 2.0
        avail2 = inv_psi - theta / xi1
        if avail1 <= 0 or avail2 <= 0:
            continue
        r1 = max((1.0 - theta) / (avail1 * (1.0 - 1e-3)), 2.5)
        zeta1 = max((1.0 - theta) / (avail2 * (1.0 - 1e-3)), 1.1)
        m1 = inv_psi - ((1.0 - theta) / r1 + theta / 2.0)
        m2 = inv_psi - ((1.0 - theta) / zeta1 + theta / xi1)
        if zeta1 < 2.0 and m1 >= margin and m2 >= margin:
            return float(theta), float(r1), float(zeta1), float(xi1)
    raise ValueError(f"no feasible tuple found for d={d}, psi={psi_target}")


@dataclass(frozen=True)
class BarrierResult:
    mu0: float
    m: float
    M: float
    K0: float


def barrier_value(mu: float, R: float, e_bar: float, gamma: float) -> tuple[float, float]:
    """(argmax m, max M) of psi(x) = R x - mu^{-gamma} x^{1+e_bar} on [0, inf)."""
    m = (R * mu**gamma / (1.0 + e_bar)) ** (1.0 / e_bar)
    M = R * e_bar / (1.0 + e_bar) * m
    return m, M


def barrier_mu0(
    R: float, e_bar: float, gamma: float, N: float, q: float
) -> BarrierResult:
    """High-diffusivity threshold: smallest mu with barrier max M = 2 + N^q.

    e_bar is the barrier exponent (h-1)/q and gamma = d/(d+2).  Also returns
    the trajectory bound K0 = (1+e_bar)/(R e_bar) (1 + N^q).
    """
    if not all(x > 0 for x in (R, e_bar, gamma, N, q)):
        raise ValueError("all barrier inputs must be positive")
    m_target = 2.0 + N**q
    # invert M(mu) = R e_bar/(1+e_bar) (R mu^gamma/(1+e_bar))^{1/e_bar}
    mu0 = (
        (1.0 + e_bar) / R * (m_target * (1.0 + e_bar) / (R * e_bar)) ** e_bar
    ) ** (1.0 / gamma)
    m, M = barrier_value(mu0, R, e_bar, gamma)
    K0 = (1.0 + e_bar) / (R * e_bar) * (1.0 + N**q)
    return BarrierResult(mu0=mu0, m=m, M=M, K0=K0)


def barrier_exponent(h: float, q: float) -> float:
    """Barrier exponent (h-1)/q (named e_bar here: theta is the noise spectrum)."""
    return (h - 1.0) / q


def full_report(params: ParamSet, R: float = 1.0) -> dict:
    """Every computable quantity for one parameter set, for the CLI report."""
    out: dict = {"params": asdict(params)}
    out["admissibility"] = asdict(admissibility(params))
    gamma = mean_zero_gamma(params.d)
    out["mean_zero_gamma"] = gamma
    try:
        phi, psi = interp_exponents_strong(params.d, params.h, params.q)
        out["phi"] = phi
        out["psi"] = psi
        out["phi_h"] = phi * params.h
        out["psi_h_plus_1_half"] = psi * (params.h + 1.0) / 2.0
        out["r0"] = cutoff_r0(params.d, params.h, params.q, params.p)
    except ValueError as exc:
        out["subcritical_error"] = str(exc)
    e_bar = barrier_exponent(params.h, params.q)
    out["barrier_e_bar"] = e_bar
    barrier = barrier_mu0(R, e_bar, gamma, params.N, params.q)
    out["barrier"] = asdict(barrier)
    psi_t = 2.0 * (params.q + params.h - 1.0) / params.q
    out["interp_psi_target"] = psi_t
    try:
        theta, r1, zeta1, xi1 = interp_feasible_tuple(params.d, psi_t)
        out["interp_tuple"] = {"theta": theta, "r1": r1, "zeta1": zeta1, "xi1": xi1}
    except ValueError as exc:
        out["interp_tuple_error"] = str(exc)
    # existence-only exponents (no computable formula): reported as such
    out["not_computable"] = ["xi0 (weak-uniqueness floor)", "(r1, eta1) of the final interpolation"]
    return out
