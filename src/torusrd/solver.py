"""Time integration of the stochastic reaction-diffusion system.

The Ito form is primary: writing E_i(dt) = exp(-4 pi^2 |k|^2 (nu_i + nu) dt)
for the per-mode diffusion propagator (the +nu is the Stratonovich
correction), one step is

    v+ = E_i(dt) [ v + dt * phi * (div F_i + f_i)(v) + transport(v, dW) ].

The optional strat_substep scheme instead freezes the Brownian increment and
applies the exact flow exp(A) of the transport ODE dv/ds = (u.grad) v,
s in [0, 1], u the frozen displacement field (Wong-Zakai).  On the dealiased
ball A is skew-adjoint, so exp(A)v has a Chebyshev (Jacobi-Anger) series
with Bessel coefficients J_k(rho), rho >= ||A||.  Cut where the Bessel tail
drops below 1e-16, at degree rho + O(rho^(1/3) log(1/tol)), it keeps the
L^2 norm pathwise to round-off (~1e-14 over 500 steps at 64^2).  Its
propagator then carries nu_i only.

Blow-up (threshold crossing of the L^{q0} norm, or non-finite values) is a
recorded outcome with a tau estimate, never a process failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import jv

from .diagnostics import DiagnosticsRecord, RecordBuilder, lq_norm_vector
from .fields import GridField, TorusGrid, forward, inverse_packed, inverse_real
from .noise import (IncrementSet, NoiseGridOps, NoiseModel, path_rng, sample_increments,
                    step_guard_error)
from .reactions import ReactionSystem

SCHEMES = ("euler_maruyama_ito", "strat_substep")

# Bessel-tail bound at which the Chebyshev series of exp(A) is truncated
EXPM_TAIL_TOL = 1e-16


def horizon_steps(T: float, dt: float) -> int | None:
    """Number of dt steps that end at T, or None if T is not a multiple of dt."""
    ratio = T / dt
    n = round(ratio)
    return n if abs(ratio - n) <= 1e-9 * max(1.0, ratio) else None


def chebyshev_expm(apply, v: np.ndarray, rho: float) -> np.ndarray:
    """exp(A) v for a skew-adjoint A with ||A|| <= rho; apply(w) returns A w
    as a new array.

    Jacobi-Anger: exp(A) v = J_0(rho) P_0 + 2 sum_k J_k(rho) P_k with
    P_k = i^k T_k(A / (i rho)) v, which obeys the real recurrence
    P_0 = v, P_1 = A v / rho, P_{k+1} = (2/rho) A P_k + P_{k-1}.  Since
    |P_k| <= |v|, stopping at the first degree K whose tail
    2 sum_{j>K} |J_j(rho)| is below EXPM_TAIL_TOL bounds the error by that
    tail times |v|.  K calls of apply, three vectors plus the sum.
    """
    # J_j(rho) <= (e rho / 2j)^j, so orders past 2 rho + 64 are negligible
    c = jv(np.arange(2 * math.ceil(rho) + 64), rho)
    tail = np.cumsum(np.abs(c[::-1]))[::-1]  # tail[k] = sum_{j >= k} |J_j|
    degree = int(np.argmax(2.0 * tail < EXPM_TAIL_TOL)) - 1
    out = c[0] * v
    if degree < 1:
        return out
    prev, cur = v, apply(v) / rho
    out += (2.0 * c[1]) * cur
    for k in range(2, degree + 1):
        nxt = apply(cur)
        nxt *= 2.0 / rho
        nxt += prev
        out += (2.0 * c[k]) * nxt
        prev, cur = cur, nxt
    return out


def pack_velocity(u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, u_2) for a real velocity u of shape (d, n, ..., n).

    w = u_0 - i u_1 packs the first two components so that, for z = a + i b,
    Re(z w) = u_0 a + u_1 b.  u_2 is a copy of the third component in d = 3,
    None in d = 2, so that u itself can be freed.
    """
    w = np.empty(u.shape[1:], dtype=complex)
    w.real = u[0]
    np.negative(u[1], out=w.imag)
    return w, (u[2].copy() if len(u) == 3 else None)


def phi_bump(x: float) -> float:
    """Cut-off profile: 1 on [0,1], 0 on [2,inf), C^2 smoothstep between."""
    if x < 0:
        raise ValueError(f"cut-off argument must be >= 0, got {x}")
    if x <= 1.0:
        return 1.0
    if x >= 2.0:
        return 0.0
    s = x - 1.0
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


@dataclass(frozen=True)
class CutOffParams:
    R: float
    r: float
    q: float

    def __post_init__(self) -> None:
        if self.R <= 0 or self.r <= 1 or self.q < 1:
            raise ValueError("cut-off requires R > 0, r > 1, q >= 1")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    scheme: str = "euler_maruyama_ito"
    noise_on: bool = True
    cutoff: CutOffParams | None = None
    blowup_threshold: float = 1e6
    blowup_norm_q0: float = 4.0
    seed: int = 0
    dealias: bool = True
    record_every: int = 1
    require_nonneg: bool = False
    # explicit-noise step guard: dt <= c_cfl / (nu * max|k_noise| * n)
    c_cfl: float = 0.5
    track_balance: bool = True
    balance_q: tuple[float, ...] = (2.0,)
    lq_norms: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"horizon T must be >= 0, got {self.T}")
        if horizon_steps(self.T, self.dt) is None:
            raise ValueError(f"horizon T = {self.T} is not a multiple of dt = {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "strat_substep" and not self.dealias:
            raise ValueError("strat_substep needs dealias: without the 2/3 mask "
                             "the transport operator is not skew-adjoint")
        if self.blowup_norm_q0 <= 2:
            raise ValueError(f"blow-up norm exponent q0 must be > 2, got {self.blowup_norm_q0}")
        if self.blowup_threshold <= 0:
            raise ValueError("blow-up threshold must be > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if any(q < 1 for q in self.lq_norms):
            raise ValueError(f"lq_norms exponents must be >= 1, got {self.lq_norms}")
        if any(q < 2 for q in self.balance_q):
            raise ValueError(f"balance_q exponents must be >= 2, got {self.balance_q}")


@dataclass
class SimState:
    t: float
    fields: np.ndarray  # (ell, n, ..., n) complex spectral coefficients
    cutoff_acc: float = 0.0  # running integral of |v|_{L^q}^r
    phi_value: float = 1.0
    step_index: int = 0
    blown_up: float | None = None  # tau estimate once set
    # derived from fields, filled by the Stepper when first needed
    grid_values: np.ndarray | None = dc_field(default=None, repr=False)
    rates: np.ndarray | None = dc_field(default=None, repr=False)  # f(t, v)
    cutoff_integrand: float | None = None  # |v|_{L^q}^r of the cut-off


class Stepper:
    """Engine bound to one (grid, system, noise, config) tuple."""

    def __init__(
        self,
        grid: TorusGrid,
        sys: ReactionSystem,
        noise: NoiseModel | None,
        cfg: SolverConfig,
        nu_enhancement: float = 0.0,
    ):
        self.grid = grid
        self.sys = sys
        self.cfg = cfg
        self.noise = noise if cfg.noise_on else None
        self.noise_ops = NoiseGridOps(self.noise, grid) if self.noise else None

        if self.noise is not None:
            problem = step_guard_error(self.noise.nu, self.noise.spectrum.max_component(),
                                       grid.n_per_dim, cfg.dt, cfg.c_cfl)
            if problem:
                raise ValueError(problem)

        if cfg.scheme == "euler_maruyama_ito":
            nu_extra = self.noise.nu if self.noise is not None else nu_enhancement
        else:  # strat_substep: the Wong-Zakai substep supplies the nu-diffusion
            nu_extra = 0.0 if self.noise is not None else nu_enhancement
        lam = grid.laplacian_multipliers  # -4 pi^2 |k|^2
        self.propagator = np.stack(
            [np.exp(lam * (nu_i + nu_extra) * cfg.dt) for nu_i in sys.nu]
        )
        if cfg.scheme == "strat_substep":
            # max |2 pi k| over the mask: ||(u.grad)|| <= max|u| * k_max there
            self.k_max = math.sqrt(-lam[grid.dealias_mask()].min())
        # complex 0/1: a product with a bool mask casts it element by element
        self.dealias_mask = grid.dealias_mask().astype(complex) if cfg.dealias else None
        self.nyquist_mask = grid.nyquist_mask
        self.deriv_mult = grid.derivative_multipliers
        # packed multiplier: one inverse transform yields two derivative
        # components as real/imaginary parts (both factors are Hermitian)
        self._deriv_pack = self.deriv_mult[0] + 1j * self.deriv_mult[1]
        # real inverse transforms read the Hermitian half k_d <= n/2 only
        self._half = grid.n_per_dim // 2 + 1
        self._deriv_half = [m[..., : self._half] for m in self.deriv_mult]
        self.zero_index = (0,) * grid.d

    # -- spectral helpers ------------------------------------------------

    def to_values(self, fields: np.ndarray) -> np.ndarray:
        return inverse_real(fields[..., : self._half], self.grid.shape)

    def _clean_product(self, coeffs: np.ndarray) -> np.ndarray:
        """Post-product hygiene, in place: dealias, or real Nyquist when
        dealias is off."""
        if self.dealias_mask is not None:
            coeffs *= self.dealias_mask
        else:
            nymask = self.nyquist_mask
            coeffs[..., nymask] = coeffs[..., nymask].real
        return coeffs

    def gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """Real gradient fields, shape (..., d, n, ..., n), of a batch of
        species (...) in one transform."""
        half = coeffs[..., : self._half]
        axis = -self.grid.d - 1
        return inverse_real(np.stack([half * m for m in self._deriv_half], axis=axis),
                            self.grid.shape)

    # -- physics terms ---------------------------------------------------

    def reaction_rates(self, state: SimState) -> np.ndarray:
        """f(t, v) at the state's grid values; the balance accumulator and
        the step's drift share this one evaluation."""
        if state.rates is None:
            state.rates = self.sys.f(state.t, state.grid_values)
        return state.rates

    def reaction_drift(
        self, t: float, values: np.ndarray, rates: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """phi-free drift (div F + f) in spectral space, plus finiteness flag;
        rates is f(t, values)."""
        finite = bool(np.all(np.isfinite(rates)))
        drift = self._clean_product(forward(rates, self.grid.d))
        if self.sys.F is not None:
            flux = self.sys.F(t, values)  # (ell, d, ...)
            finite = finite and bool(np.all(np.isfinite(flux)))
            fhat = forward(flux, self.grid.d)
            div = np.zeros_like(drift)
            for j in range(self.grid.d):
                div += fhat[:, j] * self.deriv_mult[j]
            drift = drift + self._clean_product(div)
        return drift, finite

    def _advection_rhs(self, coeffs: np.ndarray,
                       vel: tuple[np.ndarray, np.ndarray | None]) -> np.ndarray:
        """Spectral coefficients of (u.grad)v for one species; vel is
        pack_velocity(u).

        The first two derivative components ride a single inverse transform
        z, and Re(z w) is their product with u_0 and u_1.
        """
        w, u2 = vel
        z = inverse_packed(coeffs * self._deriv_pack, self.grid.d, overwrite_x=True)
        z *= w
        vals = z.real
        if u2 is not None:
            d3 = inverse_real(coeffs[..., : self._half] * self._deriv_half[2], self.grid.shape)
            d3 *= u2
            vals += d3
        out = self._clean_product(forward(vals, self.grid.d))
        out[self.zero_index] = 0.0  # div sigma = 0: the term is mean free
        return out

    def transport(self, fields: np.ndarray, inc: IncrementSet) -> np.ndarray:
        """Transport increments for all species from one sampled velocity."""
        assert self.noise_ops is not None
        vel = pack_velocity(self.noise_ops.velocity_field(inc))
        out = np.empty_like(fields)
        for i in range(len(fields)):
            out[i] = self._advection_rhs(fields[i], vel)
        return out

    def _advect(self, fields: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Wong-Zakai substep: the flow of dv/ds = (u.grad)v over s in [0,1].

        u is the frozen displacement field (velocity * dt).  The operator is
        skew-adjoint on the dealiased ball, so exp(A)v is evaluated by its
        Chebyshev series with rho = max|u| * k_max >= ||A||; the L^2 norm is
        kept to round-off and the cost is ~rho + O(rho^(1/3)) right-hand sides.
        """
        rho = math.sqrt(float(np.max(np.sum(u * u, axis=0)))) * self.k_max
        vel = pack_velocity(u)
        del u  # the packed copy replaces the real velocity
        out = np.empty_like(fields)
        for i in range(len(fields)):
            out[i] = chebyshev_expm(lambda w: self._advection_rhs(w, vel), fields[i], rho)
        return out

    # -- the step ---------------------------------------------------------

    def evaluate_phi(self, state: SimState) -> float:
        if self.cfg.cutoff is None:
            return 1.0
        co = self.cfg.cutoff
        return phi_bump(state.cutoff_acc ** (1.0 / co.r) / co.R)

    def step(self, state: SimState, inc: IncrementSet | None) -> SimState:
        """Advance one dt.  inc must be provided iff noise is active."""
        if state.blown_up is not None:
            raise ValueError("state already blew up; stepping is undefined")
        cfg = self.cfg
        if state.grid_values is None:
            state.grid_values = self.to_values(state.fields)
        pre_values = state.grid_values

        phi = self.evaluate_phi(state)
        state.phi_value = phi

        new = state.fields
        if not self.sys.is_linear and phi != 0.0:
            drift, finite_drift = self.reaction_drift(state.t, pre_values,
                                                      self.reaction_rates(state))
            new = new + (cfg.dt * phi) * drift
        else:
            finite_drift = True
            new = new.copy()
        state.rates = None  # read by the balance and the drift only: free it

        if self.noise_ops is not None:
            if inc is None:
                raise ValueError("noise is active but no increments were given")
            if cfg.scheme == "euler_maruyama_ito":
                new += self.transport(state.fields, inc)
                new *= self.propagator
            else:
                new *= self.propagator
                new = self._advect(new, self.noise_ops.velocity_field(inc))
        else:
            new *= self.propagator

        post_values = self.to_values(new)

        # trapezoid advance of the cut-off accumulator A(t) = int |v|_{Lq}^r;
        # the pre-step integrand is carried over from the previous step
        acc, post_n = state.cutoff_acc, None
        if cfg.cutoff is not None:
            co = cfg.cutoff
            pre_n = state.cutoff_integrand
            if pre_n is None:
                pre_n = lq_norm_vector(pre_values, co.q) ** co.r
            post_n = lq_norm_vector(post_values, co.q) ** co.r
            acc = acc + 0.5 * cfg.dt * (pre_n + post_n)

        t_new = (state.step_index + 1) * cfg.dt
        blown: float | None = None
        finite = finite_drift and bool(np.all(np.isfinite(post_values)))
        if not finite:
            blown = t_new
        else:
            q0norm = lq_norm_vector(post_values, cfg.blowup_norm_q0)
            if not math.isfinite(q0norm) or q0norm >= cfg.blowup_threshold:
                blown = t_new

        return SimState(
            t=t_new,
            fields=new,
            cutoff_acc=acc,
            phi_value=phi,
            step_index=state.step_index + 1,
            blown_up=blown,
            grid_values=post_values,
            cutoff_integrand=post_n,
        )


def initial_state(
    grid: TorusGrid,
    v0: list[GridField],
    cfg: SolverConfig,
) -> SimState:
    if cfg.require_nonneg:
        for i, f in enumerate(v0):
            if np.min(f.values) < 0:
                raise ValueError(f"require_nonneg: species {i} has negative initial data")
    # v0 is kept verbatim (a T = 0 run returns it unchanged); dealiasing
    # applies to products during stepping, not to the data
    fields = forward(np.stack([f.values for f in v0]), grid.d)
    return SimState(t=0.0, fields=fields)


def run(
    sys: ReactionSystem,
    noise: NoiseModel | None,
    cfg: SolverConfig,
    v0: list[GridField],
    nu_enhancement: float = 0.0,
    path_index: int = 0,
    observer=None,
    increments=None,
    keep_snapshots: bool = False,
) -> tuple[SimState, DiagnosticsRecord]:
    """Integrate to T (or blow-up), recording diagnostics every record_every steps.

    increments: optional callable step_index -> IncrementSet overriding the
    counter-based default (used by coupled-refinement tests).
    """
    grid = v0[0].grid
    if any(f.grid != grid for f in v0):
        raise ValueError("initial fields must share one grid")
    if len(v0) != sys.ell:
        raise ValueError(f"expected {sys.ell} species fields, got {len(v0)}")
    for f in v0:
        if not np.all(np.isfinite(f.values)):
            raise ValueError("initial data contains non-finite values")

    stepper = Stepper(grid, sys, noise, cfg, nu_enhancement=nu_enhancement)
    state = initial_state(grid, v0, cfg)
    state.grid_values = stepper.to_values(state.fields)

    builder = RecordBuilder(
        grid=grid,
        sys=sys,
        lq_list=cfg.lq_norms,
        balance_q=cfg.balance_q if cfg.track_balance else (),
        keep_snapshots=keep_snapshots,
    )

    def record(st: SimState) -> None:
        builder.sample(st.t, st.grid_values, st.phi_value, st.cutoff_acc)
        if observer is not None:
            observer(st.t, st.grid_values, st)

    record(state)
    n_steps = int(round(cfg.T / cfg.dt))
    for step_idx in range(n_steps):
        if cfg.track_balance:
            builder.accumulate_balance(cfg.dt, state, stepper)
        if stepper.noise is not None:
            if increments is not None:
                inc = increments(step_idx)
            else:
                rng = path_rng(cfg.seed, path_index, step_idx)
                inc = sample_increments(noise, cfg.dt, rng)
        else:
            inc = None
        state = stepper.step(state, inc)
        if state.blown_up is not None:
            record(state)
            break
        if (step_idx + 1) % cfg.record_every == 0 or step_idx + 1 == n_steps:
            record(state)

    return state, builder.finalize(state.blown_up)
