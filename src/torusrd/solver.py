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
propagator then carries nu_i only.  Every iterate past the data lies in the
dealias band |k_j| <= K = n/3 and the velocity in |k_j| <= K_u, so the
series runs on a product grid of M > 2K + K_u points per axis, where those
products are exact (product_grid_size).

Blow-up (threshold crossing of the L^{q0} norm, or non-finite values) is a
recorded outcome with a tau estimate, never a process failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
import scipy.fft
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


# smallest admissible exponent of each norm list of SolverConfig
NORM_EXPONENT_MIN = {"lq_norms": 1.0, "balance_q": 2.0}


def exponents_error(name: str, exponents) -> str | None:
    """Why the exponents of the SolverConfig norm list `name` are out of
    range, or None."""
    low = NORM_EXPONENT_MIN[name]
    if all(q >= low for q in exponents):
        return None
    return f"exponents must be >= {low:g}, got {list(exponents)}"


def chebyshev_expm(apply, v: np.ndarray, rho: float) -> np.ndarray:
    """exp(A) v for a skew-adjoint A with ||A|| <= rho; apply(w) returns
    (2/rho) A w as a new array, and is not called when rho = 0.

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
    prev, cur = v, apply(v)
    cur *= 0.5
    out += (2.0 * c[1]) * cur
    for k in range(2, degree + 1):
        nxt = apply(cur)
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


def product_grid_size(n: int, band: int, max_k: int) -> int:
    """Points per axis on which (u.grad)v is exact in the band |k_j| <= band
    for v in that band and u in |k_j| <= max_k: the smallest even fast
    transform length M > 2 band + max_k, capped at n.

    The product has |k_j| <= band + max_k, so its aliases on M points sit
    at |k_j| >= M - band - max_k > band, outside the band.
    """
    m = scipy.fft.next_fast_len(2 * band + max_k + 1)
    while m % 2:
        m = scipy.fft.next_fast_len(m + 1)
    return min(m, n)


class ProductLayout(NamedTuple):
    """What the advection product needs of one grid: its shape, the mask
    applied to the product (None: dealias off), the packed derivative
    multiplier of axes 0 and 1, and in d = 3 the multiplier of axis 2 over
    the Hermitian half."""

    shape: tuple[int, ...]
    mask: np.ndarray | None
    deriv_pack: np.ndarray
    deriv_last_half: np.ndarray | None

    @classmethod
    def of(cls, grid: TorusGrid, mask: np.ndarray | None) -> "ProductLayout":
        # one inverse transform yields two derivative components as its
        # real and imaginary parts (both factors are Hermitian)
        mult = grid.derivative_multipliers
        last = mult[2][..., : grid.n_per_dim // 2 + 1] if grid.d == 3 else None
        return cls(grid.shape, mask, mult[0] + 1j * mult[1], last)


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
        for name in NORM_EXPONENT_MIN:
            if problem := exponents_error(name, getattr(self, name)):
                raise ValueError(f"{name}: {problem}")


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
        # complex 0/1: a product with a bool mask casts it element by element
        self.dealias_mask = grid.dealias_mask().astype(complex) if cfg.dealias else None
        self.nyquist_mask = grid.nyquist_mask
        self.deriv_mult = grid.derivative_multipliers
        self.layout = ProductLayout.of(grid, self.dealias_mask)
        # real inverse transforms read the Hermitian half k_d <= n/2 only
        self._half = grid.n_per_dim // 2 + 1
        self._deriv_half = [m[..., : self._half] for m in self.deriv_mult]
        self.zero_index = (0,) * grid.d
        self.product_n = grid.n_per_dim  # points per axis of the Wong-Zakai products
        if cfg.scheme == "strat_substep":
            # max |2 pi k| over the mask: ||(u.grad)|| <= max|u| * k_max there
            self.k_max = math.sqrt(-lam[grid.dealias_mask()].min())
            if self.noise is not None:
                band = grid.n_per_dim // 3  # the dealias mask keeps |k_j| <= n/3
                self.product_n = product_grid_size(
                    grid.n_per_dim, band, self.noise.spectrum.max_component())
                if self.product_n < grid.n_per_dim:
                    product = TorusGrid(grid.d, self.product_n)
                    self._band = grid.band_index(band)
                    self._product_band = product.band_index(band)
                    mask = np.zeros(product.shape, dtype=complex)
                    mask[self._product_band] = 1.0
                    self.product_layout = ProductLayout.of(product, mask)
                    self.product_noise_ops = NoiseGridOps(self.noise, product)

    # -- spectral helpers ------------------------------------------------

    def to_values(self, fields: np.ndarray) -> np.ndarray:
        return inverse_real(fields[..., : self._half], self.grid.shape)

    def _clean_product(self, coeffs: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Post-product hygiene, in place: apply the mask, or make the
        Nyquist modes real when there is none (dealias off)."""
        if mask is not None:
            coeffs *= mask
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
        drift = self._clean_product(forward(rates, self.grid.d), self.dealias_mask)
        if self.sys.F is not None:
            flux = self.sys.F(t, values)  # (ell, d, ...)
            finite = finite and bool(np.all(np.isfinite(flux)))
            fhat = forward(flux, self.grid.d)
            div = np.zeros_like(drift)
            for j in range(self.grid.d):
                div += fhat[:, j] * self.deriv_mult[j]
            drift = drift + self._clean_product(div, self.dealias_mask)
        return drift, finite

    def _advection_rhs(self, coeffs: np.ndarray, vel: tuple[np.ndarray, np.ndarray | None],
                       layout: ProductLayout | None = None) -> np.ndarray:
        """Spectral coefficients of (u.grad)v for one species; vel is
        pack_velocity(u), both on the grid of layout (default: the
        stepper's).

        The first two derivative components ride a single inverse transform
        z, and Re(z w) is their product with u_0 and u_1.
        """
        lay = self.layout if layout is None else layout
        d = self.grid.d
        w, u2 = vel
        z = inverse_packed(coeffs * lay.deriv_pack, d, overwrite_x=True)
        z *= w
        vals = z.real
        if u2 is not None:
            half = coeffs[..., : lay.shape[-1] // 2 + 1]
            d3 = inverse_real(half * lay.deriv_last_half, lay.shape)
            d3 *= u2
            vals += d3
        out = self._clean_product(forward(vals, d), lay.mask)
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

    def _advect(self, fields: np.ndarray, inc: IncrementSet) -> None:
        """Wong-Zakai substep, in place: the flow of dv/ds = (u.grad)v over
        s in [0,1].

        u is the frozen displacement field (velocity * dt) of inc.  The
        operator is skew-adjoint on the dealiased ball, so exp(A)v is
        evaluated by its Chebyshev series with rho = max|u| * k_max >= ||A||;
        the L^2 norm is kept to round-off and the cost is ~rho + O(rho^(1/3))
        right-hand sides.

        On a product grid (product_n < n), v = v_L + v_H splits at the band
        and A maps into the band, so the series is h v_H plus a band series
        Q_k with h = J_0 + 2 sum_{even k} J_k and
        Q_{k+1} = (2/rho)(A Q_k + [k even] g) + Q_{k-1}, g = A v_H.  g is
        one product on the n-grid; the Q_k live on the product grid, with a
        trailing scalar eta_k = [k even] that carries the g term and ends
        as h.
        """
        u = self.noise_ops.velocity_field(inc)
        rho = math.sqrt(float(np.max(np.sum(u * u, axis=0)))) * self.k_max
        scale = 2.0 / rho if rho > 0 else 0.0  # apply returns (2/rho) A w
        if self.product_n == self.grid.n_per_dim:
            u *= scale
            vel = pack_velocity(u)
            del u  # the packed copy replaces the real velocity
            for f in fields:
                f[...] = chebyshev_expm(lambda w: self._advection_rhs(w, vel), f, rho)
            return

        band, pband, lay = self._band, self._product_band, self.product_layout
        vel = pack_velocity(u)
        del u
        gs = []
        for f in fields:
            high = f.copy()
            high[band] = 0.0
            g = np.zeros(lay.shape, dtype=complex)
            g[pband] = self._advection_rhs(high, vel)[band]
            g *= scale
            gs.append(g)
        del vel, high  # only the product grid is needed from here on
        u = self.product_noise_ops.velocity_field(inc)
        u *= scale
        vel = pack_velocity(u)
        del u
        for f, g in zip(fields, gs):

            def apply(y):
                q = self._advection_rhs(y[:-1].reshape(lay.shape), vel, lay)
                if y[-1]:
                    q += y[-1] * g
                return np.append(q, 0.0)

            y = np.zeros(g.size + 1, dtype=complex)
            y[:-1].reshape(lay.shape)[pband] = f[band]
            y[-1] = 1.0
            y = chebyshev_expm(apply, y, rho)
            f *= y[-1]
            f[band] = y[:-1].reshape(lay.shape)[pband]

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
                self._advect(new, inc)
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
