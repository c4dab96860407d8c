"""Time integration of the stochastic reaction-diffusion system.

The Ito form is primary: writing E_i(dt) = exp(-4 pi^2 |k|^2 (nu_i + nu) dt)
for the per-mode diffusion propagator (the +nu is the Ito correction
nu Delta of the transport noise), one step is

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
recorded outcome with a tau estimate, never a process failure.  A step
transforms back to the grid only when its values are read (a record step,
the last step, every step of a cut-off run).  Any other step certifies "no
blow-up" from the spectral L^2 norm: for a species stack of N coefficients
c_ik in d = 2 or 3 and any q0,

    |v|_{L^{q0}} <= max_x |v(x)| <= sqrt(sum_i (sum_k |c_ik|)^2)
                 <= sqrt(N sum_ik |c_ik|^2) = sup_bound(c),

and where that bound does not clear the threshold (or is not finite) the
step takes the exact norm instead, so tau is the same either way.  A step
certifies only where n^d sup_bound^{q0} is also below the largest float, so
that the exact norm, which reads an overflow as a blow-up, could not have
overflowed either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
import scipy.fft
from scipy.special import jv

from .diagnostics import DiagnosticsRecord, RecordBuilder, lq_norm_vector
from .fields import (ArgumentErrors, GridField, TorusGrid, dealias_in_place, forward,
                     inverse_packed, inverse_real)
from .noise import (IncrementSet, NoiseGridOps, NoiseModel, path_rng, sample_increments,
                    step_guard_error)
from .reactions import ReactionSystem

SCHEMES = ("euler_maruyama_ito", "strat_substep")

# Bessel-tail bound at which the Chebyshev series of exp(A) is truncated
EXPM_TAIL_TOL = 1e-16
# relative round-off margin by which sup_bound must clear the blow-up threshold
SUP_BOUND_MARGIN = 1e-9


def horizon_steps(T: float, dt: float) -> int | None:
    """Number of dt steps that end at T, or None if T is not a multiple of dt."""
    ratio = T / dt
    n = round(ratio)
    return n if abs(ratio - n) <= 1e-9 * max(1.0, ratio) else None


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


def sup_bound(coeffs: np.ndarray) -> float:
    """sqrt(N sum |c|^2) for the N spectral coefficients c of a species
    stack: an upper bound of max_x |v(x)|, hence of every L^q norm of v,
    with one pass over the coefficients.  inf on overflow, NaN on NaN."""
    return math.sqrt(coeffs.size * np.vdot(coeffs, coeffs).real)


def _scale_velocity(vel: tuple[np.ndarray, np.ndarray | None], scale: float) -> None:
    """Multiply the packed velocity (w, u_2) by a real scale, in place, part
    by part: the same bits as scaling u before packing it."""
    for part in vel:
        if part is not None:
            flat = part.view(np.float64)
            flat *= scale


def _multiply_species(stack: np.ndarray, factor: np.ndarray) -> None:
    """stack *= factor for one species or a stack of them, one species at a
    time: an in-place product with a broadcast operand makes numpy allocate
    a temporary the size of the stack.  Bitwise the broadcast product."""
    for part in stack if stack.ndim > factor.ndim else (stack,):
        part *= factor


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
    """What the advection product needs of one grid: its shape, the packed
    derivative multiplier of axes 0 and 1, and in d = 3 the multiplier of
    axis 2 over the Hermitian half."""

    shape: tuple[int, ...]
    deriv_pack: np.ndarray
    deriv_last_half: np.ndarray | None

    @classmethod
    def of(cls, grid: TorusGrid, band: int | None = None) -> "ProductLayout":
        """The layout of grid; with band, both multipliers are zero outside
        |k_j| <= band, so a derivative reads the band of its data only."""
        # one inverse transform yields two derivative components as its
        # real and imaginary parts (both factors are Hermitian)
        mult = grid.derivative_multipliers
        pack, last = mult[0] + 1j * mult[1], mult[2] if grid.d == 3 else None
        if band is not None:
            pack = dealias_in_place(np.broadcast_to(pack, grid.shape).copy(), grid.d, band)
            if last is not None:
                last = dealias_in_place(np.broadcast_to(last, grid.shape).copy(), grid.d, band)
        if last is not None:
            last = np.ascontiguousarray(last[..., : grid.n_per_dim // 2 + 1])
        return cls(grid.shape, pack, last)


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
        problems = {}
        if not self.R > 0:
            problems["R"] = f"must be > 0, got {self.R}"
        if not self.r > 1:
            problems["r"] = f"must be > 1, got {self.r}"
        if not self.q >= 1:
            problems["q"] = f"must be >= 1, got {self.q}"
        if problems:
            raise ArgumentErrors(problems)


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
    record_every: int = 1
    require_nonneg: bool = False
    balance_q: tuple[float, ...] = (2.0,)  # empty: no balance tracking
    lq_norms: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        problems = {name: f"must be finite, got {value}" for name, value
                    in (("dt", self.dt), ("T", self.T)) if not math.isfinite(value)}
        if self.dt <= 0:
            problems["dt"] = f"must be > 0, got {self.dt}"
        if self.T < 0:
            problems["T"] = f"must be >= 0, got {self.T}"
        elif not problems and horizon_steps(self.T, self.dt) is None:
            problems["T"] = f"{self.T} is not a multiple of dt = {self.dt}"
        if self.scheme not in SCHEMES:
            problems["scheme"] = f"must be one of {SCHEMES}, got {self.scheme!r}"
        if not self.blowup_norm_q0 > 2:
            problems["blowup_norm_q0"] = f"must be > 2, got {self.blowup_norm_q0}"
        if not self.blowup_threshold > 0:
            problems["blowup_threshold"] = f"must be > 0, got {self.blowup_threshold}"
        if self.record_every < 1:
            problems["record_every"] = "must be >= 1"
        for name, low in (("lq_norms", 1.0), ("balance_q", 2.0)):  # L^q balance: q >= 2
            if not all(low <= q for q in getattr(self, name)):
                problems[name] = f"exponents must be >= {low:g}, got {list(getattr(self, name))}"
        if problems:
            raise ArgumentErrors(problems)


@dataclass
class SimState:
    t: float
    fields: np.ndarray  # (ell, n, ..., n) complex spectral coefficients
    cutoff_acc: float = 0.0  # running integral of |v|_{L^q}^r
    phi_value: float = 1.0
    step_index: int = 0
    blown_up: float | None = None  # tau estimate once set
    # derived from fields, filled by the Stepper when first needed; None
    # after a step whose caller did not read its values
    grid_values: np.ndarray | None = dc_field(default=None, repr=False)
    cutoff_integrand: float | None = None  # |v|_{L^q}^r of the cut-off


class Stepper:
    """Engine bound to one (grid, system, noise, config) tuple."""

    def __init__(
        self,
        grid: TorusGrid,
        sys: ReactionSystem,
        noise: NoiseModel | None,
        cfg: SolverConfig,
    ):
        self.grid = grid
        self.sys = sys
        self.cfg = cfg
        self.noise = noise if cfg.noise_on else None
        self.noise_ops = NoiseGridOps(self.noise, grid) if self.noise else None

        if self.noise is not None:
            problem = step_guard_error(self.noise.nu, self.noise.spectrum.max_component(),
                                       grid.n_per_dim, cfg.dt)
            if problem:
                raise ValueError(problem)

        # the Ito correction nu Delta (strat_substep: the Wong-Zakai substep
        # supplies the nu-diffusion); a noise-free enhanced run has it in sys.nu
        nu_extra = self.noise.nu if self.noise and cfg.scheme == "euler_maruyama_ito" else 0.0
        lam = grid.laplacian_multipliers  # -4 pi^2 |k|^2, dropped after __init__
        self.propagator = np.stack(
            [np.exp(lam * (nu_i + nu_extra) * cfg.dt) for nu_i in sys.nu]
        )
        # sup_bound below this cap certifies that the exact L^{q0} norm, a
        # mean of N grid values |v|^{q0} <= sup_bound^{q0}, neither reaches
        # the threshold nor overflows
        overflow = (np.finfo(float).max / math.prod(grid.shape)) ** (1.0 / cfg.blowup_norm_q0)
        self.bound_cap = (1.0 - SUP_BOUND_MARGIN) * min(cfg.blowup_threshold, overflow)
        self.band = grid.dealias_band  # products keep |k_j| <= n/3 (dealias_in_place)
        self.layout = ProductLayout.of(grid)
        # real inverse transforms read the Hermitian half k_d <= n/2 only
        self._half = grid.n_per_dim // 2 + 1
        self.zero_index = (Ellipsis,) + (0,) * grid.d  # mode 0 of every species
        self.grid_axes = tuple(range(-grid.d, 0))  # the grid axes of a species stack
        self.product_n = grid.n_per_dim  # points per axis of the Wong-Zakai products
        if cfg.scheme == "strat_substep":
            # max |2 pi k| over the band: ||(u.grad)|| <= max|u| * k_max there
            self.k_max = math.sqrt(-lam[grid.band_index(self.band)].min())
            if self.noise is not None:
                self.product_n = product_grid_size(
                    grid.n_per_dim, self.band, self.noise.spectrum.max_component())
                if self.product_n < grid.n_per_dim:
                    product = TorusGrid(grid.d, self.product_n)
                    self._band = grid.band_index(self.band)
                    self._product_band = product.band_index(self.band)
                    self.product_layout = ProductLayout.of(product, self.band)
                    self.product_noise_ops = NoiseGridOps(self.noise, product)

    # -- spectral helpers ------------------------------------------------

    def to_values(self, fields: np.ndarray) -> np.ndarray:
        return inverse_real(fields[..., : self._half], self.grid.shape)

    def _derivatives(self, coeffs: np.ndarray, lay: ProductLayout
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Grid values of the derivatives of a species stack (...) on the
        grid of lay: z = d_0 v + i d_1 v, both components in one packed
        inverse transform, and in d = 3 the real d_2 v (None in d = 2)."""
        z = inverse_packed(coeffs * lay.deriv_pack, self.grid.d, overwrite_x=True)
        if lay.deriv_last_half is None:
            return z, None
        half = coeffs[..., : lay.shape[-1] // 2 + 1]
        return z, inverse_real(half * lay.deriv_last_half, lay.shape)

    def gradients(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed gradient (z, g_2) of a species stack (...): z = d_0 v + i d_1 v
        and g_2 = d_2 v in d = 3, None in d = 2, so that
        |grad v|^2 = z.real^2 + z.imag^2 (+ g_2^2)."""
        return self._derivatives(coeffs, self.layout)

    # -- physics terms ---------------------------------------------------

    def reaction_drift(self, t: float, values: np.ndarray) -> np.ndarray | None:
        """The flux part of the phi-free drift f + div F: the dealiased
        spectral div F, None when there is no flux.

        A non-finite rate or flux needs no flag: the step's forward
        transform spreads it to every mode, so the post-step values are
        non-finite and the L^{q0} norm flags the blow-up."""
        if self.sys.F is None:
            return None
        fhat = forward(self.sys.F(t, values), self.grid.d)  # (ell, d, ...)
        div = np.zeros(fhat.shape[:1] + fhat.shape[2:], dtype=complex)
        for j in range(self.grid.d):
            div += fhat[:, j] * self.grid.derivative_multipliers[j]
        return dealias_in_place(div, self.grid.d, self.band)

    def _advection_rhs(self, coeffs: np.ndarray, vel: tuple[np.ndarray, np.ndarray | None],
                       layout: ProductLayout | None = None,
                       source: np.ndarray | None = None,
                       grad: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
        """Spectral coefficients of (u.grad)v for a species or a stack of
        species (...); vel is the packed velocity (w, u_2) of
        NoiseGridOps.velocity_field, both on the grid of layout (default:
        the stepper's).

        The first two derivative components ride a single inverse transform
        z, and Re(z w) is their product with u_0 and u_1.  A real grid term
        source is added before the forward transform, which then takes the
        sum: mode 0 of the result is the source's mean, and 0 without one.
        grad, the packed gradient of coeffs on that grid when the caller has
        it, saves the derivative transform and is multiplied in place.

        On the stepper's grid the result is dealiased.  A product layout
        leaves its entries outside the band as they come: its derivative
        multipliers are zero there, so no later product reads them.
        """
        lay = self.layout if layout is None else layout
        w, u2 = vel
        z, d3 = self._derivatives(coeffs, lay) if grad is None else grad
        _multiply_species(z, w)
        vals = z.real
        if d3 is not None:
            _multiply_species(d3, u2)
            vals += d3
        # free the velocity, if this frame holds its last reference, before
        # the forward transform allocates its output
        del vel, w, u2
        if source is not None:
            vals += source
        out = forward(vals, self.grid.d)
        if layout is None:
            dealias_in_place(out, self.grid.d, self.band)
        # div sigma = 0: the transport term is mean free
        out[self.zero_index] = 0.0 if source is None else source.mean(axis=self.grid_axes)
        return out

    def transport(self, fields: np.ndarray, inc: IncrementSet,
                  source: np.ndarray | None = None,
                  grad: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
        """Transport increments for all species from one sampled velocity,
        plus the spectral coefficients of the dealiased real grid term
        source (ell, n, ..., n) when one is given, in the same forward
        transform.  grad is the packed gradient of fields (gradients), if
        already taken; it is multiplied in place."""
        return self._advection_rhs(fields, self.noise_ops.velocity_field(inc), source=source,
                                   grad=grad)

    def _advect(self, fields: np.ndarray, inc: IncrementSet) -> None:
        """Wong-Zakai substep, in place: the flow of dv/ds = (u.grad)v over
        s in [0,1].

        u is the frozen displacement field (velocity * dt) of inc.  The
        operator is skew-adjoint on the dealiased ball, so exp(A)v is
        evaluated by its Chebyshev series with rho = max|u| * k_max >= ||A||
        (max|u| over the n-grid); the L^2 norm is kept to round-off and the
        cost is ~rho + O(rho^(1/3)) right-hand sides.

        On a product grid (product_n < n), v = v_L + v_H splits at the band
        and A maps into the band, so the series is h v_H plus a band series
        Q_k with h = J_0 + 2 sum_{even k} J_k and
        Q_{k+1} = (2/rho)(A Q_k + [k even] g) + Q_{k-1}, g = A v_H.  g is
        one product on the n-grid per step; the Q_k live on the product
        grid.  The products are exact in the band on both grids, so A is the
        same operator on either, and the n-grid rho bounds it (so would the
        product grid's max|u|).  A scalar eta_k = [k even] carries the g
        term and ends as h; it rides in the mode (M/2, 0, ...), outside the
        band, where the derivative multipliers vanish and apply sets the
        product to 0.  The other entries outside the band are never read: the
        multipliers are zero there, and only the band and eta are copied back.
        """
        w, u2 = vel = self.noise_ops.velocity_field(inc)
        speed2 = w.real * w.real
        speed2 += w.imag * w.imag
        if u2 is not None:
            speed2 += u2 * u2
        rho = math.sqrt(float(np.max(speed2))) * self.k_max
        del w, u2, speed2  # vel is the only reference left
        scale = 2.0 / rho if rho > 0 else 0.0  # apply returns (2/rho) A w
        if self.product_n == self.grid.n_per_dim:
            _scale_velocity(vel, scale)
            for f in fields:
                f[...] = chebyshev_expm(lambda y: self._advection_rhs(y, vel), f, rho)
            return

        # band indices with the species axis in front
        band = (slice(None),) + self._band
        pband = (slice(None),) + self._product_band
        lay = self.product_layout
        high = fields.copy()
        high[band] = 0.0
        gs = np.zeros((len(fields),) + lay.shape, dtype=complex)
        gs[pband] = self._advection_rhs(high, vel)[band]
        gs *= scale
        del vel, high  # only the product grid is needed from here on
        vel = self.product_noise_ops.velocity_field(inc)
        _scale_velocity(vel, scale)
        eta = (lay.shape[0] // 2,) + (0,) * (len(lay.shape) - 1)
        for f, g in zip(fields, gs):

            def apply(y):
                q = self._advection_rhs(y, vel, lay)
                q[eta] = 0.0
                if y[eta]:  # exactly 1 or 0 on every iterate
                    q += g
                return q

            y = np.zeros(lay.shape, dtype=complex)
            y[self._product_band] = f[self._band]
            y[eta] = 1.0
            y = chebyshev_expm(apply, y, rho)
            f *= y[eta]
            f[self._band] = y[self._product_band]

    # -- the step ---------------------------------------------------------

    def evaluate_phi(self, state: SimState) -> float:
        if self.cfg.cutoff is None:
            return 1.0
        co = self.cfg.cutoff
        return phi_bump(state.cutoff_acc ** (1.0 / co.r) / co.R)

    def step(self, state: SimState, inc: IncrementSet | None,
             balance: RecordBuilder | None = None, values: bool = True) -> SimState:
        """Advance one dt.  inc must be provided iff noise is active.  With
        balance, the pre-step rates f(t, v) and packed gradient advance its
        running balance integrals first; the drift and the Ito transport
        then reuse them, so each is evaluated once per step.

        values says whether the caller reads the post-step grid values.
        Without a cut-off, a step with values False checks for blow-up by
        sup_bound and returns grid_values None where the bound clears the
        threshold; the fields and tau are those of values True."""
        if state.blown_up is not None:
            raise ValueError("state already blew up; stepping is undefined")
        cfg = self.cfg
        phi = self.evaluate_phi(state)

        if self.noise_ops is not None and inc is None:
            raise ValueError("noise is active but no increments were given")
        ito = self.noise_ops is not None and cfg.scheme == "euler_maruyama_ito"
        drift_on = not self.sys.is_linear and phi != 0.0
        # the pre-step values are read by the balance, the drift and a
        # cut-off that has no carried-over integrand only
        pre_values = state.grid_values
        if pre_values is None and (balance is not None or drift_on or (
                cfg.cutoff is not None and state.cutoff_integrand is None)):
            pre_values = self.to_values(state.fields)

        rates = grad = None
        if balance is not None:
            rates = self.sys.f(state.t, pre_values)
            grad = self.gradients(state.fields)
            balance.accumulate_balance(cfg.dt, pre_values, rates, grad)
            if not ito:
                grad = None  # only the Ito transport reuses it
        elif drift_on:
            rates = self.sys.f(state.t, pre_values)

        # the terms are summed in fresh buffers, in any order: a + b is b + a bitwise
        new, source = state.fields, None
        if drift_on:
            drift = div = self.reaction_drift(state.t, pre_values)
            if ito:  # f rides the forward transform of the advection product
                source = rates * (cfg.dt * phi)
            else:
                drift = dealias_in_place(forward(rates, self.grid.d), self.grid.d, self.band)
                if div is not None:
                    drift = drift + div
            if drift is not None:
                drift *= cfg.dt * phi
                drift += state.fields
                new = drift
        del rates  # read by the balance and the drift only: free it

        if ito:  # the transport multiplies grad in place: its last reader
            tr = self.transport(state.fields, inc, source, grad)
            del source, grad
            tr += new
            new = tr
        elif new is state.fields:
            new = new.copy()
        new *= self.propagator
        if self.noise_ops is not None and not ito:
            self._advect(new, inc)

        # trapezoid advance of the cut-off accumulator A(t) = int |v|_{Lq}^r;
        # the pre-step integrand is carried over from the previous step
        acc, post_values, post_n, q0norm = state.cutoff_acc, None, None, None
        t_new = (state.step_index + 1) * cfg.dt
        blown: float | None = None
        # a NaN or inf bound fails the comparison and takes the exact norm
        if values or cfg.cutoff is not None or not sup_bound(new) < self.bound_cap:
            post_values = self.to_values(new)
            if cfg.cutoff is not None:
                co = cfg.cutoff
                pre_n = state.cutoff_integrand
                if pre_n is None:
                    pre_n = lq_norm_vector(pre_values, co.q) ** co.r
                post_norm = lq_norm_vector(post_values, co.q)
                post_n = post_norm ** co.r
                acc = acc + 0.5 * cfg.dt * (pre_n + post_n)
                if co.q == cfg.blowup_norm_q0:  # one norm serves both
                    q0norm = post_norm

            # a non-finite value makes the L^{q0} norm non-finite; a non-finite
            # rate or flux spreads to every mode through the step's transforms
            if q0norm is None:
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


def negative_species(v0: list[GridField]) -> int | None:
    """The first species whose data is negative somewhere, or None."""
    return next((i for i, f in enumerate(v0) if np.min(f.values) < 0), None)


def initial_state(
    grid: TorusGrid,
    v0: list[GridField],
    cfg: SolverConfig,
) -> SimState:
    """The t = 0 state of v0, which must lie on grid, be finite and, if cfg.require_nonneg, >= 0."""
    if any(f.grid != grid for f in v0):
        raise ValueError("initial fields must share one grid")
    for f in v0:
        if not np.all(np.isfinite(f.values)):
            raise ValueError("initial data contains non-finite values")
    if cfg.require_nonneg and (i := negative_species(v0)) is not None:
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
    path_index: int = 0,
    observer=None,
    increments=None,
) -> tuple[SimState, DiagnosticsRecord]:
    """Integrate to T (or blow-up), recording diagnostics every record_every
    steps; only the recorded steps read their grid values (Stepper.step with
    values True).

    increments: optional callable step_index -> IncrementSet overriding the
    counter-based default (used by coupled-refinement tests); otherwise one
    generator per path is re-keyed to each step (path_rng).
    """
    if len(v0) != sys.ell:
        raise ValueError(f"expected {sys.ell} species fields, got {len(v0)}")
    grid = v0[0].grid
    state = initial_state(grid, v0, cfg)
    stepper = Stepper(grid, sys, noise, cfg)
    state.grid_values = stepper.to_values(state.fields)

    builder = RecordBuilder(sys=sys, lq_list=cfg.lq_norms, balance_q=cfg.balance_q)
    balance = builder if builder.balance_q else None

    def record(st: SimState) -> None:
        builder.sample(st.t, st.grid_values, st.phi_value, st.cutoff_acc)
        if observer is not None:
            observer(st.t, st.grid_values, st)

    n_steps = horizon_steps(cfg.T, cfg.dt)
    rng = None
    # an overflow or NaN is a blow-up, which the step and record register
    with np.errstate(over="ignore", invalid="ignore"):
        record(state)
        for step_idx in range(n_steps):
            if stepper.noise is not None:
                if increments is not None:
                    inc = increments(step_idx)
                else:
                    rng = path_rng(cfg.seed, path_index, step_idx, rng)
                    inc = sample_increments(noise, cfg.dt, rng)
            else:
                inc = None
            read = (step_idx + 1) % cfg.record_every == 0 or step_idx + 1 == n_steps
            state = stepper.step(state, inc, balance, values=read)
            if read or state.blown_up is not None:
                record(state)
            if state.blown_up is not None:
                break

    return state, builder.finalize()
