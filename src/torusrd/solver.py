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
propagator E(dt) carries nu_i only and is applied to each species' band
block before the series; the step allocates its result after the series
and does not write the state it is given.

The state lives in the dealias band |k_j| <= K = n/3 and stores only it:
SimState.fields is the band block (fields.band_block), shape (ell, 2K+1,
..., 2K+1), each axis in fftn order, and the propagator is one band block
per Stepper.  initial_state keeps the block of v0's spectrum, and every
step returns a block.  A derivative multiplies the block by the band's
multipliers and copies it into a zeroed grid array for the inverse
transform; to_values copies its k_d >= 0 half into a zeroed Hermitian half;
each forward transform of real grid values is a real transform whose half
band is completed into the block with the conjugates the full transform
would fill in (fields.band_forward), so every block holds the bits of the
band of the full-grid spectrum.  With the velocity in |k_j| <= K_u, the
product (u.grad)v is exact in the band on a product grid of M > 2K + K_u
points per axis (product_grid_size).  The Wong-Zakai series and the
pure-transport Ito step run there, one M^d transform each way.  An Ito
step with a reaction source or a reused balance gradient takes its product
on the n-grid, where the source rides the product's forward transform.

Blow-up (threshold crossing of the L^{q0} norm, or non-finite values) is a
recorded outcome with a tau estimate, never a process failure.  A step
transforms back to the grid only when its values are read (a record step,
the last step, every step of a cut-off run).  Any other step certifies "no
blow-up" from the spectral L^2 norm: for a species stack of N coefficients
c_ik in d = 2 or 3 and any q0,

    |v|_{L^{q0}} <= max_x |v(x)| <= sqrt(sum_i (sum_k |c_ik|)^2)
                 <= sqrt(N sum_ik |c_ik|^2) = sup_bound(c),

with N = ell (2K+1)^d the band coefficients of the block; where that
bound does not clear the threshold (or is not finite) the step takes the
exact norm instead, so tau is the same either way.  A step
certifies only where n^d sup_bound^{q0} is also below the largest float, so
that the exact norm, which reads an overflow as a blow-up, could not have
overflowed either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.fft
from scipy.special import jv

from .diagnostics import DiagnosticsRecord, RecordBuilder, grid_mean, lq_norm_vector
from .fields import (ArgumentErrors, GridField, TorusGrid, band_forward, block_values, copy_band,
                     dealias_in_place, fill_conjugates, forward, half_band, integer_error,
                     inverse_packed, inverse_real, real_half)
from .noise import (NoiseGridOps, NoiseModel, path_rng, resolution_error, sample_increments,
                    seed_error, step_guard_error)
from .reactions import ReactionSystem

SCHEMES = ("euler_maruyama_ito", "strat_substep")

# Bessel-tail bound at which the Chebyshev series of exp(A) is truncated
EXPM_TAIL_TOL = 1e-16
# relative round-off margin by which sup_bound must clear the blow-up threshold
SUP_BOUND_MARGIN = 1e-9
# the band part of nonnegative data may dip below 0 by this times max|v0_i|
NONNEG_TOL = 1e-12


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

    v is dropped after the first product, so a caller that keeps no
    reference of its own has P_0 freed once the recurrence moves past it.
    """
    # J_j(rho) <= (e rho / 2j)^j, so orders past 2 rho + 64 are negligible
    c = jv(np.arange(2 * math.ceil(rho) + 64), rho)
    tail = np.cumsum(np.abs(c[::-1]))[::-1]  # tail[k] = sum_{j >= k} |J_j|
    degree = int(np.argmax(2.0 * tail < EXPM_TAIL_TOL)) - 1
    out = c[0] * v
    if degree < 1:
        return out
    prev, cur = v, apply(v)
    del v
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
    stack, the band blocks of a state: an upper bound of max_x |v(x)|,
    hence of every L^q norm of v, with one pass over the coefficients.  inf
    on overflow, NaN on NaN."""
    return math.sqrt(coeffs.size * np.vdot(coeffs, coeffs).real)


def _multiply_species(stack: np.ndarray, factor: np.ndarray) -> None:
    """stack *= factor for one species or a stack of them, one species at a
    time: an in-place product with a broadcast operand makes numpy allocate
    a temporary the size of the stack.  Bitwise the broadcast product."""
    for part in stack if stack.ndim > factor.ndim else (stack,):
        part *= factor


def product_grid_size(n: int, band: int, max_k: int) -> int:
    """Points per axis on which (u.grad)v is exact in the band |k_j| <= band
    for v in that band and u in |k_j| <= max_k: the smallest even fast
    transform length M > 2 band + max_k, capped at n.  M is at least 8, the
    smallest TorusGrid: at n = 8 (band 2) a support with max_k = 1 would
    otherwise give 6.

    The product has |k_j| <= band + max_k, so its aliases on M points sit
    at |k_j| >= M - band - max_k > band, outside the band.
    """
    m = scipy.fft.next_fast_len(2 * band + max_k + 1)
    while m % 2:
        m = scipy.fft.next_fast_len(m + 1)
    return min(max(m, 8), n)


class ProductLayout(NamedTuple):
    """What the advection product needs of one grid: its shape, the packed
    derivative multiplier of axes 0 and 1, and in d = 3 the multiplier of
    axis 2 over the Hermitian half."""

    shape: tuple[int, ...]
    deriv_pack: np.ndarray
    deriv_last_half: np.ndarray | None

    @classmethod
    def of(cls, mult: tuple[np.ndarray, ...], shape: tuple[int, ...],
           band: int | None = None) -> "ProductLayout":
        """The layout of the per-axis derivative multipliers mult
        (TorusGrid.derivative_multipliers, or a band block's) of a grid of
        shape; with band, both multipliers are full arrays, zero outside
        |k_j| <= band, so that a derivative reads the band of its data only."""
        # one inverse transform yields two derivative components as its
        # real and imaginary parts (both factors are Hermitian)
        d = len(shape)
        pack, last = mult[0] + 1j * mult[1], mult[2] if d == 3 else None
        if band is not None:
            pack = dealias_in_place(np.broadcast_to(pack, shape).copy(), d, band)
            if last is not None:
                last = dealias_in_place(np.broadcast_to(last, shape).copy(), d, band)
        if last is not None:
            last = np.ascontiguousarray(last[..., : shape[-1] // 2 + 1])
        return cls(shape, pack, last)


def exponent_error(value: float | tuple[float, ...], low: float,
                   strict: bool = False) -> str | None:
    """Why an L^p exponent, or a tuple of them, is not >= low (> low with
    strict) and finite, or None; NaN fails the bound.  An infinite
    exponent would pass the bound but switch its check off: the blow-up
    norm mean(|v|^inf)^0 = 1 hides a blow-up, and r = inf leaves phi at 1."""
    many = isinstance(value, tuple)
    values = value if many else (value,)
    what, got = ("exponents ", list(value)) if many else ("", value)
    if not all(q > low if strict else q >= low for q in values):
        return f"{what}must be {'>' if strict else '>='} {low:g}, got {got}"
    if math.inf in values:
        return f"{what}must be finite, got {got}"
    return None


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
        elif self.R == math.inf:  # acc^(1/r) / inf = 0 would leave phi at 1
            problems["R"] = f"must be finite, got {self.R}"
        if problem := exponent_error(self.r, 1.0, strict=True):
            problems["r"] = problem
        if problem := exponent_error(self.q, 1.0):
            problems["q"] = problem
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
        if problem := exponent_error(self.blowup_norm_q0, 2.0, strict=True):
            problems["blowup_norm_q0"] = problem
        if not self.blowup_threshold > 0:
            problems["blowup_threshold"] = f"must be > 0, got {self.blowup_threshold}"
        if problem := seed_error(self.seed):
            problems["seed"] = problem
        every = self.record_every  # a bool or a float is no step count
        if problem := integer_error(every):
            problems["record_every"] = problem
        elif every < 1:
            problems["record_every"] = "must be >= 1"
        for name, low in (("lq_norms", 1.0), ("balance_q", 2.0)):  # L^q balance: q >= 2
            if problem := exponent_error(tuple(getattr(self, name)), low):
                problems[name] = problem
        if problems:
            raise ArgumentErrors(problems)


@dataclass
class SimState:
    t: float
    fields: np.ndarray  # (ell, 2K+1, ..., 2K+1) complex band blocks (fields.band_block)
    cutoff_acc: float = 0.0  # running integral of |v|_{L^q}^r
    phi_value: float = 1.0
    step_index: int = 0
    blown_up: float | None = None  # tau estimate once set
    # derived from fields, filled by the Stepper when first needed; None
    # after a step whose caller did not read its values
    grid_values: np.ndarray | None = dc_field(default=None, repr=False)
    cutoff_integrand: float | None = None  # |v|_{L^q}^r of the cut-off


def diffusion_propagator(grid: TorusGrid, nus, dt: float) -> np.ndarray:
    """exp(-4 pi^2 |k|^2 nu_i dt) of each diffusivity nu_i, stacked, on the
    band block of grid's dealias band (fields.band_block): one dt of the
    diagonal heat flow of a species stack, bitwise the band of its fftn
    layout."""
    lam = -4.0 * np.pi**2 * sum(ka.astype(float) ** 2 for ka in grid.band_k_axes)
    return np.stack([np.exp(lam * nu_i * dt) for nu_i in nus])


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
        self.ito = ito = self.noise is not None and cfg.scheme == "euler_maruyama_ito"

        if self.noise is not None:  # before any step builds a NoiseGridOps
            max_k = self.noise.spectrum.max_component()
            if problem := resolution_error(max_k, grid.n_per_dim):
                raise ValueError(f"noise support {problem}")
            if problem := step_guard_error(self.noise.nu, max_k, grid.n_per_dim, cfg.dt):
                raise ValueError(problem)

        # the propagator of the band blocks, with the Ito correction nu Delta
        # of an Ito step; a noise-free enhanced run has it in sys.nu, and the
        # Wong-Zakai substep supplies the nu-diffusion
        nu_extra = self.noise.nu if ito else 0.0
        self.propagator = diffusion_propagator(grid, [nu_i + nu_extra for nu_i in sys.nu],
                                               cfg.dt)
        # sup_bound below this cap certifies that the exact L^{q0} norm, a
        # mean of N grid values |v|^{q0} <= sup_bound^{q0}, neither reaches
        # the threshold nor overflows
        overflow = (np.finfo(float).max / math.prod(grid.shape)) ** (1.0 / cfg.blowup_norm_q0)
        self.bound_cap = (1.0 - SUP_BOUND_MARGIN) * min(cfg.blowup_threshold, overflow)
        self.band = grid.dealias_band  # the state and every product keep |k_j| <= n/3
        self.zero_index = (Ellipsis,) + (0,) * grid.d  # mode 0 of every species
        self.grid_axes = tuple(range(-grid.d, 0))  # the grid axes of a species stack
        if self.noise is not None and not ito:
            # max |2 pi k| over the band, at its corners k = (+-band, ...),
            # |k|^2 = d band^2: ||(u.grad)|| <= max|u| * k_max there
            self.k_max = math.sqrt(4.0 * np.pi**2 * (grid.d * self.band**2))

    # -- the grids, each built when a step first needs it ------------------

    @cached_property
    def band_layout(self) -> ProductLayout:
        """The derivative multipliers of the band block: the derivative of a
        band block on any grid (_block_derivatives)."""
        return ProductLayout.of(self.grid.band_derivative_multipliers,
                                (2 * self.band + 1,) * self.grid.d)

    @cached_property
    def noise_ops(self) -> NoiseGridOps:
        """The n-grid velocity of a transport with a source or a gradient."""
        return NoiseGridOps(self.noise, self.grid)

    @cached_property
    def product_shape(self) -> tuple[int, ...]:
        """The product grid, M <= n points per axis (product_grid_size):
        pure transport and the Wong-Zakai series."""
        m = product_grid_size(self.grid.n_per_dim, self.band,
                              self.noise.spectrum.max_component())
        return (m,) * self.grid.d

    @cached_property
    def product_layout(self) -> ProductLayout:
        """The band layout of the product grid, for the Wong-Zakai series."""
        return ProductLayout.of(TorusGrid(self.grid.d, self.product_shape[0]).derivative_multipliers,
                                self.product_shape, self.band)

    @cached_property
    def product_noise_ops(self) -> NoiseGridOps:
        """The velocity on the product grid."""
        return NoiseGridOps(self.noise, TorusGrid(self.grid.d, self.product_shape[0]))

    # -- spectral helpers ------------------------------------------------

    def to_values(self, fields: np.ndarray) -> np.ndarray:
        """Grid values of a stack of band blocks (fields.block_values)."""
        return block_values(fields, self.grid.shape)

    def _derivatives(self, coeffs: np.ndarray, lay: ProductLayout
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Grid values of the derivatives of a species stack (...) on the
        grid of lay, in its fftn layout: z = d_0 v + i d_1 v, both
        components in one packed inverse transform, and in d = 3 the real
        d_2 v (None in d = 2)."""
        z = inverse_packed(coeffs * lay.deriv_pack, self.grid.d, overwrite_x=True)
        if lay.deriv_last_half is None:
            return z, None
        half = coeffs[..., : lay.shape[-1] // 2 + 1]
        return z, inverse_real(half * lay.deriv_last_half, lay.shape)

    def _block_derivatives(self, block: np.ndarray, shape: tuple[int, ...]
                           ) -> tuple[np.ndarray, np.ndarray | None]:
        """_derivatives of a stack of band blocks on the grid of shape: the
        block times the band_layout multipliers, copied into zeros there."""
        d, band, lay = self.grid.d, self.band, self.band_layout
        z = copy_band(block * lay.deriv_pack, np.zeros(block.shape[:-d] + shape, dtype=complex),
                      d, band)
        z = inverse_packed(z, d, overwrite_x=True)
        if lay.deriv_last_half is None:
            return z, None
        half = np.zeros(block.shape[:-d] + shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
        copy_band(block[..., : band + 1] * lay.deriv_last_half, half, d, band, half=True)
        return z, inverse_real(half, shape)

    def gradients(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed gradient (z, g_2) on the n-grid of a stack of band blocks
        (...): z = d_0 v + i d_1 v and g_2 = d_2 v in d = 3, None in d = 2,
        so that |grad v|^2 = z.real^2 + z.imag^2 (+ g_2^2)."""
        return self._block_derivatives(coeffs, self.grid.shape)

    # -- physics terms ---------------------------------------------------

    def reaction_drift(self, t: float, values: np.ndarray) -> np.ndarray | None:
        """The flux part of the phi-free drift f + div F: the dealiased
        spectral div F, None when there is no flux.

        A non-finite rate or flux needs no flag: the step's forward
        transform spreads it to every mode, so the post-step values are
        non-finite and the L^{q0} norm flags the blow-up."""
        if self.sys.F is None:
            return None
        d = self.grid.d
        fhat = band_forward(self.sys.F(t, values), d, self.band)  # (ell, d, ...)
        div = np.zeros(fhat.shape[:1] + fhat.shape[2:], dtype=complex)
        for j in range(d):
            div += fhat[:, j] * self.grid.band_derivative_multipliers[j]
        return div

    def _advection_rhs(self, grad: tuple[np.ndarray, np.ndarray | None],
                       vel: tuple[np.ndarray, np.ndarray | None],
                       source: np.ndarray | None = None, block: bool = False) -> np.ndarray:
        """Spectral coefficients of (u.grad)v for a species or a stack of
        species (...): grad is its packed gradient (z, g_2) (_derivatives),
        multiplied in place, and vel the packed velocity (w, u_2)
        (NoiseGridOps.velocity_field) on the same grid; Re(z w) is the
        product of the first two components with u_0 and u_1.  A real grid
        term source rides the forward transform: mode 0 of the result is its
        mean, and 0 without one.  With block, the result is the band block
        (fields.band_forward); without, the grid's fftn layout, on which no
        band is imposed: the caller keeps its own.
        """
        w, u2 = vel
        z, d3 = grad
        _multiply_species(z, w)
        vals = z.real
        if d3 is not None:
            _multiply_species(d3, u2)
            vals += d3
        # free the velocity, and after the transform the derivative, where
        # this frame holds its last reference
        del vel, w, u2
        if source is not None:
            vals += source
        d, band = self.grid.d, self.band
        if not block:
            out = forward(vals, d)
        else:  # each array is freed before the next one is allocated
            half = real_half(vals, d)
            del grad, z, d3, vals
            out = half_band(half, d, band)
            del half
            fill_conjugates(out, d, band)
        # div sigma = 0: the transport term is mean free
        out[self.zero_index] = 0.0 if source is None else grid_mean(source, self.grid_axes)
        return out

    def transport(self, fields: np.ndarray, dw: np.ndarray,
                  source: np.ndarray | None = None,
                  grad: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
        """Band blocks of the transport increments of a stack of band blocks
        fields by the velocity of the plus-mode increments dw, plus those of
        the real grid term source (ell, n, ..., n) when one is given, in the
        same forward transform.  grad is the n-grid packed gradient of
        fields (gradients), if already taken; it is multiplied in place.

        With a source or a gradient the product is taken on the n-grid.
        Pure transport runs on the product grid (product_shape), where the
        product is exact, one M^d transform each way.  Either way the band
        block of the product is the result.
        """
        if source is not None or grad is not None:
            if grad is None:
                grad = self._block_derivatives(fields, self.grid.shape)
            return self._advection_rhs(grad, self.noise_ops.velocity_field(dw), source, True)
        return self._advection_rhs(self._block_derivatives(fields, self.product_shape),
                                   self.product_noise_ops.velocity_field(dw), None, True)

    def _advect(self, src: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Wong-Zakai step of the species stack src, as a new array (src is
        not written): the diffusion E(dt), then the flow of dv/ds = (u.grad)v
        over s in [0,1].

        u is the frozen displacement field (velocity * dt) of the increments
        dw.  The operator is skew-adjoint on the dealiased ball, so exp(A)v
        is evaluated by its Chebyshev series with rho = max|u| * k_max >=
        ||A||; the L^2 norm is kept to round-off and the cost is
        ~rho + O(rho^(1/3)) right-hand sides.

        src holds band blocks, and E(dt) and A map the band into itself, so
        each species runs on the band of the product grid of M <= n points
        per axis (product_layout), where the products are exact; u and rho
        are taken there.  Its block times the propagator is copied there
        into zeros, the series holds no other reference to P_0, and the
        band block of its result is written into the result, allocated
        after the first species' series has freed its vectors.
        """
        w, u2 = vel = self.product_noise_ops.velocity_field(dw)
        speed2 = w.real * w.real
        speed2 += w.imag * w.imag
        if u2 is not None:
            speed2 += u2 * u2
        rho = math.sqrt(float(np.max(speed2))) * self.k_max
        del w, u2, speed2  # vel is the only reference left
        scale = 2.0 / rho if rho > 0 else 0.0  # apply returns (2/rho) A w
        for part in vel:  # times a real scale, float by float: the bits of scaling u
            if part is not None:
                np.multiply(part.view(np.float64), scale, out=part.view(np.float64))
        lay, d, out = self.product_layout, self.grid.d, None
        for i, factor in enumerate(self.propagator):
            y = chebyshev_expm(lambda q: self._advection_rhs(self._derivatives(q, lay), vel),
                               copy_band(src[i] * factor, np.zeros(lay.shape, dtype=complex),
                                         d, self.band), rho)
            if out is None:
                out = np.empty_like(src)
            copy_band(y, out[i], d, self.band)
        return out

    # -- the step ---------------------------------------------------------

    def evaluate_phi(self, state: SimState) -> float:
        if self.cfg.cutoff is None:
            return 1.0
        co = self.cfg.cutoff
        return phi_bump(state.cutoff_acc ** (1.0 / co.r) / co.R)

    def step(self, state: SimState, dw: np.ndarray | None,
             balance: RecordBuilder | None = None, values: bool = True) -> SimState:
        """Advance one dt.  dw, the step's plus-mode increments
        (sample_increments), must be provided iff noise is active.  With
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

        if self.noise is not None and dw is None:
            raise ValueError("noise is active but no increments were given")
        ito = self.ito
        drift_on = not self.sys.is_drift_free and phi != 0.0
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
                drift = band_forward(rates, self.grid.d, self.band)
                if div is not None:
                    drift = drift + div
            if drift is not None:
                drift *= cfg.dt * phi
                drift += state.fields
                new = drift
        del rates  # read by the balance and the drift only: free it

        if ito:  # the transport multiplies grad in place: its last reader
            tr = self.transport(state.fields, dw, source, grad)
            del source, grad
            tr += new
            new = tr
            new *= self.propagator
        elif self.noise is not None:  # Wong-Zakai: a new array, E(dt) included
            new = self._advect(new, dw)
        elif new is state.fields:
            new = new * self.propagator
        else:
            new *= self.propagator

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


def band_part(v0: list[GridField]) -> np.ndarray:
    """Band blocks (fields.band_block) of the dealias-band part of the
    species data v0, the data the scheme integrates."""
    grid = v0[0].grid
    return band_forward(np.stack([f.values for f in v0]), grid.d, grid.dealias_band)


def negative_species(v0: list[GridField]) -> int | None:
    """The first species whose band part (band_part) is negative somewhere,
    or None.  Negative is below -NONNEG_TOL max|v0_i|: the band part of
    data whose minimum is exactly 0 dips below 0 by round-off."""
    grid = v0[0].grid
    lows = np.min(block_values(band_part(v0), grid.shape), axis=tuple(range(1, grid.d + 1)))
    floors = [-NONNEG_TOL * np.max(np.abs(f.values)) for f in v0]
    return next((i for i, (low, floor) in enumerate(zip(lows, floors)) if low < floor), None)


def initial_state(
    grid: TorusGrid,
    v0: list[GridField],
    cfg: SolverConfig,
) -> SimState:
    """The t = 0 state of v0's dealias-band part; v0 must lie on grid, be
    finite and, if cfg.require_nonneg, have a nonnegative band part
    (negative_species)."""
    if any(f.grid != grid for f in v0):
        raise ValueError("initial fields must share one grid")
    for f in v0:
        if not np.all(np.isfinite(f.values)):
            raise ValueError("initial data contains non-finite values")
    if cfg.require_nonneg and (i := negative_species(v0)) is not None:
        raise ValueError(f"require_nonneg: species {i} has negative initial data")
    return SimState(t=0.0, fields=band_part(v0))


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

    observer(t, values, state) is called after t = 0 and after every step.
    values holds the grid values on the steps the record samples (t = 0,
    every record_every-th step, the last step and a blow-up step) and is
    None on every other step, whose state may hold no grid values.  The
    t = 0 state drops its grid values after the first observation unless
    a step reads them (the balance, the drift or a cut-off).

    increments: optional callable step_index -> plus-mode increment array
    (sample_increments' shape) overriding the counter-based default, so a
    coarse step can take the sum of two fine increments; otherwise one
    generator per path is re-keyed to each step (path_rng).  It needs the
    noise on: a run without noise has no increments to override.  An
    override of another shape or with a non-finite entry raises ValueError
    naming its step index.
    """
    if len(v0) != sys.ell:
        raise ValueError(f"expected {sys.ell} species fields, got {len(v0)}")
    grid = v0[0].grid
    state = initial_state(grid, v0, cfg)
    stepper = Stepper(grid, sys, noise, cfg)
    if increments is not None:
        if stepper.noise is None:
            raise ValueError("increments were given but the noise is off (no noise model, "
                             "or noise_on false): no step would read them")
        dw_shape = (len(noise.plus_modes), noise.d - 1)
    state.grid_values = stepper.to_values(state.fields)

    builder = RecordBuilder(sys=sys, lq_list=cfg.lq_norms, balance_q=cfg.balance_q)
    balance = builder if builder.balance_q else None

    def observe(st: SimState, recorded: bool) -> None:
        if recorded:
            builder.sample(st.t, st.grid_values, st.phi_value, st.cutoff_acc)
        if observer is not None:
            observer(st.t, st.grid_values if recorded else None, st)

    n_steps = horizon_steps(cfg.T, cfg.dt)
    rng = None
    # an overflow or NaN is a blow-up, which the step and record register
    with np.errstate(over="ignore", invalid="ignore"):
        observe(state, True)
        if balance is None and sys.is_drift_free and cfg.cutoff is None:
            state.grid_values = None  # read by the balance, drift and cut-off only
        for step_idx in range(n_steps):
            if stepper.noise is not None:
                if increments is not None:
                    dw = increments(step_idx)
                    if np.shape(dw) != dw_shape:
                        raise ValueError(f"increments({step_idx}) has shape {np.shape(dw)}, "
                                         f"expected {dw_shape} (sample_increments)")
                    if not np.all(np.isfinite(dw)):
                        raise ValueError(f"increments({step_idx}) is not finite")
                else:
                    rng = path_rng(cfg.seed, path_index, step_idx, rng)
                    dw = sample_increments(noise, cfg.dt, rng)
            else:
                dw = None
            read = (step_idx + 1) % cfg.record_every == 0 or step_idx + 1 == n_steps
            state = stepper.step(state, dw, balance, values=read)
            observe(state, read or state.blown_up is not None)
            if state.blown_up is not None:
                break

    return state, builder.finalize()
