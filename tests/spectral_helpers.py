"""Test helpers on fftn-layout coefficients (fields.forward's layout): the
wavenumbers, |k|^2 and Nyquist-zeroed derivative multipliers of a full
grid, the slab dealias and the derivative layout built from them (the
references of the engine's band-block pieces), the real field of a single
Fourier mode, the Hermitian-symmetry defect of a spectrum, the mask of the
dealias band and the index of a band, and the conversions between a
grid's full layout and the band blocks the state is kept in; on noise
increments: the half-lattice sign of a mode and the increment of any mode
of the support; and the advection product of a stepper from coefficients."""

import numpy as np

from torusrd.fields import GridField, TorusGrid, band_block, copy_band, inverse_packed
from torusrd.noise import NoiseModel
from torusrd.solver import ProductLayout


def k_axes(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """Integer wavenumbers of each axis in fftn order, broadcast to grid's
    spectral shape."""
    n, d = grid.n_per_dim, grid.d
    k = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    return tuple(k.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j)) for j in range(d))


def k_squared(grid: TorusGrid) -> np.ndarray:
    """|k|^2 in grid's fftn layout."""
    out = np.zeros(grid.shape)
    for ka in k_axes(grid):
        out = out + ka.astype(float) ** 2
    return out


def derivative_multipliers(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """Per-axis spectral derivative multipliers 2 pi i k_j on grid's fftn
    layout, broadcast to its spectral shape.  The Nyquist plane is zeroed:
    an odd multiplier there would break realness and Hermitian symmetry."""
    nyquist = grid.n_per_dim // 2
    return tuple(2.0 * np.pi * 1j * np.where(np.abs(ka) == nyquist, 0.0, ka.astype(float))
                 for ka in k_axes(grid))


def dealias_in_place(coeffs: np.ndarray, d: int, band: int) -> np.ndarray:
    """Zero, in place, every coefficient with some |k_j| > band over the
    trailing d axes of coeffs (fftn layout, n > 2 band points per axis), and
    return coeffs: each axis assigns 0 to the slab k_j = band+1..n-band-1,
    so the kept entries keep their bits."""
    n = coeffs.shape[-1]
    for j in range(d):
        coeffs[(Ellipsis, slice(band + 1, n - band)) + (slice(None),) * (d - 1 - j)] = 0.0
    return coeffs


def product_layout_of(mult: tuple[np.ndarray, ...], shape: tuple[int, ...],
                      band: int | None = None) -> ProductLayout:
    """The ProductLayout of the full-grid multipliers mult
    (derivative_multipliers) of a grid of shape; with band, both multipliers
    are full arrays with the slab dealias to |k_j| <= band.  With band, the
    reference of Stepper.product_layout, which copies the band block's
    multipliers into zeros instead."""
    d = len(shape)
    pack, last = mult[0] + 1j * mult[1], mult[2] if d == 3 else None
    if band is not None:
        pack = dealias_in_place(np.broadcast_to(pack, shape).copy(), d, band)
        if last is not None:
            last = dealias_in_place(np.broadcast_to(last, shape).copy(), d, band)
    if last is not None:
        last = np.ascontiguousarray(last[..., : shape[-1] // 2 + 1])
    return ProductLayout(shape, pack, last)


def mode_coeffs(grid: TorusGrid, k: tuple[int, ...], amplitude: complex) -> np.ndarray:
    """Coefficients of the real field amplitude e^{2 pi i k.x} + c.c."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    n = grid.n_per_dim
    coeffs[tuple(kj % n for kj in k)] = amplitude
    coeffs[tuple((-kj) % n for kj in k)] += np.conj(amplitude)
    return coeffs


def mode_field(grid: TorusGrid, k: tuple[int, ...], amplitude: complex) -> GridField:
    """Grid values of amplitude e^{2 pi i k.x} + c.c., the real part of the
    engine's complex inverse transform of mode_coeffs."""
    return GridField(grid, inverse_packed(mode_coeffs(grid, k, amplitude), grid.d).real)


def hermitian_defect(coeffs: np.ndarray, d: int) -> float:
    """Max |c(-k) - conj(c(k))| over the trailing d axes, relative to the
    largest coefficient: 0 for the spectrum of a real field."""
    n = coeffs.shape[-1]
    minus = (-np.arange(n)) % n  # index of -k along one axis
    mirrored = coeffs[(Ellipsis,) + np.ix_(*([minus] * d))]
    defect = np.abs(mirrored - np.conj(coeffs)).max()
    scale = np.abs(coeffs).max()
    return float(defect / scale) if scale > 0 else float(defect)


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """Boolean mask of the modes dealias_in_place keeps on grid: every
    |k_j| <= grid.dealias_band."""
    mask = np.ones(grid.shape, dtype=bool)
    for ka in k_axes(grid):
        mask &= np.abs(ka) <= grid.dealias_band
    return mask


def block_of(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """The band blocks (fields.band_block) of grid's dealias band of the
    full-layout coefficients coeffs (..., n, ..., n)."""
    return band_block(coeffs, grid.d, grid.dealias_band)


def full_layout(grid: TorusGrid, block: np.ndarray) -> np.ndarray:
    """The band blocks block (..., 2K+1, ..., 2K+1) in grid's full fftn
    layout, zero outside the dealias band: the inverse of block_of there."""
    full = np.zeros(block.shape[:-grid.d] + grid.shape, dtype=block.dtype)
    return copy_band(block, full, grid.d, grid.dealias_band)


def band_index(grid: TorusGrid, band: int) -> tuple[np.ndarray, ...]:
    """Open-mesh index of the modes with every |k_j| <= band < n/2 on grid.
    Each axis runs 0..band, -band..-1, so the index order is the same on
    every grid with more than 2 band points per axis."""
    idx = np.r_[0 : band + 1, grid.n_per_dim - band : grid.n_per_dim]
    return np.ix_(*([idx] * grid.d))


def lattice_partition(k) -> int:
    """+1 if the nonzero lattice vector k is in the plus half-lattice (its
    first nonzero coordinate is positive), -1 otherwise."""
    first = next((int(x) for x in np.ravel(k) if x), None)
    if first is None:
        raise ValueError("k = 0 has no partition sign")
    return 1 if first > 0 else -1


def increment(model: NoiseModel, dw: np.ndarray, k, alpha: int) -> complex:
    """dW(k, alpha) for any mode k of the support of model, whose plus-mode
    increments are dw (sample_increments): the stored plus-mode increment,
    conjugated for a minus mode."""
    kv = np.ravel(k)
    sign = lattice_partition(kv)
    (row,) = np.flatnonzero(np.all(model.plus_modes == sign * kv, axis=1))
    val = complex(dw[row, alpha])
    return val if sign > 0 else val.conjugate()


def advection_rhs(stepper, coeffs: np.ndarray, vel, layout=None, source=None) -> np.ndarray:
    """Spectral coefficients of (u.grad)v for the species (stack) coeffs on
    the grid of layout, the stepper's n-grid by default: Stepper._advection_rhs
    of the packed derivative of coeffs there and the packed velocity vel on
    that grid, with the optional real grid term source in its transform.
    On the n-grid the result is dealiased; a product layout's is not."""
    grid = stepper.grid
    lay = product_layout_of(derivative_multipliers(grid), grid.shape) if layout is None else layout
    out = stepper._advection_rhs(stepper._derivatives(coeffs, lay), vel, source)
    if layout is None:
        dealias_in_place(out, stepper.grid.d, stepper.band)
    return out
