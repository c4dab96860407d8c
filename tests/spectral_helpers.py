"""Test helpers on fftn-layout coefficients (fields.forward's layout): the
real field of a single Fourier mode, the Hermitian-symmetry defect of a
spectrum, the mask of the dealias band and the index of a band, and the
conversions between a grid's full layout and the band blocks the state is
kept in; on noise increments: the half-lattice sign of a mode and the
increment of any mode of the support; and the advection product of a
stepper from coefficients."""

import numpy as np

from torusrd.fields import (GridField, TorusGrid, band_block, copy_band, dealias_in_place,
                            inverse_packed)
from torusrd.noise import NoiseModel
from torusrd.solver import ProductLayout


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
    """Boolean mask of the modes fields.dealias_in_place keeps on grid:
    every |k_j| <= grid.dealias_band."""
    mask = np.ones(grid.shape, dtype=bool)
    for ka in grid.k_axes:
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
    lay = ProductLayout.of(grid.derivative_multipliers, grid.shape) if layout is None else layout
    out = stepper._advection_rhs(stepper._derivatives(coeffs, lay), vel, source)
    if layout is None:
        dealias_in_place(out, stepper.grid.d, stepper.band)
    return out
