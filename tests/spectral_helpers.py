"""Test helpers on fftn-layout coefficients (fields.forward's layout): the
real field of a single Fourier mode, the Hermitian-symmetry defect of a
spectrum and the mask of the dealias band; and on noise increments: the
half-lattice sign of a mode and the increment of any mode of the support."""

import numpy as np

from torusrd.fields import GridField, TorusGrid, inverse_packed
from torusrd.noise import IncrementSet


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


def lattice_partition(k) -> int:
    """+1 if the nonzero lattice vector k is in the plus half-lattice (its
    first nonzero coordinate is positive), -1 otherwise."""
    first = next((int(x) for x in np.ravel(k) if x), None)
    if first is None:
        raise ValueError("k = 0 has no partition sign")
    return 1 if first > 0 else -1


def increment(inc: IncrementSet, k, alpha: int) -> complex:
    """dW(k, alpha) of inc for any mode k of the noise support: the stored
    plus-mode increment, conjugated for a minus mode."""
    kv = np.ravel(k)
    sign = lattice_partition(kv)
    (row,) = np.flatnonzero(np.all(inc.model.plus_modes == sign * kv, axis=1))
    val = complex(inc.dw_plus[row, alpha])
    return val if sign > 0 else val.conjugate()
