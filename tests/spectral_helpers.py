"""Test helpers on fftn-layout coefficients (fields.forward's layout): the
real field of a single Fourier mode, and the Hermitian-symmetry defect of a
spectrum."""

import numpy as np

from torusrd.fields import GridField, TorusGrid, inverse_packed


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
