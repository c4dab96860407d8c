"""Real scalar fields on the unit torus in dual grid/spectral representations.

The torus has side length 1 in each of the d coordinates, so wavenumbers are
integer vectors k and the Fourier basis is e^{2*pi*i k.x}.  Spectral
coefficients follow the fftn layout and are normalized so that
coeffs[0,...,0] is the spatial mean of the field.

Every transform of the package goes through the three helpers below, on
scipy.fft with one worker.  They transform the trailing d axes, so a leading
batch axis (species, derivative components) rides along.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi

# to_grid rejects inputs whose Hermitian-symmetry defect exceeds this
HERMITIAN_RTOL = 1e-8

SNAPSHOT_MAGIC = b"KRDF"
SNAPSHOT_VERSION = 1


def _trailing(d: int) -> tuple[int, ...]:
    return tuple(range(-d, 0))


def forward(values: np.ndarray, d: int) -> np.ndarray:
    """Coefficients over the trailing d axes, normalized so that coefficient
    0 is the mean (real or complex input)."""
    return scipy.fft.fftn(values, axes=_trailing(d), norm="forward", workers=1)


def inverse_real(half: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real grid values of shape (..., *shape) from Hermitian halves: the
    coefficients with k_d <= n/2 of forward's layout."""
    return scipy.fft.irfftn(half, s=shape, axes=_trailing(len(shape)),
                            norm="forward", workers=1)


def inverse_packed(coeffs: np.ndarray, d: int, overwrite_x: bool = False) -> np.ndarray:
    """Complex grid values over the trailing d axes, inverse of forward.

    For Hermitian spectra a and b, the inverse of a + i b is A + i B with
    A, B the real fields of a and b: two real fields in one transform.
    overwrite_x lets the transform reuse coeffs as its output.
    """
    return scipy.fft.ifftn(coeffs, axes=_trailing(d), norm="forward",
                           overwrite_x=overwrite_x, workers=1)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the d-torus, n_per_dim points per axis."""

    d: int
    n_per_dim: int

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n_per_dim < 8 or self.n_per_dim % 2 != 0:
            raise ValueError(
                f"n_per_dim must be even and >= 8, got {self.n_per_dim}"
            )

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_dim,) * self.d

    @property
    def n_points(self) -> int:
        return self.n_per_dim**self.d

    @cached_property
    def wavenumbers_1d(self) -> np.ndarray:
        """Integer wavenumbers along one axis in fftn order."""
        n = self.n_per_dim
        return np.rint(np.fft.fftfreq(n) * n).astype(np.int64)

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumber arrays broadcast to the spectral shape."""
        k = self.wavenumbers_1d
        return tuple(
            k.reshape((1,) * j + (-1,) + (1,) * (self.d - 1 - j))
            for j in range(self.d)
        )

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for ka in self.k_axes:
            out = out + ka.astype(float) ** 2
        return out

    @cached_property
    def laplacian_multipliers(self) -> np.ndarray:
        """Eigenvalues of the Laplacian, -4 pi^2 |k|^2, in fftn layout."""
        return -4.0 * np.pi**2 * self.k_squared

    @cached_property
    def derivative_multipliers(self) -> tuple[np.ndarray, ...]:
        """Per-axis spectral derivative multipliers 2 pi i k_j, broadcast to
        the spectral shape.

        The Nyquist plane is zeroed: an odd multiplier there would break both
        realness and Hermitian symmetry.
        """
        ny = self.n_per_dim // 2
        return tuple(
            TWO_PI * 1j * np.where(np.abs(ka) == ny, 0.0, ka.astype(float))
            for ka in self.k_axes
        )

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True where any |k_j| equals the Nyquist wavenumber n/2."""
        ny = self.n_per_dim // 2
        mask = np.zeros(self.shape, dtype=bool)
        for ka in self.k_axes:
            mask |= np.abs(ka) == ny
        return mask

    @cached_property
    def conj_index(self) -> tuple[np.ndarray, ...]:
        """Index arrays mapping coefficient k to coefficient -k."""
        n = self.n_per_dim
        idx = (-np.arange(n)) % n
        return np.ix_(*([idx] * self.d))

    def band_index(self, band: int) -> tuple[np.ndarray, ...]:
        """Open-mesh index of the modes with every |k_j| <= band < n/2.

        Each axis runs 0..band, -band..-1, so the same index order holds on
        every grid with more than 2 band points per axis.
        """
        idx = np.r_[0 : band + 1, self.n_per_dim - band : self.n_per_dim]
        return np.ix_(*([idx] * self.d))

    def dealias_mask(self, rule: float = 2.0 / 3.0) -> np.ndarray:
        cutoff = rule * self.n_per_dim / 2.0
        mask = np.ones(self.shape, dtype=bool)
        for ka in self.k_axes:
            mask &= np.abs(ka) <= cutoff
        return mask

    def node_coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the grid nodes, each in [0, 1)."""
        x = np.arange(self.n_per_dim) * self.spacing
        return np.meshgrid(*([x] * self.d), indexing="ij")


@dataclass(frozen=True)
class GridField:
    """Real samples of a scalar field at the grid nodes."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real scalar field (fftn layout)."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} != grid shape {self.grid.shape}"
            )

    def coeff(self, k: tuple[int, ...]) -> complex:
        """Coefficient at lattice vector k (k_j in [-n/2, n/2])."""
        n = self.grid.n_per_dim
        return complex(self.coeffs[tuple(kj % n for kj in k)])


def hermitian_deviation(field: SpectralField) -> float:
    """Max |c(-k) - conj(c(k))| relative to the largest coefficient."""
    c = field.coeffs
    defect = np.abs(c[field.grid.conj_index] - np.conj(c)).max()
    scale = np.abs(c).max()
    return float(defect / scale) if scale > 0 else float(defect)


def to_spectral(f: GridField) -> SpectralField:
    if not np.all(np.isfinite(f.values)):
        raise ValueError("grid field contains non-finite values")
    return SpectralField(f.grid, forward(f.values, f.grid.d))


def to_grid(c: SpectralField) -> GridField:
    if hermitian_deviation(c) > HERMITIAN_RTOL:
        raise ValueError(
            "spectral field violates Hermitian symmetry beyond "
            f"{HERMITIAN_RTOL}: a real-valued inverse transform is undefined"
        )
    return GridField(c.grid, inverse_packed(c.coeffs, c.grid.d).real)


def partial_derivative(c: SpectralField, axis: int) -> SpectralField:
    """Spectral derivative along an axis (TorusGrid.derivative_multipliers)."""
    if not 0 <= axis < c.grid.d:
        raise ValueError(f"axis {axis} out of range for d={c.grid.d}")
    return SpectralField(c.grid, c.coeffs * c.grid.derivative_multipliers[axis])


def dealias(c: SpectralField, rule: float = 2.0 / 3.0) -> SpectralField:
    """Zero every coefficient with any |k_j| > rule * n_per_dim / 2."""
    return SpectralField(c.grid, c.coeffs * c.grid.dealias_mask(rule))


def l2_norm_spectral(c: SpectralField) -> float:
    """L^2 norm from coefficients (Parseval)."""
    return float(np.sqrt(np.sum(np.abs(c.coeffs) ** 2)))


def single_mode(grid: TorusGrid, k: tuple[int, ...], amplitude: complex) -> SpectralField:
    """Real field amplitude*e^{2 pi i k.x} + c.c., as a spectral field."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    n = grid.n_per_dim
    coeffs[tuple(kj % n for kj in k)] = amplitude
    coeffs[tuple((-kj) % n for kj in k)] += np.conj(amplitude)
    return SpectralField(grid, coeffs)


def write_snapshot(path, fields: list[GridField]) -> None:
    """Write fields in the KRDF binary snapshot format.

    Layout: magic "KRDF", u32 version, u32 d, u32 species count, u32
    n_per_dim, then one block of n_per_dim^d little-endian float64 grid
    values per species, row-major.
    """
    if not fields:
        raise ValueError("snapshot requires at least one field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("all snapshot fields must share one grid")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIII", SNAPSHOT_VERSION, grid.d, len(fields), grid.n_per_dim))
        for f in fields:
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path) -> list[GridField]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        version, d, ell, n = struct.unpack("<IIII", fh.read(16))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = TorusGrid(d, n)
        out = []
        for _ in range(ell):
            raw = fh.read(8 * grid.n_points)
            values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
            out.append(GridField(grid, values))
    return out
