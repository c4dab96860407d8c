"""Real scalar fields on the unit torus: grid samples and spectral coefficients.

The torus has side length 1 in each of the d coordinates, so wavenumbers are
integer vectors k and the Fourier basis is e^{2*pi*i k.x}.  Spectral
coefficients follow the fftn layout and are normalized so that
coeffs[0,...,0] is the spatial mean of the field.

Every transform of the package goes through the helpers below, on scipy.fft
with one worker: forward, inverse_real and inverse_packed transform the
trailing d axes, so a leading batch axis (species, derivative components)
rides along; inverse_pruned is the complex (or real) inverse of a single
spectrum that lives on the low lines |k_j| <= band of every axis but the
first (the sampled noise velocity), transformed one axis at a time on those
lines only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"KRDF"
SNAPSHOT_VERSION = 1


class ArgumentErrors(ValueError):
    """Every invalid argument of one constructor: problems maps each argument
    name to its message, and the error reads `name: message; ...`."""

    def __init__(self, problems: dict[str, str]):
        self.problems = problems
        super().__init__("; ".join(f"{name}: {msg}" for name, msg in problems.items()))


def mode_error(mode, d: int, n: int, empty_ok: bool = False) -> str | None:
    """Why the Fourier mode mode does not fit a d-dimensional grid of n
    points per axis, or None: it needs d components (or none, with
    empty_ok), and every |k_j| <= n/2, since a larger one aliases."""
    if empty_ok and not mode:
        return None
    if len(mode) != d:
        return (f"expected empty or {d} components, got {list(mode)}" if empty_ok
                else f"expected {d} components, got {len(mode)}")
    if max(map(abs, mode)) > n // 2:
        return f"{list(mode)} aliases on grid n = {n}: every |k_j| must be <= n/2 = {n // 2}"
    return None


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


def inverse_pruned(lines: np.ndarray, n: int, band: int, real: bool = False) -> np.ndarray:
    """inverse_packed of a spectrum on the (n,)*d grid that is zero off the
    lines with |k_j| <= band for every axis j >= 1.

    lines holds those lines, shape (n,) + (2 band + 1,)*(d-1), each trailing
    axis in the order 0..band, -band..-1 (index k_j mod 2 band + 1).  Axis j
    is transformed before the lines of axis j+1 are zero-filled to n, in
    pocketfft's own axis order, so the result equals inverse_packed of the
    zero-filled spectrum bitwise: a zero line transforms to exact zeros.

    With real, the spectrum is Hermitian and the last axis of lines holds
    its half k_{d-1} = 0..band only, band + 1 entries: the last pass is the
    real one, after the complex ones as in pocketfft's c2r, so the result
    equals inverse_real of the zero-filled half bitwise.
    """
    out = lines
    last = lines.ndim - 1
    for j in range(lines.ndim):
        if real and j == last:  # irfft zero-fills k_{d-1} = band+1..n/2 itself
            return scipy.fft.irfft(out, n, axis=j, norm="forward", workers=1)
        out = scipy.fft.ifft(out, axis=j, norm="forward", overwrite_x=True, workers=1)
        if j < last and not (real and j + 1 == last):
            full = np.zeros(out.shape[: j + 1] + (n,) + out.shape[j + 2 :], dtype=complex)
            head = (slice(None),) * (j + 1)
            full[head + (slice(None, band + 1),)] = out[head + (slice(None, band + 1),)]
            full[head + (slice(-band, None),)] = out[head + (slice(-band, None),)]
            out = full
    return out


def dealias_in_place(coeffs: np.ndarray, d: int, band: int) -> np.ndarray:
    """Zero, in place, every coefficient with some |k_j| > band over the
    trailing d axes of coeffs (fftn layout, n > 2 band points per axis), and
    return coeffs.

    Each axis zeroes the slab k_j = band+1..n-band-1 by assignment: no mask
    is stored or multiplied, so no temporary is made, and the kept entries
    keep their bits (a product with 1+0j can flip the sign of a zero).
    """
    n = coeffs.shape[-1]
    for j in range(d):
        coeffs[(Ellipsis, slice(band + 1, n - band)) + (slice(None),) * (d - 1 - j)] = 0.0
    return coeffs


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the d-torus, n_per_dim points per axis."""

    d: int
    n_per_dim: int

    def __post_init__(self) -> None:
        problems = {}
        if self.d not in (2, 3):
            problems["d"] = f"dimension must be 2 or 3, got {self.d}"
        if self.n_per_dim < 8 or self.n_per_dim % 2 != 0:
            problems["n_per_dim"] = f"must be even and >= 8, got {self.n_per_dim}"
        if problems:
            raise ArgumentErrors(problems)

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

    @property
    def k_squared(self) -> np.ndarray:
        """|k|^2 in fftn layout, built on each access: a full-grid array is
        kept by whoever needs it, not by the grid."""
        out = np.zeros(self.shape)
        for ka in self.k_axes:
            out = out + ka.astype(float) ** 2
        return out

    @property
    def laplacian_multipliers(self) -> np.ndarray:
        """Eigenvalues of the Laplacian, -4 pi^2 |k|^2, in fftn layout,
        built on each access like k_squared."""
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

    def band_index(self, band: int) -> tuple[np.ndarray, ...]:
        """Open-mesh index of the modes with every |k_j| <= band < n/2.

        Each axis runs 0..band, -band..-1, so the same index order holds on
        every grid with more than 2 band points per axis.
        """
        idx = np.r_[0 : band + 1, self.n_per_dim - band : self.n_per_dim]
        return np.ix_(*([idx] * self.d))

    @property
    def dealias_band(self) -> int:
        """The 2/3 rule keeps the modes with every |k_j| <= n/3."""
        return self.n_per_dim // 3

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
