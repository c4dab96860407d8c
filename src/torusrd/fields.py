"""Real scalar fields on the unit torus: grid samples and spectral coefficients.

The torus has side length 1 in each of the d coordinates, so wavenumbers are
integer vectors k and the Fourier basis is e^{2*pi*i k.x}.  Spectral
coefficients follow the fftn layout and are normalized so that
coeffs[0,...,0] is the spatial mean of the field.  The solver's state keeps
the band block of the dealias band |k_j| <= band (band_block): the
coefficients of the band in fftn order on 2 band + 1 points per axis.

Every transform of the package goes through the helpers below, on scipy.fft
with one worker: forward, inverse_real and inverse_packed transform the
trailing d axes, so a leading batch axis (species, derivative components)
rides along.
"""

from __future__ import annotations

import functools
import itertools
import numbers
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


def integer_error(value) -> str | None:
    """Why value is no integer count, or None: a bool or any value that is
    not numbers.Integral (2.0 and NaN too) fails, numpy integers pass.  A
    plain int skips the abstract-class check, which costs about 0.5 us."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        return f"must be an integer, got {value!r}"
    return None


def dealias_band_of(n: int) -> int:
    """The 2/3 rule keeps the modes with every |k_j| <= n // 3 of a grid of
    n points per axis."""
    return n // 3


def mode_error(mode, d: int, n: int, empty_ok: bool = False) -> str | None:
    """Why the Fourier mode mode does not fit a d-dimensional grid of n
    points per axis, or None: it needs d components (or none, with
    empty_ok), and every |k_j| <= n // 3, the dealias band that holds the
    state (initial_state zeroes every mode outside it)."""
    if empty_ok and not mode:
        return None
    if len(mode) != d:
        return (f"expected empty or {d} components, got {list(mode)}" if empty_ok
                else f"expected {d} components, got {len(mode)}")
    band = dealias_band_of(n)
    if max(map(abs, mode)) > band:
        return (f"{list(mode)} lies outside the dealias band of grid n = {n}: "
                f"every |k_j| must be <= n // 3 = {band}")
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


def copy_band(src: np.ndarray, dst: np.ndarray, d: int, band: int,
              half: bool = False) -> np.ndarray:
    """Copy the coefficients with every |k_j| <= band over the trailing d
    axes of src into dst, and return dst.  Both are in fftn layout with
    more than 2 band points per axis; their grids may differ in size, and
    either may be a band block (band_block).  With half, only the k_d >= 0
    half of the band is copied, so either may be a Hermitian half
    (inverse_real).

    Each axis holds k_j = 0..band at its start and -band..-1 at its end, so
    the band is 2^d corner blocks (2^(d-1) with half), copied by slices: no
    index array is built, and no entry outside the band is read or written.
    """
    for corner in _corners(d, band, half):
        dst[corner] = src[corner]
    return dst


@functools.lru_cache(maxsize=None)
def _corners(d: int, band: int, half: bool) -> tuple[tuple, ...]:
    """The index of each corner block of copy_band."""
    ends = (slice(0, band + 1), slice(-band, None))
    last = (slice(0, band + 1),) if half else ()
    return tuple((Ellipsis,) + corner + last
                 for corner in itertools.product(ends, repeat=d - 1 if half else d))


def band_axis(band: int) -> np.ndarray:
    """The wavenumbers k_j = 0..band, -band..-1 of one axis of a band block."""
    return np.r_[0:band + 1, -band:0]


def band_block(coeffs: np.ndarray, d: int, band: int) -> np.ndarray:
    """The band block of coeffs: its coefficients with every |k_j| <= band
    over the trailing d axes, shape (..., 2 band + 1, ..., 2 band + 1), each
    axis in the order of band_axis.  The block is itself in fftn layout on
    2 band + 1 points per axis, so c[k] = c[k mod (2 band + 1)] for every k
    of the band, and its sum of |c|^2 is that of coeffs' band."""
    block = np.empty(coeffs.shape[:-d] + (2 * band + 1,) * d, dtype=coeffs.dtype)
    return copy_band(coeffs, block, d, band)


def real_half(values: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian half of the coefficients of real values over the
    trailing d axes (inverse_real's input), normalized as forward's."""
    return scipy.fft.rfftn(values, axes=_trailing(d), norm="forward", workers=1)


def half_band(half: np.ndarray, d: int, band: int) -> np.ndarray:
    """A new band block holding the k_d >= 0 half of the band of the
    Hermitian half half (real_half); fill_conjugates sets the rest."""
    block = np.empty(half.shape[:-d] + (2 * band + 1,) * d, dtype=complex)
    return copy_band(half, block, d, band, half=True)


@functools.lru_cache(maxsize=None)
def _mirror_fills(d: int, band: int) -> tuple[tuple[tuple, tuple], ...]:
    """(source, destination) index pairs of fill_conjugates, in order: the
    k_d < 0 half; then within k_d = 0, axis by axis, the modes whose first
    nonzero component is that axis' and negative; then mode 0, from itself."""
    # (destination, source) slices along an axis: k and -k for every k, and
    # k < 0 and -k > 0
    mirror = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    neg, pos = slice(band + 1, None), slice(band, 0, -1)
    fills = []
    for others in itertools.product(mirror, repeat=d - 1):
        fills.append(((Ellipsis,) + tuple(src for _, src in others) + (pos,),
                      (Ellipsis,) + tuple(dst for dst, _ in others) + (neg,)))
    for a in range(d - 1):
        head = (Ellipsis,) + (0,) * a
        for others in itertools.product(mirror, repeat=d - 2 - a):
            fills.append((head + (pos,) + tuple(src for _, src in others) + (0,),
                          head + (neg,) + tuple(dst for dst, _ in others) + (0,)))
    zero = (Ellipsis,) + (slice(0, 1),) * d
    return tuple(fills) + ((zero, zero),)


def fill_conjugates(block: np.ndarray, d: int, band: int) -> np.ndarray:
    """Complete, in place, band blocks whose k_d >= 0 half holds the half
    band of real values' real_half (half_band) into band_block(forward(
    values, d), d, band), bit for bit, and return them.

    forward takes real input through the real transform as well, and then
    fills the rest of its spectrum with conjugates in memory order: the
    k_d < 0 half from the mirror modes, then within k_d = 0 each mode whose
    first nonzero component is negative, and mode 0 with its own conjugate
    (its imaginary zero changes sign).  The fills here repeat those.
    """
    for src, dst in _mirror_fills(d, band):
        np.conjugate(block[src], out=block[dst])
    return block


def band_forward(values: np.ndarray, d: int, band: int) -> np.ndarray:
    """band_block(forward(values, d), d, band) of real values, bit for bit,
    with no full-grid spectrum: from the real transform (fill_conjugates)."""
    return fill_conjugates(half_band(real_half(values, d), d, band), d, band)


def block_values(block: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real grid values of shape (..., *shape) of the band blocks block: the
    k_d >= 0 half of the block is copied into a zeroed Hermitian half
    (inverse_real) of shape's grid, which transforms back."""
    d, band = len(shape), block.shape[-1] // 2
    half = np.zeros(block.shape[:-d] + shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    return inverse_real(copy_band(block, half, d, band, half=True), shape)


def half_band_index(n: int, d: int, band: int) -> tuple:
    """Open-mesh index, over the trailing d axes of an fftn-layout array of
    n points per axis or of its Hermitian half (inverse_real), of the k_d >= 0
    half of the band |k_j| <= band: shape (2 band + 1, ..., 2 band + 1,
    band + 1), each leading axis in the order k_j = 0..band, -band..-1.
    Reading it copies the half band; assigning to it fills the band back in."""
    axis = np.r_[0:band + 1, n - band:n]
    return (Ellipsis,) + np.ix_(*([axis] * (d - 1)), np.arange(band + 1))


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
    def band_k_axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis wavenumber arrays broadcast to the band block of the
        dealias band (band_block)."""
        k, d = band_axis(self.dealias_band), self.d
        return tuple(k.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j)) for j in range(d))

    @cached_property
    def band_derivative_multipliers(self) -> tuple[np.ndarray, ...]:
        """Per-axis spectral derivative multipliers 2 pi i k_j on the band
        block (band_k_axes).  The band holds no Nyquist mode (n // 3 < n / 2),
        so no multiplier is zeroed for realness."""
        return tuple(TWO_PI * 1j * ka.astype(float) for ka in self.band_k_axes)

    @property
    def dealias_band(self) -> int:
        """The 2/3 rule keeps the modes with every |k_j| <= n/3."""
        return dealias_band_of(self.n_per_dim)

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
