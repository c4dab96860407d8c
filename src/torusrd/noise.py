"""Divergence-free transport noise on the torus.

A noise model is a finite, radially symmetric, l2-normalized spectrum
theta_k together with an orthonormal basis {a_{k,alpha}} of the hyperplane
k-perp for every supported mode, and an intensity nu.  The associated
vector fields a_{k,alpha} e^{2*pi*i k.x} are divergence free, and the basis
weights satisfy the ellipticity identity

    sum_{k,alpha} theta_k^2 a_{k,alpha}^n a_{k,alpha}^m = delta_{nm} / c_d,

with c_d = d/(d-1).  Complex Brownian increments carry the conjugation
symmetry dW(-k) = conj(dW(k)), so every sampled velocity field is real.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import ArgumentErrors, TorusGrid, inverse_pruned

SPECTRUM_L2_TOL = 1e-12
C_CFL = 0.5  # explicit-noise step guard: dt <= C_CFL / (nu max|k_j| n)


def _partition_signs(vectors: np.ndarray) -> np.ndarray:
    """+1 for each row of a (m, d) array of nonzero vectors that lies in the
    plus half-lattice, -1 otherwise.  The rule is lexicographic: k is plus
    iff its first nonzero coordinate is positive, so exactly one of {k, -k}
    is plus."""
    first = np.argmax(vectors != 0, axis=1)
    return np.sign(vectors[np.arange(len(vectors)), first]).astype(np.int64)


def hyperplane_bases(plus: np.ndarray) -> np.ndarray:
    """Orthonormal bases of k-perp for every row k of plus, shape (m, d-1, d).

    In d=2 the basis vector is k rotated by +90 degrees; in d>=3 it is
    Gram-Schmidt on the canonical unit vectors in index order, skipping the
    one most parallel to k.
    """
    kv = np.asarray(plus, dtype=float)
    m, d = kv.shape
    norm_k = np.linalg.norm(kv, axis=1)[:, None]
    if d == 2:
        return (np.stack([-kv[:, 1], kv[:, 0]], axis=1) / norm_k)[:, None, :]
    skip = np.argmax(np.abs(kv), axis=1)
    # per row, the axes other than skip in increasing order (stable sort)
    others = np.argsort(np.arange(d) == skip[:, None], axis=1, kind="stable")
    basis = [kv / norm_k]
    rows = np.arange(m)
    for j in range(d - 1):
        e = np.zeros((m, d))
        e[rows, others[:, j]] = 1.0
        for b in basis:
            e = e - np.sum(e * b, axis=1, keepdims=True) * b
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        basis.append(e)
    return np.stack(basis[1:], axis=1)


def _row_keys(vectors: np.ndarray, span: int) -> np.ndarray:
    """One integer per row of a (m, d) int array with entries in [-span, span]."""
    base = 2 * span + 1
    return (vectors + span) @ (base ** np.arange(vectors.shape[1], dtype=np.int64))


@dataclass(frozen=True)
class NoiseSpectrum:
    """Finite noise spectrum: lattice support and nonnegative weights."""

    support: np.ndarray  # (m, d) int lattice vectors
    theta: np.ndarray  # (m,) weights, l2-normalized

    def __post_init__(self) -> None:
        if self.support.ndim != 2 or len(self.support) != len(self.theta):
            raise ValueError("support and theta shapes are inconsistent")
        if np.any(~np.any(self.support, axis=1)):
            raise ValueError("k = 0 is not an admissible noise mode")
        if not np.all(self.theta >= 0):
            raise ValueError("theta must be nonnegative")
        l2 = float(np.sqrt(np.sum(self.theta**2)))
        if not abs(l2 - 1.0) <= SPECTRUM_L2_TOL:
            raise ValueError(f"theta is not l2-normalized: |theta|_2 = {l2!r}")
        self._check_symmetry()

    def _check_symmetry(self) -> None:
        # radial symmetry implies theta(-k) = theta(k); assert both directly
        r2 = np.sum(self.support**2, axis=1)
        order = np.argsort(r2, kind="stable")
        r2, theta = r2[order], self.theta[order]
        # searchsorted finds the first mode (in support order) of each sphere
        radial = np.abs(theta[np.searchsorted(r2, r2)] - theta) > 1e-12
        if np.any(radial):
            bad = int(r2[np.argmax(radial)])
            raise ValueError(f"theta is not radially symmetric at |k|^2={bad}")
        span = int(np.max(np.abs(self.support)))
        keys = np.sort(_row_keys(self.support, span))
        if np.any(keys[1:] == keys[:-1]):  # NoiseGridOps would keep one copy
            raise ValueError("support lists a mode twice")
        mirror = _row_keys(-self.support, span)
        found = keys[np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)] == mirror
        if not np.all(found):
            k = tuple(int(x) for x in self.support[np.argmin(found)])
            raise ValueError(f"support is not symmetric: missing -k for k={k}")

    @property
    def d(self) -> int:
        return int(self.support.shape[1])

    def linf(self) -> float:
        return float(np.max(self.theta))

    def max_component(self) -> int:
        """Largest |k_j| over the support, the resolution driver."""
        return int(np.max(np.abs(self.support)))


def intensity_errors(nu: float) -> dict[str, str]:
    """The rule of a noise intensity, nu > 0: {"nu": message} when nu (or
    NaN) breaks it, else {}."""
    return {} if nu > 0 else {"nu": f"must be > 0, got {nu}"}


def shell_errors(shell_n: int, gamma: float) -> dict[str, str]:
    """The rules of build_theta_shell, shell_n >= 1 and gamma >= 0, each
    failing argument mapped to its message."""
    problems = {}
    if not shell_n >= 1:
        problems["shell_n"] = f"must be >= 1, got {shell_n}"
    if not gamma >= 0:
        problems["gamma"] = f"must be >= 0, got {gamma}"
    return problems


def build_theta_shell(shell_n: int, gamma: float, d: int) -> NoiseSpectrum:
    """Normalized annulus spectrum: theta ~ |k|^-gamma on shell_n <= |k| <= 2 shell_n."""
    if problems := shell_errors(shell_n, gamma):
        raise ArgumentErrors(problems)
    rng_1d = np.arange(-2 * shell_n, 2 * shell_n + 1)
    mesh = np.meshgrid(*([rng_1d] * d), indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    r2 = np.sum(lattice**2, axis=1)
    keep = (r2 >= shell_n**2) & (r2 <= 4 * shell_n**2)
    support = lattice[keep]  # never empty: it holds (shell_n, 0, ..., 0)
    weights = np.sum(support**2, axis=1) ** (-gamma / 2.0)
    theta = weights / np.sqrt(np.sum(weights**2))
    return NoiseSpectrum(support=support, theta=theta)


@dataclass(frozen=True)
class NoiseModel:
    """Spectrum + hyperplane bases + intensity nu."""

    spectrum: NoiseSpectrum
    nu: float

    def __post_init__(self) -> None:
        if problems := intensity_errors(self.nu):
            raise ArgumentErrors(problems)

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def c_d(self) -> float:
        return self.d / (self.d - 1.0)

    @cached_property
    def _plus_rows(self) -> np.ndarray:
        # one of each pair {k, -k}: the support is distinct and closed under k -> -k
        return _partition_signs(self.spectrum.support) > 0

    @cached_property
    def plus_modes(self) -> np.ndarray:
        """(m+, d) plus-representative modes; support = plus U (-plus)."""
        return self.spectrum.support[self._plus_rows]

    @cached_property
    def theta_plus(self) -> np.ndarray:
        return self.spectrum.theta[self._plus_rows]

    @cached_property
    def basis_plus(self) -> np.ndarray:
        """(m+, d-1, d) orthonormal hyperplane bases for the plus modes."""
        return hyperplane_bases(self.plus_modes)


def verify_ellipticity(model: NoiseModel) -> float:
    """Max deviation of sum theta^2 a^n a^m from delta_{nm}/c_d."""
    d = model.d
    # plus modes count twice: a and theta are even in k
    gram = 2.0 * np.einsum(
        "m,mad,mae->de",
        model.theta_plus**2,
        model.basis_plus,
        model.basis_plus,
    )
    target = np.eye(d) / model.c_d
    return float(np.max(np.abs(gram - target)))


@dataclass(frozen=True)
class IncrementSet:
    """Complex Brownian increments over one step, stored on plus modes.

    Minus-mode increments are materialized by conjugation, so the symmetry
    dW(-k, alpha) = conj(dW(k, alpha)) is exact by construction.
    """

    dt: float
    model: NoiseModel
    dw_plus: np.ndarray  # (m+, d-1) complex


def sample_increments(model: NoiseModel, dt: float, rng: np.random.Generator) -> IncrementSet:
    """Draw one step of increments: Re, Im ~ N(0, dt) independently per plus mode."""
    if not dt >= 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    shape = (len(model.plus_modes), model.d - 1)
    if dt == 0:
        dw = np.zeros(shape, dtype=complex)
    else:
        # one draw of both parts: the same stream as drawing Re, then Im
        parts = rng.standard_normal((2,) + shape)
        parts *= np.sqrt(dt)
        dw = np.empty(shape, dtype=complex)
        dw.real = parts[0]
        dw.imag = parts[1]
    return IncrementSet(dt=dt, model=model, dw_plus=dw)


class _PathGenerator(np.random.Generator):
    """A path's generator, with the Philox state dict that path_rng re-keys
    (None until the first re-key)."""

    rekey_state: dict | None = None


def path_rng(seed: int, path_index: int, step_index: int,
             rng: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for one (path, step): order-independent.

    rng, a generator that path_rng made for the same (seed, path_index), is
    re-keyed to the step in place and returned: the same stream as a fresh
    generator, without the OS-entropy draw that every new Philox makes
    before its key replaces it.  The first re-key reads rng's state once,
    with the key where Philox has wrapped a negative seed mod 2^64, and
    keeps it with rng; each re-key then sets that dict with only its
    counter changed.
    """
    if rng is None:
        return _PathGenerator(
            np.random.Philox(key=[seed, path_index], counter=[0, 0, 0, step_index])
        )
    state = rng.rekey_state
    if state is None:
        state = rng.rekey_state = rng.bit_generator.state
        state["state"]["counter"][:] = 0
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)  # no buffered output
    state["state"]["counter"][3] = step_index
    rng.bit_generator.state = state
    return rng


def resolution_error(max_k: int, n: int) -> str | None:
    """Why modes with |k_j| <= max_k are under-resolved on n points per
    axis, or None.  Products with them stay dealiasable while max_k <= n/3;
    the shell-s annulus has max_k = 2s.
    """
    if max_k <= n / 3:
        return None
    return (f"max|k_j| = {max_k} is under-resolved on grid n = {n}: products "
            f"resolve only for max|k_j| <= n/3 = {n / 3:.1f}, i.e. shell <= {n / 6:.1f}")


def step_guard_error(nu: float, max_k: int, n: int, dt: float) -> str | None:
    """Why dt breaks the explicit-noise step guard dt <= C_CFL / (nu max|k_j| n)
    for noise of intensity nu with modes up to max_k on n points per axis,
    or None."""
    dt_max = C_CFL / (nu * max_k * n)
    if dt <= dt_max:
        return None
    return (f"dt = {dt} violates the noise step guard "
            f"dt <= c_cfl/(nu max|k| n) = {dt_max:.3e}")


class NoiseGridOps:
    """Grid-resolved noise machinery shared by transport evaluations.

    Precomputes scatter indices of the plus/minus modes and the per-mode
    basis weights.  Two real components ride one inverse transform as its
    real and imaginary parts, and the spectrum lives on the lines with
    |k_j| <= max|k_j| of the trailing axes, so assembling the sampled
    velocity field costs one pruned transform (inverse_pruned) in d=2, and
    in d=3 one more, pruned and real, transform of the third component.
    """

    def __init__(self, model: NoiseModel, grid: TorusGrid):
        if grid.d != model.d:
            raise ValueError("noise and grid dimensions differ")
        max_k = model.spectrum.max_component()
        if problem := resolution_error(max_k, grid.n_per_dim):
            raise ValueError(f"noise support {problem}")
        self.model = model
        self.grid = grid
        n = grid.n_per_dim
        plus = model.plus_modes
        # the lines |k_j| <= max_k of axes 1..d-1, stored at k_j mod 2 max_k + 1
        self._band = max_k
        self._lines_shape = (n,) + (2 * max_k + 1,) * (grid.d - 1)
        wrap = np.array([n] + [2 * max_k + 1] * (grid.d - 1))[:, None]
        # |k_j| <= max_k, below half of each wrap, keeps plus and minus apart
        self._flat_plus = np.ravel_multi_index(tuple(plus.T % wrap), self._lines_shape)
        self._flat_minus = np.ravel_multi_index(tuple(-plus.T % wrap), self._lines_shape)
        if grid.d == 3:
            # the real third component from the lines of its Hermitian half
            # k_3 = 0..max_k, which hold k for k_3 >= 0 and -k for k_3 <= 0:
            # both when k_3 = 0
            self._half_shape = self._lines_shape[:-1] + (max_k + 1,)
            self._half_plus = plus[:, -1] >= 0
            self._half_minus = plus[:, -1] <= 0
            self._flat_half_plus = np.ravel_multi_index(
                tuple(plus[self._half_plus].T % wrap), self._half_shape)
            self._flat_half_minus = np.ravel_multi_index(
                tuple(-plus[self._half_minus].T % wrap), self._half_shape)
        # weight[m, alpha, j] = sqrt(c_d nu) * theta_m * a_{m,alpha}^j
        self.weights = (
            np.sqrt(model.c_d * model.nu)
            * model.theta_plus[:, None, None]
            * model.basis_plus
        )

    def _inverse_half(self, plus_amp: np.ndarray) -> np.ndarray:
        """Real grid values of the Hermitian spectrum with plus_amp on the
        plus modes, from the lines of its half k_3 >= 0 (d = 3)."""
        half = np.zeros(self._half_shape, dtype=complex)
        flat = half.reshape(-1)
        flat[self._flat_half_plus] = plus_amp[self._half_plus]
        flat[self._flat_half_minus] = np.conj(plus_amp[self._half_minus])
        return inverse_pruned(half, self.grid.n_per_dim, self._band, real=True)

    def velocity_field(self, inc: IncrementSet) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed velocity (w, u_2) for one increment set.

        The velocity is u = sqrt(c_d nu) sum_{k,alpha} theta_k a_{k,alpha}
        e^{2 pi i k.x} dW^{k,alpha}; it is divergence free mode by mode.
        w = u_0 - i u_1 packs the first two components so that, for
        z = a + i b, Re(z w) = u_0 a + u_1 b: u_0, u_1 have Hermitian
        spectra, so the inverse transform of u_0 + i u_1 is u_0 + i u_1 in
        grid space, and w is its conjugate.  u_2 is the real third
        component in d = 3, None in d = 2.
        """
        amp = np.einsum("ma,maj->mj", inc.dw_plus, self.weights)
        lines = np.zeros(self._lines_shape, dtype=complex)
        flat = lines.reshape(-1)
        flat[self._flat_plus] = amp[:, 0] + 1j * amp[:, 1]
        flat[self._flat_minus] = np.conj(amp[:, 0]) + 1j * np.conj(amp[:, 1])
        w = inverse_pruned(lines, self.grid.n_per_dim, self._band)
        np.conjugate(w, out=w)
        return w, (self._inverse_half(amp[:, 2]) if self.grid.d == 3 else None)


def spectrum_to_csv(spectrum: NoiseSpectrum, path) -> None:
    """Export as CSV with columns k1..kd, theta."""
    d = spectrum.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k{j+1}" for j in range(d)] + ["theta"])
        for kvec, th in zip(spectrum.support, spectrum.theta):
            writer.writerow([*(int(x) for x in kvec), repr(float(th))])


def spectrum_from_csv(path) -> NoiseSpectrum:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    if header[-1] != "theta" or not header[0].startswith("k"):
        raise ValueError(f"unrecognized spectrum CSV header: {header}")
    d = len(header) - 1
    support = np.array([[int(x) for x in row[:d]] for row in rows[1:]], dtype=np.int64)
    theta = np.array([float(row[d]) for row in rows[1:]])
    return NoiseSpectrum(support=support, theta=theta)
