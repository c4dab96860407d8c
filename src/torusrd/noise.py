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

from .fields import ArgumentErrors, TorusGrid, dealias_band_of, integer_error

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
    """The rules of build_theta_shell, shell_n an integer >= 1 and gamma >= 0,
    each failing argument mapped to its message."""
    problems = {}
    if problem := integer_error(shell_n):
        problems["shell_n"] = problem
    elif not shell_n >= 1:
        problems["shell_n"] = f"must be >= 1, got {shell_n}"
    if not gamma >= 0:
        problems["gamma"] = f"must be >= 0, got {gamma}"
    return problems


def shell_max_k(shell_n: int) -> int:
    """max|k_j| of the annulus shell_n <= |k| <= 2 shell_n of build_theta_shell,
    without building it: the mode (2 shell_n, 0, ...)."""
    return 2 * shell_n


def build_theta_shell(shell_n: int, gamma: float, d: int) -> NoiseSpectrum:
    """Normalized annulus spectrum: theta ~ |k|^-gamma on shell_n <= |k| <= 2 shell_n."""
    if problems := shell_errors(shell_n, gamma):
        raise ArgumentErrors(problems)
    shell_n = int(shell_n)  # -max_k and shell_n^2 wrap on a fixed-width numpy integer
    max_k = shell_max_k(shell_n)
    rng_1d = np.arange(-max_k, max_k + 1)
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


def sample_increments(model: NoiseModel, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one step of complex Brownian increments on the plus modes, shape
    (m+, d-1): Re, Im ~ N(0, dt) independently.  A minus mode's increment is
    the conjugate, dW(-k, alpha) = conj(dW(k, alpha)), exact by construction."""
    if not dt >= 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    # one draw of both parts: the same stream as drawing Re, then Im
    parts = rng.standard_normal((2, len(model.plus_modes), model.d - 1))
    parts *= np.sqrt(dt)
    dw = np.empty(parts.shape[1:], dtype=complex)
    dw.real, dw.imag = parts
    return dw


def seed_error(seed: int) -> str | None:
    """Why seed is not a Philox key word, a signed 64-bit integer, or None.
    A bool or a float is no seed: Philox would key with its truncation."""
    if problem := integer_error(seed):
        return problem
    return None if -2**63 <= seed < 2**63 else f"must lie in [-2^63, 2^63), got {seed}"


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
    axis, or None.  Their product with the dealias band |k_j| <= n // 3 is
    exact in the band only while 2 (n // 3) + max_k < n: a larger max_k
    folds band-edge products back into the band.  The shell-s annulus has
    max_k = shell_max_k(s) = 2s.
    """
    band = dealias_band_of(n)
    if 2 * band + max_k < n:
        return None
    return (f"max|k_j| = {max_k} is under-resolved on grid n = {n}: products with the "
            f"band |k_j| <= {band} are exact only for max|k_j| < n - 2 (n // 3) = "
            f"{n - 2 * band}, i.e. shell <= {(n - 2 * band - 1) // 2}")


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

    Precomputes the flat indices of the plus and minus modes on the box
    |k_j| <= max|k_j| of the support, the per-mode basis weights, and the
    matrix wave[x, k] = e^{2 pi i x k / n} of the n grid points x of an
    axis and the box's k_j.  The sampled velocity field is the box's
    trigonometric sum: one product with wave per axis, no transform.
    """

    def __init__(self, model: NoiseModel, grid: TorusGrid):
        if grid.d != model.d:
            raise ValueError("noise and grid dimensions differ")
        max_k = model.spectrum.max_component()
        if problem := resolution_error(max_k, grid.n_per_dim):
            raise ValueError(f"noise support {problem}")
        self.grid = grid
        n = grid.n_per_dim
        k = np.arange(-max_k, max_k + 1)  # box index k_j + max_k
        # x k mod n first keeps every phase in [0, 2 pi)
        self.wave = np.exp(2j * np.pi / n * (np.outer(np.arange(n), k) % n))
        plus = model.plus_modes
        # the plus modes, then the minus modes
        self._flat = np.ravel_multi_index(tuple(np.concatenate([plus, -plus]).T + max_k),
                                          (len(k),) * grid.d)
        # weight[m, alpha, j] = sqrt(c_d nu) * theta_m * a_{m,alpha}^j
        self.weights = (
            np.sqrt(model.c_d * model.nu)
            * model.theta_plus[:, None, None]
            * model.basis_plus
        )

    def velocity_field(self, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed velocity (w, u_2) for one step's plus-mode increments dw
        (sample_increments).

        The velocity is u = sqrt(c_d nu) sum_{k,alpha} theta_k a_{k,alpha}
        e^{2 pi i k.x} dW^{k,alpha}; it is divergence free mode by mode.
        w = u_0 - i u_1 packs the first two components so that, for
        z = a + i b, Re(z w) = u_0 a + u_1 b (u_0, u_1 are real); it is
        the trigonometric sum of the spectrum u_0(k) - i u_1(k).  u_2 is
        the real third component in d = 3, None in d = 2.  Both are
        C-contiguous arrays of the grid's shape.
        """
        d, wave = self.grid.d, self.wave
        side = wave.shape[1]
        amp = np.einsum("ma,maj->mj", dw, self.weights)
        amp = np.concatenate([amp, amp.conj()])  # a minus mode's amplitude is the conjugate
        box = np.zeros((d - 1, side**d), dtype=complex)
        box[0, self._flat] = amp[:, 0] - 1j * amp[:, 1]
        if d == 3:
            box[1, self._flat] = amp[:, 2]
        del amp  # each intermediate is freed once read: the caller may hold grid-sized arrays
        # the sum over k_{d-1}, and in d = 3 over k_1, of both components at once
        sums = box.reshape((d - 1,) + (side,) * d) @ wave.T
        del box
        if d == 3:
            sums = wave @ sums
        # then over k_0, one component at a time: w holds no part of u_2
        w = (wave @ sums[0].reshape(side, -1)).reshape(self.grid.shape)
        if d == 2:
            return w, None
        u2 = (wave @ sums[1].reshape(side, -1)).real
        return w, np.ascontiguousarray(u2).reshape(self.grid.shape)


def spectrum_to_csv(spectrum: NoiseSpectrum, path) -> None:
    """Export as CSV with columns k1..kd, theta."""
    d = spectrum.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k{j+1}" for j in range(d)] + ["theta"])
        for kvec, th in zip(spectrum.support, spectrum.theta):
            writer.writerow([*(int(x) for x in kvec), repr(float(th))])


def spectrum_from_csv(path) -> NoiseSpectrum:
    """Read spectrum_to_csv's format: a k1..kd, theta header, one row per mode."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"spectrum CSV {path} lists no mode")
    header = rows[0]
    if header[-1:] != ["theta"] or not header[0].startswith("k"):
        raise ValueError(f"unrecognized spectrum CSV header: {header}")
    d = len(header) - 1
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise ValueError(f"spectrum CSV {path}, row {i}: expected {d + 1} entries "
                             f"under {header}, got {row}")
    support = np.array([[int(x) for x in row[:d]] for row in rows[1:]], dtype=np.int64)
    theta = np.array([float(row[d]) for row in rows[1:]])
    return NoiseSpectrum(support=support, theta=theta)
