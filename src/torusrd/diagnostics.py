"""Observables along trajectories: norms, mass traces, balance residuals
and blow-up statistics.

Running time-integrals (gradient energy, reaction work) are accumulated
inside the stepping loop with the left-endpoint rule, so the linear-case
balance residual is O(dt); integrals assembled after the fact from recorded
samples use the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import band_axis
from .reactions import ReactionSystem

WILSON_Z = 1.959963984540054  # two-sided 95%


def grid_mean(a: np.ndarray, axes: tuple[int, ...] | None = None) -> np.ndarray:
    """np.mean(a, axis=axes) of a float array, bitwise (the same sum divided
    by the same count), without np.mean's Python wrapper; axes None takes
    the mean of every entry."""
    count = a.size if axes is None else math.prod(a.shape[ax] for ax in axes)
    return np.add.reduce(a, axes) / count


def _power(a: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """a ** p for a float exponent p, bitwise: a itself at p = 1 (a, not
    out) and np.square at p = 2.  numpy's float power has no fast path at
    either and takes about twice np.square's time on a (2, 64, 64) stack."""
    if p == 1.0:
        return a
    if p == 2.0:
        return np.square(a, out=out)
    return np.power(a, p, out=out)


def lq_norm_vector(stack: np.ndarray, q: float) -> float:
    """L^q(T^d; R^ell) norm of the stacked species fields.

    Taken from the sum of squares as mean((|v|^2)^(q/2))^(1/q), which needs
    no square root; _power skips the power at q = 2 and squares at q = 4.
    Overflow maps to inf, which the solver treats as a blow-up signal.
    """
    with np.errstate(over="ignore"):
        squares = np.square(stack)
        sq = squares[0]
        for s in squares[1:]:  # species in order, as np.sum over axis 0
            sq += s
        sq = _power(sq, q / 2.0, out=sq)
        return float(grid_mean(sq) ** (1.0 / q))


@dataclass
class DiagnosticsRecord:
    """Per-path time series sampled on the recording cadence."""

    times: np.ndarray  # (n,)
    lq: dict[float, np.ndarray]  # q -> (n, ell) per-species L^q norms
    mass: np.ndarray  # (n, ell) mode-0 coefficients
    min_value: np.ndarray  # (n, ell) pointwise minima
    grad_energy: dict[float, np.ndarray]  # q -> (n, ell) running integrals
    work: dict[float, np.ndarray]  # q -> (n, ell) running reaction work
    phi: np.ndarray  # (n,)
    cutoff_acc: np.ndarray  # (n,)


class RecordBuilder:
    """Accumulates one path's diagnostics during stepping."""

    def __init__(
        self,
        sys: ReactionSystem,
        lq_list: tuple[float, ...],
        balance_q: tuple[float, ...],
    ):
        self.lq_list = tuple(lq_list)
        self.balance_q = tuple(balance_q)
        self._times: list[float] = []
        self._lq: dict[float, list[np.ndarray]] = {q: [] for q in self.lq_list}
        self._mass: list[np.ndarray] = []
        self._min: list[np.ndarray] = []
        self._phi: list[float] = []
        self._acc: list[float] = []
        self._grad_running = {q: np.zeros(sys.ell) for q in self.balance_q}
        self._work_running = {q: np.zeros(sys.ell) for q in self.balance_q}
        self._grad_series: dict[float, list[np.ndarray]] = {q: [] for q in self.balance_q}
        self._work_series: dict[float, list[np.ndarray]] = {q: [] for q in self.balance_q}

    def accumulate_balance(self, dt: float, values: np.ndarray, rates: np.ndarray,
                           grad: tuple[np.ndarray, np.ndarray | None]) -> None:
        """Left-rule advance of the running balance integrals, all species at
        once, from the pre-step grid values, their rates f(t, v) and their
        packed gradient (z, g_2) (Stepper.gradients).  Reads all three: the
        step reuses them."""
        z, g2 = grad
        grads_sq = np.square(z.real)
        grads_sq += np.square(z.imag)
        if g2 is not None:
            grads_sq += np.square(g2)
        axes = tuple(range(1, values.ndim))  # the grid axes
        for q in self.balance_q:
            if q == 2.0:  # the weight |v|^0 is 1, also at NaN and inf
                grad_w, work = grads_sq, rates * values
            else:
                weight = _power(np.abs(values), q - 2.0)
                grad_w, work = weight * grads_sq, weight * rates * values
            self._grad_running[q] += dt * grid_mean(grad_w, axes)
            self._work_running[q] += dt * grid_mean(work, axes)

    def sample(self, t: float, values: np.ndarray, phi: float, acc: float) -> None:
        self._times.append(t)
        axes = tuple(range(1, values.ndim))
        with np.errstate(over="ignore"):
            sq = values**2 if self.lq_list else None
            for q in self.lq_list:
                self._lq[q].append(grid_mean(_power(sq, q / 2.0), axes) ** (1.0 / q))
        self._mass.append(grid_mean(values, axes))
        self._min.append(values.min(axis=axes))
        self._phi.append(phi)
        self._acc.append(acc)
        for q in self.balance_q:
            self._grad_series[q].append(self._grad_running[q].copy())
            self._work_series[q].append(self._work_running[q].copy())

    def finalize(self) -> DiagnosticsRecord:
        return DiagnosticsRecord(
            times=np.array(self._times),
            lq={q: np.stack(v) for q, v in self._lq.items()},
            mass=np.stack(self._mass),
            min_value=np.stack(self._min),
            grad_energy={q: np.stack(v) for q, v in self._grad_series.items()},
            work={q: np.stack(v) for q, v in self._work_series.items()},
            phi=np.array(self._phi),
            cutoff_acc=np.array(self._acc),
        )


def lq_balance_residual(record: DiagnosticsRecord, q: float, sys: ReactionSystem) -> np.ndarray:
    """Residual time series (n, ell) of the L^q energy balance.

    residual_i(t) = |v_i(t)|_q^q + nu_i q(q-1) G_i(t) - |v_i(0)|_q^q - q W_i(t),
    where G is the running gradient-energy integral and W the running
    reaction work.  Zero for exact trajectories, O(dt) for the scheme.
    """
    if not q >= 2:
        raise ValueError(f"balance exponent must be >= 2, got {q}")
    if q not in record.lq or q not in record.grad_energy or len(record.times) < 2:
        raise ValueError(
            f"trajectory stores no balance data for q={q}: "
            "rerun with this q in balance_q and lq_norms"
        )
    norms_q = record.lq[q] ** q
    res = (
        norms_q
        + sys.nu[None, :] * q * (q - 1.0) * record.grad_energy[q]
        - norms_q[0][None, :]
        - q * record.work[q]
    )
    return res


def survival_estimate(
    taus: list[float | None], T: float
) -> tuple[float, tuple[float, float]]:
    """Survival fraction P(tau >= T) with its Wilson 95% interval."""
    if not taus:
        raise ValueError("survival estimate needs at least one path")
    n = len(taus)
    k = sum(1 for tau in taus if tau is None or tau >= T)
    p_hat = k / n
    z2 = WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = (WILSON_Z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    return p_hat, (max(0.0, center - half), min(1.0, center + half))


def spectral_weight(d: int, band: int, gamma: float) -> np.ndarray:
    """The weights of spectral_norm on the half band (fields.half_band_index)
    of |k_j| <= band in d dimensions: (1+|k|^2)^{-gamma}, doubled where
    k_d > 0, for the mirror mode -k that the half leaves out.  gamma = 0
    gives the L^2 weights 1 and 2."""
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    axis = band_axis(band).astype(float)
    k_last = np.arange(band + 1.0)
    k_squared = sum(np.ix_(*([axis**2] * (d - 1)), k_last**2))
    return np.where(k_last > 0, 2.0, 1.0) * (1.0 + k_squared) ** (-gamma)


def spectral_norm(half: np.ndarray, weight: np.ndarray) -> float:
    """(sum_k w_k |c_k|^2)^{1/2} over the half band c of a real field or of a
    species stack (summed over species), for w = spectral_weight: by
    Parseval the L^2 norm of the field at gamma = 0 (lq_norm_vector at
    q = 2), its H^{-gamma} norm otherwise."""
    squares = np.square(half.real)
    squares += np.square(half.imag)
    squares *= weight
    return math.sqrt(squares.sum())
