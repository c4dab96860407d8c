"""Reaction nonlinearities and conservative fluxes.

Systems are immutable bundles of pure evaluators: f maps species values
(ell, ...) to reaction rates of the same shape, F (optional) maps them to
per-species flux vectors (ell, d, ...).  The mass-action builder produces

    f_i(y) = (p_i - q_i) (R_- prod_j y_j^{q_j} - R_+ prod_j y_j^{p_j}),

whose weighted sum cancels identically whenever positive weights alpha with
sum alpha_i (q_i - p_i) = 0 exist.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .fields import ArgumentErrors

# guard so that declared growth stays > 1 even for (sub)linear systems
EPS_H = 1e-6

Evaluator = Callable[[float, np.ndarray], np.ndarray]


def zero_rates(t: float, Y: np.ndarray) -> np.ndarray:
    """The reaction f = 0; a system with this f and no flux is drift-free."""
    return np.zeros_like(Y)


@dataclass(frozen=True)
class ReactionSystem:
    """Species count, diffusivities, and growth-certified evaluators."""

    ell: int
    nu: np.ndarray  # (ell,) diffusivities, > 0
    h: float  # growth exponent, > 1
    f: Evaluator
    F: Evaluator | None = None  # (t, Y) -> (ell, d, ...) flux, None means F == 0
    mass_alpha: np.ndarray | None = None
    mass_consts: tuple[float, float] | None = None  # (a0, a1)
    name: str = "custom"

    def __post_init__(self) -> None:
        problems = {}
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "nu", nu)
        if nu.shape != (self.ell,):
            problems["nu"] = f"expected {self.ell} diffusivities, got shape {nu.shape}"
        # nu_i = 0 is admitted for the pure-transport diagnostics
        elif not np.all(nu >= 0):
            problems["nu"] = f"diffusivities must be nonnegative, got {nu.tolist()}"
        if not self.h > 1:
            problems["h"] = f"growth exponent must be > 1, got {self.h}"
        if self.mass_alpha is not None:
            alpha = np.asarray(self.mass_alpha, dtype=float)
            object.__setattr__(self, "mass_alpha", alpha)
            if alpha.shape != (self.ell,) or not np.all(alpha > 0):
                problems["mass_alpha"] = "mass weights must be positive, one per species"
        if problems:
            raise ArgumentErrors(problems)

    @property
    def is_drift_free(self) -> bool:
        """True when the drift div F + f is known to vanish: f is zero_rates
        and there is no flux.  The solver then skips the drift."""
        return self.f is zero_rates and self.F is None

    def enhanced(self, nu: float) -> ReactionSystem:
        """The same system with diffusivities nu_i + nu: the deterministic
        limit of transport noise of intensity nu >= 0."""
        if not nu >= 0:
            raise ValueError(f"enhancement nu must be >= 0, got {nu}")
        return dataclasses.replace(self, nu=self.nu + nu)


@dataclass(frozen=True)
class MassActionSpec:
    """Stoichiometry q -> p with forward/backward rates."""

    q: tuple[int, ...]
    p: tuple[int, ...]
    r_plus: float = 1.0
    r_minus: float = 1.0

    def __post_init__(self) -> None:
        problems = {}  # stoichiometry problems are reported under q
        if len(self.q) != len(self.p) or not self.q:
            problems["q"] = f"q and p must be equal-length, nonempty, got {self.q} and {self.p}"
        elif any(x < 0 for x in self.q + self.p):
            problems["q"] = f"coefficients must be nonnegative, got {self.q} and {self.p}"
        elif not any(self.q + self.p):
            problems["q"] = "at least one coefficient of q or p must be positive"
        for name in ("r_plus", "r_minus"):
            if not getattr(self, name) > 0:
                problems[name] = f"reaction rate must be positive, got {getattr(self, name)}"
        if problems:
            raise ArgumentErrors(problems)

    @property
    def ell(self) -> int:
        return len(self.q)

    @property
    def h(self) -> float:
        return float(max(sum(self.q), sum(self.p), 1 + EPS_H))


def _monomial(Y: np.ndarray, expo: tuple[int, ...]) -> np.ndarray:
    """prod_j Y_j^{e_j}, the factors multiplied in species order from the
    first one with e_j > 0, and y itself at e_j = 1; bitwise the product
    started from 1, since 1 * x is x.  It may be a view of Y: read it only."""
    out = None
    for y, e in zip(Y, expo):
        if e:
            factor = y if e == 1 else y**e
            out = factor if out is None else out * factor
    return np.ones_like(Y[0]) if out is None else out


def mass_action_build(
    spec: MassActionSpec, nu: np.ndarray | None = None
) -> ReactionSystem:
    """Law-of-mass-action system for q V -> p V with rates R+/R-."""
    q, p = spec.q, spec.p
    coeff = np.array([pi - qi for qi, pi in zip(q, p)], dtype=float)

    def f(t: float, Y: np.ndarray) -> np.ndarray:
        rate_q, rate_p = _monomial(Y, q), _monomial(Y, p)
        if spec.r_minus != 1.0:  # a product with a rate of 1 changes no bit: skip it
            rate_q = spec.r_minus * rate_q
        if spec.r_plus != 1.0:
            rate_p = spec.r_plus * rate_p
        return coeff.reshape((-1,) + (1,) * (Y.ndim - 1)) * (rate_q - rate_p)

    alpha = find_mass_weights(spec)
    return ReactionSystem(
        ell=spec.ell,
        nu=np.ones(spec.ell) if nu is None else np.asarray(nu, dtype=float),
        h=spec.h,
        f=f,
        F=None,
        mass_alpha=alpha,
        mass_consts=(0.0, 0.0) if alpha is not None else None,
        name=f"mass_action(q={q}, p={p})",
    )


def find_mass_weights(spec: MassActionSpec) -> np.ndarray | None:
    """Positive alpha with sum alpha_i (q_i - p_i) = 0, min alpha_i = 1.

    The constraint is one-dimensional: split indices by the sign of
    c = q - p and balance the two groups; infeasible when c is nonzero and
    single-signed.
    """
    c = np.array(spec.q) - np.array(spec.p)
    pos, neg = c > 0, c < 0
    if not pos.any() and not neg.any():
        return np.ones(spec.ell)
    if not pos.any() or not neg.any():
        return None
    a_tot = float(c[pos].sum())
    b_tot = float(-c[neg].sum())
    alpha = np.ones(spec.ell)
    alpha[pos] = b_tot
    alpha[neg] = a_tot
    return alpha / alpha.min()


def probe_errors(samples: int, radius: float) -> dict[str, str]:
    """The rules of a probe of f at samples >= 1 points of [0, radius]^ell,
    radius finite and > 0, each failing argument mapped to its message."""
    problems = {}
    if not samples >= 1:
        problems["samples"] = f"must be >= 1, got {samples}"
    if not 0 < radius < np.inf:
        problems["radius"] = f"must be finite and > 0, got {radius}"
    return problems


def check_mass_control(
    sys: ReactionSystem,
    samples: int = 1024,
    radius: float = 10.0,
) -> tuple[bool, float]:
    """Probe sum alpha_i f_i <= a0 + a1 sum y_i on Sobol points of [0, radius]^ell.

    Returns (holds, worst violation); the worst value is the max of
    sum alpha_i f_i - a0 - a1 sum y_i over the sample.
    """
    if problems := probe_errors(samples, radius):
        raise ArgumentErrors(problems)
    if sys.mass_alpha is None or sys.mass_consts is None:
        raise ValueError("system declares no mass weights / constants")
    a0, a1 = sys.mass_consts
    sampler = qmc.Sobol(d=sys.ell, scramble=False)
    ys = sampler.random(samples).T * radius  # (ell, samples)
    fy = sys.f(0.0, ys)
    lhs = np.einsum("i,i...->...", sys.mass_alpha, fy)
    margin = lhs - a0 - a1 * ys.sum(axis=0)
    worst = float(margin.max())
    return worst <= 1e-10 * (1.0 + abs(a0) + radius), worst


def growth_certificate(
    sys: ReactionSystem, radius: float = 10.0, samples: int = 4096, rng=None
) -> float:
    """Max of |f(y)| / (1 + |y|^h) over samples uniform points of [0, radius]^ell."""
    if problems := probe_errors(samples, radius):
        raise ArgumentErrors(problems)
    rng = np.random.default_rng(0) if rng is None else rng
    ys = rng.uniform(0.0, radius, size=(sys.ell, samples))
    fy = sys.f(0.0, ys)
    ratio = np.max(np.abs(fy), axis=0) / (
        1.0 + np.linalg.norm(ys, axis=0) ** sys.h
    )
    return float(ratio.max())


def _builtin_zero(nu: np.ndarray) -> ReactionSystem:
    return ReactionSystem(
        ell=len(nu), nu=nu, h=1 + EPS_H, f=zero_rates,
        mass_alpha=np.ones(len(nu)), mass_consts=(0.0, 0.0), name="zero",
    )


def _builtin_logistic(nu: np.ndarray) -> ReactionSystem:
    # scalar f(v) = v - v^2: bounded growth, converges to 1 from (0, 1]
    def f(t, Y):
        return Y - Y**2

    return ReactionSystem(
        ell=1, nu=nu, h=2.0, f=f,
        mass_alpha=np.ones(1), mass_consts=(0.0, 1.0), name="logistic",
    )


def _builtin_decay(nu: np.ndarray) -> ReactionSystem:
    def f(t, Y):
        return -Y

    return ReactionSystem(
        ell=len(nu), nu=nu, h=1 + EPS_H, f=f,
        mass_alpha=np.ones(len(nu)), mass_consts=(0.0, -1.0), name="decay",
    )


def _builtin_quadratic_unsafe(nu: np.ndarray) -> ReactionSystem:
    # detector-calibration mode: violates the mass-control assumption
    def f(t, Y):
        return Y**2

    return ReactionSystem(ell=1, nu=nu, h=2.0, f=f, name="quadratic_unsafe")


def _builtin_cubic_nontriangular(nu: np.ndarray, d: int) -> ReactionSystem:
    # the problematic two-species cubic system: q1=p2=1, q2=p1=2
    sys = mass_action_build(MassActionSpec(q=(1, 2), p=(2, 1)), nu=nu)
    return dataclasses.replace(sys, name="cubic_nontriangular")


def _builtin_linear_flux(nu: np.ndarray, d: int) -> ReactionSystem:
    # F_i(v) = v_i e_1, exercising the conservative term
    def F(t, Y):
        out = np.zeros((Y.shape[0], d) + Y.shape[1:])
        out[:, 0] = Y
        return out

    return ReactionSystem(
        ell=len(nu), nu=nu, h=1 + EPS_H, f=zero_rates, F=F,
        mass_alpha=np.ones(len(nu)), mass_consts=(0.0, 0.0), name="linear_flux",
    )


BUILTIN_REACTIONS: dict[str, Callable[..., ReactionSystem]] = {
    "zero": lambda nu, d: _builtin_zero(nu),
    "logistic": lambda nu, d: _builtin_logistic(nu),
    "decay": lambda nu, d: _builtin_decay(nu),
    "quadratic_unsafe": lambda nu, d: _builtin_quadratic_unsafe(nu),
    "cubic_nontriangular": _builtin_cubic_nontriangular,
    "linear_flux": _builtin_linear_flux,
}

UNSAFE_BUILTINS = frozenset({"quadratic_unsafe"})


def build_builtin(
    name: str, nu: np.ndarray, d: int = 2, allow_unsafe: bool = False
) -> ReactionSystem:
    if name not in BUILTIN_REACTIONS:
        raise ArgumentErrors(
            {"name": f"unknown builtin reaction {name!r}; known: {sorted(BUILTIN_REACTIONS)}"}
        )
    if name in UNSAFE_BUILTINS and not allow_unsafe:
        raise ArgumentErrors({"name": f"builtin {name!r} violates the mass-control assumption "
                                      "and is gated behind --unsafe-reaction"})
    return BUILTIN_REACTIONS[name](np.asarray(nu, dtype=float), d)
