"""Run configuration: dotted-key text format, validation, manifests.

The format is one `section.key = value` binding per line; `#` starts a
comment.  Values are JSON scalars/lists or bare strings.  Unknown keys are
rejected, every error carries its key path, and the canonical serialization
round-trips so a manifest re-runs bitwise.  Validation builds the grid,
solver config and reaction once, so each rule lives in its constructor.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from sys import float_info

import numpy as np

from . import __version__
from .exponents import ParamSet, admissibility
from .experiments import decay_plan_errors, scaling_plan_errors, survival_plan_errors
from .fields import ArgumentErrors, GridField, TorusGrid, mode_error
from .noise import (NoiseModel, build_theta_shell, intensity_errors, resolution_error,
                    shell_errors)
from .reactions import MassActionSpec, ReactionSystem, build_builtin, mass_action_build
from .solver import CutOffParams, SolverConfig


class ConfigError(ValueError):
    """Validation failure; message lists every offending key."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))


@dataclass(frozen=True)
class _Field:
    type: str  # int | float | bool | str | int_list | float_list
    default: object


SCHEMA: dict[str, _Field] = {
    "grid.d": _Field("int", 2),
    "grid.n": _Field("int", 64),
    "noise.enabled": _Field("bool", True),
    "noise.nu": _Field("float", 0.1),
    "noise.shell_n": _Field("int", 1),
    "noise.gamma": _Field("float", 0.0),
    "reaction.kind": _Field("str", "builtin:zero"),
    "reaction.q": _Field("int_list", []),
    "reaction.p": _Field("int_list", []),
    "reaction.r_plus": _Field("float", 1.0),
    "reaction.r_minus": _Field("float", 1.0),
    "reaction.nu": _Field("float_list", [0.01]),
    "reaction.mass.a0": _Field("float", 0.0),
    "reaction.mass.a1": _Field("float", 0.0),
    "solver.dt": _Field("float", 1e-3),
    "solver.T": _Field("float", 0.5),
    "solver.scheme": _Field("str", "euler_maruyama_ito"),
    "solver.seed": _Field("int", 0),
    "solver.record_every": _Field("int", 1),
    "solver.blowup.q0": _Field("float", 4.0),
    "solver.blowup.threshold": _Field("float", 1e6),
    "solver.require_nonneg": _Field("bool", False),
    "solver.track_balance": _Field("bool", True),
    "solver.balance_q": _Field("float_list", [2.0]),
    "solver.lq_norms": _Field("float_list", [2.0]),
    "cutoff.enabled": _Field("bool", False),
    "cutoff.R": _Field("float", 1.0),
    "cutoff.r": _Field("float", 2.0),
    "cutoff.q": _Field("float", 4.0),
    "v0.kind": _Field("str", "single_mode"),
    "v0.amplitude": _Field("float", 0.5),
    "v0.offset": _Field("float", 0.0),
    "v0.mode": _Field("int_list", [1, 0]),
    "v0.seed": _Field("int", 0),
    "experiment.shells": _Field("int_list", [1, 2, 4, 8]),
    "experiment.paths": _Field("int", 16),
    "experiment.epsilon": _Field("float", 0.05),
    "experiment.r": _Field("float", 2.0),
    "experiment.q": _Field("float", 2.0),
    "experiment.hminus_gamma": _Field("float", 0.0),  # 0 disables
    "experiment.nus": _Field("float_list", [0.05, 0.1, 0.2]),
    "experiment.q0": _Field("float", 2.0),
    "experiment.tail_fraction": _Field("float", 0.5),
    "experiment.tracked_mode": _Field("int_list", []),
    "io.snapshots_every": _Field("int", 0),
    "validate.admissibility": _Field("bool", False),
}


def _finite(key: str, raw: str, val: int | float, errors: list[str]) -> float | None:
    """val as a float if it is finite, else None once the error is appended."""
    if abs(val) <= float_info.max:  # False for JSON's NaN, Infinity, 1e999 and huge integers
        return float(val)
    errors.append(f"{key}: expected a finite number, got {raw!r}")
    return None


def _parse_value(key: str, raw: str, ftype: str, errors: list[str]):
    raw = raw.strip()
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw  # bare string
    if ftype == "str":
        if not isinstance(val, str):
            val = raw
        return val
    if ftype == "bool":
        if isinstance(val, bool):
            return val
        errors.append(f"{key}: expected true/false, got {raw!r}")
        return None
    if ftype == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            errors.append(f"{key}: expected integer, got {raw!r}")
            return None
        return val
    if ftype == "float":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            errors.append(f"{key}: expected number, got {raw!r}")
            return None
        return _finite(key, raw, val, errors)
    if ftype in ("int_list", "float_list"):
        if not isinstance(val, list):
            errors.append(f"{key}: expected a list, got {raw!r}")
            return None
        out = []
        for item in val:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                errors.append(f"{key}: list entries must be numbers, got {item!r}")
                return None
            if ftype == "int_list" and not isinstance(item, int):
                errors.append(f"{key}: list entries must be integers, got {item!r}")
                return None
            if ftype == "float_list" and (item := _finite(key, raw, item, errors)) is None:
                return None
            out.append(item)
        return out
    raise AssertionError(f"unknown field type {ftype}")


# config key of each constructor argument whose key is not `section.argument`
RENAMED_KEYS = {
    "n_per_dim": "grid.n",
    "blowup_norm_q0": "solver.blowup.q0",
    "blowup_threshold": "solver.blowup.threshold",
    "noise_on": "noise.enabled",
    "name": "reaction.kind",
}


def _key(section: str, arg: str) -> str:
    return RENAMED_KEYS.get(arg, f"{section}.{arg}")


# the arguments each section passes to its constructor (reaction: MassActionSpec),
# each mapped to its key
KEYS = {section: {arg: _key(section, arg) for arg in args} for section, args in {
    "grid": ("d", "n_per_dim"),
    "cutoff": ("R", "r", "q"),
    "solver": ("dt", "T", "scheme", "noise_on", "blowup_threshold", "blowup_norm_q0", "seed",
               "record_every", "require_nonneg", "balance_q", "lq_norms"),
    "reaction": ("q", "p", "r_plus", "r_minus"),
}.items()}


def _arguments(values: dict[str, object], section: str) -> dict[str, object]:
    """The section's constructor arguments, lists as tuples."""
    out = {arg: values[key] for arg, key in KEYS[section].items()}
    return {arg: tuple(v) if isinstance(v, list) else v for arg, v in out.items()}


def _collect(errors: list[str], section: str, make, *args, **kwargs):
    """make(*args, **kwargs), or None once each of its ArgumentErrors is
    appended to errors under its key path."""
    try:
        return make(*args, **kwargs)
    except ArgumentErrors as exc:
        errors.extend(f"{_key(section, arg)}: {msg}" for arg, msg in exc.problems.items())
        return None


def _reaction(values: dict[str, object], allow_unsafe: bool) -> ReactionSystem:
    kind = values["reaction.kind"]
    nu = np.asarray(values["reaction.nu"], dtype=float)
    if kind == "mass_action":
        sys = mass_action_build(MassActionSpec(**_arguments(values, "reaction")), nu=nu)
        if sys.mass_alpha is None:
            return sys
        # the declared constants are the user's to choose; checked, not inferred
        return replace(sys, mass_consts=(values["reaction.mass.a0"], values["reaction.mass.a1"]))
    if not kind.startswith("builtin:"):
        raise ArgumentErrors({"name": f"expected 'mass_action' or 'builtin:<name>', got {kind!r}"})
    return build_builtin(kind.removeprefix("builtin:"), nu, d=values["grid.d"],
                         allow_unsafe=allow_unsafe)


def _noise_errors(v: dict[str, object]) -> list[str]:
    # noise's own rules, without building the spectrum; noise.nu is also the
    # enhancement of simulate-det and of the scaling-limit reference, so it is
    # checked whatever noise.enabled says
    problems = intensity_errors(v["noise.nu"])
    if v["noise.enabled"]:
        shell = v["noise.shell_n"]
        problems |= shell_errors(shell, v["noise.gamma"])
        if shell >= 1 and (problem := resolution_error(2 * shell, v["grid.n"])):
            problems["shell_n"] = f"shell {shell}: {problem}"
    return [f"noise.{arg}: {msg}" for arg, msg in problems.items()]


def _admissibility_errors(v: dict[str, object], sys: ReactionSystem) -> list[str]:
    d, q0 = v["grid.d"], v["solver.blowup.q0"]
    params = ParamSet(d=d, h=sys.h, q=q0, p=max(q0, 4.0), delta=1.1)
    if admissibility(params).q_meets_delayed_blowup:
        return []
    return [
        f"validate.admissibility: solver.blowup.q0 = {q0} does not satisfy "
        f"q > max(d(h-1)/2, 2) = {max(d * (sys.h - 1) / 2, 2.0)} for growth h = {sys.h}"
    ]


@dataclass(eq=False)
class RunConfig:
    """Fully validated configuration: values stores every schema key, and
    grid, solver and reaction are the objects its validation built."""

    values: dict[str, object]
    grid: TorusGrid
    solver: SolverConfig
    reaction: ReactionSystem

    def __getitem__(self, key: str):
        return self.values[key]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, overrides: list[str] | None = None,
                  allow_unsafe: bool = False) -> "RunConfig":
        """Parse and validate; allow_unsafe admits the builtins that violate
        the mass-control assumption."""
        errors: list[str] = []
        raw: dict[str, str] = {}
        for ln, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                errors.append(f"line {ln}: expected 'key = value', got {line.strip()!r}")
                continue
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
        for item in overrides or []:
            if "=" not in item:
                errors.append(f"override {item!r}: expected key=value")
                continue
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()

        v: dict[str, object] = {k: f.default for k, f in SCHEMA.items()}
        for key, rawval in raw.items():
            if key not in SCHEMA:
                errors.append(f"{key}: unknown configuration key")
                continue
            val = _parse_value(key, rawval, SCHEMA[key].type, errors)
            if val is not None:
                v[key] = val

        # validate by building: each rule lives in its constructor
        grid = _collect(errors, "grid", TorusGrid, **_arguments(v, "grid"))
        errors.extend(_noise_errors(v))
        if v["v0.kind"] not in V0_KINDS:
            errors.append(f"v0.kind: unknown initial data kind {v['v0.kind']!r}")
        elif grid is not None and v["v0.kind"] == "single_mode" and (
                problem := mode_error(v["v0.mode"], grid.d, grid.n_per_dim)):
            errors.append(f"v0.mode: {problem}")  # the one kind that reads v0.mode
        if v["io.snapshots_every"] < 0:
            errors.append(f"io.snapshots_every: must be >= 0, got {v['io.snapshots_every']}")
        cutoff = None
        if v["cutoff.enabled"]:
            cutoff = _collect(errors, "cutoff", CutOffParams, **_arguments(v, "cutoff"))
        solver = _collect(errors, "solver", SolverConfig, cutoff=cutoff, **_arguments(v, "solver"))
        if solver is not None and not v["solver.track_balance"]:
            solver = replace(solver, balance_q=())  # no balance: balance_q is still checked
        reaction = _collect(errors, "reaction", _reaction, v, allow_unsafe)
        # one message per key: the plans share the paths rule
        problems = (scaling_plan_errors(v["experiment.shells"], v["experiment.paths"],
                                        v["experiment.epsilon"], v["experiment.r"],
                                        v["experiment.q"], v["experiment.hminus_gamma"])
                    | survival_plan_errors(v["experiment.nus"], v["experiment.paths"])
                    | decay_plan_errors(v["experiment.paths"], v["experiment.tail_fraction"],
                                        v["experiment.q0"], v["experiment.tracked_mode"],
                                        v["grid.d"], v["grid.n"]))
        errors.extend(f"experiment.{arg}: {msg}" for arg, msg in problems.items())
        if v["validate.admissibility"] and not errors:
            errors.extend(_admissibility_errors(v, reaction))
        if errors:
            raise ConfigError(errors)
        return cls(v, grid, solver, reaction)

    # -- serialization -----------------------------------------------------

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(SCHEMA):
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def manifest_text(self, command: str) -> str:
        header = [
            "# torusrd run manifest (re-runnable as a config file)",
            f"# version = {__version__}",
            f"# command = {command}",
            f"# config_hash = sha256:{self.config_hash()}",
            f"# timestamp = {datetime.now(timezone.utc).isoformat()}",
        ]
        return "\n".join(header) + "\n" + self.canonical_text()


def _format_value(val: object) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, int):
        return str(val)
    if isinstance(val, list):
        return "[" + ", ".join(_format_value(x) for x in val) + "]"
    return str(val)


# -- builders ---------------------------------------------------------------


def build_grid(cfg: RunConfig) -> TorusGrid:
    return cfg.grid


def build_noise(cfg: RunConfig) -> NoiseModel | None:
    if not cfg["noise.enabled"]:
        return None
    spectrum = build_theta_shell(cfg["noise.shell_n"], cfg["noise.gamma"], cfg["grid.d"])
    return NoiseModel(spectrum, nu=cfg["noise.nu"])


def build_reaction(cfg: RunConfig) -> ReactionSystem:
    return cfg.reaction


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    return cfg.solver


def _constant(cfg: RunConfig, coords: tuple[np.ndarray, ...], species: int) -> np.ndarray:
    return np.full(coords[0].shape, cfg["v0.offset"] + cfg["v0.amplitude"])


def _single_mode(cfg: RunConfig, coords: tuple[np.ndarray, ...], species: int) -> np.ndarray:
    phase = sum(2.0 * np.pi * m * x for m, x in zip(cfg["v0.mode"], coords))
    return cfg["v0.offset"] + cfg["v0.amplitude"] * np.cos(phase)


def _random_smooth(cfg: RunConfig, coords: tuple[np.ndarray, ...], species: int) -> np.ndarray:
    rng = np.random.Generator(
        np.random.Philox(key=[cfg["v0.seed"], species], counter=[0, 0, 0, 0]))
    vals = np.zeros(coords[0].shape)
    for _ in range(4):
        mode = rng.integers(-3, 4, size=len(coords))
        phase = sum(2.0 * np.pi * m * x for m, x in zip(mode, coords))
        vals += np.cos(phase + 2.0 * np.pi * rng.random())
    return cfg["v0.offset"] + cfg["v0.amplitude"] * vals / max(1e-12, np.abs(vals).max())


# v0.kind -> the grid values of one species on the grid's node coordinates
V0_KINDS = {"constant": _constant, "single_mode": _single_mode, "random_smooth": _random_smooth}


def build_v0(cfg: RunConfig, grid: TorusGrid, ell: int) -> list[GridField]:
    make = V0_KINDS[cfg["v0.kind"]]  # the parse rejects any other kind
    coords = grid.node_coordinates()
    return [GridField(grid, make(cfg, coords, i)) for i in range(ell)]
