"""Run configuration: dotted-key text format, validation, manifests.

The format is one `section.key = value` binding per line; `#` starts a
comment.  Values are JSON scalars/lists or bare strings.  Unknown keys are
rejected, every error carries its key path, and the canonical serialization
round-trips so a manifest re-runs bitwise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .exponents import ParamSet, admissibility
from .fields import GridField, TorusGrid
from .noise import NoiseModel, build_theta_shell, resolution_error
from .reactions import MassActionSpec, ReactionSystem, build_builtin, mass_action_build
from .solver import (NORM_EXPONENT_MIN, SCHEMES, CutOffParams, SolverConfig, exponents_error,
                     horizon_steps)


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
    "solver.dealias": _Field("bool", True),
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
        return float(val)
    if ftype in ("int_list", "float_list"):
        if not isinstance(val, list):
            errors.append(f"{key}: expected a list, got {raw!r}")
            return None
        out = []
        for item in val:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                errors.append(f"{key}: list entries must be numbers, got {item!r}")
                return None
            if ftype == "int_list":
                if not isinstance(item, int):
                    errors.append(f"{key}: list entries must be integers, got {item!r}")
                    return None
                out.append(item)
            else:
                out.append(float(item))
        return out
    raise AssertionError(f"unknown field type {ftype}")


@dataclass
class RunConfig:
    """Fully validated configuration; values stores every schema key."""

    values: dict[str, object]

    def __getitem__(self, key: str):
        return self.values[key]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, overrides: list[str] | None = None) -> "RunConfig":
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

        values: dict[str, object] = {k: f.default for k, f in SCHEMA.items()}
        for key, rawval in raw.items():
            if key not in SCHEMA:
                errors.append(f"{key}: unknown configuration key")
                continue
            val = _parse_value(key, rawval, SCHEMA[key].type, errors)
            if val is not None:
                values[key] = val
        cfg = cls(values=values)
        errors.extend(cfg._validate())
        if errors:
            raise ConfigError(errors)
        return cfg

    # -- validation --------------------------------------------------------

    def _validate(self) -> list[str]:
        errors: list[str] = []
        v = self.values
        if v["grid.d"] not in (2, 3):
            errors.append(f"grid.d: must be 2 or 3, got {v['grid.d']}")
        n = v["grid.n"]
        if n < 8 or n % 2 != 0:
            errors.append(f"grid.n: must be even and >= 8, got {n}")
        if v["noise.enabled"]:
            if v["noise.nu"] <= 0:
                errors.append(f"noise.nu: must be > 0, got {v['noise.nu']}")
            shell = v["noise.shell_n"]
            if shell < 1:
                errors.append(f"noise.shell_n: must be >= 1, got {shell}")
            elif problem := resolution_error(2 * shell, n):
                errors.append(f"noise.shell_n: shell {shell}: {problem}")
            if v["noise.gamma"] < 0:
                errors.append("noise.gamma: must be >= 0")
        if v["solver.dt"] <= 0:
            errors.append(f"solver.dt: must be > 0, got {v['solver.dt']}")
        if v["solver.T"] < 0:
            errors.append(f"solver.T: must be >= 0, got {v['solver.T']}")
        elif v["solver.dt"] > 0 and horizon_steps(v["solver.T"], v["solver.dt"]) is None:
            errors.append(
                f"solver.T: {v['solver.T']} is not a multiple of solver.dt = {v['solver.dt']}"
            )
        if v["solver.scheme"] not in SCHEMES:
            errors.append(f"solver.scheme: unknown scheme {v['solver.scheme']!r}")
        elif v["solver.scheme"] == "strat_substep" and not v["solver.dealias"]:
            errors.append("solver.dealias: strat_substep needs the 2/3 dealias mask")
        if v["solver.blowup.q0"] <= 2:
            errors.append(f"solver.blowup.q0: must be > 2, got {v['solver.blowup.q0']}")
        if v["solver.blowup.threshold"] <= 0:
            errors.append("solver.blowup.threshold: must be > 0")
        if v["solver.record_every"] < 1:
            errors.append("solver.record_every: must be >= 1")
        for name in NORM_EXPONENT_MIN:
            if problem := exponents_error(name, v[f"solver.{name}"]):
                errors.append(f"solver.{name}: {problem}")
        if v["cutoff.enabled"]:
            if v["cutoff.R"] <= 0:
                errors.append("cutoff.R: must be > 0")
            if v["cutoff.r"] <= 1:
                errors.append("cutoff.r: must be > 1")
            if v["cutoff.q"] < 1:
                errors.append("cutoff.q: must be >= 1")
        kind = v["reaction.kind"]
        if kind == "mass_action":
            q, p = v["reaction.q"], v["reaction.p"]
            if not q or len(q) != len(p):
                errors.append("reaction.q/reaction.p: mass_action needs equal nonempty lists")
            elif len(v["reaction.nu"]) != len(q):
                errors.append(
                    f"reaction.nu: expected {len(q)} diffusivities, got {len(v['reaction.nu'])}"
                )
            if any(x < 0 for x in q + p):
                errors.append("reaction.q/reaction.p: coefficients must be nonnegative")
            if v["reaction.r_plus"] <= 0 or v["reaction.r_minus"] <= 0:
                errors.append("reaction.r_plus/r_minus: rates must be positive")
        elif not kind.startswith("builtin:"):
            errors.append(
                f"reaction.kind: expected 'mass_action' or 'builtin:<name>', got {kind!r}"
            )
        if any(x < 0 for x in v["reaction.nu"]):
            errors.append("reaction.nu: diffusivities must be nonnegative")
        shells = v["experiment.shells"]
        if shells and (list(shells) != sorted(set(shells)) or shells[0] < 1):
            errors.append("experiment.shells: must be strictly increasing positive integers")
        if v["experiment.paths"] < 1:
            errors.append("experiment.paths: must be >= 1")
        if v["validate.admissibility"] and not errors:
            errors.extend(self._check_admissibility())
        return errors

    def _check_admissibility(self) -> list[str]:
        v = self.values
        try:
            sys = build_reaction(self, allow_unsafe=True)
        except ValueError as exc:
            return [f"reaction: {exc}"]
        params = ParamSet(
            d=v["grid.d"], h=sys.h, q=v["solver.blowup.q0"],
            p=max(v["solver.blowup.q0"], 4.0), delta=1.1,
        )
        rep = admissibility(params)
        if not rep.q_meets_delayed_blowup:
            return [
                "validate.admissibility: solver.blowup.q0 = "
                f"{v['solver.blowup.q0']} does not satisfy q > max(d(h-1)/2, 2) = "
                f"{max(v['grid.d'] * (sys.h - 1) / 2, 2.0)} for growth h = {sys.h}"
            ]
        return []

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
    return TorusGrid(cfg["grid.d"], cfg["grid.n"])


def build_noise(cfg: RunConfig) -> NoiseModel | None:
    if not cfg["noise.enabled"]:
        return None
    spectrum = build_theta_shell(cfg["noise.shell_n"], cfg["noise.gamma"], cfg["grid.d"])
    return NoiseModel(spectrum, nu=cfg["noise.nu"])


def build_reaction(cfg: RunConfig, allow_unsafe: bool = False) -> ReactionSystem:
    kind = cfg["reaction.kind"]
    nu = np.asarray(cfg["reaction.nu"], dtype=float)
    if kind == "mass_action":
        spec = MassActionSpec(
            q=tuple(cfg["reaction.q"]),
            p=tuple(cfg["reaction.p"]),
            r_plus=cfg["reaction.r_plus"],
            r_minus=cfg["reaction.r_minus"],
        )
        sys = mass_action_build(spec, nu=nu)
        if sys.mass_alpha is not None:
            # the declared constants are user's to choose; checked, not inferred
            import dataclasses

            sys = dataclasses.replace(
                sys, mass_consts=(cfg["reaction.mass.a0"], cfg["reaction.mass.a1"])
            )
        return sys
    name = kind.removeprefix("builtin:")
    return build_builtin(name, nu, d=cfg["grid.d"], allow_unsafe=allow_unsafe)


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    cutoff = None
    if cfg["cutoff.enabled"]:
        cutoff = CutOffParams(R=cfg["cutoff.R"], r=cfg["cutoff.r"], q=cfg["cutoff.q"])
    return SolverConfig(
        dt=cfg["solver.dt"],
        T=cfg["solver.T"],
        scheme=cfg["solver.scheme"],
        noise_on=cfg["noise.enabled"],
        cutoff=cutoff,
        blowup_threshold=cfg["solver.blowup.threshold"],
        blowup_norm_q0=cfg["solver.blowup.q0"],
        seed=cfg["solver.seed"],
        dealias=cfg["solver.dealias"],
        record_every=cfg["solver.record_every"],
        require_nonneg=cfg["solver.require_nonneg"],
        track_balance=cfg["solver.track_balance"],
        balance_q=tuple(cfg["solver.balance_q"]),
        lq_norms=tuple(cfg["solver.lq_norms"]),
    )


def build_v0(cfg: RunConfig, grid: TorusGrid, ell: int) -> list[GridField]:
    kind = cfg["v0.kind"]
    amp = cfg["v0.amplitude"]
    offset = cfg["v0.offset"]
    coords = grid.node_coordinates()
    out = []
    for i in range(ell):
        if kind == "constant":
            vals = np.full(grid.shape, offset + amp)
        elif kind == "single_mode":
            mode = cfg["v0.mode"]
            if len(mode) != grid.d:
                raise ConfigError([f"v0.mode: expected {grid.d} components, got {len(mode)}"])
            phase = sum(2.0 * np.pi * m * x for m, x in zip(mode, coords))
            vals = offset + amp * np.cos(phase)
        elif kind == "random_smooth":
            rng = np.random.Generator(
                np.random.Philox(key=[cfg["v0.seed"], i], counter=[0, 0, 0, 0])
            )
            vals = np.zeros(grid.shape)
            for _ in range(4):
                mode = rng.integers(-3, 4, size=grid.d)
                phase = sum(2.0 * np.pi * m * x for m, x in zip(mode, coords))
                vals += np.cos(phase + 2.0 * np.pi * rng.random())
            vals = offset + amp * vals / max(1e-12, np.abs(vals).max())
        else:
            raise ConfigError([f"v0.kind: unknown initial data kind {kind!r}"])
        out.append(GridField(grid, vals))
    return out
