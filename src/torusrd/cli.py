"""Command-line entry point: run orchestration and CSV/manifest emission.

Subcommands: simulate, simulate-det, scaling-limit, survival, decay,
exponents, verify-noise, mass-action-check.  Exit status 0 on success, 1 on
validation errors (bad flags, bad config), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, build_noise, build_v0
from .diagnostics import DiagnosticsRecord, lq_balance_residual
from .experiments import (
    DecayPlan,
    ScalingLimitPlan,
    SurvivalPlan,
    run_decay,
    run_scaling_limit,
    run_survival,
)
from .exponents import ParamSet, full_report
from .fields import ArgumentErrors, GridField, write_snapshot
from .noise import (
    NoiseModel,
    build_theta_shell,
    spectrum_from_csv,
    spectrum_to_csv,
    verify_ellipticity,
)
from .reactions import (
    MassActionSpec,
    check_mass_control,
    find_mass_weights,
    growth_certificate,
    mass_action_build,
    probe_errors,
)
from .solver import Stepper, initial_state, run


# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc() -> None:
    """Make glibc malloc keep freed memory and reuse it; a no-op where
    mallopt is missing.

    By default an array over 128 KiB (a 96^2 complex field, any 32^3 field)
    gets a fresh mmap whose pages fault in on first touch, every step.
    These are the thresholds perfbench/run.py pins.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 2**30)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Write dict rows under the first row's keys as the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([_fmt(x) for x in row.values()] for row in rows)


def _lq_columns(qs) -> dict[str, float]:
    """The L^q columns of diagnostics.csv, lq_<q:g>, in increasing q."""
    return {f"lq_{q:g}": q for q in sorted(qs)}


def write_diagnostics_csv(path: Path, record: DiagnosticsRecord, sys_) -> None:
    """One row per (sample time, species)."""
    lq = _lq_columns(record.lq)
    bq = sorted(record.grad_energy)
    # a T = 0 run has one sample and no balance
    residual = lq_balance_residual(record, bq[0], sys_) if bq and len(record.times) > 1 else None
    rows = [{"t": t, "species": i, **{name: record.lq[q][j, i] for name, q in lq.items()},
             "mass": record.mass[j, i], "min_val": record.min_value[j, i],
             "grad_energy": record.grad_energy[bq[0]][j, i] if bq else None,
             "phi": record.phi[j], "residual": None if residual is None else residual[j, i]}
            for j, t in enumerate(record.times) for i in range(record.mass.shape[1])]
    _write_csv(path, rows)


def _path_rows(taus, T: float, dists=None, hminus=None) -> list[dict]:
    """One aggregate row per path: its blow-up time, whether it survived to
    T, its L^r(0,T;L^q) distance (None: not measured) and, when given, its
    sup-in-time H^{-gamma} distance as a last column."""
    return [{"path": p, "tau": tau, "survived": int(tau is None or tau >= T),
             "dist_LrLq": None if dists is None else dists[p],
             **({} if hminus is None else {"sup_hminus": hminus[p]})}
            for p, tau in enumerate(taus)]


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text() if args.config else ""
    overrides = list(args.override or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"solver.seed = {args.seed}")
    if getattr(args, "paths", None) is not None:
        overrides.append(f"experiment.paths = {args.paths}")
    return RunConfig.from_text(text, overrides, allow_unsafe=args.unsafe_reaction)


def _write_manifest(out: Path, cfg: RunConfig, command: str) -> None:
    """Make the output directory, once every input of the run is built, and
    record the config there."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(cfg.manifest_text(command))


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (dotted key = value lines)")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="override one configuration key (repeatable)")
    p.add_argument("--seed", type=int, help="override solver.seed")
    p.add_argument("--paths", type=int, help="override experiment.paths")
    p.add_argument("--out", help="output directory (default: ./out)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for Monte-Carlo paths (default 1)")
    p.add_argument("--unsafe-reaction", action="store_true",
                   help="allow builtins that violate the mass-control assumption")


def _prepare(args):
    """Config, output directory and v0 of a run."""
    cfg = _load_config(args)
    v0 = build_v0(cfg, cfg.grid, cfg.reaction.ell)
    initial_state(cfg.grid, v0, cfg.solver)  # the engine's checks of v0, before any output
    return cfg, Path(args.out or "out"), v0


def _simulate(args, deterministic: bool) -> int:
    cfg, out, v0 = _prepare(args)
    noise = None if deterministic else build_noise(cfg)
    # simulate-det integrates the enhanced-diffusion system nu_i + noise.nu
    sys_ = cfg.reaction.enhanced(cfg["noise.nu"]) if deterministic else cfg.reaction
    qs, bq = cfg.solver.lq_norms, cfg.solver.balance_q
    if len(_lq_columns(qs)) < len(set(qs)):
        raise ValueError(f"solver.lq_norms = {list(qs)} name one diagnostics.csv column twice")
    if bq and min(bq) not in qs:
        raise ValueError(f"solver.balance_q exponent {min(bq):g} is not in solver.lq_norms = "
                         f"{list(qs)}: the residual column needs its L^q norm")
    Stepper(cfg.grid, sys_, noise, cfg.solver)  # the engine's noise resolution and step guard

    every = cfg["io.snapshots_every"]
    samples = itertools.count()

    def snapshot(t, values, state):  # every `every`-th record sample
        if values is not None and (j := next(samples)) % every == 0:
            write_snapshot(out / f"snapshot_{j:06d}.krdf", [GridField(cfg.grid, v) for v in values])

    _write_manifest(out, cfg, "simulate-det" if deterministic else "simulate")
    state, record = run(sys_, noise, cfg.solver, v0, observer=snapshot if every > 0 else None)
    write_diagnostics_csv(out / "diagnostics.csv", record, sys_)
    tau = state.blown_up
    print(f"final t = {state.t:g}  blown_up = {tau if tau is not None else 'no'}")
    print(f"wrote {out / 'diagnostics.csv'}")
    return 0


def _scaling_limit(args) -> int:
    cfg, out, v0 = _prepare(args)
    plan = cfg.plan(ScalingLimitPlan, v0)
    _write_manifest(out, cfg, "scaling-limit")
    result = run_scaling_limit(plan, threads=args.threads)
    _write_csv(out / "scaling_table.csv", result.table())
    for s in result.shells:
        _write_csv(out / f"aggregate_shell{s.shell}.csv",
                   _path_rows(s.taus, plan.solver.T, s.distances, s.hminus_distances))
    for r in result.table():
        print(
            f"shell n={r['shell_n']:>3}: mean distance {r['mean_distance']:.6g} "
            f"+- {r['stderr']:.2g}, P(dist > eps) = {r['p_exceed_eps']:.3f}"
        )
    return 0


def _survival(args) -> int:
    cfg, out, v0 = _prepare(args)
    plan = cfg.plan(SurvivalPlan, v0)
    _write_manifest(out, cfg, "survival")
    result = run_survival(plan, threads=args.threads)
    _write_csv(out / "survival_table.csv", result.table())
    for vi, row in enumerate(result.rows):
        _write_csv(out / f"aggregate_nu{vi}.csv", _path_rows(row.taus, plan.solver.T))
    for r in result.table():
        print(
            f"nu={r['nu']:g}: p_hat = {r['p_hat']:.3f} "
            f"Wilson [{r['wilson_lo']:.3f}, {r['wilson_hi']:.3f}]"
        )
    print(f"p_hat nondecreasing in nu: {result.monotone_in_nu()}")
    return 0


def _decay(args) -> int:
    cfg, out, v0 = _prepare(args)
    plan = cfg.plan(DecayPlan, v0)
    _write_manifest(out, cfg, "decay")
    report = run_decay(plan, threads=args.threads)
    _write_csv(out / "decay_report.csv",
               [{**dataclasses.asdict(report), "degenerate": int(report.degenerate)}])
    if report.degenerate:
        print("decay: degenerate (zero data or non-positive norms)")
    else:
        print(f"fitted rate = {report.fitted_rate:.4f} (|a1| bound rate = {report.expected_rate:g})")
        if report.mode_rate is not None:
            print(f"tracked-mode rate = {report.mode_rate:.4f} "
                  f"(expected {report.mode_expected:.4f} for the linear f = a1 v)")
    return 0


def _exponents(args) -> int:
    params = ParamSet(d=args.d, h=args.h, q=args.q, p=args.p, delta=args.delta, N=args.N)
    rep = full_report(params, R=args.R)
    rows = []

    def emit(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for key, val in obj.items():
                emit(f"{prefix}{key}." if isinstance(val, dict) else f"{prefix}{key}", val)
        else:
            rows.append({"quantity": prefix, "value": obj})
            print(f"{prefix} = {obj}")

    emit("", rep)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "exponents.csv", rows)
        print(f"wrote {out / 'exponents.csv'}")
    return 0


def _verify_noise(args) -> int:
    if args.spectrum:
        spectrum = spectrum_from_csv(args.spectrum)
        if spectrum.d != args.d:
            raise ValueError(f"spectrum CSV has d={spectrum.d}, expected {args.d}")
    else:
        spectrum = build_theta_shell(args.shell, args.gamma, args.d)
    model = NoiseModel(spectrum, nu=args.nu)
    dev = verify_ellipticity(model)
    print(f"modes: {len(spectrum.support)}")
    print(f"l2 norm deviation: {abs(float(np.sum(spectrum.theta**2)) - 1.0):.3e}")
    print(f"linf: {spectrum.linf():.6g}")
    print(f"ellipticity deviation from I/c_d (c_d = {model.c_d:g}): {dev:.3e}")
    if args.export:
        spectrum_to_csv(spectrum, args.export)
        print(f"wrote {args.export}")
    return 0 if dev < 1e-10 else 2


def _mass_action_check(args) -> int:
    if problems := probe_errors(args.samples, args.radius):
        raise ArgumentErrors({f"--{arg}": msg for arg, msg in problems.items()})
    spec = MassActionSpec(q=args.q, p=args.p, r_plus=args.r_plus, r_minus=args.r_minus)
    sys_ = mass_action_build(spec)
    alpha = find_mass_weights(spec)
    print(f"species: {spec.ell}, growth h = {spec.h:g}")
    if alpha is None:
        print("mass conservation: no positive weights exist")
    else:
        print(f"mass weights alpha = {[float(a) for a in alpha]}")
        holds, worst = check_mass_control(sys_, samples=args.samples, radius=args.radius)
        print(f"mass control (a0 = a1 = 0): holds = {holds}, worst violation = {worst:.3e}")
    cert = growth_certificate(sys_, radius=args.radius)
    print(f"growth certificate: max |f| / (1 + |y|^h) = {cert:.6g}")
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torusrd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"torusrd {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    for name, help_ in [
        ("simulate", "integrate one stochastic path"),
        ("simulate-det", "integrate the deterministic enhanced-diffusion system"),
        ("scaling-limit", "shell sweep of distances to the deterministic limit"),
        ("survival", "blow-up survival probability sweep over noise intensities"),
        ("decay", "exponential-decay fit in the dissipative regime"),
    ]:
        p = sub.add_parser(name, help=help_)
        _add_run_flags(p)

    p = sub.add_parser("exponents", help="closed-form exponent and threshold report")
    p.add_argument("--d", type=int, required=True,
                   help="dimension: any d >= 2 (the paper and the simulator use 2 or 3)")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--p", type=float, default=8.0)
    p.add_argument("--delta", type=float, default=1.1)
    p.add_argument("--N", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0, help="cut-off level for the barrier")
    p.add_argument("--out", help="also write exponents.csv here")

    p = sub.add_parser("verify-noise", help="check the spectrum/basis identities")
    p.add_argument("--d", type=int, default=2, choices=(2, 3))
    p.add_argument("--shell", type=int, default=1)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--spectrum", help="read the spectrum from a CSV (k1..kd, theta)")
    p.add_argument("--export", help="write the spectrum as CSV")

    p = sub.add_parser("mass-action-check", help="stoichiometry, weights, mass control")
    p.add_argument("--q", type=_int_list, required=True, help="reactant coefficients, e.g. 2,0")
    p.add_argument("--p", type=_int_list, required=True, help="product coefficients, e.g. 0,1")
    p.add_argument("--r-plus", type=float, default=1.0)
    p.add_argument("--r-minus", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=1024)
    return parser


def main(argv: list[str] | None = None) -> int:
    _pin_malloc()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {
        "simulate": lambda a: _simulate(a, deterministic=False),
        "simulate-det": lambda a: _simulate(a, deterministic=True),
        "scaling-limit": _scaling_limit,
        "survival": _survival,
        "decay": _decay,
        "exponents": _exponents,
        "verify-noise": _verify_noise,
        "mass-action-check": _mass_action_check,
    }
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
