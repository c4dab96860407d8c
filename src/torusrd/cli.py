"""Command-line entry point: run orchestration and CSV/manifest emission.

Subcommands: simulate, simulate-det, scaling-limit, survival, decay,
exponents, verify-noise, mass-action-check.  Exit status 0 on success, 1 on
validation errors (bad flags, bad config), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_grid,
    build_noise,
    build_reaction,
    build_solver_config,
    build_v0,
)
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
from .fields import write_snapshot, GridField
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
)
from .solver import run


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_diagnostics_csv(path: Path, record: DiagnosticsRecord, sys_) -> None:
    """One row per (sample time, species)."""
    qs = sorted(record.lq)
    bq = sorted(record.grad_energy)
    residual = None
    if bq:
        try:
            residual = lq_balance_residual(record, bq[0], sys_)
        except ValueError:
            residual = None
    header = (
        ["t", "species"]
        + [f"lq_{q:g}" for q in qs]
        + ["mass", "min_val", "grad_energy", "phi", "residual"]
    )
    rows = []
    ell = record.mass.shape[1]
    for j, t in enumerate(record.times):
        for i in range(ell):
            rows.append(
                [t, i]
                + [record.lq[q][j, i] for q in qs]
                + [
                    record.mass[j, i],
                    record.min_value[j, i],
                    record.grad_energy[bq[0]][j, i] if bq else None,
                    record.phi[j],
                    residual[j, i] if residual is not None else None,
                ]
            )
    _write_csv(path, header, rows)


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text() if args.config else ""
    overrides = list(args.override or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"solver.seed = {args.seed}")
    if getattr(args, "paths", None) is not None:
        overrides.append(f"experiment.paths = {args.paths}")
    return RunConfig.from_text(text, overrides)


def _out_dir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    """Config, output directory, grid, reaction, solver config and v0 of a run."""
    cfg = _load_config(args)
    out = _out_dir(args)
    grid = build_grid(cfg)
    sys_ = build_reaction(cfg, allow_unsafe=args.unsafe_reaction)
    scfg = build_solver_config(cfg)
    return cfg, out, grid, sys_, scfg, build_v0(cfg, grid, sys_.ell)


def _simulate(args, deterministic: bool) -> int:
    cfg, out, grid, sys_, scfg, v0 = _prepare(args)
    noise = None if deterministic else build_noise(cfg)
    nu_enh = cfg["noise.nu"] if deterministic else 0.0

    snapshots_every = cfg["io.snapshots_every"]
    snap_count = [0]

    def observer(t, values, state):
        if snapshots_every > 0 and snap_count[0] % snapshots_every == 0:
            write_snapshot(
                out / f"snapshot_{snap_count[0]:06d}.krdf",
                [GridField(grid, values[i]) for i in range(len(values))],
            )
        snap_count[0] += 1

    command = "simulate-det" if deterministic else "simulate"
    (out / "manifest.txt").write_text(cfg.manifest_text(command))
    state, record = run(
        sys_, noise, scfg, v0, nu_enhancement=nu_enh,
        observer=observer if snapshots_every > 0 else None,
    )
    write_diagnostics_csv(out / "diagnostics.csv", record, sys_)
    tau = state.blown_up
    print(f"final t = {state.t:g}  blown_up = {tau if tau is not None else 'no'}")
    print(f"wrote {out / 'diagnostics.csv'}")
    return 0


def _scaling_limit(args) -> int:
    cfg, out, _, sys_, scfg, v0 = _prepare(args)
    hm = cfg["experiment.hminus_gamma"]
    plan = ScalingLimitPlan(
        shells=tuple(cfg["experiment.shells"]),
        gamma=cfg["noise.gamma"],
        nu=cfg["noise.nu"],
        paths=cfg["experiment.paths"],
        solver=scfg,
        sys=sys_,
        v0=v0,
        epsilon=cfg["experiment.epsilon"],
        r=cfg["experiment.r"],
        q=cfg["experiment.q"],
        hminus_gamma=hm if hm > 0 else None,
    )
    (out / "manifest.txt").write_text(cfg.manifest_text("scaling-limit"))
    result = run_scaling_limit(plan, threads=args.threads)
    _write_csv(
        out / "scaling_table.csv",
        ["shell_n", "mean_distance", "stderr", "p_exceed_eps", "max_lq"],
        [[r["shell_n"], r["mean_distance"], r["stderr"], r["p_exceed_eps"], r["max_lq"]]
         for r in result.table()],
    )
    for s in result.shells:
        taus = s.taus or [None] * len(s.distances)
        _write_csv(
            out / f"aggregate_shell{s.shell}.csv",
            ["path", "tau", "survived", "dist_LrLq"],
            [[p, tau, int(tau is None or tau >= plan.solver.T), d]
             for p, (tau, d) in enumerate(zip(taus, s.distances))],
        )
    for r in result.table():
        print(
            f"shell n={r['shell_n']:>3}: mean distance {r['mean_distance']:.6g} "
            f"+- {r['stderr']:.2g}, P(dist > eps) = {r['p_exceed_eps']:.3f}"
        )
    return 0


def _survival(args) -> int:
    cfg, out, _, sys_, scfg, v0 = _prepare(args)
    plan = SurvivalPlan(
        nus=tuple(cfg["experiment.nus"]),
        shell_n=cfg["noise.shell_n"],
        gamma=cfg["noise.gamma"],
        paths=cfg["experiment.paths"],
        solver=scfg,
        sys=sys_,
        v0=v0,
    )
    (out / "manifest.txt").write_text(cfg.manifest_text("survival"))
    result = run_survival(plan, threads=args.threads)
    _write_csv(
        out / "survival_table.csv",
        ["nu", "p_hat", "wilson_lo", "wilson_hi", "mean_tau_blowups"],
        [[r["nu"], r["p_hat"], r["wilson_lo"], r["wilson_hi"], r["mean_tau_blowups"]]
         for r in result.table()],
    )
    for vi, row in enumerate(result.rows):
        _write_csv(
            out / f"aggregate_nu{vi}.csv",
            ["path", "tau", "survived", "dist_LrLq"],
            [[p, tau, int(tau is None or tau >= plan.solver.T), None]
             for p, tau in enumerate(row.taus)],
        )
    for r in result.table():
        print(
            f"nu={r['nu']:g}: p_hat = {r['p_hat']:.3f} "
            f"Wilson [{r['wilson_lo']:.3f}, {r['wilson_hi']:.3f}]"
        )
    print(f"p_hat nondecreasing in nu: {result.monotone_in_nu()}")
    return 0


def _decay(args) -> int:
    cfg, out, _, sys_, scfg, v0 = _prepare(args)
    tracked = tuple(cfg["experiment.tracked_mode"]) or None
    plan = DecayPlan(
        solver=scfg,
        sys=sys_,
        v0=v0,
        q0=cfg["experiment.q0"],
        paths=cfg["experiment.paths"],
        shell_n=cfg["noise.shell_n"],
        gamma=cfg["noise.gamma"],
        nu=cfg["noise.nu"] if cfg["noise.enabled"] else 0.0,
        tracked_mode=tracked,
        tail_fraction=cfg["experiment.tail_fraction"],
    )
    (out / "manifest.txt").write_text(cfg.manifest_text("decay"))
    report = run_decay(plan, threads=args.threads)
    _write_csv(
        out / "decay_report.csv",
        ["degenerate", "fitted_rate", "expected_rate", "mode_rate", "mode_expected"],
        [[int(report.degenerate), report.fitted_rate, report.expected_rate,
          report.mode_rate, report.mode_expected]],
    )
    if report.degenerate:
        print("decay: degenerate (zero data or non-positive norms)")
    else:
        print(f"fitted rate = {report.fitted_rate:.4f} (|a1| bound rate = {report.expected_rate:g})")
        if report.mode_rate is not None:
            print(f"tracked-mode rate = {report.mode_rate:.4f} (expected {report.mode_expected:.4f})")
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
            rows.append([prefix, obj])
            print(f"{prefix} = {obj}")

    emit("", rep)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "exponents.csv", ["quantity", "value"], rows)
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
    q = tuple(int(x) for x in args.q.split(","))
    p = tuple(int(x) for x in args.p.split(","))
    spec = MassActionSpec(q=q, p=p, r_plus=args.r_plus, r_minus=args.r_minus)
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
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--p", type=float, default=8.0)
    p.add_argument("--delta", type=float, default=1.1)
    p.add_argument("--N", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0, help="cut-off level for the barrier")
    p.add_argument("--out", help="also write exponents.csv here")

    p = sub.add_parser("verify-noise", help="check the spectrum/basis identities")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--shell", type=int, default=1)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--spectrum", help="read the spectrum from a CSV (k1..kd, theta)")
    p.add_argument("--export", help="write the spectrum as CSV")

    p = sub.add_parser("mass-action-check", help="stoichiometry, weights, mass control")
    p.add_argument("--q", required=True, help="comma-separated reactant coefficients")
    p.add_argument("--p", required=True, help="comma-separated product coefficients")
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
    except (ConfigError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            code = exc.code if isinstance(exc.code, int) else 1
            return code
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
