"""torusrd benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload ito_shell_sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, their times scaled to a reference
host speed (calibration.py), --trace 1 the per-layer metrics of a traced
run.  The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
run environment and every metric by name with its unit.  The full result,
with the environment, goes to .perfbench_out/ and, for a traced run, the
spans to .perfbench_out/spans_<workload>.npz.

The package is imported from ./src of the checkout, never from an installed
copy; without it the benchmark exits with a nonzero status and prints no
result.
"""

from __future__ import annotations

import os

# one thread everywhere: the workloads are single-process, threads=1 runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc() -> bool:
    """Make glibc malloc keep freed memory and reuse it; False if it cannot.

    By default an array over 128 KiB (a 96^2 complex field is 144 KiB) gets
    a fresh mmap and a freed heap top goes back to the OS, so every unit
    faults in new pages.  On a VM the cost of those faults swings two-fold
    from minute to minute, and with it the unit times.  With these
    thresholds the units reuse the pages the warm-up unit faulted in.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)) and bool(mallopt(_M_TRIM_THRESHOLD, 2**30))


def import_torusrd():
    """Import torusrd from ./src of this checkout, or exit with a nonzero status."""
    if not (SRC / "torusrd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no torusrd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    tr = importlib.import_module("torusrd")
    for mod in ("config", "solver", "noise", "diagnostics", "experiments"):
        importlib.import_module(f"torusrd.{mod}")
    if Path(tr.__file__).resolve().parent != SRC / "torusrd":
        sys.exit(f"perfbench: torusrd imported from {tr.__file__}, not {SRC}")
    return tr


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "torusrd").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: bool, malloc_pinned: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "malloc_pinned": malloc_pinned,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    malloc_pinned = pin_malloc()
    tr = import_torusrd()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    trace = bool(args.trace)
    env = environment(args.workload, args.seed, args.seconds, trace, malloc_pinned)
    out = workloads.run_workload(tr, args.workload, args.seed, args.seconds, trace)

    OUT.mkdir(exist_ok=True)
    tracer = out.pop("tracer")
    if trace:
        tracer.save(OUT / f"spans_{args.workload}.npz")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    record = dict(result, environment=env, units=out["units"], raw=out["raw"])
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    print(f"units = {out['units']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in out["raw"].items():
        print(f"raw wall-clock {name} = {value:.6g}")
    print(f"failed_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} output checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
