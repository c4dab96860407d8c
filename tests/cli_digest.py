"""One SHA-256 over the outputs of a fixed set of tiny CLI runs.

Each run of RUNS (16^2 to 50^2 grids and five 24^3 grids, at most 20 steps)
writes into its own folder of a temporary directory.  The digest covers
every file there, in path order, with each manifest's `# timestamp` line
removed, so two trees that give the same digest wrote the same bytes.  It
runs against whichever torusrd is on the import path:

    PYTHONPATH=path/to/checkout/src python tests/cli_digest.py [--threads 2] [--files]

--threads goes to the Monte-Carlo commands (scaling-limit, survival, decay),
whose outputs do not depend on it.  --files prints one SHA-256 per output
file instead, as `<sha256>  <path>` lines in path order, so a digest that
moved names the files that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from torusrd.cli import main

BASE = "grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.05\nsolver.seed = 3\n"  # 10 steps
LOGISTIC = ("reaction.kind = builtin:logistic\nreaction.nu = [0.05]\n"
            "v0.offset = 0.6\nv0.amplitude = 0.3\n")
MASS_ACTION = ("reaction.kind = mass_action\nreaction.q = [2, 0]\nreaction.p = [0, 1]\n"
               "reaction.nu = [0.05, 0.08]\nv0.kind = random_smooth\nv0.offset = 1.0\n"
               "v0.amplitude = 0.3\nv0.seed = 5\n")
GRID_3D = "grid.d = 3\ngrid.n = 24\nsolver.dt = 0.005\nsolver.T = 0.015\nsolver.seed = 3\n"
DECAY = ("grid.n = 16\nsolver.dt = 0.01\nsolver.T = 0.2\nreaction.kind = builtin:decay\n"
         "v0.offset = 1.5\nv0.amplitude = 0.5\nexperiment.tracked_mode = [1, 0]\n"
         "experiment.paths = 2\n")

# name: (command and flags, config text or None, whether --threads applies)
RUNS = {
    "simulate_ito": (["simulate"], BASE + LOGISTIC + "noise.shell_n = 2\nio.snapshots_every = 3\n"
                     "solver.lq_norms = [2, 4]\nsolver.balance_q = [2, 4]\n", False),
    # the criterion-7 system: the mass-action evaluator, and the cut-off norm with phi < 1
    # from t = 0.025 on
    "simulate_mass_action": (["simulate"], BASE + MASS_ACTION + "cutoff.enabled = true\n"
                             "cutoff.R = 0.2\nsolver.lq_norms = [2, 4]\n"
                             "solver.balance_q = [2, 4]\n", False),
    # the sweep's largest velocity box, |k_j| <= 16, on the smallest grid that resolves it
    "simulate_shell8": (["simulate"], BASE.replace("grid.n = 16", "grid.n = 50") + LOGISTIC
                        + "noise.shell_n = 8\n", False),
    "simulate_strat": (["simulate"], BASE + LOGISTIC + "solver.scheme = strat_substep\n", False),
    # drift-free Wong-Zakai, two species with nu_i > 0: E(dt) on the product-grid band
    "simulate_strat_transport": (["simulate"], BASE + "reaction.kind = builtin:zero\n"
                                 "reaction.nu = [0.02, 0.05]\nsolver.scheme = strat_substep\n",
                                 False),
    "simulate_det": (["simulate-det"], BASE + LOGISTIC + "noise.nu = 0.1\n", False),
    # the d = 3 branches: the third velocity and derivative components, on the
    # n-grid (Ito with a source and balance gradients), and on the 20-point
    # product grid (pure-transport Ito and Wong-Zakai)
    "simulate_ito_3d": (["simulate"], GRID_3D + MASS_ACTION, False),
    # a source and no balance: the n-grid product takes its own derivative
    "simulate_source_3d": (["simulate"], GRID_3D + MASS_ACTION + "solver.track_balance = false\n",
                           False),
    "simulate_transport_3d": (["simulate"], GRID_3D + "reaction.kind = builtin:zero\n"
                              "reaction.nu = [0.02]\nnoise.shell_n = 1\n"
                              "solver.track_balance = false\nv0.kind = random_smooth\n"
                              "v0.offset = 1.0\nv0.amplitude = 0.3\nv0.seed = 5\n", False),
    "simulate_strat_3d": (["simulate"], GRID_3D + MASS_ACTION + "solver.scheme = strat_substep\n",
                          False),
    "scaling_limit": (["scaling-limit"], "grid.n = 24\nsolver.dt = 0.002\nsolver.T = 0.02\n"
                      "solver.record_every = 2\nexperiment.shells = [1, 2]\nexperiment.paths = 2\n"
                      "experiment.hminus_gamma = 0.5\n", True),
    # the 3D half band of the reference, and the grid branch of an L^4 distance
    "scaling_limit_3d": (["scaling-limit"], GRID_3D + "v0.mode = [1, 0, 0]\nsolver.record_every = 2\n"
                         "experiment.shells = [1, 2]\nexperiment.paths = 2\nexperiment.q = 4\n"
                         "experiment.hminus_gamma = 0.5\n", True),
    # a nonlinear reference, which keeps one half band per sample
    "scaling_limit_logistic": (["scaling-limit"], BASE + LOGISTIC + "solver.record_every = 2\n"
                               "experiment.shells = [1, 2]\nexperiment.paths = 2\n"
                               "experiment.hminus_gamma = 0.5\n", True),
    # u' = u^2 from u = 50 blows up at t = 0.02; explicit steps cross the threshold later
    "survival": (["survival", "--unsafe-reaction"],
                 "grid.n = 16\nsolver.dt = 0.0025\nsolver.T = 0.05\n"
                 "reaction.kind = builtin:quadratic_unsafe\nreaction.nu = [0.01]\n"
                 "v0.kind = constant\nv0.amplitude = 50\nsolver.blowup.threshold = 1e4\n"
                 "experiment.nus = [0.05, 0.2]\nexperiment.paths = 2\n", True),
    "decay_noise": (["decay"], DECAY, True),
    "decay_det": (["decay"], DECAY + "noise.enabled = false\n", True),
    # a tracked mode with a negative component: its index in the band block
    "decay_negative_mode": (["decay"], DECAY.replace("[1, 0]", "[-1, 2]"), True),
    "exponents": (["exponents", "--d", "3", "--h", "3", "--q", "4"], None, False),
}


def _run(name: str, root: Path, threads: int) -> None:
    argv, config, threaded = RUNS[name]
    argv = [*argv, "--out", str(root / name)]
    if config is not None:
        path = root / f"{name}.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    if threaded:
        argv += ["--threads", str(threads)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: torusrd {' '.join(argv)} exited {code}: {err.getvalue()}")


def outputs(threads: int = 1) -> list[tuple[str, bytes]]:
    """(path under the run root, contents) of every output file of RUNS at
    the given thread count, in path order, manifests without `# timestamp`."""
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in RUNS:
            _run(name, root, threads)
        for path in sorted(p for name in RUNS for p in (root / name).rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"# timestamp"))
            files.append((str(path.relative_to(root)), data))
    return files


def digest(threads: int = 1) -> str:
    """SHA-256 over every output file of RUNS, at the given thread count."""
    sha = hashlib.sha256()
    for name, data in outputs(threads):
        sha.update(name.encode() + b"\0")
        sha.update(len(data).to_bytes(8, "little") + data)
    return sha.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--files", action="store_true", help="one SHA-256 per output file")
    args = parser.parse_args()
    if args.files:
        for name, data in outputs(args.threads):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    else:
        print(digest(args.threads))
