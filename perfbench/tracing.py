"""In-memory span tracer for the benchmark.

The tracer wraps callables at the names where torusrd looks them up (a
module global, a class attribute, or numpy.fft's transforms) and records one
span per call: name, start, end, parent span and path id.  Spans stay in
memory and are written out once, when the run ends.  A layer's self time is
its span duration minus the time covered by its direct child spans.

Two levels of wrapping exist:

* path timers, on for the whole run: `solver.run` as looked up from
  `solver` and `experiments`, recording start, end and step count per path,
  which the end-to-end `ms_per_step` needs (an untraced run also hooks
  `Stepper.step` to run the host-speed calibration kernel between steps);
* layer spans, patched in only around traced units (`Tracer.layers`): every
  boundary in `layer_targets` and every name an FFT is reached by
  (`fft_targets`), so untraced units run the unwrapped code.

A target that no longer exists raises `LookupError`, so a renamed boundary
stops the run instead of reading as a layer that costs nothing.  `restore`
puts back every original object, so no wrapper survives a run.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

REFERENCE_PATH = -1  # path id of the deterministic reference run
NO_PATH = -2  # spans outside any path run (set-up, sweep bookkeeping)


def layer_targets(tr) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced layer boundary.

    tr is the imported torusrd package.  solver imports path_rng,
    sample_increments and lq_norm_vector into its own namespace, so they
    are patched there; methods are patched on their class.
    """
    solver, noise, diagnostics, experiments, config = (
        tr.solver, tr.noise, tr.diagnostics, tr.experiments, tr.config,
    )
    return [
        (solver.Stepper, "__init__", "solver.stepper_init"),
        (solver.Stepper, "step", "solver.step"),
        (solver.Stepper, "transport", "solver.transport"),
        (solver.Stepper, "to_values", "solver.to_values"),
        (solver.Stepper, "reaction_drift", "solver.reaction_drift"),
        (solver.Stepper, "gradients", "solver.gradients"),
        (solver, "lq_norm_vector", "solver.lq_norm"),
        (solver, "path_rng", "noise.rng"),
        (solver, "sample_increments", "noise.rng"),
        (noise.NoiseGridOps, "velocity_field", "noise.velocity_field"),
        (diagnostics.RecordBuilder, "sample", "diagnostics.sample"),
        (diagnostics.RecordBuilder, "accumulate_balance", "diagnostics.balance"),
        (experiments, "run_scaling_limit", "experiments.run_scaling_limit"),
        (experiments._StreamingDistance, "__call__", "experiments.observer"),
        (config.RunConfig, "from_text", "config.parse"),
        (config, "build_grid", "config.build"),
        (config, "build_noise", "config.build"),
        (config, "build_reaction", "config.build"),
        (config, "build_solver_config", "config.build"),
        (config, "build_v0", "config.build"),
    ]


def fft_targets(tr) -> list[tuple[object, str]]:
    """Every name under which torusrd can reach an FFT transform.

    These are the transforms of numpy.fft and scipy.fft, plus any module
    global of torusrd bound to one of them (`from numpy.fft import fftn`).
    """
    import scipy.fft

    targets = [(mod, name) for mod in (np.fft, scipy.fft) for name in FFT_FUNCTIONS
               if name in vars(mod)]
    transforms = {id(vars(mod)[name]) for mod, name in targets}
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(tr.__name__ + ".")]
    for mod in modules:
        targets += [(mod, name) for name, obj in vars(mod).items() if id(obj) in transforms]
    return targets


def path_targets(tr) -> list[tuple[object, str]]:
    """Every name under which a path run (`solver.run`) is looked up."""
    return [(tr.solver, "run"), (tr.experiments, "run")]


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.paths: list[int] = []
        self._stack: list[int] = []
        self._path = NO_PATH
        self.recording = False
        self.fft_bytes = 0  # computed: input + output array bytes per call
        # (path id, start, end, steps) for every completed solver.run
        self.path_records: list[tuple[int, float, float, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.paths.append(self._path)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """fn wrapped in a span named name."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_fft(self, fn):
        def traced(a, *args, **kwargs):
            idx = self._open("fft")
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._close(idx)
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return traced

    def _wrap_path(self, fn):
        def timed(sys, noise, *args, **kwargs):
            path = kwargs.get("path_index", 0) if noise is not None else REFERENCE_PATH
            outer = self._path
            self._path = path
            idx = self._open("solver.run") if self.recording else None
            t0 = time.perf_counter()
            try:
                result = fn(sys, noise, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if idx is not None:
                    self._close(idx)
                self._path = outer
            self.path_records.append((path, t0, t1, result[0].step_index))
            return result

        return timed

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        if attr not in vars(owner):
            raise LookupError(f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such name")
        original = vars(owner)[attr]
        bound = isinstance(original, (classmethod, staticmethod))
        wrapped = make(original.__func__ if bound else original)
        setattr(owner, attr, type(original)(wrapped) if bound else wrapped)
        self._saved.append((owner, attr, original))

    def install_path_timers(self, tr) -> None:
        for owner, attr in path_targets(tr):
            self._patch(owner, attr, self._wrap_path)

    def install_step_hook(self, tr, hook) -> None:
        """Call hook() after every solver step, until restore."""

        def make(step):
            def hooked(*args, **kwargs):
                state = step(*args, **kwargs)
                hook()
                return state

            return hooked

        self._patch(tr.solver.Stepper, "step", make)

    @contextmanager
    def layers(self, tr):
        """Record layer spans inside the block; unpatch them on exit."""
        mark = len(self._saved)
        try:
            for owner, attr, name in layer_targets(tr):
                self._patch(owner, attr, lambda fn, name=name: self.wrap(name, fn))
            for owner, attr in fft_targets(tr):
                self._patch(owner, attr, self._wrap_fft)
            self.recording = True
            yield
        finally:
            self.recording = False
            self.restore(mark)

    def restore(self, mark: int = 0) -> None:
        """Undo the patches made after the first mark of them."""
        while len(self._saved) > mark:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, inclusive seconds, self seconds)."""
        if not self.starts:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        names = np.asarray(self.names)
        totals = {}
        for name in np.unique(names):
            sel = names == name
            totals[str(name)] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return totals

    def save(self, path) -> None:
        """Write the spans as arrays (names interned to integer ids)."""
        uniq, ids = np.unique(np.asarray(self.names, dtype=str), return_inverse=True)
        np.savez(
            path,
            span_names=uniq,
            name=ids.astype(np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            path=np.asarray(self.paths, dtype=np.int64),
        )
