"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench
import tracing

TR = bench.import_torusrd()
import workloads  # noqa: E402  (needs torusrd on the path)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("fft.calls_per_step", "reactions.f.calls_per_step", "solver.lq_norm.calls_per_step")


def _traced(name: str, seed: int = 3) -> dict:
    return workloads.run_workload(TR, name, seed, seconds=0, trace=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    first, second = _traced(name), _traced(name)
    assert first["correct"] and second["correct"]
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["fft.calls_per_step"][0] > 0
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(first["metrics"][m["name"]][1] == m["unit"] for m in SPEC["per_layer"])


def test_untraced_run_reports_every_end_to_end_metric():
    out = workloads.run_workload(TR, "mass_action_balance", 3, seconds=0, trace=False)
    # warm-up plus MIN_UNITS units, two paths each
    assert out["correct"] and out["attempted"] == 2 * (1 + workloads.MIN_UNITS)
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(out["metrics"][m["name"]][1] == m["unit"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in out["metrics"].values())


def _targets():
    yield from tracing.path_targets(TR)
    yield from ((owner, attr) for owner, attr, _ in tracing.layer_targets(TR))
    yield from tracing.fft_targets(TR)


@pytest.mark.parametrize("trace", [False, True])
def test_run_leaves_the_program_untouched(trace):
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in _targets()}
    digest = bench._src_sha256()
    workloads.run_workload(TR, "mass_action_balance", 3, seconds=0, trace=trace)
    after = {(id(owner), attr): vars(owner)[attr] for owner, attr in _targets()}
    assert all(after[key] is fn for key, fn in before.items())
    assert bench._src_sha256() == digest


def test_missing_target_stops_the_traced_run(monkeypatch):
    targets = tracing.layer_targets(TR) + [(TR.solver.Stepper, "renamed_away", "solver.gone")]
    monkeypatch.setattr(tracing, "layer_targets", lambda tr: targets)
    with pytest.raises(LookupError, match="renamed_away"):
        _traced("mass_action_balance")
    assert "renamed_away" not in vars(TR.solver.Stepper)
    assert vars(TR.solver)["run"].__module__ == "torusrd.solver"  # path timer removed


def test_untraced_fft_stops_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "fft_targets", lambda tr: [])
    with pytest.raises(RuntimeError, match="no call of fft"):
        _traced("mass_action_balance")


def test_fft_reached_by_from_import_is_traced(monkeypatch):
    monkeypatch.setattr(TR.fields, "fftn", np.fft.fftn, raising=False)
    targets = tracing.fft_targets(TR)
    assert (TR.fields, "fftn") in targets
    assert any(owner.__name__ == "scipy.fft" for owner, _ in targets)


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wz_substep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
