"""Inputs the config parse and the CLI reject, each with a message that names
the input, and the Monte-Carlo plans RunConfig.plan builds from a config."""

import pytest

from torusrd.cli import main
from torusrd.config import ConfigError, RunConfig, build_v0
from torusrd.experiments import DecayPlan, ScalingLimitPlan, SurvivalPlan


@pytest.mark.parametrize("text, overrides, error", [
    ("noise.enabled = 1", None, "noise.enabled: expected true/false, got '1'"),
    ("solver.lq_norms = 2", None, "solver.lq_norms: expected a list, got '2'"),
    ('solver.lq_norms = ["a"]', None, "solver.lq_norms: list entries must be numbers, got 'a'"),
    ("solver.lq_norms = [true]", None, "solver.lq_norms: list entries must be numbers, got True"),
    ("v0.mode = [1.5, 0]", None, "v0.mode: list entries must be integers, got 1.5"),
    ("grid.n = 16\ngrid.n 16", None, "line 2: expected 'key = value', got 'grid.n 16'"),
    ("", ["foo"], "override 'foo': expected key=value"),
    ("reaction.kind = foo", None,
     "reaction.kind: expected 'mass_action' or 'builtin:<name>', got 'foo'"),
], ids=["bool", "list", "list_entry", "bool_list_entry", "integer_list_entry", "line",
        "override", "reaction_kind"])
def test_parse_errors(text, overrides, error):
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text, overrides)
    assert info.value.errors == [error]


# every plan argument away from its default, on a grid that resolves shell 3
PLANS = """
grid.n = 32
solver.dt = 0.005
solver.T = 0.1
reaction.kind = builtin:decay
v0.offset = 1.0
noise.nu = 0.2
noise.shell_n = 2
noise.gamma = 0.5
experiment.shells = [1, 3]
experiment.paths = 5
experiment.epsilon = 0.3
experiment.r = 3.0
experiment.q = 4.0
experiment.hminus_gamma = 0.25
experiment.nus = [0.1, 0.4]
experiment.q0 = 3.0
experiment.tail_fraction = 0.75
experiment.tracked_mode = [1, 1]
"""


def _config_and_v0(text):
    cfg = RunConfig.from_text(text)
    return cfg, build_v0(cfg, cfg.grid, cfg.reaction.ell)


def test_each_plan_argument_reads_its_key():
    cfg, v0 = _config_and_v0(PLANS)
    given = {"solver": cfg.solver, "sys": cfg.reaction, "v0": v0}
    assert cfg.plan(ScalingLimitPlan, v0) == ScalingLimitPlan(
        shells=(1, 3), gamma=0.5, nu=0.2, paths=5, epsilon=0.3, r=3.0, q=4.0,
        hminus_gamma=0.25, **given)
    assert cfg.plan(SurvivalPlan, v0) == SurvivalPlan(
        nus=(0.1, 0.4), shell_n=2, gamma=0.5, paths=5, **given)
    assert cfg.plan(DecayPlan, v0) == DecayPlan(
        q0=3.0, paths=5, shell_n=2, gamma=0.5, nu=0.2, tracked_mode=(1, 1),
        tail_fraction=0.75, **given)


def test_plan_conversions():
    # hminus_gamma 0 tracks no H^{-gamma} distance, an empty tracked_mode no
    # mode, and a decay with the noise off runs unenhanced
    cfg, v0 = _config_and_v0(PLANS + "experiment.hminus_gamma = 0\n"
                             "experiment.tracked_mode = []\nnoise.enabled = false\n")
    assert cfg.plan(ScalingLimitPlan, v0).hminus_gamma is None
    decay = cfg.plan(DecayPlan, v0)
    assert decay.tracked_mode is None and decay.nu == 0.0
    assert cfg.plan(ScalingLimitPlan, v0).nu == 0.2  # the reference's enhancement


def test_mass_action_without_weights_declares_no_constants():
    # q - p = (1, 1) has no positive weights, so reaction.mass.* is not read
    cfg, v0 = _config_and_v0(PLANS + "reaction.kind = mass_action\nreaction.q = [1, 1]\n"
                             "reaction.p = [0, 0]\nreaction.nu = [0.01, 0.01]\n"
                             "reaction.mass.a1 = -1.0\n")
    assert cfg.reaction.mass_alpha is None and cfg.reaction.mass_consts is None
    with pytest.raises(ValueError, match="^decay experiments need declared mass constants$"):
        cfg.plan(DecayPlan, v0)


SPECTRUM_3D = "k1,k2,k3,theta\n1,0,0,0.7071067811865476\n-1,0,0,0.7071067811865476\n"
CHECK = ["mass-action-check", "--q", "2,0", "--p", "0,1"]


@pytest.mark.parametrize("argv, spectrum, error", [
    (["verify-noise"], "", "error: spectrum CSV {} lists no mode"),
    (["verify-noise"], "k1,k2,theta\n1,0\n",
     "error: spectrum CSV {}, row 2: expected 3 entries under ['k1', 'k2', 'theta'], "
     "got ['1', '0']"),
    (["verify-noise", "--d", "2"], SPECTRUM_3D, "error: spectrum CSV has d=3, expected 2"),
    (["verify-noise", "--d", "1"], None, "error: argument --d: invalid choice: 1 (choose from 2, 3)"),
    (["verify-noise", "--d", "4"], None, "error: argument --d: invalid choice: 4 (choose from 2, 3)"),
    (CHECK + ["--samples", "0"], None, "error: --samples: must be >= 1, got 0"),
    (CHECK + ["--radius", "-1"], None, "error: --radius: must be finite and > 0, got -1.0"),
    (CHECK + ["--radius", "nan"], None, "error: --radius: must be finite and > 0, got nan"),
    (CHECK + ["--radius", "inf"], None, "error: --radius: must be finite and > 0, got inf"),
    (["mass-action-check", "--q", "a,0", "--p", "0,1"], None,
     "error: argument --q: expected comma-separated integers, got 'a,0'"),
    (["mass-action-check", "--q", "2,0", "--p", "0,1.5"], None,
     "error: argument --p: expected comma-separated integers, got '0,1.5'"),
], ids=["empty_spectrum", "short_spectrum_row", "spectrum_d", "d_1", "d_4", "samples_0",
        "radius_negative", "radius_nan", "radius_inf", "q_not_integers", "p_not_integers"])
def test_malformed_cli_input_exits_one_before_any_output(tmp_path, capsys, argv, spectrum,
                                                         error):
    if spectrum is not None:
        path = tmp_path / "spectrum.csv"
        path.write_text(spectrum)
        argv = [*argv, "--spectrum", str(path)]
        error = error.format(path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == error


def test_scaling_limit_with_a_blown_up_reference_exits_one_after_its_manifest(tmp_path, capsys):
    # u' = u^2 from constant 4 reaches the threshold 5 at 0.052 < T: only a run
    # of the reference finds that, so the manifest is already written
    config = tmp_path / "run.cfg"
    config.write_text("grid.n = 16\nsolver.dt = 0.002\nsolver.T = 0.1\n"
                      "solver.blowup.threshold = 5.0\nreaction.kind = builtin:quadratic_unsafe\n"
                      "reaction.nu = [0.05]\nv0.kind = constant\nv0.amplitude = 4.0\n"
                      "experiment.shells = [1, 2]\nexperiment.paths = 2\n")
    out = tmp_path / "out"
    assert main(["scaling-limit", "--unsafe-reaction", "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the deterministic reference blows up at tau = 0.052, by T = 0.1: "
        "no L^r(0,T;L^q) distance to it exists\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]
