"""Config parsing/validation, manifests, and the CLI surface."""

import csv
import types

import numpy as np
import pytest

import torusrd.cli as cli_module
import torusrd.config as config_module
from torusrd.cli import main
from torusrd.config import (ConfigError, RunConfig, build_grid, build_reaction,
                            build_solver_config, build_v0)

MINIMAL = """
grid.d = 2
grid.n = 32
solver.dt = 0.005
solver.T = 0.02
"""


NOISY_DT = "noise.shell_n = 4\nnoise.nu = 1.0\n"
DECAY = "reaction.kind = builtin:decay\n"
NEGATIVE_V0 = "require_nonneg: species 0 has negative initial data"


class TestConfigParsing:
    def test_minimal_fills_defaults(self):
        cfg = RunConfig.from_text(MINIMAL)
        assert cfg["grid.n"] == 32
        assert cfg["noise.enabled"] is True
        assert cfg["solver.scheme"] == "euler_maruyama_ito"
        assert cfg["cutoff.enabled"] is False

    def test_round_trip_through_serialization(self):
        cfg = RunConfig.from_text(MINIMAL)
        text = cfg.canonical_text()
        again = RunConfig.from_text(text)
        assert again.canonical_text() == text
        assert again.config_hash() == cfg.config_hash()

    def test_odd_grid_rejected_by_name(self):
        with pytest.raises(ConfigError, match="grid.n"):
            RunConfig.from_text("grid.n = 7")

    def test_resolution_rule(self):
        with pytest.raises(ConfigError, match="shell"):
            RunConfig.from_text("noise.shell_n = 16\ngrid.n = 64")

    @pytest.mark.parametrize("n, shell, limit", [(48, 8, 7), (24, 4, 3)])
    def test_resolution_rule_at_the_limit(self, n, shell, limit):
        # where 3 divides n, the product of a band-edge mode (k_j = n/3) with the
        # top noise mode (2 shell = n/3) folds to -n/3, inside the band
        band = n // 3
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(f"grid.n = {n}\nnoise.shell_n = {shell}")
        assert info.value.errors == [
            f"noise.shell_n: shell {shell}: max|k_j| = {2 * shell} is under-resolved on grid "
            f"n = {n}: products with the band |k_j| <= {band} are exact only for "
            f"max|k_j| < n - 2 (n // 3) = {n - 2 * band}, i.e. shell <= {limit}"]
        RunConfig.from_text(f"grid.n = {n}\nnoise.shell_n = {limit}")
        RunConfig.from_text(f"grid.n = {n + 2}\nnoise.shell_n = {shell}")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            RunConfig.from_text("grid.m = 4")

    def test_removed_strat_cfl_key_rejected(self):
        # the RK4 sub-step CFL target went with RK4: the key is now unknown
        with pytest.raises(ConfigError, match="solver.strat_cfl: unknown configuration key"):
            RunConfig.from_text(MINIMAL + "solver.strat_cfl = 0.12\n")

    def test_horizon_not_multiple_of_dt_rejected(self):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text("solver.dt = 0.3\nsolver.T = 0.5")
        assert info.value.errors == ["solver.T: 0.5 is not a multiple of dt = 0.3"]
        RunConfig.from_text("solver.dt = 0.1\nsolver.T = 0.3")  # T/dt = 2.9999999999999996

    def test_removed_dealias_key_rejected(self):
        # the 2/3 mask is always on, so the key that switched it is unknown
        for value in ("false", "true"):
            with pytest.raises(ConfigError, match="solver.dealias: unknown configuration key"):
                RunConfig.from_text(MINIMAL + f"solver.dealias = {value}\n")
        RunConfig.from_text(MINIMAL + "solver.scheme = strat_substep")

    @pytest.mark.parametrize("key", [key for key, field in config_module.SCHEMA.items()
                                     if field.type in ("float", "float_list")])
    @pytest.mark.parametrize("number", ["NaN", "Infinity"])
    def test_non_finite_numbers_rejected_at_parse(self, key, number):
        raw = f"[{number}]" if config_module.SCHEMA[key].type == "float_list" else number
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(f"{key} = {raw}")
        assert info.value.errors == [f"{key}: expected a finite number, got {raw!r}"]

    # json reads 1e999 as inf; an integer literal can exceed the largest float
    @pytest.mark.parametrize("raw", ["-Infinity", "1e999", "1" + "0" * 400,
                                     "[0.1, 1e999]", "[-Infinity]"],
                             ids=["-Infinity", "1e999", "1e400-integer", "list-1e999",
                                  "list-minus-Infinity"])
    def test_overflowing_numbers_rejected_at_parse(self, raw):
        key = "reaction.nu" if raw.startswith("[") else "solver.dt"
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(f"{key} = {raw}")
        assert info.value.errors == [f"{key}: expected a finite number, got {raw!r}"]

    def test_type_errors_carry_key_path(self):
        with pytest.raises(ConfigError, match="solver.dt"):
            RunConfig.from_text("solver.dt = fast")

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_text("grid.n = 7\nsolver.dt = -1")
        assert "grid.n" in str(err.value) and "solver.dt" in str(err.value)

    def test_overrides(self):
        cfg = RunConfig.from_text(MINIMAL, overrides=["solver.seed = 99", "grid.n=64"])
        assert cfg["solver.seed"] == 99
        assert cfg["grid.n"] == 64

    def test_comments_and_blank_lines(self):
        cfg = RunConfig.from_text("# a comment\n\ngrid.n = 16  # trailing\n")
        assert cfg["grid.n"] == 16

    def test_list_values(self):
        cfg = RunConfig.from_text("experiment.shells = [1, 2, 4]\nreaction.nu = [0.1, 0.2]")
        assert cfg["experiment.shells"] == [1, 2, 4]
        assert cfg["reaction.nu"] == [0.1, 0.2]

    def test_admissibility_gate(self):
        text = ("reaction.kind = builtin:logistic\nsolver.blowup.q0 = 2.5\n"
                "validate.admissibility = true\ngrid.d = 3\nnoise.enabled = false\n"
                "v0.mode = [1, 0, 0]")
        # h = 2 in d = 3 needs q0 > max(3/2, 2) = 2: q0 = 2.5 passes
        RunConfig.from_text(text)
        # h = 3 needs q0 > max(3, 2) = 3
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(text + "\nreaction.kind = builtin:cubic_nontriangular\nreaction.nu = [0.1, 0.1]")
        assert info.value.errors == [
            "validate.admissibility: solver.blowup.q0: q = 2.5 is not subcritical: "
            "need q > max(d(h-1)/2, 2) = 3.0 for growth h = 3.0"]

    def test_mass_action_lengths_checked(self):
        with pytest.raises(ConfigError, match="reaction"):
            RunConfig.from_text("reaction.kind = mass_action\nreaction.q = [2]\nreaction.p = [0, 1]")

    @pytest.mark.parametrize("reaction, error", [
        ("reaction.kind = mass_action\nreaction.q = [0, 0]\nreaction.p = [0, 0]\n"
         "reaction.nu = [0.1, 0.1]",
         "reaction.q: at least one coefficient of q or p must be positive"),
        ("reaction.kind = builtin:nope", "reaction.kind: unknown builtin reaction 'nope'"),
        ("reaction.kind = builtin:cubic_nontriangular\nreaction.nu = [0.1]",
         "reaction.nu: expected 2 diffusivities, got shape (1,)"),
        ("reaction.kind = builtin:logistic\nreaction.nu = [0.1, 0.2]",
         "reaction.nu: expected 1 diffusivities, got shape (2,)"),
        ("reaction.kind = builtin:quadratic_unsafe",
         "reaction.kind: builtin 'quadratic_unsafe' violates the mass-control assumption"),
    ])
    def test_cutoff_solver_and_reaction_errors_collected(self, reaction, error):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "cutoff.enabled = true\ncutoff.R = 0\n"
                                "solver.record_every = 0\n" + reaction)
        errors = info.value.errors
        assert errors[:2] == ["cutoff.R: must be > 0, got 0.0", "solver.record_every: must be >= 1"]
        assert len(errors) == 3 and errors[2].startswith(error)

    def test_unsafe_gate_reported_at_parse(self):
        text = MINIMAL + "reaction.kind = builtin:quadratic_unsafe\nnoise.enabled = false\n"
        with pytest.raises(ConfigError, match="reaction.kind: builtin 'quadratic_unsafe'"):
            RunConfig.from_text(text)
        cfg = RunConfig.from_text(text, allow_unsafe=True)
        assert build_reaction(cfg).name == "quadratic_unsafe"

    def test_noise_nu_checked_with_noise_off(self):
        # simulate-det reads noise.nu as its enhancement whatever noise.enabled says
        with pytest.raises(ConfigError, match="noise.nu: must be > 0, got -5.0"):
            RunConfig.from_text(MINIMAL + "noise.enabled = false\nnoise.nu = -5.0\n")

    def test_experiment_rules_carry_key_paths(self):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "experiment.shells = []\nexperiment.paths = 0\n"
                                "experiment.epsilon = 0\n")
        assert [e.split(":")[0] for e in info.value.errors] == [
            "experiment.shells", "experiment.paths", "experiment.epsilon"]


    @pytest.mark.parametrize("binding, error", [
        ("experiment.nus = []", "experiment.nus: must be nonempty and >= 0, got []"),
        ("experiment.nus = [0.1, -0.2]",
         "experiment.nus: must be nonempty and >= 0, got [0.1, -0.2]"),
        ("experiment.tail_fraction = 1.5",
         "experiment.tail_fraction: must lie in (0, 1], got 1.5"),
        ("experiment.tail_fraction = 0", "experiment.tail_fraction: must lie in (0, 1], got 0.0"),
        ("experiment.q0 = 0", "experiment.q0: must be >= 1, got 0.0"),
        ("experiment.tracked_mode = [1]",
         "experiment.tracked_mode: expected empty or 2 components, got [1]"),
        # mode 17 would read the coefficient of mode -15 on 32 points, and
        # mode 11 one outside the dealias band, where the state is zero
        ("experiment.tracked_mode = [17, 0]",
         "experiment.tracked_mode: [17, 0] lies outside the dealias band of grid n = 32: "
         "every |k_j| must be <= n // 3 = 10"),
        ("experiment.tracked_mode = [11, 0]",
         "experiment.tracked_mode: [11, 0] lies outside the dealias band of grid n = 32: "
         "every |k_j| must be <= n // 3 = 10"),
        # every plan has the paths rule; it is reported once
        ("experiment.paths = 0", "experiment.paths: must be >= 1, got 0"),
    ])
    def test_survival_and_decay_rules_carry_key_paths(self, binding, error):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + binding + "\n")
        assert info.value.errors == [error]

    @pytest.mark.parametrize("bindings, errors", [
        # collected with the other key errors, not at run start
        ("v0.mode = [9, 0, 1]\nsolver.record_every = 0",
         ["v0.mode: expected 2 components, got 3", "solver.record_every: must be >= 1"]),
        ("v0.mode = [17, 0]",
         ["v0.mode: [17, 0] lies outside the dealias band of grid n = 32: "
          "every |k_j| must be <= n // 3 = 10"]),
        # the initial projection would zero mode 11 without a word
        ("v0.mode = [11, 0]",
         ["v0.mode: [11, 0] lies outside the dealias band of grid n = 32: "
          "every |k_j| must be <= n // 3 = 10"]),
        # random_smooth draws modes up to |k_j| = 3, outside the band on 8 points
        ("v0.kind = random_smooth\ngrid.n = 8",
         ["v0.kind: random_smooth draws modes with |k_j| <= 3; [3, 3] lies outside the "
          "dealias band of grid n = 8: every |k_j| must be <= n // 3 = 2"]),
        # a 3-D grid does not take the 2-D default mode
        ("grid.d = 3\ngrid.n = 12", ["v0.mode: expected 3 components, got 2"]),
    ])
    def test_single_mode_v0_mode_checked_at_parse(self, bindings, errors):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "noise.enabled = false\n" + bindings + "\n")
        assert info.value.errors == errors
        # the other kinds do not read v0.mode
        RunConfig.from_text(MINIMAL + "v0.kind = constant\nv0.mode = [17, 0, 0]\n")


    def test_unknown_v0_kind_collected_at_parse(self):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "v0.kind = bogus\nsolver.record_every = 0\n")
        assert info.value.errors == ["v0.kind: unknown initial data kind 'bogus'",
                                     "solver.record_every: must be >= 1"]

    def test_track_balance_false_empties_balance_q(self):
        cfg = RunConfig.from_text(MINIMAL + "solver.track_balance = false\n")
        assert cfg.solver.balance_q == ()
        assert cfg["solver.balance_q"] == [2.0]  # the key keeps its value
        assert RunConfig.from_text(MINIMAL).solver.balance_q == (2.0,)
        # the exponents are checked whether or not the balance is tracked
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "solver.track_balance = false\n"
                                "solver.balance_q = [1.0]\n")
        assert info.value.errors == ["solver.balance_q: exponents must be >= 2, got [1.0]"]


class TestBuilders:
    def test_builders_return_the_validated_objects(self, monkeypatch):
        calls, build = [], config_module.mass_action_build

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(config_module, "mass_action_build", counting_build)
        cfg = RunConfig.from_text(
            "reaction.kind = mass_action\nreaction.q = [2, 0]\nreaction.p = [0, 1]\n"
            "reaction.nu = [0.1, 0.2]"
        )
        assert build_reaction(cfg) is cfg.reaction
        assert build_grid(cfg) is cfg.grid
        assert build_solver_config(cfg) is cfg.solver
        assert len(calls) == 1

    def test_build_mass_action(self):
        cfg = RunConfig.from_text(
            "reaction.kind = mass_action\nreaction.q = [2, 0]\nreaction.p = [0, 1]\n"
            "reaction.nu = [0.1, 0.2]"
        )
        sys = build_reaction(cfg)
        assert sys.ell == 2
        assert np.allclose(sys.mass_alpha, [1.0, 2.0])
        assert sys.mass_consts == (0.0, 0.0)

    def test_declared_mass_constants_flow_through(self):
        cfg = RunConfig.from_text(
            "reaction.kind = mass_action\nreaction.q = [2, 0]\nreaction.p = [0, 1]\n"
            "reaction.nu = [0.1, 0.2]\nreaction.mass.a0 = 0.5\nreaction.mass.a1 = -1.0"
        )
        assert build_reaction(cfg).mass_consts == (0.5, -1.0)

    def test_build_v0_kinds(self):
        cfg = RunConfig.from_text("v0.kind = constant\nv0.amplitude = 1.5")
        grid = build_grid(cfg)
        v0 = build_v0(cfg, grid, 2)
        assert len(v0) == 2
        assert np.all(v0[0].values == 1.5)

        cfg = RunConfig.from_text("v0.kind = single_mode\nv0.offset = 1.0\nv0.amplitude = 0.5")
        v0 = build_v0(cfg, build_grid(cfg), 1)
        assert v0[0].values.min() >= 0.5 - 1e-12

        cfg = RunConfig.from_text("v0.kind = random_smooth\nv0.seed = 4")
        a = build_v0(cfg, build_grid(cfg), 1)[0].values
        b = build_v0(cfg, build_grid(cfg), 1)[0].values
        assert np.array_equal(a, b)


def run_cli(args):
    return main(args)


class TestCli:
    def test_no_command_exits_one(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_command_exits_one(self):
        assert run_cli(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_main_pins_malloc_thresholds(self, monkeypatch, capsys):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli_module.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert run_cli(["verify-noise", "--d", "2", "--shell", "1"]) == 0
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, the values perfbench pins
        assert calls == [(-3, 32 * 2**20), (-1, 2**30)]

    def test_main_runs_without_mallopt(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_module.ctypes, "CDLL", lambda name: object())
        assert run_cli(["verify-noise", "--d", "2", "--shell", "1"]) == 0

    def test_verify_noise(self, capsys):
        assert run_cli(["verify-noise", "--d", "2", "--shell", "1"]) == 0
        out = capsys.readouterr().out
        assert "ellipticity deviation" in out
        assert "modes: 12" in out

    def test_verify_noise_export_import(self, tmp_path, capsys):
        csv_path = tmp_path / "spec.csv"
        assert run_cli(["verify-noise", "--d", "2", "--shell", "2",
                        "--export", str(csv_path)]) == 0
        assert run_cli(["verify-noise", "--d", "2", "--spectrum", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "modes: 40" in out

    def test_verify_noise_rejects_a_spectrum_listing_every_mode_twice(self, tmp_path, capsys):
        # at theta / sqrt(2) each copy keeps the l2 norm and the ellipticity
        # identity, but the sampled velocity would carry one copy of each mode
        exported = tmp_path / "spec.csv"
        assert run_cli(["verify-noise", "--d", "2", "--shell", "2",
                        "--export", str(exported)]) == 0
        rows = list(csv.reader(exported.open()))
        doubled = tmp_path / "doubled.csv"
        with doubled.open("w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + 2 * [row[:-1] + [repr(float(row[-1]) / 2**0.5)]
                                                      for row in rows[1:]])
        assert run_cli(["verify-noise", "--d", "2", "--spectrum", str(doubled)]) == 1
        assert "support lists a mode twice" in capsys.readouterr().err

    def test_exponents_matches_module(self, capsys, tmp_path):
        code = run_cli(["exponents", "--d", "4", "--h", "3", "--q", "5", "--p", "8",
                        "--delta", "1.1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "r0 = 48" in out
        rows = list(csv.reader((tmp_path / "exponents.csv").open()))
        assert rows[0] == ["quantity", "value"]
        table = {r[0]: r[1] for r in rows[1:]}
        assert table["admissibility.q_in_window"] == "True"  # bools as written by str
        assert float(table["r0"]) == pytest.approx(48.0, abs=1e-9)
        assert float(table["phi"]) == pytest.approx(0.2)

    @pytest.mark.parametrize("R", ["1e4", "1e6"])
    def test_exponents_at_large_cutoff_level(self, capsys, R):
        assert run_cli(["exponents", "--d", "2", "--h", "2", "--q", "4", "--R", R]) == 0
        assert "barrier.mu0 = " in capsys.readouterr().out

    def test_exponents_bad_params_exit_one(self):
        assert run_cli(["exponents", "--d", "1", "--h", "3", "--q", "5"]) == 1

    def test_mass_action_check(self, capsys):
        code = run_cli(["mass-action-check", "--q", "2,0", "--p", "0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha = [1.0, 2.0]" in out
        assert "holds = True" in out

    def test_simulate_writes_outputs(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 32\nsolver.dt = 0.002\nsolver.T = 0.01\n"
            "noise.shell_n = 1\nsolver.seed = 5\n"
        )
        out = tmp_path / "out"
        code = run_cli(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.txt").exists()
        assert (out / "diagnostics.csv").exists()
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,species,lq_2,mass,min_val,grad_energy,phi,residual"

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 32\nsolver.dt = 0.002\nsolver.T = 0.01\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "diagnostics.csv").open()))
        for row in rows[1:]:
            for cell in row:
                if cell:
                    float(cell)  # raises if a repr of a wrapper type leaked

    def test_manifest_reruns_bitwise(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 32\nsolver.dt = 0.002\nsolver.T = 0.01\n"
            "reaction.kind = builtin:logistic\nreaction.nu = [0.05]\n"
            "v0.kind = single_mode\nv0.offset = 0.6\nv0.amplitude = 0.2\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert run_cli(["simulate", "--config", str(out1 / "manifest.txt"),
                        "--out", str(out2)]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()

    def test_simulate_3d(self, tmp_path):
        config = tmp_path / "run3d.cfg"
        config.write_text(
            "grid.d = 3\ngrid.n = 12\nnoise.shell_n = 1\nnoise.nu = 0.05\n"
            "solver.dt = 0.005\nsolver.T = 0.02\nsolver.track_balance = false\n"
            "v0.mode = [1, 0, 0]\n"
        )
        out = tmp_path / "out3d"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()

    def test_simulate_det_runs(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.02\n")
        out = tmp_path / "out"
        assert run_cli(["simulate-det", "--config", str(config), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "simulate-det" in manifest

    @pytest.mark.parametrize("command, override, key", [
        ("simulate", "v0.kind=bogus", "v0.kind"),
        ("scaling-limit", "experiment.shells=[]", "experiment.shells"),
        ("scaling-limit", "experiment.epsilon=0", "experiment.epsilon"),
        ("simulate-det", "noise.nu=-5.0", "noise.nu"),
        ("survival", "experiment.nus=[]", "experiment.nus"),
        ("decay", "experiment.tail_fraction=1.5", "experiment.tail_fraction"),
        ("decay", "experiment.tracked_mode=[1]", "experiment.tracked_mode"),
        ("decay", "experiment.tracked_mode=[1, 0, 0]", "experiment.tracked_mode"),
        ("decay", "experiment.tracked_mode=[0, -9]", "experiment.tracked_mode"),
        # mode 9 would sample mode -7 on 16 points; mode 6 lies outside the band
        ("decay", "v0.mode=[9, 0]", "v0.mode"),
        ("decay", "v0.mode=[6, 0]", "v0.mode"),
        ("decay", "experiment.tracked_mode=[0, 6]", "experiment.tracked_mode"),
        ("simulate", "io.snapshots_every=-2", "io.snapshots_every"),
        # non-finite numbers once ran silently wrong or failed after the manifest
        ("simulate", "reaction.nu=[NaN]", "reaction.nu"),
        ("simulate-det", "noise.nu=NaN", "noise.nu"),
        ("simulate-det", "solver.dt=Infinity", "solver.dt"),
        ("simulate-det", "solver.dt=NaN", "solver.dt"),
        ("survival", "solver.blowup.threshold=NaN", "solver.blowup.threshold"),
    ])
    def test_config_errors_exit_one_without_output_dir(self, tmp_path, capsys, command,
                                                        override, key):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.05\n"
                          "noise.enabled = false\n")
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(config), "--out", str(out),
                        "--override", override]) == 1
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, override, error", [
        # each of these once crashed mid-run or ran with a silently wrong meaning
        ("scaling-limit", "experiment.q=0", "experiment.q: must be >= 1, got 0.0"),
        ("scaling-limit", "experiment.r=0", "experiment.r: must be >= 1, got 0.0"),
        ("scaling-limit", "experiment.hminus_gamma=-1",
         "experiment.hminus_gamma: must be >= 0, got -1.0"),
        ("decay", "experiment.q0=-2", "experiment.q0: must be >= 1, got -2.0"),
    ])
    def test_out_of_range_experiment_exponents_exit_one_before_output(
            self, tmp_path, capsys, command, override, error):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.05\n"
                          "noise.enabled = false\n")
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(config), "--out", str(out),
                        "--override", override]) == 1
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags, key", [
        # 2^64 - 1 once ran seed 0's stream (and v0.seed seed 0's data); 2^64
        # exited 2 after manifest.txt was written
        (["--override", "solver.seed=18446744073709551615"], "solver.seed"),
        (["--seed", "18446744073709551616"], "solver.seed"),
        (["--override", "v0.kind=random_smooth", "--override", "v0.seed=18446744073709551615"],
         "v0.seed"),
    ])
    def test_out_of_range_seeds_exit_one_before_output(self, tmp_path, capsys, flags, key):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.05\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert f"{key}: must lie in [-2^63, 2^63), got 1844674407370955161" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, bindings, error", [
        # noisy dt = 0.01 against the guard bound 0.5 / (1 * 8 * 32) at shell 4
        ("simulate", NOISY_DT, "violates the noise step guard"),
        ("decay", NOISY_DT + DECAY, "violates the noise step guard"),
        # the default single_mode data is negative somewhere
        ("simulate", "solver.require_nonneg = true\n", NEGATIVE_V0),
        ("scaling-limit", "solver.require_nonneg = true\nexperiment.shells = [1, 2]\n",
         NEGATIVE_V0),
        ("decay", "solver.require_nonneg = true\n" + DECAY, NEGATIVE_V0),
        # both exponents print as lq_2: one column would overwrite the other
        ("simulate", "solver.lq_norms = [2, 2.0000001]\n",
         "solver.lq_norms = [2.0, 2.0000001] name one diagnostics.csv column twice"),
        # the residual column reads the L^q norm of the smallest balance exponent
        ("simulate", "solver.balance_q = [3]\n",
         "solver.balance_q exponent 3 is not in solver.lq_norms = [2.0]"),
        # finite settings whose sum overflows: the data is inf everywhere
        ("simulate", "v0.kind = constant\nv0.offset = 1e308\nv0.amplitude = 1e308\n",
         "initial data contains non-finite values"),
        # a plan's shell-noise checks, under the key of the argument at fault: shell 16
        # reaches |k_j| = 32, which 48 points do not resolve (the parse checks
        # noise.shell_n only); the guard allows nu <= 0.02 at shell 12 on 96 points
        # at dt = 2.5e-3, and nu <= 0.78 at shell 1 on 32 points at dt = 1e-2
        ("scaling-limit", "grid.n = 48\nexperiment.shells = [1, 16]\n",
         "  experiment.shells: shell 16: max|k_j| = 32 is under-resolved on grid n = 48"),
        ("scaling-limit", "grid.n = 96\nsolver.dt = 0.0025\nexperiment.shells = [1, 12]\n",
         "  noise.nu: shell 12: dt = 0.0025 violates the noise step guard"),
        ("survival", "v0.kind = constant\nexperiment.nus = [0.1, 1.0]\n",
         "  experiment.nus: nu = 1.0: dt = 0.01 violates the noise step guard"),
    ])
    def test_run_start_checks_exit_one_before_output(self, tmp_path, capsys, command,
                                                      bindings, error):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 32\nsolver.dt = 0.01\nsolver.T = 0.05\n" + bindings)
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_one_without_output_dir(self, tmp_path, capsys, threads):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.01\n"
                          "experiment.shells = [1]\nexperiment.paths = 1\n")
        out = tmp_path / "out"
        assert run_cli(["scaling-limit", "--config", str(config), "--out", str(out),
                        "--threads", threads]) == 1
        assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme, T", [("euler_maruyama_ito", 0.2), ("strat_substep", 0.05)])
    def test_simulate_det_residual_balances_the_enhanced_diffusion(self, tmp_path, scheme, T):
        # the run diffuses at nu_i + noise.nu, so the balance must read the
        # same diffusivity; with nu_i alone the last residual read -0.094
        # (Ito, T = 0.2) and -0.040 (strat_substep, T = 0.05)
        config = tmp_path / "run.cfg"
        config.write_text(f"grid.n = 32\nsolver.dt = 0.001\nsolver.T = {T}\n"
                          f"solver.scheme = {scheme}\nreaction.nu = [0.01]\nnoise.nu = 0.1\n")
        out = tmp_path / "out"
        assert run_cli(["simulate-det", "--config", str(config), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "diagnostics.csv").open()))
        assert float(rows[-1]["t"]) == pytest.approx(T)
        assert abs(float(rows[-1]["residual"])) < 1e-3

    def test_scaling_limit_with_noise_off_builds_no_shell_noise(self, tmp_path):
        # noise.gamma is checked only with noise on, and a noise-off sweep
        # has no shell noise to build from it
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.02\n"
                          "noise.enabled = false\nnoise.gamma = -1\n"
                          "experiment.shells = [1, 2]\nexperiment.paths = 2\n")
        out = tmp_path / "out"
        assert run_cli(["scaling-limit", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "scaling_table.csv").exists()

    def test_bad_config_exits_one(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("grid.n = 7\n")
        assert run_cli(["simulate", "--config", str(config)]) == 1

    @pytest.mark.parametrize("override", [
        "solver.lq_norms=[0.0]", "solver.lq_norms=[-2.0]", "solver.balance_q=[1.0]",
    ])
    def test_out_of_range_norm_exponents_exit_one(self, tmp_path, capsys, override):
        config = tmp_path / "run.cfg"
        config.write_text("grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.01\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out),
                        "--override", override]) == 1
        err = capsys.readouterr().err
        assert "exponents must be" in err
        # reported with its key path, among the collected errors
        assert f"{override.split('=')[0]}: exponents must be" in err
        assert "invalid configuration" in err
        assert not (out / "diagnostics.csv").exists()

    def test_out_of_range_exponents_collected_with_other_errors(self):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(MINIMAL + "solver.lq_norms = [0.5]\nsolver.balance_q = [1.0]\n"
                                "solver.record_every = 0\n")
        assert info.value.errors == [
            "solver.record_every: must be >= 1",
            "solver.lq_norms: exponents must be >= 1, got [0.5]",
            "solver.balance_q: exponents must be >= 2, got [1.0]",
        ]

    def test_unsafe_reaction_gate(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.01\n"
            "reaction.kind = builtin:quadratic_unsafe\nreaction.nu = [0.1]\n"
            "noise.enabled = false\n"
        )
        assert run_cli(["simulate", "--config", str(config), "--out",
                        str(tmp_path / "o")]) == 1
        assert run_cli(["simulate", "--config", str(config), "--unsafe-reaction",
                        "--out", str(tmp_path / "o2")]) == 0

    def test_survival_cli(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 16\nsolver.dt = 0.005\nsolver.T = 0.05\n"
            "reaction.kind = builtin:logistic\nreaction.nu = [0.1]\n"
            "v0.kind = constant\nv0.amplitude = 0.5\n"
            "experiment.nus = [0.05, 0.1]\nexperiment.paths = 3\n"
            "solver.require_nonneg = true\n"
        )
        out = tmp_path / "out"
        assert run_cli(["survival", "--config", str(config), "--out", str(out)]) == 0
        table = (out / "survival_table.csv").read_text().splitlines()
        assert table[0] == "nu,p_hat,wilson_lo,wilson_hi,mean_tau_blowups"
        assert len(table) == 3
        agg = (out / "aggregate_nu0.csv").read_text().splitlines()
        assert agg[0] == "path,tau,survived,dist_LrLq"
        assert len(agg) == 4

    def test_scaling_limit_cli(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 48\nsolver.dt = 0.002\nsolver.T = 0.02\n"
            "solver.record_every = 2\nsolver.track_balance = false\n"
            "experiment.shells = [1, 2]\nexperiment.paths = 2\n"
        )
        out = tmp_path / "out"
        assert run_cli(["scaling-limit", "--config", str(config), "--out", str(out)]) == 0
        table = (out / "scaling_table.csv").read_text().splitlines()
        assert table[0] == "shell_n,mean_distance,stderr,p_exceed_eps,max_lq"
        assert len(table) == 3
        agg = (out / "aggregate_shell1.csv").read_text().splitlines()
        assert agg[0] == "path,tau,survived,dist_LrLq"
        assert len(agg) == 3

    def test_scaling_limit_cli_writes_the_hminus_distance_last(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 24\nsolver.dt = 0.002\nsolver.T = 0.01\n"
            "solver.track_balance = false\n"
            "experiment.shells = [1, 2]\nexperiment.paths = 2\n"
            "experiment.hminus_gamma = 0.5\n"
        )
        out = tmp_path / "out"
        assert run_cli(["scaling-limit", "--config", str(config), "--out", str(out)]) == 0
        for shell in (1, 2):
            agg = (out / f"aggregate_shell{shell}.csv").read_text().splitlines()
            assert agg[0] == "path,tau,survived,dist_LrLq,sup_hminus"
            rows = [line.split(",") for line in agg[1:]]
            assert len(rows) == 2 and all(float(row[-1]) > 0 for row in rows)

    def test_decay_cli(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 16\nsolver.dt = 0.002\nsolver.T = 1.0\n"
            "solver.record_every = 10\nnoise.enabled = false\n"
            "reaction.kind = builtin:decay\nreaction.nu = [0.01]\n"
            "v0.kind = constant\nv0.amplitude = 1.5\n"
        )
        out = tmp_path / "out"
        assert run_cli(["decay", "--config", str(config), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fitted rate" in text
        rows = list(csv.reader((out / "decay_report.csv").open()))
        assert rows[0] == ["degenerate", "fitted_rate", "expected_rate", "mode_rate",
                           "mode_expected"]
        assert rows[1][0] == "0"

    def test_decay_cli_names_the_linear_rate(self, tmp_path, capsys):
        # mode_expected is the tracked mode's rate for the linear f = a1 v only
        config = tmp_path / "run.cfg"
        config.write_text(
            "grid.n = 16\nsolver.dt = 0.01\nsolver.T = 0.2\nnoise.enabled = false\n"
            "reaction.kind = builtin:decay\nv0.offset = 1.5\nv0.amplitude = 0.5\n"
            "experiment.tracked_mode = [1, 0]\n"
        )
        assert run_cli(["decay", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "(expected 1.3948 for the linear f = a1 v)" in capsys.readouterr().out
