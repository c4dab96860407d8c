"""Config parsing/validation, manifests, and the CLI surface."""

import csv
import types

import numpy as np
import pytest

import torusrd.cli as cli_module
from torusrd.cli import main
from torusrd.config import ConfigError, RunConfig, build_reaction, build_v0, build_grid

MINIMAL = """
grid.d = 2
grid.n = 32
solver.dt = 0.005
solver.T = 0.02
"""


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

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            RunConfig.from_text("grid.m = 4")

    def test_removed_strat_cfl_key_rejected(self):
        # the RK4 sub-step CFL target went with RK4: the key is now unknown
        with pytest.raises(ConfigError, match="solver.strat_cfl: unknown configuration key"):
            RunConfig.from_text(MINIMAL + "solver.strat_cfl = 0.12\n")

    def test_horizon_not_multiple_of_dt_rejected(self):
        with pytest.raises(ConfigError, match="solver.T: .* not a multiple of solver.dt"):
            RunConfig.from_text("solver.dt = 0.3\nsolver.T = 0.5")
        RunConfig.from_text("solver.dt = 0.1\nsolver.T = 0.3")  # T/dt = 2.9999999999999996

    def test_strat_substep_without_dealias_rejected(self):
        with pytest.raises(ConfigError, match="solver.dealias"):
            RunConfig.from_text(MINIMAL + "solver.scheme = strat_substep\nsolver.dealias = false")
        RunConfig.from_text(MINIMAL + "solver.scheme = strat_substep")

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
        text = "reaction.kind = builtin:logistic\nsolver.blowup.q0 = 2.5\nvalidate.admissibility = true\ngrid.d = 3\nnoise.enabled = false"
        # h = 2 in d = 3 needs q0 > max(3/2, 2) = 2: q0 = 2.5 passes
        RunConfig.from_text(text)
        with pytest.raises(ConfigError, match="admissibility"):
            RunConfig.from_text(text + "\nreaction.kind = builtin:cubic_nontriangular\nreaction.nu = [0.1, 0.1]")

    def test_mass_action_lengths_checked(self):
        with pytest.raises(ConfigError, match="reaction"):
            RunConfig.from_text("reaction.kind = mass_action\nreaction.q = [2]\nreaction.p = [0, 1]")


class TestBuilders:
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

    def test_exponents_matches_module(self, capsys, tmp_path):
        code = run_cli(["exponents", "--d", "4", "--h", "3", "--q", "5", "--p", "8",
                        "--delta", "1.1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "r0 = 48" in out
        rows = list(csv.reader((tmp_path / "exponents.csv").open()))
        table = {r[0]: r[1] for r in rows[1:]}
        assert float(table["r0"]) == pytest.approx(48.0, abs=1e-9)
        assert float(table["phi"]) == pytest.approx(0.2)

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
        assert (out / "survival_table.csv").exists()
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
        assert (out / "aggregate_shell1.csv").exists()

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
        assert (out / "decay_report.csv").exists()
