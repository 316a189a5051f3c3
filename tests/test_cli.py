"""CLI behaviour tests: exit codes, file outputs, determinism."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from statistics import mean, pvariance

import pytest
from test_config import VALUES

import centiwalk
from centiwalk import cli, contact_sim
from centiwalk.cli import main
from centiwalk.config import load_config
from centiwalk.contact_sim import SensorModel, simulate_walk, simulate_walks
from centiwalk.control import ARMS, _feedback
from centiwalk.kinematics import flat_ground_stride, slip_distribution
from centiwalk.models import predict_gamma, predict_speed_band
from centiwalk.terrain import HeightDeltaModel, TerrainGrid, generate_terrain

FAST_CFG = """\
[meta]
schema_version = 1
[experiment]
seeds = 0..2
cycles = 6
steps = 72
terrain_rows = 20
"""


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return str(p)


def run(args):
    return main(args)


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path):
        assert run(["--out", str(tmp_path), "--steps", "2", "gait-dump"]) == 1

    def test_config_error_is_1(self, tmp_path):
        assert run(["--config", "/no/such.cfg", "--out", str(tmp_path),
                    "gait-dump"]) == 1

    def test_validation_failure_is_2(self, tmp_path, fast_config):
        code = run(["--config", fast_config, "--out", str(tmp_path),
                    "--tolerance", "1e-9", "validate"])
        assert code == 2

    def test_success_is_0(self, tmp_path):
        assert run(["--out", str(tmp_path), "gait-dump"]) == 0


class TestBadInput:
    GOOD = "# terrain v1\n# block_size=10.0\n# r_g=0.1\n0,0\n1,1\n2,2\n"
    # four samples per cycle, none of them in this gait's stance window
    NO_STANCE = "[gait]\nn_pairs = 2\nxi = 1.5\nduty = 0.125\n"
    # a stance foot that does not move has no slip-angle distribution
    NO_SLIP = "[gait]\ntheta_leg_amp = 0\ntheta_body_amp = 0\n"

    @pytest.mark.parametrize("experiment, argv", [
        ("", ["--steps", "71", "walk"]),
        ("steps = 71\n", ["walk"]),
        ("terrains = nan\n", ["validate"]),
        ("terrains = -0.1\n", ["model-sweep"]),
        ("terrains = {good}\n", ["controller-compare"]),
        ("terrains = {no_r_g}\n", ["model-sweep"]),
        ("terrains = {ragged}\n", ["walk"]),
        ("terrains = {one_row}\n", ["model-sweep"]),
        ("terrains = {nan_height}\n", ["walk"]),
        ("terrains = {nan_height}\n", ["model-sweep"]),
        ("", ["terrain-gen", "--r-g", "-1"]),
        ("", ["--tolerance", "nan", "validate"]),
        (NO_STANCE, ["--steps", "4", "walk"]),
        (NO_STANCE, ["--steps", "4", "validate"]),
        (NO_STANCE, ["--steps", "4", "controller-compare"]),
        (NO_STANCE, ["--steps", "4", "model-sweep"]),
        (NO_STANCE, ["--steps", "4", "gait-dump"]),
        ("terrains = {block_5}\n", ["model-sweep"]),
        ("terrains = {block_5}\n", ["walk"]),
        ("[geometry]\nh_l = nan\n", ["validate"]),
        ("[gait]\na_v = nan\n", ["walk"]),
        ("[controller]\nk_p = nan\n", ["controller-compare"]),
        ("[controller]\nav_max = nan\n", ["controller-compare"]),
        ("[controller]\nav_min = nan\n", ["controller-compare"]),
        ("[controller]\nfixed_av = -1\n", ["controller-compare"]),
        ("sensor_flip_prob = 1.5\n", ["walk"]),
        ("terrain_cols = 0\n", ["walk"]),
        ("terrain_rows = 0\n", ["terrain-gen", "--r-g", "0.1"]),
        ("a_v_grid = -5\n", ["model-sweep"]),
        ("a_v_grid =\n", ["validate"]),
        ("terrains =\n", ["validate"]),
        ("[gait]\nxi = nan\n", ["model-sweep"]),
        ("", ["--seeds=-1", "walk"]),
        ("", ["--seeds=-3..-1", "validate"]),
        ("", ["--seeds=-1", "terrain-gen", "--r-g", "0.1"]),
        ("seeds = -2, 3\n", ["walk"]),
        (NO_SLIP, ["model-sweep"]),
        (NO_SLIP, ["walk"]),
        (NO_SLIP, ["controller-compare"]),
        ("terrains = 0.17, 0.170\n", ["validate"]),
        ("terrains = {twin_a}, {twin_b}\n", ["walk"]),
        ("[meta]\nschema_version = one\n", ["walk"]),
        ("terrains = 0.1, rough%1.txt\n", ["model-sweep"]),
        ("[gait]\nduty = %(x)s\n", ["walk"]),
        ("[geometry]\nh_l = inf\n", ["model-sweep"]),
        ("[geometry]\nh_l = inf\n", ["validate"]),
        ("[gait]\na_v = inf\n", ["walk"]),
        ("[controller]\nk_p = inf\n", ["controller-compare"]),
        ("[controller]\nfixed_av = inf\n", ["controller-compare"]),
        ("[gait\n", ["walk"]),
        ("duty = 0.5\n[meta]\nschema_version = 1\n", ["walk"]),
        ("# caf\xe9\n", ["gait-dump"]),
        ("", ["terrain-gen", "--r-g", "1e308"]),
        ("seeds = 0..1\nterrains = 1e307\n", ["walk"]),
        ("seeds = 0..1\nterrains = 1e307\n", ["controller-compare"]),
        ("terrains = {block_nan}\n", ["validate"]),
        ("terrains = {truncated}\n", ["model-sweep"]),
        ("[gait]\nphase_offset = 1e308\n", ["model-sweep"]),
        ("[gait]\nphase_offset = 1e308\n", ["validate"]),
        ("[gait]\nxi = 1e308\n", ["gait-dump"]),
        ("[geometry]\nleg_length = 1e308\n", ["model-sweep"]),
        ("[geometry]\nleg_length = 1e308\n", ["walk"]),
        ("[geometry]\nleg_length = 1e308\n", ["controller-compare"]),
        ("[geometry]\nh_l = 1.7e308\nd_l = 1.7e308\n", ["validate"]),
    ], ids=["odd-steps-flag", "odd-steps-config", "nan-rugosity",
            "negative-rugosity", "compare-only-files", "no-r_g-header",
            "ragged-rows", "one-row-file", "nan-height-walk",
            "nan-height-sweep", "negative-rugosity-flag",
            "nan-tolerance-flag", "no-stance-walk", "no-stance-validate",
            "no-stance-compare", "no-stance-sweep", "no-stance-gait-dump",
            "block-size-sweep", "block-size-walk", "nan-h_l-validate",
            "nan-a_v-walk", "nan-k_p-compare", "nan-av_max-compare",
            "nan-av_min-compare",
            "negative-fixed_av-compare", "flip-1.5-walk", "zero-cols-walk",
            "zero-rows-terrain-gen", "negative-a_v_grid-sweep",
            "empty-a_v_grid-validate", "empty-terrains-validate",
            "nan-xi-sweep", "negative-seed-flag-walk",
            "negative-seed-range-flag-validate",
            "negative-seed-flag-terrain-gen", "negative-seed-config-walk",
            "no-slip-sweep", "no-slip-walk", "no-slip-compare",
            "repeated-label-levels-validate", "repeated-label-files-walk",
            "non-integer-schema-version", "percent-in-terrain-path",
            "percent-missing-reference", "inf-h_l-sweep", "inf-h_l-validate",
            "inf-a_v-walk", "inf-k_p-compare", "inf-fixed_av-compare",
            "unclosed-section-walk", "key-before-section-walk",
            "latin-1-comment-gait-dump", "overflowing-rugosity-flag",
            "overflowing-rugosity-walk", "overflowing-rugosity-compare",
            "nan-block-size-validate", "truncated-file-sweep",
            "overflowing-phase_offset-sweep",
            "overflowing-phase_offset-validate", "overflowing-xi-gait-dump",
            "overflowing-leg_length-sweep", "overflowing-leg_length-walk",
            "overflowing-leg_length-compare",
            "overflowing-h_l-d_l-validate"])
    def test_one_line_error(self, tmp_path, capsys, experiment, argv):
        files = {
            "good": self.GOOD,
            "no_r_g": self.GOOD.replace("# r_g=0.1\n", ""),
            "ragged": self.GOOD + "3\n",
            "one_row": self.GOOD.split("1,1")[0],
            "nan_height": self.GOOD + "nan,nan\n",
            # blocks half a module long, which a walk cannot place
            "block_5": self.GOOD.replace("block_size=10.0", "block_size=5.0"),
            # two walkable files of one name in two directories
            "twin_a": self.GOOD.split("0,0")[0] + "0,0\n" * 12,
            "twin_b": self.GOOD.split("0,0")[0] + "0,1\n" * 12,
            # walkable rows of blocks whose length is not a number
            "block_nan": self.GOOD.split("0,0")[0].replace(
                "block_size=10.0", "block_size=nan") + "0,1\n" * 12,
            # a header that says 40 rows, over 25 rows of data
            "truncated": self.GOOD.split("0,0")[0] + "# rows=40 cols=5\n"
            + "0,1,2,3,4\n" * 25,
        }
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        paths["twin_a"] = tmp_path / "a" / "twin.txt"
        paths["twin_b"] = tmp_path / "b" / "twin.txt"
        for name, text in files.items():
            paths[name].parent.mkdir(exist_ok=True)
            paths[name].write_text(text)
        cfg = tmp_path / "c.cfg"
        # a case that sets its own seeds replaces the default one; a case
        # that holds [meta] replaces the default header and opens the file;
        # Latin-1 keeps ASCII as is and makes a non-ASCII case invalid UTF-8
        seeds = "" if experiment.startswith("seeds") else "seeds = 0\n"
        body = "[experiment]\n" + seeds + "cycles = 2\n"
        if "[meta]" in experiment:
            content = experiment.format(**paths) + body
        else:
            content = ("[meta]\nschema_version = 1\n" + body
                       + experiment.format(**paths))
        cfg.write_text(content, encoding="latin-1")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out)] + argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(("config error:", "usage error:"))
        if any(text in experiment
               for text in ("[meta]", "%(", "[gait\n", "\xe9", "e308")):
            assert str(cfg) in err
        # a failing command leaves no partial output
        assert not list(out.glob("**/*.csv"))

    @pytest.mark.parametrize("argv", [
        ["--cycles", "0", "walk"],
        ["--steps", "0", "gait-dump"],
        ["--seeds", "", "walk"],
    ])
    def test_explicit_empty_override_rejected(self, tmp_path, fast_config,
                                              argv):
        # an explicit override never falls back to the config value
        out = tmp_path / "out"
        assert run(["--config", fast_config, "--out", str(out)] + argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("out, blocker, command", [
        ("afile", "afile", "gait-dump"),
        ("out", "out/model_sweep.csv/", "model-sweep"),
    ], ids=["out-is-a-file", "csv-is-a-directory"])
    def test_refused_output_path(self, tmp_path, capsys, out, blocker,
                                 command):
        # an output path the OS refuses, a file where --out's directory
        # goes or a directory where a CSV goes, is one error line naming it
        blocked = tmp_path / blocker
        if blocker.endswith("/"):
            blocked.mkdir(parents=True)
        else:
            blocked.write_text("")
        assert run(["--out", str(tmp_path / out), command]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert str(blocked) in err

    def test_percent_in_terrain_path_is_literal(self, tmp_path):
        terrain = tmp_path / "rough%1.txt"
        terrain.write_text(self.GOOD)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[experiment]\n"
                       f"terrains = {terrain}\n")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out),
                    "model-sweep"]) == 0
        assert "rough%1" in (out / "model_sweep.csv").read_text()

    def test_explicit_override_wins(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "0", "--cycles", "1", "walk"]) == 0
        lines = (tmp_path / "walk.csv").read_text().splitlines()
        assert len(lines) == 2 + 3           # 3 terrains x 1 seed x 1 cycle

    def test_experiment_error_names_the_file_and_a_flag_does_not(
            self, tmp_path, capsys, fast_config):
        # an [experiment] value is the file's error, like any other key; the
        # same rule broken by a command-line override is a usage error
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + "terrain_cols = 0\n")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out), "walk"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}: terrain_cols must be >= 1, got 0\n")
        assert run(["--config", fast_config, "--out", str(out),
                    "--cycles", "0", "walk"]) == 1
        assert capsys.readouterr().err == \
            "usage error: cycles must be >= 1, got 0\n"
        assert not out.exists()


class TestNoSlipGait:
    """A gait whose stance feet do not move has no slip-angle distribution,
    so no speed; its contact ratio is still defined."""

    def config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + TestBadInput.NO_SLIP)
        return str(cfg)

    def test_validate_reads_no_speed(self, tmp_path):
        code = run(["--config", self.config(tmp_path), "--out", str(tmp_path),
                    "validate"])
        assert code in (0, 2)
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        assert len(lines) == 2 + 9

    @pytest.mark.parametrize("command",
                             ["walk", "model-sweep", "controller-compare"])
    def test_speed_commands_refuse_it(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(["--config", self.config(tmp_path), "--out", str(out),
                    command]) == 1
        assert capsys.readouterr().err == (
            "config error: degenerate foot trajectory: no slip motion at "
            "theta_leg_amp = 0 and theta_body_amp = 0\n")
        assert not list(out.glob("*.csv"))


class TestStamps:
    def test_every_csv_is_stamped(self, tmp_path, fast_config):
        for command in ("gait-dump", "model-sweep", "validate", "walk",
                        "controller-compare"):
            out = tmp_path / command
            assert run(["--config", fast_config, "--out", str(out),
                        command]) == 0
            csvs = sorted(out.glob("*.csv"))
            assert csvs
            for path in csvs:
                assert path.read_text().startswith("# centiwalk v"), path.name

    @pytest.mark.parametrize("command", ["walk", "controller-compare"])
    def test_stamp_is_computed_once_per_command(self, tmp_path, fast_config,
                                                monkeypatch, command):
        # walk writes 1 + 3 files and controller-compare 5, all stamped
        # with the one line computed for the command
        stamps = []
        stamp = cli._stamp

        def counted(fc):
            stamps.append(stamp(fc))
            return stamps[-1]

        monkeypatch.setattr(cli, "_stamp", counted)
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--cycles", "2", command]) == 0
        assert len(stamps) == 1
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) in (4, 5)
        for path in csvs:
            assert path.read_text().splitlines()[0] + "\n" == stamps[0]

    def test_stamp_hashes_the_effective_config(self, tmp_path, fast_config):
        # an override changes the stamp, --out does not
        def stamp(out, seeds):
            assert run(["--config", fast_config, "--out", str(tmp_path / out),
                        "--seeds", seeds, "walk"]) == 0
            return (tmp_path / out / "walk.csv").read_text().splitlines()[0]

        first = stamp("a", "0")
        assert stamp("b", "0") == first
        assert stamp("c", "1") != first

    @pytest.mark.parametrize("every_key", [False, True],
                             ids=["default", "every-key-and-override"])
    def test_stamp_hashes_as_asdict_does(self, tmp_path, every_key):
        # every config_hash written so far hashed json.dumps(asdict(fc)),
        # so the stamp must keep that text
        argv = ["walk"]
        if every_key:
            cfg = tmp_path / "c.cfg"
            sections = {}
            for (section, key), (text, _) in VALUES.items():
                sections.setdefault(section, f"[{section}]\n")
                sections[section] += f"{key} = {text}\n"
            cfg.write_text("[meta]\nschema_version = 1\n"
                           + "".join(sections.values()))
            argv = ["--config", str(cfg), "--seeds", "3..5", "--cycles", "7",
                    "--steps", "40", "--tolerance", "0.2"] + argv
        args = cli._PARSER.parse_args(argv)
        fc = cli._with_overrides(load_config(args.config), args)
        digest = hashlib.sha256(json.dumps(asdict(fc), sort_keys=True)
                                .encode()).hexdigest()[:12]
        assert cli._stamp(fc) == (f"# centiwalk v{centiwalk.__version__} "
                                  f"config_hash={digest}\n")
        assert (digest == "b63e788368b9") is not every_key

    def test_meta_only_config_stamps_like_the_default(self, tmp_path):
        # every omitted key takes the value the shipped file sets
        meta_only = tmp_path / "meta.cfg"
        meta_only.write_text("[meta]\nschema_version = 1\n")
        for out, args in (("a", []), ("b", ["--config", str(meta_only)])):
            assert run(args + ["--out", str(tmp_path / out), "gait-dump"]) == 0
        for name in ("contact_map.csv", "joint_angles.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


class TestGaitDump:
    def test_outputs(self, tmp_path):
        assert run(["--out", str(tmp_path), "--steps", "72", "gait-dump"]) == 0
        contact = (tmp_path / "contact_map.csv").read_text().splitlines()
        assert contact[0].startswith("# centiwalk v")
        assert contact[1].startswith("step,leg_l1")
        assert len(contact) == 2 + 72
        # [DERIVED] duty count: half the samples of each leg are stance
        bits = [[int(x) for x in line.split(",")[1:]] for line in contact[2:]]
        for leg in range(12):
            assert sum(row[leg] for row in bits) == 36

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["--out", str(out), "gait-dump"]) == 0
        for name in ("contact_map.csv", "joint_angles.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestTerrainGen:
    def test_writes_loadable_file(self, tmp_path):
        assert run(["--out", str(tmp_path), "--seeds", "3", "terrain-gen",
                    "--r-g", "0.17"]) == 0
        grid = TerrainGrid.load(tmp_path / "terrain_rg0.17_seed3.txt")
        assert grid.r_g == pytest.approx(0.17)

    def test_file_blocks_are_one_module_long(self, tmp_path):
        # the file's block size is the configured module length, so a walk
        # or a model sweep on the file accepts it
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n"
                       "[geometry]\nmodule_length = 12.5\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path), "--seeds",
                    "3", "terrain-gen", "--r-g", "0.17"]) == 0
        tfile = tmp_path / "terrain_rg0.17_seed3.txt"
        assert TerrainGrid.load(tfile).block_size == 12.5
        cfg.write_text(cfg.read_text()
                       + f"[experiment]\nterrains = {tfile}\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 0

    def test_generated_blocks_of_a_module_length_walk(self, tmp_path):
        # a library-generated terrain of 12.5 cm blocks is a terrain entry
        # of a robot whose modules are 12.5 cm long
        tfile = tmp_path / "t.txt"
        generate_terrain(0.17, rows=20, cols=5, seed=3,
                         block_size=12.5).save(tfile)
        assert TerrainGrid.load(tfile).block_size == 12.5
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n"
                       "[geometry]\nmodule_length = 12.5\n"
                       f"[experiment]\nterrains = {tfile}, 0.1\n")
        for command in ("model-sweep", "walk"):
            assert run(["--config", str(cfg), "--out", str(tmp_path),
                        "--seeds", "0", "--cycles", "2", command]) == 0


class TestModelSweep:
    def test_rows_are_each_entrys_own_model(self, tmp_path):
        # the speed band runs once over every entry's gammas; each row must
        # still be its entry's own predict_gamma and predict_speed_band
        tfile = tmp_path / "t.txt"
        generate_terrain(0.25, rows=30, cols=5, seed=4).save(tfile)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[experiment]\n"
                       f"terrains = 0.0, 0.17, {tfile}, 0.32\n"
                       "a_v_grid = 0, 6, 12, 18, 24\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 0
        fc = load_config(str(cfg))
        grid = fc.experiment.a_v_grid
        dist = slip_distribution(fc.gait, fc.geometry, fc.experiment.steps)
        deltas = TerrainGrid.load(tfile).longitudinal_deltas()
        expected = []
        for label, model in [
                ("rg=0", HeightDeltaModel.from_rugosity(0.0)),
                ("rg=0.17", HeightDeltaModel.from_rugosity(0.17)),
                ("t", HeightDeltaModel.from_samples(deltas)),
                ("rg=0.32", HeightDeltaModel.from_rugosity(0.32))]:
            o = predict_gamma(fc.geometry, fc.gait, model, fc.experiment.steps,
                              grid)
            band = predict_speed_band(dist, o.gamma)
            for k, a_v in enumerate(grid):
                row = (o.p_loss1[k], o.p_loss2[k], o.gamma[k],
                       o.gamma_ideal[k], o.p_e[k], band.v_ratio_min[k],
                       band.v_ratio_max[k])
                expected.append(f"{label},{a_v:g},"
                                + ",".join(f"{x:.6f}" for x in row))
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()
        assert lines[2:] == expected

    def test_bad_terrain_value_is_one_line_error(self, tmp_path, capsys):
        tfile = tmp_path / "t.txt"
        tfile.write_text("# terrain v1\n# block_size=10\n# r_g=0.1\n"
                         "0,1\n2,x\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n"
                       f"[experiment]\nterrains = {tfile}\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {tfile}: could not convert string to float: "
            "'x'\n")

    def test_grid_row_count(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "model-sweep"]) == 0
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()
        # 3 terrains x 3 amplitudes, plus stamp and header
        assert len(lines) == 2 + 9

    def test_far_phase_offset_runs(self, tmp_path):
        # the offset only translates the stance foot's path: at 1e306 with a
        # 1e4 cm leg that translation overflowed the slip distribution
        cfg = tmp_path / "far.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[gait]\n"
                       "phase_offset = 1e306\n[geometry]\nleg_length = 1e4\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 0
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[7:] == ["v_min", "v_max"]
        assert len(lines) == 2 + 9
        assert all(math.isfinite(float(v))
                   for l in lines[2:] for v in l.split(",")[7:])

    def test_flat_rows_trivial(self, tmp_path, fast_config):
        # [TRIVIAL] r_g = 0 rows have gamma = 1; p_e = 0 at a_v = 0
        run(["--config", fast_config, "--out", str(tmp_path), "model-sweep"])
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()[2:]
        flat = [l.split(",") for l in lines if l.startswith("rg=0,")]
        assert flat
        for row in flat:
            assert float(row[4]) == pytest.approx(1.0)
        a0 = [r for r in flat if float(r[1]) == 0.0][0]
        assert float(a0[6]) == pytest.approx(0.0)

    def test_rough_terrain_prefers_lift(self, tmp_path, fast_config):
        # Fig-8-style ordering: at high rugosity a lifted gait beats a_v=0
        run(["--config", fast_config, "--out", str(tmp_path), "model-sweep"])
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()[2:]
        rough = {float(r[1]): float(r[4])
                 for r in (l.split(",") for l in lines)
                 if r[0] == "rg=0.32"}
        assert max(rough[10.0], rough[20.0]) > rough[0.0]

    def test_terrain_file_entry(self, tmp_path):
        # a terrain file path in the terrain list uses the empirical model
        run(["--out", str(tmp_path), "--seeds", "0", "terrain-gen",
             "--r-g", "0.32"])
        tfile = tmp_path / "terrain_rg0.32_seed0.txt"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            f"[experiment]\nterrains = {tfile}\na_v_grid = 0\nseeds = 0\n"
            "terrain_rows = 20\n"
        )
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 0
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("terrain_rg0.32_seed0,")

    def test_missing_terrain_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[experiment]\nterrains = /no/such/terrain.txt\n"
        )
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "model-sweep"]) == 1


class TestValidate:
    def test_passes_at_default_tolerance(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "validate"]) == 0
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        assert len(lines) == 2 + 9
        assert all(l.endswith(",pass") for l in lines[2:])


    def test_far_xi_validates_the_gait_it_aliases_to(self, tmp_path):
        # 1e17 mod 2n = 1e17 mod 12 = 4, whole cycles of every wave lag: the
        # same gait gives the same rows, under its own config hash
        outputs = []
        for xi in ("1e17", "4"):
            cfg = tmp_path / f"xi={xi}.cfg"
            cfg.write_text(FAST_CFG + f"[gait]\nxi = {xi}\n")
            out = tmp_path / f"xi={xi}"
            assert run(["--config", str(cfg), "--out", str(out),
                        "--tolerance", "1", "validate"]) == 0
            outputs.append((out / "validation.csv").read_text().splitlines())
        far, alias = outputs
        assert len(far) == 2 + 9 and far[1:] == alias[1:]
        assert far[0] != alias[0]

    def test_flat_terrain_passes_past_a_negative_reach(self, tmp_path):
        # on flat terrain the walker loses the stance samples whose reach
        # is negative (past about 38 degrees), and the model predicts it
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[experiment]\n"
                       "terrains = 0.0\na_v_grid = 0, 30, 40, 45, 60\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "validate"]) == 0
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        assert len(lines) == 2 + 5
        assert all(l.endswith(",pass") for l in lines[2:])
        # the model predicts the walker's own stance samples exactly
        assert all(l.split(",")[4] == "0.000000" for l in lines[2:])

    def test_validate_equals_single_walks(self, tmp_path, fast_config):
        # each cell's simulated gamma is the mean over seeds of one-walk
        # simulate_walk runs' mean per-cycle gamma, at the fast config's 9
        # cells and at 21 cells of a 7-amplitude grid, which the walk
        # engine counts in two RANK_AMPLITUDES chunks
        wide = tmp_path / "wide.cfg"
        wide.write_text("[meta]\nschema_version = 1\n[experiment]\n"
                        "seeds = 0..1\ncycles = 3\n"
                        "a_v_grid = 0, 5, 10, 20, 30, 45, 60\n")
        for config, cells in ((fast_config, 9), (str(wide), 21)):
            out = tmp_path / Path(config).stem
            assert run(["--config", config, "--out", str(out),
                        "--tolerance", "1", "validate"]) == 0
            fc = load_config(config)
            exp = fc.experiment
            rows = (out / "validation.csv").read_text().splitlines()[2:]
            assert len(rows) == len(exp.terrains) * len(exp.a_v_grid) == cells
            for row in rows:
                label, a_v, _, simulated = row.split(",")[:4]
                r_g = float(label.removeprefix("rg="))
                walks = [simulate_walk(
                    replace(fc.gait, a_v=float(a_v)), fc.geometry,
                    generate_terrain(r_g, rows=exp.cycles + fc.gait.n_pairs,
                                     cols=exp.terrain_cols, seed=seed),
                    exp.cycles, exp.steps, SensorModel(), seed)
                    for seed in exp.seeds]
                assert simulated == \
                    f"{mean(mean(w.gamma_per_cycle) for w in walks):.6f}", row

    def test_runs_no_speed_band(self, tmp_path, monkeypatch):
        # validation.csv reads only the walks' gamma: a speed band that
        # raises leaves the exit code and the CSV as they were
        tfile = tmp_path / "rough.txt"
        generate_terrain(0.32, rows=30, cols=5, seed=123).save(tfile)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + f"terrains = 0.17, {tfile}, 0.32\n")

        def outputs(name):
            out = tmp_path / name
            code = run(["--config", str(cfg), "--out", str(out), "validate"])
            return code, (out / "validation.csv").read_text()

        plain = outputs("plain")

        def band(*args):
            raise AssertionError("validate ran the speed band")

        monkeypatch.setattr(contact_sim, "predict_speed_band", band)
        assert outputs("no_band") == plain


class TestEntriesWalkAsAlone:
    @pytest.mark.parametrize("command, flip_prob",
                             [("validate", 0.0), ("walk", 0.0),
                              ("walk", 0.05)])
    def test_each_entry_equals_its_run_alone(self, tmp_path, command,
                                             flip_prob):
        # the generated levels walk as one batch, each seed once per level,
        # with a terrain file between them walked on its own; at 70 seeds
        # the engine's blocks (21 rows at validate's 3 amplitudes, 64 at
        # walk's one) straddle the level boundaries.  Every entry's CSV
        # rows and contact map are those of a run on that entry alone.
        tfile = tmp_path / "rough.txt"
        generate_terrain(0.32, rows=30, cols=5, seed=123).save(tfile)
        terrains = ["0.17", str(tfile), "0.32", "0.0"]
        csv, col = {"validate": ("validation.csv", 0),
                    "walk": ("walk.csv", 1)}[command]

        def outputs(name, tokens):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(FAST_CFG + f"terrains = {', '.join(tokens)}\n"
                           f"sensor_flip_prob = {flip_prob}\n")
            out = tmp_path / name
            assert run(["--config", str(cfg), "--out", str(out),
                        "--seeds", "0..69", "--tolerance", "1",
                        command]) == 0
            return out

        def rows(path):
            return path.read_text().splitlines()[2:]

        batch = outputs("batch", terrains)
        batch_rows = rows(batch / csv)
        for i, token in enumerate(terrains):
            alone = outputs(f"alone{i}", [token])
            alone_rows = rows(alone / csv)
            label = alone_rows[0].split(",")[col]
            assert len(alone_rows) == {"validate": 3, "walk": 70 * 6}[command]
            assert [r for r in batch_rows
                    if r.split(",")[col] == label] == alone_rows, label
            if command == "walk":
                name = f"contact_{label}.csv"
                assert rows(batch / name) == rows(alone / name), label
        assert len(batch_rows) == 4 * len(alone_rows)

    @pytest.mark.parametrize("command", ["validate", "walk"])
    def test_levels_walk_in_one_call_on_their_own_heights(
            self, tmp_path, monkeypatch, command):
        # a file first walks first; then one call walks every level, each
        # seed once per level, on a view of the generated heights
        tfile = tmp_path / "rough.txt"
        generate_terrain(0.32, rows=30, cols=5, seed=123).save(tfile)
        calls = []

        def spy(cfg, geom, heights, seeds, *args):
            calls.append((heights, list(seeds)))
            return simulate_walks(cfg, geom, heights, seeds, *args)

        monkeypatch.setattr(cli, "simulate_walks", spy)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + f"terrains = {tfile}, 0.17, 0.32, 0.0\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "--seeds", "3..7", "--tolerance", "1", command]) == 0
        assert [seeds for _, seeds in calls] == \
            [[3, 4, 5, 6, 7], [3, 4, 5, 6, 7] * 3]
        assert [heights.shape[:2] for heights, _ in calls] == [(5, 30),
                                                                (15, 12)]
        assert not any(heights.flags.owndata for heights, _ in calls)

    @pytest.mark.parametrize("command", ["validate", "walk"])
    def test_short_file_between_levels_is_one_line_error(
            self, tmp_path, capsys, command):
        tfile = tmp_path / "short.txt"
        generate_terrain(0.32, rows=10, cols=5, seed=123).save(tfile)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + f"terrains = 0.17, {tfile}, 0.32\n")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out), command]) == 1
        assert capsys.readouterr().err == ("error: robot walks off the "
                                           "terrain at cycle 4 (10 rows "
                                           "available)\n")
        assert list(out.iterdir()) == []


class TestWalkAndCompare:
    def test_walk_outputs(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "0,1", "--cycles", "5", "walk"]) == 0
        lines = (tmp_path / "walk.csv").read_text().splitlines()
        # 3 terrains x 2 seeds x 5 cycles
        assert len(lines) == 2 + 30

    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    def test_contact_csv_is_the_first_seeds_walk(self, tmp_path, flip_prob):
        # each entry's contact map, rugosity levels and a terrain file
        # alike, is its first seed's simulate_walk, in a run of more seeds
        # than one engine block holds
        tfile = tmp_path / "rough.txt"
        generate_terrain(0.32, rows=30, cols=5, seed=123).save(tfile)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + f"terrains = 0.0, 0.32, {tfile}\n"
                       f"sensor_flip_prob = {flip_prob}\n")
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out),
                    "--seeds", "0..69", "walk"]) == 0
        fc = load_config(str(cfg))
        exp = fc.experiment
        rows = exp.cycles + fc.gait.n_pairs
        grids = {"rg=0": generate_terrain(0.0, rows, exp.terrain_cols, seed=0),
                 "rg=0.32": generate_terrain(0.32, rows, exp.terrain_cols,
                                             seed=0),
                 "rough": TerrainGrid.load(tfile)}
        for label, grid in grids.items():
            bits = simulate_walk(fc.gait, fc.geometry, grid, exp.cycles,
                                 exp.steps, SensorModel(flip_prob=flip_prob),
                                 0).measured.bits
            lines = (out / f"contact_{label}.csv").read_text().splitlines()
            assert lines[1] == "cycle,step," + ",".join(cli._leg_names(6))
            assert lines[2:] == [
                f"{i // exp.steps},{i % exp.steps}," + ",".join(map(str, col))
                for i, col in enumerate(bits.T.tolist())], label

    def test_contact_map_walks_a_file_on_its_own_grid(self, tmp_path,
                                                      monkeypatch):
        # a level's map walks its first seed's generated grid, and a file's
        # the grid the file loads as, which saves back to the same text
        tfile = tmp_path / "rough.txt"
        generate_terrain(0.32, rows=30, cols=5, seed=123).save(tfile)
        grids = []

        def spy(cfg, geom, terrain, *args):
            grids.append(terrain)
            return simulate_walk(cfg, geom, terrain, *args)

        monkeypatch.setattr(cli, "simulate_walk", spy)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CFG + f"terrains = 0.17, {tfile}\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "out"),
                    "walk"]) == 0
        assert [(g.r_g, g.seed) for g in grids] == [(0.17, 0), (0.32, 123)]
        grids[1].save(tmp_path / "copy.txt")
        assert (tmp_path / "copy.txt").read_text() == tfile.read_text()

    def test_compare_outputs(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "0..3", "--cycles", "6",
                    "controller-compare"]) == 0
        lines = (tmp_path / "controller_summary.csv").read_text().splitlines()
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["open_loop", "feedback_every1", "feedback_every2",
                         "feedback_every3"]
        assert (tmp_path / "trace_open_loop.csv").is_file()

    def test_trace_csv(self, tmp_path, fast_config):
        # the first seed's trial of each arm: stamp, header, one row per
        # cycle and a summary row
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "4", "--cycles", "5",
                    "controller-compare"]) == 0
        lines = (tmp_path / "trace_feedback_every1.csv").read_text() \
            .splitlines()
        assert lines[0].startswith("# centiwalk v")
        assert lines[1] == "cycle,gamma_s,a_v_deg,v_ratio,displacement_cm"
        assert [l.split(",")[0] for l in lines[2:]] == \
            ["0", "1", "2", "3", "4", "summary"]

    def test_compare_equals_single_walks(self, tmp_path):
        # every summary row, and each arm's trace of the first seed, are
        # statistics of one-seed walks at the arm's start amplitude and
        # update period
        cfg = tmp_path / "flip.cfg"
        cfg.write_text(FAST_CFG + "sensor_flip_prob = 0.05\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path),
                    "controller-compare"]) == 0
        fc = load_config(str(cfg))
        exp, cc = fc.experiment, fc.controller
        r_g = max(float(t) for t in exp.terrains)
        stride = flat_ground_stride(fc.gait, fc.geometry)
        summary = (tmp_path / "controller_summary.csv").read_text() \
            .splitlines()[2:]
        assert len(summary) == len(ARMS)
        for row, (name, period) in zip(summary, ARMS.items()):
            start = cc.fixed_av if period is None else cc.av_min
            walks = [simulate_walks(
                fc.gait, fc.geometry,
                generate_terrain(r_g, rows=exp.cycles + fc.gait.n_pairs,
                                 cols=exp.terrain_cols,
                                 seed=seed).heights[None],
                [seed], [start], exp.cycles, exp.steps,
                SensorModel(flip_prob=exp.sensor_flip_prob),
                None if period is None else _feedback(cc, [period]))
                for seed in exp.seeds]
            dist = slip_distribution(fc.gait, fc.geometry, exp.steps)
            speeds = [predict_speed_band(dist, w.gamma).v_ratio_mid.ravel()
                      .tolist() for w in walks]
            distances = [[stride * v for v in vs] for vs in speeds]
            assert row == (f"{name},{mean(mean(vs) for vs in speeds):.6f},"
                           f"{mean(pvariance(vs) for vs in speeds):.6f},"
                           f"{mean(sum(ds) for ds in distances):.6f}")
            gamma_s = walks[0].gamma_measured.ravel().tolist()
            a_v = walks[0].a_v.ravel().tolist()
            trace = (tmp_path / f"trace_{name}.csv").read_text() \
                .splitlines()[2:]
            assert trace == [
                f"{c},{g:.6f},{a:.6f},{v:.6f},{d:.6f}"
                for c, (g, a, v, d) in enumerate(zip(gamma_s, a_v, speeds[0],
                                                     distances[0]))] + [
                f"summary,{mean(gamma_s):.6f},,{mean(speeds[0]):.6f},"
                f"{sum(distances[0]):.6f}"]

    def test_compare_ignores_retired_keys(self, tmp_path, fast_config):
        # controller-compare always runs its four fixed arms: the retired
        # keys mode, update_every and name load, change nothing, and stay
        # out of the config stamp
        retired = tmp_path / "retired.cfg"
        retired.write_text(FAST_CFG.replace(
            "[experiment]\n", "[controller]\nmode = open_loop\n"
            "update_every = 3\n[experiment]\nname = other\n"))
        for cfg, out in ((fast_config, "a"), (str(retired), "b")):
            assert run(["--config", cfg, "--out", str(tmp_path / out),
                        "--seeds", "0,1", "--cycles", "4",
                        "controller-compare"]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 5
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_compare_walks_the_roughest_level(self, tmp_path):
        # the rows of a run on the roughest level alone, whatever the
        # order of the other levels
        for out, terrains in (("a", "0.32"), ("b", "0.17, 0.32, 0.0")):
            cfg = tmp_path / f"{out}.cfg"
            cfg.write_text(FAST_CFG + f"terrains = {terrains}\n")
            assert run(["--config", str(cfg), "--out", str(tmp_path / out),
                        "--cycles", "4", "controller-compare"]) == 0
        rows = [(tmp_path / out / "controller_summary.csv").read_text()
                .splitlines()[1:] for out in "ab"]
        assert rows[0] == rows[1]

    def test_compare_deterministic(self, tmp_path, fast_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["--config", fast_config, "--out", str(out),
                        "--seeds", "0..2", "--cycles", "5",
                        "controller-compare"]) == 0
        assert (out1 / "controller_summary.csv").read_bytes() == \
            (out2 / "controller_summary.csv").read_bytes()


class TestParserReuse:
    def test_one_parser_serves_every_call_in_a_process(self, tmp_path,
                                                       monkeypatch):
        # the module's parser, built at import, across a --seeds override,
        # a usage error after a --seeds value, and a run on the config's
        # own seeds, which must match the same command in a fresh process
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built a parser")
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            no_new_parser)
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(FAST_CFG.replace("seeds = 0..2", "seeds = 5..6"))
        base = ["--config", str(cfg), "--cycles", "4"]
        assert run(["--out", str(tmp_path / "first"), "--seeds", "0..2",
                    *base, "walk"]) == 0
        assert run(["--out", str(tmp_path / "bad"), "--seeds", "0..2",
                    *base, "--steps", "many", "walk"]) == 1
        assert run(["--out", str(tmp_path / "third"), *base, "walk"]) == 0
        rows = (tmp_path / "third" / "walk.csv").read_text().splitlines()[2:]
        assert sorted({row.split(",")[0] for row in rows}) == ["5", "6"]
        src = str(Path(centiwalk.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-m", "centiwalk.cli",
                        "--out", str(fresh), *base, "walk"],
                       env=env, check=True, capture_output=True)
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "third").iterdir())
        for name in names:
            assert (fresh / name).read_bytes() == \
                (tmp_path / "third" / name).read_bytes(), name
