"""CLI behaviour tests: exit codes, file outputs, determinism."""

import pytest

from centiwalk.cli import main

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
        (NO_SLIP, ["model-sweep"]),
        (NO_SLIP, ["walk"]),
        (NO_SLIP, ["validate"]),
        (NO_SLIP, ["controller-compare"]),
    ], ids=["odd-steps-flag", "odd-steps-config", "nan-rugosity",
            "negative-rugosity", "compare-only-files", "no-r_g-header",
            "ragged-rows", "one-row-file", "nan-height-walk",
            "nan-height-sweep", "negative-rugosity-flag",
            "nan-tolerance-flag", "no-stance-walk", "no-stance-validate",
            "no-stance-compare", "nan-h_l-validate", "nan-a_v-walk",
            "nan-k_p-compare", "nan-av_max-compare", "nan-av_min-compare",
            "negative-fixed_av-compare", "flip-1.5-walk", "zero-cols-walk",
            "zero-rows-terrain-gen", "negative-a_v_grid-sweep",
            "empty-a_v_grid-validate", "empty-terrains-validate",
            "nan-xi-sweep", "no-slip-sweep", "no-slip-walk",
            "no-slip-validate", "no-slip-compare"])
    def test_one_line_error(self, tmp_path, capsys, experiment, argv):
        files = {
            "good": self.GOOD,
            "no_r_g": self.GOOD.replace("# r_g=0.1\n", ""),
            "ragged": self.GOOD + "3\n",
            "one_row": self.GOOD.split("1,1")[0],
            "nan_height": self.GOOD + "nan,nan\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[meta]\nschema_version = 1\n[experiment]\n"
                       "seeds = 0\ncycles = 2\n" + experiment.format(
                           **{n: tmp_path / f"{n}.txt" for n in files}))
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out)] + argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(("config error:", "usage error:"))
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

    def test_explicit_override_wins(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "0", "--cycles", "1", "walk"]) == 0
        lines = (tmp_path / "walk.csv").read_text().splitlines()
        assert len(lines) == 2 + 3           # 3 terrains x 1 seed x 1 cycle


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

    def test_stamp_hashes_the_effective_config(self, tmp_path, fast_config):
        # an override changes the stamp, --out does not
        def stamp(out, seeds):
            assert run(["--config", fast_config, "--out", str(tmp_path / out),
                        "--seeds", seeds, "walk"]) == 0
            return (tmp_path / out / "walk.csv").read_text().splitlines()[0]

        first = stamp("a", "0")
        assert stamp("b", "0") == first
        assert stamp("c", "1") != first


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
        from centiwalk.terrain import TerrainGrid
        assert run(["--out", str(tmp_path), "--seeds", "3", "terrain-gen",
                    "--r-g", "0.17"]) == 0
        grid = TerrainGrid.load(tmp_path / "terrain_rg0.17_seed3.txt")
        assert grid.r_g == pytest.approx(0.17)


class TestModelSweep:
    def test_grid_row_count(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "model-sweep"]) == 0
        lines = (tmp_path / "model_sweep.csv").read_text().splitlines()
        # 3 terrains x 3 amplitudes, plus stamp and header
        assert len(lines) == 2 + 9

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


class TestWalkAndCompare:
    def test_walk_outputs(self, tmp_path, fast_config):
        assert run(["--config", fast_config, "--out", str(tmp_path),
                    "--seeds", "0,1", "--cycles", "5", "walk"]) == 0
        lines = (tmp_path / "walk.csv").read_text().splitlines()
        # 3 terrains x 2 seeds x 5 cycles
        assert len(lines) == 2 + 30

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
