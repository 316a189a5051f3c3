"""Config loading tests."""

import pytest

from centiwalk.config import (
    ConfigError,
    ExperimentSpec,
    _seeds,
    default_config_path,
    load_config,
)


class TestDefaults:
    def test_default_config_loads(self):
        fc = load_config()
        assert fc.gait.n_pairs == 6
        assert fc.geometry.h_l == 7.0
        assert fc.controller.gamma_set == 0.9
        assert fc.experiment.seeds == list(range(20))

    def test_default_config_file_exists(self):
        assert default_config_path().is_file()


class TestSeedsParser:
    def test_range(self):
        assert _seeds("0..3") == [0, 1, 2, 3]

    def test_list(self):
        assert _seeds("1, 5 9") == [1, 5, 9]

    def test_mixed(self):
        assert _seeds("0..2, 10") == [0, 1, 2, 10]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _seeds("a..b")


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_missing_schema_version(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[gait]\nn_pairs = 6\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[meta]\nschema_version = 99\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[meta]\nschema_version = 1\n[gait]\nduty = lots\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_invalid_gait_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[meta]\nschema_version = 1\n[gait]\nduty = 1.5\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(seeds=[])

    @pytest.mark.parametrize("kwargs", [
        dict(a_v_grid=[0.0, -5.0]), dict(a_v_grid=[float("nan")]),
        dict(a_v_grid=[float("inf")]), dict(sensor_flip_prob=1.0),
        dict(sensor_flip_prob=-0.1), dict(sensor_flip_prob=float("nan")),
        dict(terrain_rows=1), dict(terrain_cols=0), dict(terrains=[]),
    ])
    def test_rejects_out_of_range_experiment(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentSpec(**kwargs)


class TestOverrides:
    def test_partial_config_fills_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "[meta]\nschema_version = 1\n"
            "[gait]\nn_pairs = 4\n"
            "[experiment]\nseeds = 0..4\ncycles = 7\n"
        )
        fc = load_config(str(p))
        assert fc.gait.n_pairs == 4
        assert fc.gait.duty == 0.5                 # default preserved
        assert fc.experiment.seeds == [0, 1, 2, 3, 4]
        assert fc.experiment.cycles == 7
        assert fc.geometry.h_l == 7.0
