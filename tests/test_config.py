"""Config loading tests."""

import configparser
from dataclasses import fields, replace

import pytest

from centiwalk.config import (
    ConfigError,
    ExperimentSpec,
    FullConfig,
    _read_ini,
    _seeds,
    default_config_path,
    load_config,
)
from centiwalk.control import ControllerConfig
from centiwalk.gait import GaitConfig
from centiwalk.kinematics import RobotGeometry

DEFAULTS = FullConfig(GaitConfig(), RobotGeometry(), ControllerConfig(),
                      ExperimentSpec())
# (section, key) of every config key, in field order
KEYS = [(section.name, f.name) for section in fields(FullConfig)
        for f in fields(getattr(DEFAULTS, section.name))]

# A non-default value of every config key: the INI text and the value it
# must load as, type included
VALUES = {
    ("gait", "n_pairs"): ("4", 4),
    ("gait", "xi"): ("1.5", 1.5),
    ("gait", "duty"): ("0.6", 0.6),
    ("gait", "theta_leg_amp"): ("20", 20.0),
    ("gait", "theta_body_amp"): ("25.5", 25.5),
    ("gait", "a_v"): ("12", 12.0),
    ("gait", "phase_offset"): ("-2", -2.0),
    ("geometry", "h_l"): ("6", 6.0),
    ("geometry", "h_l2"): ("3.5", 3.5),
    ("geometry", "d_l"): ("8", 8.0),
    ("geometry", "module_length"): ("12", 12.0),
    ("geometry", "leg_length"): ("11", 11.0),
    ("controller", "k_p"): ("45", 45.0),
    ("controller", "gamma_set"): ("0.8", 0.8),
    ("controller", "av_min"): ("5", 5.0),
    ("controller", "av_max"): ("20", 20.0),
    ("controller", "fixed_av"): ("7.5", 7.5),
    ("experiment", "terrains"): ("0.1, rough.txt 0.3", ["0.1", "rough.txt",
                                                        "0.3"]),
    ("experiment", "a_v_grid"): ("0, 7 15", [0.0, 7.0, 15.0]),
    ("experiment", "seeds"): ("0..2, 9", [0, 1, 2, 9]),
    ("experiment", "cycles"): ("8", 8),
    ("experiment", "steps"): ("48", 48),
    ("experiment", "tolerance"): ("0.1", 0.1),
    ("experiment", "sensor_flip_prob"): ("0.05", 0.05),
    ("experiment", "terrain_rows"): ("30", 30),
    ("experiment", "terrain_cols"): ("3", 3),
}


class TestDefaults:
    def test_default_config_loads(self):
        fc = load_config()
        assert fc.gait.n_pairs == 6
        assert fc.geometry.h_l == 7.0
        assert fc.controller.gamma_set == 0.9
        assert fc.experiment.seeds == list(range(20))

    def test_default_config_file_exists(self):
        assert default_config_path().is_file()

    def test_shipped_file_matches_dataclass_defaults(self):
        # data/default.cfg lists every default a second time, for readers
        assert load_config() == DEFAULTS


class TestEveryKey:
    @pytest.mark.parametrize("section, key", KEYS)
    def test_value_reaches_its_field_with_its_type(self, tmp_path, section,
                                                   key):
        text, expected = VALUES[section, key]
        assert expected != getattr(getattr(DEFAULTS, section), key)
        p = tmp_path / "c.cfg"
        p.write_text(f"[meta]\nschema_version = 1\n[{section}]\n"
                     f"{key} = {text}\n")
        fc = load_config(str(p))
        value = getattr(getattr(fc, section), key)
        assert value == expected
        assert type(value) is type(expected)
        if isinstance(value, list):
            assert list(map(type, value)) == list(map(type, expected))
        # every other field keeps its default
        assert fc == replace(DEFAULTS, **{section: replace(
            getattr(DEFAULTS, section), **{key: expected})})

    def test_values_name_every_key_once(self):
        assert sorted(VALUES) == sorted(KEYS) and len(KEYS) == 26


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

    @pytest.mark.parametrize("text, line", [
        ("[meta]\nschema_version = 1\n[gait\nduty = 0.5\n", "3: '[gait'"),
        ("duty = 0.5\n[meta]\nschema_version = 1\n", "1: 'duty = 0.5'"),
    ], ids=["unclosed-section", "key-before-section"])
    def test_unreadable_line_named_on_one_line(self, tmp_path, text, line):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(str(p))
        assert str(info.value).startswith(f"{p}: line {line} ")
        assert "\n" not in str(info.value)

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

    @pytest.mark.parametrize("field, value", [
        ("cycles", 2.5), ("steps", 8.0), ("seeds", [0, 0.5]),
        ("terrain_rows", 3.5), ("terrain_cols", 2.5), ("cycles", "3"),
    ])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        # each count field is an integer, checked when the spec is built
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            ExperimentSpec(**{field: value})


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

    def test_default_section_fills_only_present_sections(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[meta]\nschema_version = 1\n"
                     "[DEFAULT]\nn_pairs = 3\ncycles = 5\n[gait]\n")
        fc = load_config(str(p))
        assert fc.gait.n_pairs == 3
        assert fc.experiment.cycles == 10          # no [experiment] section

    def test_percent_is_literal(self, tmp_path):
        # values are not interpolated, so a '%' is an ordinary character
        p = tmp_path / "c.cfg"
        p.write_text("[meta]\nschema_version = 1\n"
                     "[experiment]\nterrains = 0.1, rough%1.txt, %(x)s\n")
        assert load_config(str(p)).experiment.terrains == [
            "0.1", "rough%1.txt", "%(x)s"]


def _reference(text):
    """configparser's reading of text, set up as the package's reader once
    was: the oracle that reader must agree with."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


# INI texts of every accepted construct, by name
READABLE = {
    "inline-comments": "[gait]\nduty = 0.5 # after a space\n"
                       "xi = 1.0\t; after a tab\nn_pairs = 4#kept\n"
                       "a_v = 3;kept\n  # indented comment\n; comment\n",
    "colon-delimiter": "[gait]\nduty: 0.5\nxi :2\n",
    "upper-case-key": "[gait]\nN_PAIRS = 4\n",
    "multi-line-value": "[experiment]\nseeds = 0..3,\n    7, 9\n\n    11\n"
                        "  # not part of the value\n\ncycles = 2\n\n",
    "default-section": "[DEFAULT]\nn_pairs = 3\ncycles = 5\n[gait]\n"
                       "xi = 2\n[geometry]\nn_pairs = 4\n",
    "percent": "[experiment]\nterrains = %(x)s, rough%1.txt, 100%\n",
    "empty-value": "[gait]\nduty =\nxi:\n",
    "indented-lines": "  [gait]\n  duty = 0.5\n  xi = 1\n",
    "bracketed-value": "[gait]\nname = [x] ; c\n",
    "header-comment": "[gait] # c\nduty = 0.5\n",
    "shipped-default": default_config_path().read_text(),
}


class TestReader:
    @pytest.mark.parametrize("text", READABLE.values(), ids=READABLE)
    def test_reads_as_configparser_does(self, text):
        assert _read_ini(text, "c.cfg") == _reference(text)

    @pytest.mark.parametrize("text, line", [
        ("[meta]\nschema_version = 1\n[gait]\n[gait]\n", "4: '[gait]'"),
        ("[meta]\nschema_version = 1\nSchema_Version = 1\n",
         "3: 'Schema_Version = 1'"),
        ("duty = 0.5\n[meta]\nschema_version = 1\n", "1: 'duty = 0.5'"),
        ("[meta]\nschema_version = 1\n[gait\nduty = 0.5\n", "3: '[gait'"),
        ("[meta]\nschema_version = 1\nduty\n", "3: 'duty'"),
    ], ids=["duplicate-section", "duplicate-key", "key-before-section",
            "unclosed-section", "no-delimiter"])
    def test_rejects_what_configparser_rejects(self, tmp_path, text, line):
        with pytest.raises(configparser.Error):
            _reference(text)
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(str(p))
        assert str(info.value).startswith(f"{p}: line {line} ")
        assert "\n" not in str(info.value)
