"""Config file loading.

One human-editable INI file carries the gait, geometry, controller and
experiment settings.  The [meta] section must declare schema_version = 1.
Each other section is built from its dataclass's fields: a field's name is
its key and its declared type picks the value's parser.  An omitted key
takes the field's default, and a key that names no field is ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import List, Optional, get_type_hints

from .control import ControllerConfig
from .gait import GaitConfig
from .kinematics import RobotGeometry

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or missing configuration."""


@dataclass
class ExperimentSpec:
    """One batch experiment: terrain list, amplitude grid, seeds, sizes."""

    terrains: List[str] = field(default_factory=lambda: ["0.0", "0.17", "0.32"])
    a_v_grid: List[float] = field(default_factory=lambda: [0.0, 10.0, 20.0])
    seeds: List[int] = field(default_factory=lambda: list(range(20)))
    cycles: int = 10
    steps: int = 72
    tolerance: float = 0.05
    sensor_flip_prob: float = 0.0
    terrain_rows: int = 40
    terrain_cols: int = 5

    def __post_init__(self):
        if not self.seeds or not self.terrains:
            raise ConfigError("seeds and terrains must be non-empty")
        # a seed seeds numpy's generators, which take no negative value
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {self.cycles}")
        # even, so that the right legs' half-cycle offset falls on a sample
        if self.steps < 4 or self.steps % 2:
            raise ConfigError(f"steps must be an even number >= 4, got {self.steps}")
        if not self.tolerance >= 0.0:      # NaN fails this test too
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if not (self.a_v_grid and all(math.isfinite(a) and a >= 0.0
                                      for a in self.a_v_grid)):
            raise ConfigError(f"a_v_grid must be non-empty, finite and >= 0, "
                              f"got {self.a_v_grid}")
        if not 0.0 <= self.sensor_flip_prob < 1.0:
            raise ConfigError(f"sensor_flip_prob must be in [0, 1), got "
                              f"{self.sensor_flip_prob}")
        if self.terrain_rows < 2 or self.terrain_cols < 1:
            raise ConfigError(f"need terrain_rows >= 2 and terrain_cols >= 1, "
                              f"got {self.terrain_rows} and {self.terrain_cols}")


@dataclass
class FullConfig:
    gait: GaitConfig
    geometry: RobotGeometry
    controller: ControllerConfig
    experiment: ExperimentSpec


def default_config_path() -> Path:
    return Path(str(resources.files("centiwalk").joinpath("data/default.cfg")))


def _words(text: str) -> List[str]:
    return text.replace(",", " ").split()


def _floats(text: str) -> List[float]:
    return [float(x) for x in _words(text)]


def _seeds(text: str) -> List[int]:
    """Seed list: comma/space separated integers, or 'a..b' inclusive ranges."""
    out: List[int] = []
    for tok in _words(text):
        if ".." in tok:
            lo, hi = tok.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(tok))
    return out


# The INI value parser of each field type, as the dataclasses declare it
_PARSERS = {"int": int, "float": float, "Optional[float]": float,
            "List[int]": _seeds, "List[float]": _floats, "List[str]": _words}

# Each config section's dataclass, by section name
_SECTIONS = get_type_hints(FullConfig)


def load_config(path: Optional[str] = None) -> FullConfig:
    """Load a full configuration; an omitted key takes its dataclass
    default."""
    cfg_path = Path(path) if path is not None else default_config_path()
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {cfg_path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        text = cfg_path.read_text()
        parser.read_string(text, source=str(cfg_path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    except configparser.ParsingError as exc:
        # one line naming the first line the parser could not read
        n = getattr(exc, "lineno", None) or exc.errors[0][0]
        line = text.split("\n")[n - 1].strip()
        why = ("comes before any [section] header"
               if isinstance(exc, configparser.MissingSectionHeaderError)
               else "is neither a [section] header nor a key = value line")
        raise ConfigError(f"{cfg_path}: line {n}: {line!r} {why}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {cfg_path}: {exc}") from exc
    try:
        version = parser.getint("meta", "schema_version", fallback=None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"{cfg_path}: schema_version must be "
                              f"{SCHEMA_VERSION}, got {version}")
        sections = {}
        for name, cls in _SECTIONS.items():
            given = parser[name] if parser.has_section(name) else {}
            sections[name] = cls(**{f.name: _PARSERS[f.type](given[f.name])
                                    for f in fields(cls) if f.name in given})
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    return FullConfig(**sections)
