"""Config file loading.

One human-editable INI file carries the gait, geometry, controller and
experiment settings.  The [meta] section must declare schema_version = 1.
Each other section is built from its dataclass's fields: a field's name is
its key and its declared type picks the value's parser.  An omitted key
takes the field's default, and a key that names no field is ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, get_type_hints

from .control import ControllerConfig
from .gait import GaitConfig, checked_count
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
        for seed in self.seeds:
            checked_count(seed, "seeds", 0, ConfigError)
        for name, low in (("cycles", 1), ("steps", 4), ("terrain_rows", 2),
                          ("terrain_cols", 1)):
            checked_count(getattr(self, name), name, low, ConfigError)
        # even, so that the right legs' half-cycle offset falls on a sample
        if self.steps % 2:
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


# A comment starts at a '#' or ';' that opens its line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)[#;]")
_HEADER = re.compile(r"\[(.+)\]")
_OPTION = re.compile(r"([^=:]+?)\s*[=:]\s*(.*)")


def _read_ini(text: str) -> Dict[str, Dict[str, str]]:
    """The INI text as {section: {key: value}}, [DEFAULT]'s keys filling each
    section present; README's Configuration lists the syntax it accepts,
    and a ValueError names the first line it does not."""
    read: Dict[str, Dict[str, List[str]]] = {}
    keys, key, indent = None, None, 0
    for n, raw in enumerate(text.split("\n"), 1):
        comment = _COMMENT.search(raw) if "#" in raw or ";" in raw else None
        line = raw[:comment.start() if comment else None].strip()
        at = len(raw) - len(raw.lstrip())
        if not line or (key is not None and at > indent):
            # deeper-indented and blank lines go on with a value, comments not
            if key is not None and (line or comment is None):
                keys[key].append(line)
            continue
        indent, why = at, None
        header = _HEADER.match(line) if line[0] == "[" else None
        if header:
            name, key = header.group(1), None
            if name in read and name != "DEFAULT":
                why = f"repeats the section [{name}]"
            keys = read.setdefault(name, {})
        elif keys is None:
            why = "comes before any [section] header"
        elif (option := _OPTION.match(line)) is None:
            why = "is neither a [section] header nor a key = value line"
        else:
            key = option.group(1).lower()
            why = f"repeats the key {key} of [{name}]" if key in keys else None
            keys[key] = [option.group(2)]
        if why:
            raise ValueError(f"line {n}: {raw.strip()!r} {why}")
    defaults = read.pop("DEFAULT", {})
    return {name: {k: "\n".join(v).rstrip()
                   for k, v in {**defaults, **keys}.items()}
            for name, keys in read.items()}


def load_config(path: Optional[str] = None) -> FullConfig:
    """Load a full configuration; an omitted key takes its dataclass
    default.  Every error in the file is a ConfigError that names it."""
    cfg_path = Path(path) if path is not None else default_config_path()
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {cfg_path}")
    try:
        ini = _read_ini(cfg_path.read_text())
        meta = ini.get("meta", {})
        version = (int(meta["schema_version"]) if "schema_version" in meta
                   else None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version must be {SCHEMA_VERSION}, "
                             f"got {version}")
        sections = {}
        for name, cls in _SECTIONS.items():
            given = ini.get(name, {})
            sections[name] = cls(**{f.name: _PARSERS[f.type](given[f.name])
                                    for f in fields(cls) if f.name in given})
    except ValueError as exc:       # ConfigError and UnicodeDecodeError too
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    return FullConfig(**sections)
