"""Config file loading.

One human-editable INI file carries the gait, geometry, controller and
experiment settings.  The [meta] section must declare schema_version = 1;
every other key falls back to the shipped default when omitted, and a key
no command reads is ignored.  See data/default.cfg for the documented
schema.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import List, Optional

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


def _floats(text: str) -> List[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _seeds(text: str) -> List[int]:
    """Seed list: comma/space separated integers, or 'a..b' inclusive ranges."""
    out: List[int] = []
    for tok in text.replace(",", " ").split():
        if ".." in tok:
            lo, hi = tok.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(tok))
    return out


def load_config(path: Optional[str] = None) -> FullConfig:
    """Load a full configuration, falling back to the shipped defaults."""
    cfg_path = Path(path) if path is not None else default_config_path()
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {cfg_path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(cfg_path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {cfg_path}: {exc}") from exc
    version = parser.getint("meta", "schema_version", fallback=None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{cfg_path}: schema_version must be {SCHEMA_VERSION}, got {version}"
        )

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    g = section("gait")
    try:
        gait = GaitConfig(
            n_pairs=int(g.get("n_pairs", 6)),
            xi=float(g.get("xi", 1.0)),
            duty=float(g.get("duty", 0.5)),
            theta_leg_amp=float(g.get("theta_leg_amp", 30.0)),
            theta_body_amp=float(g.get("theta_body_amp", 30.0)),
            a_v=float(g.get("a_v", 0.0)),
            phase_offset=(float(g["phase_offset"]) if "phase_offset" in g else None),
        )
        geo = section("geometry")
        geometry = RobotGeometry(
            h_l=float(geo.get("h_l", 7.0)),
            h_l2=float(geo.get("h_l2", 4.0)),
            d_l=float(geo.get("d_l", 9.0)),
            module_length=float(geo.get("module_length", 10.0)),
            leg_length=float(geo.get("leg_length", 10.0)),
        )
        c = section("controller")
        controller = ControllerConfig(
            k_p=float(c.get("k_p", 60.0)),
            gamma_set=float(c.get("gamma_set", 0.9)),
            av_min=float(c.get("av_min", 0.0)),
            av_max=float(c.get("av_max", 25.0)),
            fixed_av=float(c.get("fixed_av", 0.0)),
        )
        e = section("experiment")
        experiment = ExperimentSpec(
            terrains=(e.get("terrains", "0.0, 0.17, 0.32").replace(",", " ").split()),
            a_v_grid=_floats(e.get("a_v_grid", "0, 10, 20")),
            seeds=_seeds(e.get("seeds", "0..19")),
            cycles=int(e.get("cycles", 10)),
            steps=int(e.get("steps", 72)),
            tolerance=float(e.get("tolerance", 0.05)),
            sensor_flip_prob=float(e.get("sensor_flip_prob", 0.0)),
            terrain_rows=int(e.get("terrain_rows", 40)),
            terrain_cols=int(e.get("terrain_cols", 5)),
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    return FullConfig(gait=gait, geometry=geometry, controller=controller,
                      experiment=experiment)
