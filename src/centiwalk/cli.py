"""Batch experiment runner.

Subcommands: gait-dump, terrain-gen, model-sweep, validate, walk,
controller-compare.  Every output CSV starts with a comment line recording
the tool version and a hash of the configuration with the command-line
overrides applied; the same config and seeds give byte-identical output.

Exit codes: 0 success, 1 usage/config error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import ConfigError, FullConfig, load_config, _seeds
from .contact_sim import (
    SensorModel,
    WalkOffTerrainError,
    ideal_contact_map,
    simulate_walk,
    simulate_walks,
)
from .control import ARMS, compare_controllers
from .gait import NoStanceError, joint_angles
from .kinematics import NoSlipError, flat_ground_stride, slip_distribution
from .models import predict_gamma, predict_speed_band
from .terrain import (
    HeightDeltaModel,
    TerrainGrid,
    generate_terrain,
    generate_terrains,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _stamp(fc: FullConfig) -> str:
    # each section's own field dict, not a deep copy, gives the same JSON
    text = json.dumps({f.name: vars(getattr(fc, f.name)) for f in fields(fc)},
                      sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"# centiwalk v{__version__} config_hash={digest}\n"


def _write_csv(path: Path, stamp: str, header: str,
               lines: Iterable[str]) -> None:
    """Write a CSV: the config stamp line, the header row, then the rows."""
    with open(path, "w") as fh:
        fh.write(stamp)
        fh.writelines(line + "\n" for line in [header, *lines])


def _leg_names(n: int) -> List[str]:
    return [f"leg_{side}{i}" for side in "lr" for i in range(1, n + 1)]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _with_overrides(fc: FullConfig, args) -> FullConfig:
    """The config with the command-line experiment overrides applied; an
    explicit value, zero included, always wins over the config."""
    overrides = {name: getattr(args, name)
                 for name in ("seeds", "cycles", "steps", "tolerance")
                 if getattr(args, name) is not None}
    try:
        return replace(fc, experiment=replace(fc.experiment, **overrides))
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


class TerrainEntry:
    """One terrain in an experiment: a rugosity level or a terrain file,
    whose blocks must be one module long (to the file's 6 decimals), as a
    walk places one block per module."""

    def __init__(self, token: str, module_length: float):
        self.token = token
        try:
            self.r_g: Optional[float] = float(token)
        except ValueError:
            self.r_g = None
        if self.r_g is not None:
            if not math.isfinite(self.r_g) or self.r_g < 0.0:
                raise ConfigError(f"rugosity must be finite and >= 0, got "
                                  f"{self.r_g:g}")
            self.grid: Optional[TerrainGrid] = None
            self.label = f"rg={self.r_g:g}"
            return
        path = Path(token)
        if not path.is_file():
            raise ConfigError(f"terrain file not found: {token}")
        try:
            self.grid = TerrainGrid.load(path)
        except ValueError as exc:
            raise ConfigError(f"{token}: {exc}") from exc
        if len(self.grid.heights) < 2:
            raise ConfigError(f"{token}: a terrain file needs at least 2 rows")
        if abs(self.grid.block_size - module_length) > 5e-7:
            raise ConfigError(f"{token}: block_size {self.grid.block_size:g} "
                              f"is not geometry.module_length {module_length:g}")
        self.label = path.stem

    def model(self) -> HeightDeltaModel:
        if self.grid is not None:
            return HeightDeltaModel.from_samples(self.grid.longitudinal_deltas())
        return HeightDeltaModel.from_rugosity(self.r_g)


def _entries(fc: FullConfig) -> List[TerrainEntry]:
    """The experiment's terrain entries; two entries may not share a label,
    which names each one's rows and output files."""
    entries = {}
    for token in fc.experiment.terrains:
        entry = TerrainEntry(token, fc.geometry.module_length)
        if entry.label in entries:
            raise ConfigError(f"terrains {entries[entry.label].token!r} and "
                              f"{token!r} share the label {entry.label}")
        entries[entry.label] = entry
    return list(entries.values())


def _levels(fc: FullConfig, levels: List[float]) -> np.ndarray:
    """The (levels, seeds, rows, cols) heights of a walk's generated levels,
    cycles + n_pairs rows: the rows a walk of the experiment's cycles reads."""
    exp = fc.experiment
    try:
        return generate_terrains(levels, exp.cycles + fc.gait.n_pairs,
                                 exp.terrain_cols, exp.seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _walk_entries(fc: FullConfig, entries: List[TerrainEntry], a_v: list,
                  sensor: SensorModel) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per entry, its (seeds, rows, cols) heights and its walks' true
    contact ratios at each a_v, shape (seeds, amplitudes, cycles).  The
    levels walk in one call at the first level's place, reshaped without a
    copy to (levels x seeds, rows, cols), and each level's ratios are a view
    of that call's; rows walk independently, so each entry's numbers and
    errors are its own call's.  Files walk one by one."""
    exp = fc.experiment
    generated = _levels(fc, [e.r_g for e in entries if e.grid is None])

    def walk(heights, seeds):
        return heights, simulate_walks(fc.gait, fc.geometry, heights, seeds,
                                       a_v, exp.cycles, exp.steps,
                                       sensor).gamma

    def level_walks():
        _, gamma = walk(generated.reshape((-1,) + generated.shape[2:]),
                        exp.seeds * len(generated))
        yield from zip(generated,
                       gamma.reshape(generated.shape[:2] + gamma.shape[1:]))

    level = level_walks()
    return [next(level) if e.grid is None else walk(np.broadcast_to(
        e.grid.heights, (len(exp.seeds),) + e.grid.heights.shape), exp.seeds)
        for e in entries]


def cmd_gait_dump(fc: FullConfig, args) -> int:
    steps = fc.experiment.steps
    out = _out_dir(args)
    n = fc.gait.n_pairs
    legs = _leg_names(n)
    stamp = _stamp(fc)
    bits = ideal_contact_map(fc.gait, steps)
    _write_csv(out / "contact_map.csv", stamp, "step," + ",".join(legs),
               (f"{k}," + ",".join(map(str, col))
                for k, col in enumerate(bits.T.tolist())))
    cols = legs + [f"body_{wave}{i}" for wave in ("yaw", "pitch")
                   for i in range(1, n + 1)]
    angles = joint_angles(fc.gait, steps)
    _write_csv(out / "joint_angles.csv", stamp,
               "step," + ",".join(f"{c}_deg" for c in cols),
               (f"{k}," + ",".join(f"{v:.6f}" for v in col)
                for k, col in enumerate(angles.T.tolist())))
    print(f"wrote {out / 'contact_map.csv'} and {out / 'joint_angles.csv'}")
    return 0


def cmd_terrain_gen(fc: FullConfig, args) -> int:
    exp = fc.experiment
    seed = exp.seeds[0]
    try:
        grid = generate_terrain(args.r_g, exp.terrain_rows, exp.terrain_cols,
                                seed, fc.geometry.module_length)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    path = _out_dir(args) / f"terrain_rg{args.r_g:g}_seed{seed}.txt"
    grid.save(path)
    print(f"wrote {path}")
    return 0


def cmd_model_sweep(fc: FullConfig, args) -> int:
    entries = _entries(fc)
    out = _out_dir(args)
    steps, grid = fc.experiment.steps, fc.experiment.a_v_grid
    dist = slip_distribution(fc.gait, fc.geometry, steps)
    outs = [predict_gamma(fc.geometry, fc.gait, entry.model(), steps, grid)
            for entry in entries]
    # the band is elementwise in gamma: one call for every entry's gammas
    band = predict_speed_band(dist, np.array([o.gamma for o in outs]))
    lines = []
    for entry, o, v_min, v_max in zip(entries, outs, band.v_ratio_min.tolist(),
                                      band.v_ratio_max.tolist()):
        columns = (o.p_loss1, o.p_loss2, o.gamma, o.gamma_ideal, o.p_e)
        for a_v, *row in zip(grid, *(c.tolist() for c in columns), v_min,
                             v_max):
            lines.append(f"{entry.label},{a_v:g},"
                         + ",".join(f"{x:.6f}" for x in row))
    path = out / "model_sweep.csv"
    _write_csv(path, _stamp(fc), "terrain,a_v_deg,p_loss1,p_loss2,gamma,"
               "gamma_ideal,p_e,v_min,v_max", lines)
    print(f"wrote {path}")
    return 0


def cmd_validate(fc: FullConfig, args) -> int:
    exp = fc.experiment
    entries = _entries(fc)
    out = _out_dir(args)
    sensor = SensorModel(flip_prob=0.0)
    grid = exp.a_v_grid
    lines = []
    for entry, (_, gamma) in zip(entries,
                                 _walk_entries(fc, entries, grid, sensor)):
        gammas = predict_gamma(fc.geometry, fc.gait, entry.model(), exp.steps,
                               grid).gamma.tolist()
        # per amplitude: the mean over seeds of each seed's mean over cycles
        sims = gamma.mean(axis=-1).mean(axis=0).tolist()
        for a_v, predicted, simulated in zip(grid, gammas, sims):
            dev = abs(simulated - predicted)
            status = "pass" if dev <= exp.tolerance else "FAIL"
            lines.append((entry.label, a_v, predicted, simulated, dev, status))
    path = out / "validation.csv"
    _write_csv(path, _stamp(fc), "terrain,a_v_deg,gamma_predicted,"
               "gamma_simulated,deviation,status",
               (f"{label},{a_v:g},{pred:.6f},{sim:.6f},{dev:.6f},{status}"
                for label, a_v, pred, sim, dev, status in lines))
    for label, a_v, pred, sim, dev, status in lines:
        print(f"{status}: {label} a_v={a_v:g} predicted={pred:.4f} "
              f"simulated={sim:.4f} dev={dev:.4f}")
    print(f"max deviation {max(line[4] for line in lines):.4f} "
          f"(tolerance {exp.tolerance:g}); wrote {path}")
    return 2 if any(line[-1] == "FAIL" for line in lines) else 0


def cmd_walk(fc: FullConfig, args) -> int:
    exp = fc.experiment
    entries = _entries(fc)
    out = _out_dir(args)
    sensor = SensorModel(flip_prob=exp.sensor_flip_prob)
    # every walk, each entry's first-seed map among them, runs before
    # anything is written, so a failed walk leaves no partial output
    walked = _walk_entries(fc, entries, [fc.gait.a_v], sensor)
    # a file walks on its own grid, a level on its first seed's heights
    maps = [simulate_walk(fc.gait, fc.geometry, entry.grid or TerrainGrid(
                fc.geometry.module_length, heights[0], entry.r_g,
                exp.seeds[0]), exp.cycles, exp.steps, sensor,
                exp.seeds[0]).measured.bits.T
            for entry, (heights, _) in zip(entries, walked)]
    # the band is elementwise in gamma: one call for every entry's gammas
    gammas = np.array([gamma[:, 0] for _, gamma in walked])
    speeds = predict_speed_band(
        slip_distribution(fc.gait, fc.geometry, exp.steps), gammas).v_ratio_mid
    stamp = _stamp(fc)
    path = out / "walk.csv"
    _write_csv(path, stamp, "seed,terrain,a_v_deg,cycle,gamma,v_ratio",
               (f"{seed},{entry.label},{fc.gait.a_v:g},{c},{g:.6f},{v:.6f}"
                for entry, entry_gammas, entry_speeds in zip(
                    entries, gammas.tolist(), speeds.tolist())
                for seed, seed_gammas, seed_speeds in zip(
                    exp.seeds, entry_gammas, entry_speeds)
                for c, (g, v) in enumerate(zip(seed_gammas, seed_speeds))))
    legs = ",".join(_leg_names(fc.gait.n_pairs))
    for entry, samples in zip(entries, maps):
        _write_csv(out / f"contact_{entry.label}.csv", stamp,
                   "cycle,step," + legs,
                   (f"{i // exp.steps},{i % exp.steps},"
                    + ",".join(map(str, col))
                    for i, col in enumerate(samples.tolist())))
    print(f"wrote {path}")
    return 0


def cmd_controller_compare(fc: FullConfig, args) -> int:
    exp = fc.experiment
    levels = [e for e in _entries(fc) if e.r_g is not None]
    if not levels:
        raise ConfigError("controller-compare needs at least one rugosity "
                          "value in terrains")
    out = _out_dir(args)
    rough = max(levels, key=lambda e: e.r_g)
    walks = compare_controllers(fc.gait, fc.geometry, fc.controller,
                                _levels(fc, [rough.r_g])[0],
                                exp.seeds, exp.cycles, exp.steps,
                                exp.sensor_flip_prob)
    stride = flat_ground_stride(fc.gait, fc.geometry)
    stamp = _stamp(fc)
    dist = slip_distribution(fc.gait, fc.geometry, exp.steps)
    speeds = predict_speed_band(dist, walks.gamma).v_ratio_mid
    displacements = stride * speeds
    # per seed and arm, over the cycles: mean speed ratio, its variance and
    # the distance walked
    mean_speeds = speeds.mean(axis=-1)
    variances = speeds.var(axis=-1)
    distances = displacements.sum(axis=-1)
    summary = []
    for j, name in enumerate(ARMS):
        summary.append(f"{name},{mean_speeds[:, j].mean():.6f},"
                       f"{variances[:, j].mean():.6f},"
                       f"{distances[:, j].mean():.6f}")
        # the first seed's walk
        gamma_s = walks.gamma_measured[0, j]
        rows = zip(gamma_s.tolist(), walks.a_v[0, j].tolist(),
                   speeds[0, j].tolist(), displacements[0, j].tolist())
        _write_csv(out / f"trace_{name}.csv", stamp,
                   "cycle,gamma_s,a_v_deg,v_ratio,displacement_cm",
                   [f"{c},{g:.6f},{a:.6f},{v:.6f},{d:.6f}"
                    for c, (g, a, v, d) in enumerate(rows)]
                   + [f"summary,{gamma_s.mean():.6f},,"
                      f"{mean_speeds[0, j]:.6f},{distances[0, j]:.6f}"])
    path = out / "controller_summary.csv"
    _write_csv(path, stamp,
               "scenario,mean_speed_ratio,speed_variance,mean_distance_cm",
               summary)
    print(f"wrote {path}")
    return 0


# built once, at import: every main call in a process parses with it, and a
# parse leaves it as it was
_PARSER = _Parser(prog="centiwalk",
                  description="Multi-legged locomotion experiment runner")
_PARSER.add_argument("--config", default=None, help="config file path")
_PARSER.add_argument("--out", default="out", help="output directory")
_PARSER.add_argument("--seeds", type=_seeds, default=None,
                     help="seed list, e.g. '0..19' or '1,2,3'")
_PARSER.add_argument("--cycles", type=int, default=None)
_PARSER.add_argument("--steps", type=int, default=None)
_PARSER.add_argument("--tolerance", type=float, default=None)
_sub = _PARSER.add_subparsers(dest="command", required=True)
_sub.add_parser("gait-dump", help="dump ideal contact map and joint angles"
                ).set_defaults(run=cmd_gait_dump)
_terrain_gen = _sub.add_parser("terrain-gen", help="generate a terrain file")
_terrain_gen.add_argument("--r-g", type=float, required=True, dest="r_g")
_terrain_gen.set_defaults(run=cmd_terrain_gen)
_sub.add_parser("model-sweep", help="evaluate the analytic models on a grid"
                ).set_defaults(run=cmd_model_sweep)
_sub.add_parser("validate", help="analytic vs Monte Carlo gamma agreement"
                ).set_defaults(run=cmd_validate)
_sub.add_parser("walk", help="Monte Carlo walks, per-cycle gamma and speed"
                ).set_defaults(run=cmd_walk)
_sub.add_parser("controller-compare",
                help="open-loop vs feedback controller comparison"
                ).set_defaults(run=cmd_controller_compare)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        fc = _with_overrides(load_config(args.config), args)
        return args.run(fc, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, NoStanceError, NoSlipError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (WalkOffTerrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
