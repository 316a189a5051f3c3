"""Program inputs for each benchmark workload, generated from a workload seed.

Everything here is a pure function of (workload, seed) built with the
standard library only: the same seed gives byte-identical files on any
machine and at any commit of the program, so two commits are always
measured on the same inputs.  The program sees only the written files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

CONFIG_NAME = "workload.cfg"

# The shipped defaults, written out in full so that a later change to
# data/default.cfg does not change what the benchmark measures.
GAIT = {"n_pairs": "6", "xi": "1.0", "duty": "0.5", "theta_leg_amp": "30.0",
        "theta_body_amp": "30.0", "a_v": "0.0"}
GEOMETRY = {"h_l": "7.0", "h_l2": "4.0", "d_l": "9.0", "module_length": "10.0",
            "leg_length": "10.0", "mu": "0.3", "f_w": "1.0", "v_open": "1.0",
            "c_fv": "1.0"}
CONTROLLER = {"k_p": "60.0", "gamma_set": "0.9", "av_min": "0.0",
              "av_max": "25.0", "update_every": "1", "mode": "feedback",
              "fixed_av": "0.0"}

RUGOSITY_LEVELS = ["0.0", "0.17", "0.32"]
DEFAULT_AV_GRID = ["0", "10", "20"]
FINE_AV_GRID = [str(a) for a in range(0, 25, 6)]   # 0..24 degrees, step 6
TERRAIN_COLS = 5
STEPS = 72

# Per-workload sizes, chosen so that one program run takes about 0.15 s at
# the seed commit: a 20 s run of the benchmark then holds over a hundred
# program runs, enough for a fixed 90th percentile.  At two seeds Monte
# Carlo noise takes some validate cells past the 0.05 tolerance, which
# validate reports by exiting 2.
VALIDATE_SEEDS, VALIDATE_CYCLES = 2, 6
CONTROLLER_SEEDS, CONTROLLER_CYCLES, CONTROLLER_FLIP = 1, 20, "0.05"
SWEEP_FILES = (("0.25", 30),)                      # (rugosity, rows)
SENSOR_SEEDS, SENSOR_CYCLES, SENSOR_RG, SENSOR_AV = 3, 40, "0.32", "10.0"
SENSOR_FLIP = "0.05"

WORKLOADS = ("validate_grid", "controller_feedback", "model_sweep_fine",
             "sensor_walk")


@dataclass(frozen=True)
class WorkloadInputs:
    """The files one workload run hands to the program."""

    workload: str
    seed: int
    files: Dict[str, str] = field(default_factory=dict)

    @property
    def config_text(self) -> str:
        return self.files[CONFIG_NAME]

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.config_text.encode()).hexdigest()

    @property
    def sha256(self) -> str:
        """Digest over every file name and content."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text)


def terrain_text(r_g: str, rows: int, cols: int, rng: random.Random,
                 label: int) -> str:
    """A terrain file in the program's v1 format: per-column Gaussian random
    walks with increments of standard deviation 15 * r_g cm."""
    sigma = 15.0 * float(r_g)
    heights = [[0.0] * cols]
    for _ in range(rows - 1):
        heights.append([h + rng.gauss(0.0, sigma) for h in heights[-1]])
    lines = ["# terrain v1", "# block_size=10.000000",
             f"# r_g={float(r_g):.6f}", f"# seed={label}",
             f"# rows={rows} cols={cols}"]
    lines += [",".join(f"{h:.6f}" for h in row) for row in heights]
    return "\n".join(lines) + "\n"


def config_text(experiment: List[Tuple[str, str]],
                gait_overrides: Dict[str, str] | None = None) -> str:
    gait = dict(GAIT, **(gait_overrides or {}))
    sections = [("meta", [("schema_version", "1")]),
                ("gait", list(gait.items())),
                ("geometry", list(GEOMETRY.items())),
                ("controller", list(CONTROLLER.items())),
                ("experiment", experiment)]
    out = []
    for name, items in sections:
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in items]
        out.append("")
    return "\n".join(out)


def _experiment(name: str, terrains: List[str], av_grid: List[str],
                first_seed: int, n_seeds: int, cycles: int,
                flip: str = "0.0") -> List[Tuple[str, str]]:
    return [("name", name),
            ("terrains", ", ".join(terrains)),
            ("a_v_grid", ", ".join(av_grid)),
            ("seeds", f"{first_seed}..{first_seed + n_seeds - 1}"),
            ("cycles", str(cycles)),
            ("steps", str(STEPS)),
            ("tolerance", "0.05"),
            ("sensor_flip_prob", flip),
            ("terrain_rows", str(cycles + int(GAIT["n_pairs"]) + 2)),
            ("terrain_cols", str(TERRAIN_COLS))]


def make_inputs(workload: str, seed: int) -> WorkloadInputs:
    """Generate the config file and terrain files of one workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    first_seed = rng.randrange(1, 1_000_000)
    files: Dict[str, str] = {}
    if workload == "validate_grid":
        exp = _experiment(workload, RUGOSITY_LEVELS, DEFAULT_AV_GRID,
                          first_seed, VALIDATE_SEEDS, VALIDATE_CYCLES)
        files[CONFIG_NAME] = config_text(exp)
    elif workload == "controller_feedback":
        exp = _experiment(workload, RUGOSITY_LEVELS, DEFAULT_AV_GRID,
                          first_seed, CONTROLLER_SEEDS, CONTROLLER_CYCLES,
                          flip=CONTROLLER_FLIP)
        files[CONFIG_NAME] = config_text(exp)
    elif workload == "model_sweep_fine":
        names = []
        for k, (r_g, rows) in enumerate(SWEEP_FILES):
            name = f"terrain_{k}_rg{r_g}.txt"
            files[name] = terrain_text(r_g, rows, TERRAIN_COLS, rng, first_seed + k)
            names.append(name)
        exp = _experiment(workload, RUGOSITY_LEVELS + names, FINE_AV_GRID,
                          first_seed, 1, VALIDATE_CYCLES)
        files[CONFIG_NAME] = config_text(exp)
    else:  # sensor_walk
        name = f"terrain_rg{SENSOR_RG}.txt"
        rows = SENSOR_CYCLES + int(GAIT["n_pairs"]) + 2
        files[name] = terrain_text(SENSOR_RG, rows, TERRAIN_COLS, rng, first_seed)
        exp = _experiment(workload, [name], [SENSOR_AV], first_seed,
                          SENSOR_SEEDS, SENSOR_CYCLES, flip=SENSOR_FLIP)
        files[CONFIG_NAME] = config_text(exp, {"a_v": SENSOR_AV})
    return WorkloadInputs(workload=workload, seed=seed, files=files)
