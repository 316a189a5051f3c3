"""Check that the working tree's CLI outputs equal those of a base revision.

Run from anywhere inside the repository:

    python3 tools/compare_outputs.py BASE_REV

BASE_REV is checked out in a temporary git worktree, which is removed
afterwards.  The same centiwalk commands then run from both trees, each with
PYTHONPATH=<tree>/src: gait-dump, terrain-gen --r-g 0.32, model-sweep,
validate, walk and controller-compare at the shipped default config with
--seeds 0..19, walk and controller-compare again at sensor_flip_prob = 0.05,
walk at that flip probability with --seeds 0..69, more seeds than one block
of the walk engine holds, and model-sweep, validate and walk again on a
rugosity level and a written terrain file, whose empirical height steps take
the tail path that rugosity levels do not, validate on those two with
--seeds 0..69 too, and validate and walk at --seeds 0..69 on three rugosity
levels with the terrain file between them (walk at sensor_flip_prob =
0.05), where the levels walk as one batch whose blocks cross level
boundaries and repeat each seed once per level, and validate, model-sweep
and walk at --seeds 0..69 on a wide amplitude grid (a_v_grid = 0, 5, 10,
20, 30, 45, 60 on terrains 0.0, 0.17, 0.32 and 0.6, walk at a_v = 45),
which the walk engine counts in two RANK_AMPLITUDES chunks and whose stance
samples include a negative lift and a negative reach, and gait-dump,
model-sweep, validate, walk and controller-compare on a gait shape of its
own (n_pairs = 4, xi = 1.5, duty = 0.6, theta_leg_amp = 25, an explicit
phase_offset = -2.0 and a_v = 15), as every other run walks the default
gait's phases.  Every run's exit code,
standard output, standard error and output files are compared byte for
byte; for a text output that differs, the number of differing lines and
the first differing line on each side are printed.  Each run works in its
own directory with the same relative paths in both trees, so the printed
output paths agree too.

Exit code 0 when every run is identical, 1 when any differs (each
difference is listed), 2 when the comparison could not run.  Standard
library only.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

SEEDS = "0..19"
FLIP_CONFIG = "flip.cfg"
FLIP_TEXT = "[meta]\nschema_version = 1\n\n[experiment]\nsensor_flip_prob = 0.05\n"
TERRAIN_FILE = "rough.terrain"
TERRAIN_CONFIG = "terrain.cfg"
TERRAIN_CONFIG_TEXT = ("[meta]\nschema_version = 1\n\n[experiment]\n"
                       f"terrains = 0.17, {TERRAIN_FILE}\n")
LEVELS_CONFIG = "levels.cfg"
LEVELS_CONFIG_TEXT = ("[meta]\nschema_version = 1\n\n[experiment]\n"
                      f"terrains = 0.17, {TERRAIN_FILE}, 0.32, 0.0\n"
                      "sensor_flip_prob = 0.05\n")

WIDE_CONFIG = "wide.cfg"
WIDE_TEXT = ("[meta]\nschema_version = 1\n\n[gait]\na_v = 45\n\n"
             "[experiment]\nterrains = 0.0, 0.17, 0.32, 0.6\n"
             "a_v_grid = 0, 5, 10, 20, 30, 45, 60\n")

GAIT_CONFIG = "gait.cfg"
GAIT_TEXT = ("[meta]\nschema_version = 1\n\n[gait]\nn_pairs = 4\nxi = 1.5\n"
             "duty = 0.6\ntheta_leg_amp = 25\nphase_offset = -2.0\na_v = 15\n")


def _terrain_text() -> str:
    """A terrain file of 40 x 5 normal block heights, 3 cm standard
    deviation, the same text on every call."""
    rng = random.Random(0)
    lines = ["# terrain v1", "# block_size=10.000000", "# r_g=0.000000",
             "# seed=0", "# rows=40 cols=5"]
    lines += [",".join(f"{rng.gauss(0.0, 3.0):.6f}" for _ in range(5))
              for _ in range(40)]
    return "\n".join(lines) + "\n"


TERRAIN_FILES = {TERRAIN_CONFIG: TERRAIN_CONFIG_TEXT,
                 TERRAIN_FILE: _terrain_text()}
LEVELS_FILES = {LEVELS_CONFIG: LEVELS_CONFIG_TEXT,
                TERRAIN_FILE: _terrain_text()}

# (run name, files written into the run directory, seeds, command-line
# arguments)
RUNS: List[Tuple[str, Dict[str, str], str, List[str]]] = [
    ("gait-dump", {}, SEEDS, ["gait-dump"]),
    ("terrain-gen", {}, SEEDS, ["terrain-gen", "--r-g", "0.32"]),
    ("model-sweep", {}, SEEDS, ["model-sweep"]),
    ("validate", {}, SEEDS, ["validate"]),
    ("walk", {}, SEEDS, ["walk"]),
    ("controller-compare", {}, SEEDS, ["controller-compare"]),
    ("walk-flip", {FLIP_CONFIG: FLIP_TEXT}, SEEDS,
     ["--config", FLIP_CONFIG, "walk"]),
    # 70 seeds at one amplitude cross the engine's 64-seed block edge on
    # the per-sample path
    ("walk-flip-block-edge", {FLIP_CONFIG: FLIP_TEXT}, "0..69",
     ["--config", FLIP_CONFIG, "walk"]),
    ("controller-compare-flip", {FLIP_CONFIG: FLIP_TEXT}, SEEDS,
     ["--config", FLIP_CONFIG, "controller-compare"]),
    ("model-sweep-file", TERRAIN_FILES, SEEDS,
     ["--config", TERRAIN_CONFIG, "model-sweep"]),
    ("validate-file", TERRAIN_FILES, SEEDS,
     ["--config", TERRAIN_CONFIG, "validate"]),
    # at 3 amplitudes a block holds 21 seeds: 70 seeds cross three block
    # edges on the counted path, on a generated and a file entry
    ("validate-block-edge", TERRAIN_FILES, "0..69",
     ["--config", TERRAIN_CONFIG, "validate"]),
    # a terrain file's entry writes its own contact map too
    ("walk-file", TERRAIN_FILES, SEEDS,
     ["--config", TERRAIN_CONFIG, "walk"]),
    # three levels walk as one batch of 210 rows, each seed once per level,
    # and the file alone: validate's 21-row and walk's 64-row blocks
    # straddle the level boundaries at rows 70 and 140
    ("validate-levels-block-edge", LEVELS_FILES, "0..69",
     ["--config", LEVELS_CONFIG, "validate"]),
    ("walk-levels-block-edge", LEVELS_FILES, "0..69",
     ["--config", LEVELS_CONFIG, "walk"]),
    # seven amplitudes are two loss tables of at most four; from 5
    # degrees some stance samples have a negative lift, past 38 some a
    # negative reach, and at every nonzero amplitude about a quarter of the
    # samples' rise is one float from the cutoff of the same rule written
    # as d - max(lift, 0) > recover, so a change in how it rounds shows
    ("validate-wide-grid", {WIDE_CONFIG: WIDE_TEXT}, "0..69",
     ["--config", WIDE_CONFIG, "validate"]),
    ("model-sweep-wide-grid", {WIDE_CONFIG: WIDE_TEXT}, "0..69",
     ["--config", WIDE_CONFIG, "model-sweep"]),
    ("walk-wide-grid", {WIDE_CONFIG: WIDE_TEXT}, "0..69",
     ["--config", WIDE_CONFIG, "walk"]),
    # every gait key but theta_body_amp off its default: other leg
    # counts, wave lags, stance windows and slip paths than the default's
    *((f"{command}-gait", {GAIT_CONFIG: GAIT_TEXT}, SEEDS,
       ["--config", GAIT_CONFIG, command])
      for command in ("gait-dump", "model-sweep", "validate", "walk",
                      "controller-compare")),
]


class SetupError(Exception):
    pass


def _git(*args: str, cwd: Path) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SetupError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _env(tree: Path) -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _check_import(tree: Path) -> None:
    """The tree's own package must be the one that runs."""
    proc = subprocess.run(
        [sys.executable, "-c", "import centiwalk; print(centiwalk.__file__)"],
        env=_env(tree), capture_output=True, text=True)
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or (tree / "src").resolve() not in where.parents:
        raise SetupError(f"cannot import centiwalk from {tree / 'src'}: "
                         f"{proc.stderr.strip() or where}")


def _run(tree: Path, workdir: Path, files: Dict[str, str], seeds: str,
         argv: List[str]) -> Dict[str, bytes]:
    """Run one command; return its exit code, streams and output files,
    each as bytes under a name."""
    workdir.mkdir(parents=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "centiwalk.cli", "--out", "out",
         "--seeds", seeds, *argv],
        cwd=workdir, env=_env(tree), capture_output=True)
    result = {"exit code": str(proc.returncode).encode(),
              "stdout": proc.stdout, "stderr": proc.stderr}
    out = workdir / "out"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                result[str(path.relative_to(workdir))] = path.read_bytes()
    return result


def _describe(base: bytes, head: bytes) -> str:
    """How two different outputs differ: for text, the number of lines that
    differ, position by position, and the first such line on each side."""
    try:
        pairs = list(itertools.zip_longest(base.decode().splitlines(),
                                           head.decode().splitlines()))
    except UnicodeDecodeError:
        return "differs"
    changed = [(a, b) for a, b in pairs if a != b]
    if not changed:
        return "differs in line endings only"
    a, b = ("<no line>" if line is None else line for line in changed[0])
    return (f"differs in {len(changed)} of {len(pairs)} lines, first:\n"
            f"    base: {a}\n    head: {b}")


def _differences(base: Dict[str, bytes], head: Dict[str, bytes]) -> List[str]:
    diffs = []
    for name in sorted(base.keys() | head.keys()):
        if name not in head:
            diffs.append(f"{name}: only in the base tree")
        elif name not in base:
            diffs.append(f"{name}: only in the working tree")
        elif base[name] != head[name]:
            diffs.append(f"{name}: {_describe(base[name], head[name])}")
    return diffs


def compare(base_rev: str) -> int:
    here = Path(__file__).resolve().parent
    head = Path(_git("rev-parse", "--show-toplevel", cwd=here))
    commit = _git("rev-parse", "--verify", f"{base_rev}^{{commit}}", cwd=head)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        base = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base), commit, cwd=head)
        try:
            for tree in (base, head):
                _check_import(tree)
            for name, files, seeds, argv in RUNS:
                runs = [_run(tree, Path(tmp) / side / name, files, seeds, argv)
                        for side, tree in (("base_run", base),
                                           ("head_run", head))]
                diffs = _differences(*runs)
                differing += bool(diffs)
                print(f"{name}: {'DIFFERENT' if diffs else 'identical'}")
                for diff in diffs:
                    print(f"  {diff}")
        finally:
            _git("worktree", "remove", "--force", str(base), cwd=head)
    print(f"{differing} of {len(RUNS)} runs differ from {base_rev} "
          f"({commit[:12]})")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    try:
        return compare(args.base_rev)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
