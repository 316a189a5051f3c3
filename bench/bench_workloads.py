"""The benchmark workloads: one program run each, its size and its checks.

Three workloads drive the CLI in-process through ``centiwalk.cli.main``; the
sensor walk drives the library, because no CLI command turns debounce on.
A workload object is used in three steps per program run: ``reset`` (not
timed), ``call`` (timed) and ``check`` (not timed).
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench_inputs import CONFIG_NAME

OUT_DIR = Path("out")
STAMP_PREFIX = "# centiwalk v"
CONTROLLER_SCENARIOS = ("open_loop", "feedback_every1", "feedback_every2",
                        "feedback_every3")
SENSOR_LATCH = 3          # debounce window; the config has no key for it


@dataclass
class Outcome:
    """Result of checking one program run.

    ``problems`` fail the run.  ``known`` are defects of the program that a
    workload names in advance: they are reported, but leave the run counted
    as passed, so that a new failure still shows in ``failed``.
    """

    problems: List[str] = field(default_factory=list)
    known: List[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    facts: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _rows(path: Path) -> List[List[str]]:
    """CSV rows after the stamp line, if there is one, and the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    stamped = bool(rows) and rows[0][0].startswith("#")
    return rows[2:] if stamped else rows[1:]


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


class CliWorkload:
    """One ``centiwalk <command>`` run on the generated config."""

    command = ""
    required: tuple = ()
    unit_of_work = "cycles"
    unstamped_known: tuple = ()   # CSV name patterns known to lack the stamp

    def __init__(self, centiwalk):
        self.cw = centiwalk
        self.argv = ["--config", CONFIG_NAME, "--out", str(OUT_DIR), self.command]
        self.exit_code: Optional[int] = None
        self.error: Optional[str] = None
        self.work_items = 0
        self.expected_exit = 0

    def prepare(self) -> None:
        """Load the config, which sizes the work of one program run."""
        self.fc = self.cw.load_config(CONFIG_NAME)
        self.work_items = self.count_work()

    def count_work(self) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        self.exit_code, self.error = None, None

    def call(self) -> None:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.exit_code = self.cw.cli.main(list(self.argv))
        except Exception as exc:  # a program crash is a failed run, not ours
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self, full: bool) -> Outcome:
        """Stamp line in every CSV, output digest and exit code; with full,
        also the content of the outputs, which may set the expected exit
        code."""
        out = Outcome()
        if self.error is not None:
            out.problems.append(f"raised {self.error}")
            return out
        files = sorted(p for p in OUT_DIR.rglob("*") if p.is_file()) \
            if OUT_DIR.is_dir() else []
        digest = hashlib.sha256()
        for path in files:
            data = path.read_bytes()
            out.bytes_written += len(data)
            digest.update(str(path.relative_to(OUT_DIR)).encode() + b"\0" + data)
            if path.suffix == ".csv" and not data.startswith(STAMP_PREFIX.encode()):
                known = any(fnmatch.fnmatch(path.name, pattern)
                            for pattern in self.unstamped_known)
                (out.known if known else out.problems).append(
                    f"{path.name}: no stamp line")
        out.digest = digest.hexdigest()
        names = {p.name for p in files}
        missing = [n for n in self.required if n not in names]
        if missing:
            out.problems.append(f"missing outputs {missing}")
        elif full:
            try:
                self.check_content(out)
            except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
                out.problems.append(f"unreadable output: {exc}")
        if self.exit_code != self.expected_exit:
            out.problems.append(
                f"exit code {self.exit_code}, expected {self.expected_exit}")
        return out

    def check_content(self, out: Outcome) -> None:
        raise NotImplementedError


class ValidateGrid(CliWorkload):
    command = "validate"
    required = ("validation.csv",)

    def count_work(self) -> int:
        e = self.fc.experiment
        return len(e.terrains) * len(e.a_v_grid) * len(e.seeds) * e.cycles

    def check_content(self, out: Outcome) -> None:
        rows = _rows(OUT_DIR / "validation.csv")
        e = self.fc.experiment
        if len(rows) != len(e.terrains) * len(e.a_v_grid):
            out.problems.append(f"validation.csv has {len(rows)} cells")
        devs = []
        for row in rows:
            pred, sim, dev = float(row[2]), float(row[3]), float(row[4])
            if not (_in_unit(pred) and _in_unit(sim)):
                out.problems.append(f"gamma outside [0, 1] in {row}")
            status = "pass" if dev <= e.tolerance else "FAIL"
            if abs(abs(pred - sim) - dev) > 2e-6 or row[5] != status:
                out.problems.append(f"bad validation row {row}")
            devs.append(dev)
        out.facts["gamma_max_dev"] = max(devs)
        out.facts["cells_over_tolerance"] = sum(r[5] == "FAIL" for r in rows)
        # validate reports a tolerance miss by exiting 2; 20 seeds leave
        # enough Monte Carlo noise for some seed ranges to miss
        self.expected_exit = 2 if out.facts["cells_over_tolerance"] else 0


class ControllerFeedback(CliWorkload):
    command = "controller-compare"
    required = ("controller_summary.csv",) + tuple(
        f"trace_{s}.csv" for s in CONTROLLER_SCENARIOS)
    # controller-compare writes its trace CSVs without the stamp line
    unstamped_known = ("trace_*.csv",)

    def count_work(self) -> int:
        # cycles the comparison needs; re-running traces is not counted
        e = self.fc.experiment
        return len(CONTROLLER_SCENARIOS) * len(e.seeds) * e.cycles

    def check_content(self, out: Outcome) -> None:
        speeds = {r[0]: float(r[1]) for r in _rows(OUT_DIR / "controller_summary.csv")}
        if sorted(speeds) != sorted(CONTROLLER_SCENARIOS):
            out.problems.append(f"scenarios {sorted(speeds)}")
            return
        for name, v in speeds.items():
            if not 0.0 < v <= 1.2:
                out.problems.append(f"{name}: mean speed ratio {v}")
        for name in CONTROLLER_SCENARIOS:
            rows = _rows(OUT_DIR / f"trace_{name}.csv")
            if len(rows) != self.fc.experiment.cycles + 1:
                out.problems.append(f"trace_{name}.csv has {len(rows)} rows")
            elif not all(_in_unit(float(r[1])) for r in rows):
                out.problems.append(f"trace_{name}.csv: gamma outside [0, 1]")
        out.facts["speed_gain"] = speeds["feedback_every1"] / speeds["open_loop"]


class ModelSweepFine(CliWorkload):
    command = "model-sweep"
    required = ("model_sweep.csv",)
    unit_of_work = "cells"

    def count_work(self) -> int:
        e = self.fc.experiment
        return len(e.terrains) * len(e.a_v_grid)

    def check_content(self, out: Outcome) -> None:
        rows = _rows(OUT_DIR / "model_sweep.csv")
        if len(rows) != self.work_items:
            out.problems.append(f"model_sweep.csv has {len(rows)} cells")
        for row in rows:
            p1, p2, gamma, v_min, v_max = (float(row[i]) for i in (2, 3, 4, 7, 8))
            if not (_in_unit(p1) and _in_unit(p2) and _in_unit(gamma)
                    and 0.0 <= v_min <= v_max):
                out.problems.append(f"bad model_sweep row {row}")
        out.facts["gamma_min"] = min(float(r[4]) for r in rows)


class SensorWalk:
    """Library walks with a noisy, debounced sensor over a seed range."""

    unit_of_work = "cycles"

    def __init__(self, centiwalk):
        self.cw = centiwalk
        self.results: list = []
        self.error: Optional[str] = None
        self.work_items = 0

    def prepare(self) -> None:
        self.fc = self.cw.load_config(CONFIG_NAME)
        (token,) = self.fc.experiment.terrains
        self.grid = self.cw.TerrainGrid.load(token)
        self.sensor = self.cw.SensorModel(flip_prob=self.fc.experiment.sensor_flip_prob,
                                          latch_steps=SENSOR_LATCH)
        e = self.fc.experiment
        self.work_items = len(e.seeds) * e.cycles

    def reset(self) -> None:
        self.results, self.error = [], None

    def call(self) -> None:
        e, fc = self.fc.experiment, self.fc
        try:
            self.results = [
                self.cw.simulate_walk(fc.gait, fc.geometry, self.grid, e.cycles,
                                      e.steps, self.sensor, seed)
                for seed in e.seeds]
        except Exception as exc:  # a program crash is a failed run, not ours
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self, full: bool) -> Outcome:
        out = Outcome()
        if self.error is not None:
            out.problems.append(f"raised {self.error}")
            return out
        e = self.fc.experiment
        digest = hashlib.sha256()
        flips = []
        try:
            for res in self.results:
                bits = res.measured.bits
                gammas = list(res.gamma_per_cycle)
                speeds = list(res.forward_speed_ratio)
                digest.update(repr((gammas, speeds, list(res.loss_events))).encode())
                digest.update(bits.tobytes())
                if bits.shape != (2 * self.fc.gait.n_pairs, e.steps * e.cycles):
                    out.problems.append(f"measured map shape {bits.shape}")
                if len(gammas) != e.cycles or not all(map(_in_unit, gammas)):
                    out.problems.append("gamma_per_cycle outside [0, 1]")
                if not all(math.isfinite(v) and v >= 0.0 for v in speeds):
                    out.problems.append("non-finite speed ratio")
                if full:
                    flips.append(float((bits != res.ideal.bits).mean()))
        except (AttributeError, TypeError, ValueError) as exc:
            out.problems.append(f"unreadable result: {exc}")
        out.digest = digest.hexdigest()
        if flips:
            out.facts["measured_vs_ideal_frac"] = sum(flips) / len(flips)
        return out


WORKLOAD_CLASSES = {
    "validate_grid": ValidateGrid,
    "controller_feedback": ControllerFeedback,
    "model_sweep_fine": ModelSweepFine,
    "sensor_walk": SensorWalk,
}
