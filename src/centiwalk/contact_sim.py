"""Monte Carlo walker: the independent oracle for the analytic models.

Walks the virtual robot across a TerrainGrid, applying the geometric
contact-loss rules at every retraction sample: a terrain drop deeper than
the foot's reach loses contact (too_deep), a terrain rise that retraction
cannot recover, after discounting any lift from the vertical wave, loses
contact (deformed).  Contact during protraction is never counted toward the
contact ratio.  A simulated binary sensor (i.i.d. bit flips plus optional
debounce) stands in for the physical contact-sensing hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .gait import GaitConfig, phase_table
from .kinematics import (
    RobotGeometry,
    flat_ground_stride,
    recoverable_heights,
    slip_distribution,
    stance_geometry,
)
from .models import predict_speed_band
from .terrain import TerrainGrid


class WalkOffTerrainError(RuntimeError):
    """Raised when the terrain is too short for the commanded walk."""

    def __init__(self, cycle: int, rows: int):
        self.cycle = cycle
        super().__init__(
            f"robot walks off the terrain at cycle {cycle} ({rows} rows available)"
        )


@dataclass
class ContactMap:
    """Binary leg-by-time matrix; rows are left legs 1..n then right 1..n."""

    legs: int
    steps: int
    cycles: int
    bits: np.ndarray
    kind: str = "measured"

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.shape != (self.legs, self.steps * self.cycles):
            raise ValueError("bits shape must be legs x (steps * cycles)")
        if self.kind not in ("ideal", "measured"):
            raise ValueError(f"unknown contact map kind {self.kind!r}")
        if np.any(self.bits > 1):
            raise ValueError("bits must be 0/1")

    def to_csv(self, path, stamp: str = "") -> None:
        """Write the map as CSV, after the comment line `stamp` if given."""
        with open(path, "w") as fh:
            fh.write(stamp)
            n = self.legs // 2
            names = [f"leg_l{i+1}" for i in range(n)] + [f"leg_r{i+1}" for i in range(n)]
            fh.write("cycle,step," + ",".join(names) + "\n")
            for c in range(self.cycles):
                for k in range(self.steps):
                    col = self.bits[:, c * self.steps + k]
                    fh.write(f"{c},{k}," + ",".join(str(int(b)) for b in col) + "\n")


@dataclass
class SensorModel:
    """Binary contact sensor abstraction: i.i.d. bit-flip noise per sample
    plus an optional debounce window."""

    flip_prob: float = 0.0
    latch_steps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError(f"flip_prob must be in [0, 1), got {self.flip_prob}")
        if self.latch_steps < 0:
            raise ValueError("latch_steps must be >= 0")


@dataclass
class WalkResult:
    """Outcome of one multi-cycle walk."""

    measured: ContactMap
    ideal: ContactMap
    gamma_per_cycle: List[float]
    forward_speed_ratio: List[float]
    loss_events: List[Tuple[int, int, str]]    # (leg, absolute step, cause)
    displacement_per_cycle: List[float]


def ideal_contact_map(cfg: GaitConfig, steps: int, cycles: int = 1) -> ContactMap:
    """Contact map of the ideal gait pattern."""
    bits = (phase_table(cfg, steps) < cfg.duty).astype(np.uint8)
    return ContactMap(legs=2 * cfg.n_pairs, steps=steps, cycles=cycles,
                      bits=np.tile(bits, (1, cycles)), kind="ideal")


def _debounce(bits: np.ndarray, latch_steps: int) -> np.ndarray:
    """Hold each leg's output until the raw signal persists latch_steps
    consecutive samples in the new state."""
    if latch_steps <= 0:
        return bits
    out = bits.copy()
    for row in out:
        state = row[0]
        run = 0
        for k in range(len(row)):
            raw = row[k]
            if raw != state:
                run += 1
                if run >= latch_steps:
                    state = raw
                    run = 0
            else:
                run = 0
            row[k] = state
    return out


class WalkSimulation:
    """Stateful cycle-by-cycle walk over a terrain grid.

    Each leg's foothold advances one block row per cycle (the height
    transition H(next) - H(current) drives the loss rules); the continuous
    forward displacement is tracked separately through the speed model.
    """

    def __init__(self, cfg: GaitConfig, geom: RobotGeometry,
                 terrain: TerrainGrid, steps: int, sensor: SensorModel,
                 seed: int):
        if steps % 2 != 0:
            raise ValueError(f"steps must be even, got {steps}")
        self.cfg = cfg
        self.geom = geom
        self.terrain = terrain
        self.steps = steps
        self.sensor = sensor
        self.rng = np.random.default_rng(seed)
        n = cfg.n_pairs
        self.legs = 2 * n
        self.phases = phase_table(cfg, steps)
        self.stance_mask = self.phases < cfg.duty
        # lateral block column per side; longitudinal stagger of one block
        # per module (module_length equals the block size by default)
        center = terrain.cols // 2
        col_left = max(center - 1, 0)
        col_right = min(center + 1, terrain.cols - 1)
        self.leg_cols = np.array([col_left] * n + [col_right] * n)
        self.leg_rows = np.array([(n - 1 - i) for i in range(n)] * 2)
        self.cycle = 0
        self.dist = slip_distribution(cfg, geom, bins=36)
        self.stride = flat_ground_stride(cfg, geom)

    def run_cycle(self, a_v: Optional[float] = None) -> dict:
        """Advance one gait cycle; returns per-cycle maps and statistics."""
        if self.leg_rows.max() + 1 >= self.terrain.rows:
            raise WalkOffTerrainError(self.cycle, self.terrain.rows)
        cfg = self.cfg if a_v is None else replace(self.cfg, a_v=a_v)
        dh = (self.terrain.heights[self.leg_rows + 1, self.leg_cols]
              - self.terrain.heights[self.leg_rows, self.leg_cols])
        bits_true = np.zeros((self.legs, self.steps), dtype=np.uint8)
        losses: List[Tuple[int, int, str]] = []
        base_step = self.cycle * self.steps
        for leg in range(self.legs):
            mask = self.stance_mask[leg]
            u = self.phases[leg][mask]
            d_s, reach, lift = stance_geometry(cfg, self.geom, u)
            d = dh[leg]
            if d <= 0.0:
                lost = -d > reach
                cause = "too_deep"
            else:
                recover = recoverable_heights(self.geom, d_s)
                lost = d - np.maximum(lift, 0.0) > recover
                cause = "deformed"
            bits_true[leg, mask] = (~lost).astype(np.uint8)
            for k in np.nonzero(mask)[0][lost]:
                losses.append((leg, base_step + int(k), cause))
        retraction = int(self.stance_mask.sum())
        gamma_true = float(bits_true[self.stance_mask].sum() / retraction)
        measured = bits_true.copy()
        if self.sensor.flip_prob > 0.0:
            flips = self.rng.random(measured.shape) < self.sensor.flip_prob
            measured = measured ^ flips.astype(np.uint8)
        measured = _debounce(measured, self.sensor.latch_steps)
        gamma_meas = float(measured[self.stance_mask].sum() / retraction)
        band = predict_speed_band(self.dist, gamma_true)
        v_ratio = band.v_ratio_mid
        self.leg_rows += 1
        self.cycle += 1
        return {
            "bits_true": bits_true,
            "bits_measured": measured,
            "gamma_true": gamma_true,
            "gamma_measured": gamma_meas,
            "v_ratio": v_ratio,
            "displacement": self.stride * v_ratio,
            "loss_events": losses,
        }


def simulate_walk(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
                  cycles: int, steps: int, sensor: SensorModel,
                  seed: int) -> WalkResult:
    """Run a fixed-gait walk of the given number of cycles."""
    sim = WalkSimulation(cfg, geom, terrain, steps, sensor, seed)
    available = max(0, terrain.rows - 1 - int(sim.leg_rows.max()))
    if cycles > available:
        raise WalkOffTerrainError(available, terrain.rows)
    measured = np.zeros((sim.legs, steps * cycles), dtype=np.uint8)
    gamma_per_cycle: List[float] = []
    v_ratios: List[float] = []
    displacements: List[float] = []
    losses: List[Tuple[int, int, str]] = []
    for c in range(cycles):
        res = sim.run_cycle()
        measured[:, c * steps:(c + 1) * steps] = res["bits_measured"]
        gamma_per_cycle.append(res["gamma_true"])
        v_ratios.append(res["v_ratio"])
        displacements.append(res["displacement"])
        losses.extend(res["loss_events"])
    return WalkResult(
        measured=ContactMap(legs=sim.legs, steps=steps, cycles=cycles,
                            bits=measured, kind="measured"),
        ideal=ideal_contact_map(cfg, steps, cycles),
        gamma_per_cycle=gamma_per_cycle,
        forward_speed_ratio=v_ratios,
        loss_events=losses,
        displacement_per_cycle=displacements,
    )


def measure_gamma(ideal: ContactMap, measured: ContactMap) -> float:
    """Fraction of ideal retraction samples where contact was observed."""
    if ideal.bits.shape != measured.bits.shape:
        raise ValueError("contact maps must have identical shape")
    if ideal.kind != "ideal":
        raise ValueError("first argument must be an ideal contact map")
    mask = ideal.bits == 1
    if not mask.any():
        raise ValueError("ideal map has no retraction samples")
    return float(measured.bits[mask].mean())
