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
from typing import Callable, List, Optional, Tuple

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


class NoStanceError(ValueError):
    """Raised when a gait has no stance sample in a cycle of the commanded
    steps, so that a cycle's contact ratio would be 0/0."""


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
    gamma_measured: List[float]                # sensed, per cycle
    a_v: List[float]                           # vertical amplitude, per cycle


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
        for k, raw in enumerate(row):
            if raw != state:
                run += 1
                if run >= latch_steps:
                    state = raw
                    run = 0
            else:
                run = 0
            row[k] = state
    return out


def simulate_walk(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
                  cycles: int, steps: int, sensor: SensorModel, seed: int,
                  next_av: Optional[Callable[[int, float, float], float]] = None
                  ) -> WalkResult:
    """Walk `cycles` gait cycles over the terrain, starting at cfg.a_v.

    Each leg's foothold advances one block row per cycle (the height
    transition H(next) - H(current) drives the loss rules); the continuous
    forward displacement is tracked separately through the speed model.
    If next_av is given, next_av(cycle, gamma_measured, a_v) returns the
    vertical amplitude of the following cycle.
    """
    if steps % 2 != 0:
        raise ValueError(f"steps must be even, got {steps}")
    n = cfg.n_pairs
    available = max(0, terrain.rows - n)
    if cycles > available:
        raise WalkOffTerrainError(available, terrain.rows)
    phases = phase_table(cfg, steps)
    stance = phases < cfg.duty
    retraction = int(stance.sum())
    if retraction == 0:
        raise NoStanceError(f"{cfg} has no stance sample in a cycle of "
                            f"steps={steps}")
    # lateral block column per side; longitudinal stagger of one block
    # per module (module_length equals the block size by default)
    center = terrain.cols // 2
    leg_cols = np.array([max(center - 1, 0)] * n
                        + [min(center + 1, terrain.cols - 1)] * n)
    leg_rows = np.array([n - 1 - i for i in range(n)] * 2)
    rows = leg_rows + np.arange(cycles)[:, None]            # cycles x legs
    dh = terrain.heights[rows + 1, leg_cols] - terrain.heights[rows, leg_cols]
    stance_leg, _ = np.nonzero(stance)
    u = phases[stance]
    d_s, reach, lift = stance_geometry(cfg, geom, u)
    recover = recoverable_heights(geom, d_s)
    dist = slip_distribution(cfg, geom, bins=36)
    stride = flat_ground_stride(cfg, geom)
    rng = np.random.default_rng(seed)

    lost = np.zeros((cycles, 2 * n, steps), dtype=bool)
    measured = np.zeros((2 * n, steps * cycles), dtype=np.uint8)
    gamma_true: List[float] = []
    gamma_meas: List[float] = []
    v_ratios: List[float] = []
    a_vs: List[float] = []
    for c in range(cycles):
        d = dh[c, stance_leg]
        lost[c][stance] = np.where(d <= 0.0, -d > reach,
                                   d - np.maximum(lift, 0.0) > recover)
        truth = (stance & ~lost[c]).astype(np.uint8)
        bits = truth
        if sensor.flip_prob > 0.0:
            flips = rng.random(bits.shape) < sensor.flip_prob
            bits = bits ^ flips.astype(np.uint8)
        bits = _debounce(bits, sensor.latch_steps)
        measured[:, c * steps:(c + 1) * steps] = bits
        gamma_true.append(float(truth.sum() / retraction))
        gamma_meas.append(float(bits[stance].sum() / retraction))
        v_ratios.append(predict_speed_band(dist, gamma_true[-1]).v_ratio_mid)
        a_vs.append(cfg.a_v)
        if next_av is not None and c + 1 < cycles:
            cfg = replace(cfg, a_v=next_av(c, gamma_meas[-1], cfg.a_v))
            _, reach, lift = stance_geometry(cfg, geom, u)

    losses = [(int(leg), int(c) * steps + int(k),
               "too_deep" if dh[c, leg] <= 0.0 else "deformed")
              for c, leg, k in zip(*np.nonzero(lost))]
    return WalkResult(
        measured=ContactMap(legs=2 * n, steps=steps, cycles=cycles,
                            bits=measured, kind="measured"),
        ideal=ContactMap(legs=2 * n, steps=steps, cycles=cycles,
                         bits=np.tile(stance, (1, cycles)), kind="ideal"),
        gamma_per_cycle=gamma_true,
        forward_speed_ratio=v_ratios,
        loss_events=losses,
        displacement_per_cycle=[stride * v for v in v_ratios],
        gamma_measured=gamma_meas,
        a_v=a_vs,
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
