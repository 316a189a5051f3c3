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
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .gait import GaitConfig, phase_table
from .kinematics import (
    RobotGeometry,
    SlipDistribution,
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

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.shape != (self.legs, self.steps * self.cycles):
            raise ValueError("bits shape must be legs x (steps * cycles)")
        if np.any(self.bits > 1):
            raise ValueError("bits must be 0/1")


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
    gamma_measured: List[float]                # sensed, per cycle
    a_v: List[float]                           # vertical amplitude, per cycle


def ideal_contact_map(cfg: GaitConfig, steps: int, cycles: int = 1) -> ContactMap:
    """Contact map of the ideal gait pattern."""
    bits = (phase_table(cfg, steps) < cfg.duty).astype(np.uint8)
    return ContactMap(legs=2 * cfg.n_pairs, steps=steps, cycles=cycles,
                      bits=np.tile(bits, (1, cycles)))


def _debounce(bits: np.ndarray, latch_steps: int) -> np.ndarray:
    """Hold each leg's output until the raw signal persists latch_steps
    consecutive samples in the new state, along the last axis.

    Equivalently, the output at sample k is the value of the latest window
    of latch_steps equal raw samples ending at or before k, or the row's
    first raw sample before any such window.
    """
    if latch_steps <= 1:
        return bits
    steps = bits.shape[-1]
    # same[..., k]: equal neighbouring pairs among samples 0..k
    same = np.cumsum(bits[..., 1:] == bits[..., :-1], axis=-1)
    same = np.concatenate([np.zeros_like(same[..., :1]), same], axis=-1)
    last = np.zeros(bits.shape, dtype=np.intp)
    if latch_steps <= steps:
        ends = np.arange(latch_steps - 1, steps)
        stable = same[..., ends] - same[..., ends - (latch_steps - 1)] \
            == latch_steps - 1
        last[..., ends] = np.where(stable, ends, 0)
    return np.take_along_axis(bits, np.maximum.accumulate(last, axis=-1),
                              axis=-1)


@lru_cache
def _gait_slip_distribution(cfg: GaitConfig,
                            geom: RobotGeometry) -> SlipDistribution:
    return slip_distribution(cfg, geom, bins=36)


def gait_slip_distribution(cfg: GaitConfig,
                           geom: RobotGeometry) -> SlipDistribution:
    """The gait's 36-bin slip distribution.  The planar slip path does not
    depend on a_v, so it is built once per gait at a_v = 0 and shared by
    every caller, which must not modify it."""
    return _gait_slip_distribution(replace(cfg, a_v=0.0), geom)


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
    dist = gait_slip_distribution(cfg, geom)
    rng = np.random.default_rng(seed)
    flips = np.zeros((cycles, 2 * n, steps), dtype=np.uint8)
    if sensor.flip_prob > 0.0:
        flips = (rng.random(flips.shape) < sensor.flip_prob).astype(np.uint8)

    def lost_at(d, reach, lift):
        return np.where(d <= 0.0, -d > reach,
                        d - np.maximum(lift, 0.0) > recover)

    d = dh[:, stance_leg]                         # cycles x stance samples
    lost = np.zeros((cycles, 2 * n, steps), dtype=bool)
    if next_av is None:
        lost[:, stance] = lost_at(d, reach, lift)
        bits = _debounce((stance & ~lost) ^ flips, sensor.latch_steps)
        a_vs = [cfg.a_v] * cycles
    else:
        # the next amplitude needs this cycle's sensed contact ratio
        bits = np.empty(lost.shape, dtype=np.uint8)
        a_vs = []
        for c in range(cycles):
            a_vs.append(cfg.a_v)
            lost[c, stance] = lost_at(d[c], reach, lift)
            bits[c] = _debounce((stance & ~lost[c]) ^ flips[c],
                                sensor.latch_steps)
            if c + 1 < cycles:
                a_v = next_av(c, float(bits[c, stance].sum() / retraction),
                              cfg.a_v)
                if a_v != cfg.a_v:
                    cfg = replace(cfg, a_v=a_v)
                    _, reach, lift = stance_geometry(cfg, geom, u)

    gamma_true = (stance & ~lost).sum(axis=(1, 2)) / retraction
    v_ratios = predict_speed_band(dist, gamma_true).v_ratio_mid
    c, leg, k = np.nonzero(lost)
    losses = list(zip(leg.tolist(), (c * steps + k).tolist(),
                      np.where(dh[c, leg] <= 0.0, "too_deep",
                               "deformed").tolist()))
    return WalkResult(
        measured=ContactMap(legs=2 * n, steps=steps, cycles=cycles,
                            bits=bits.transpose(1, 0, 2).reshape(2 * n, -1)),
        ideal=ContactMap(legs=2 * n, steps=steps, cycles=cycles,
                         bits=np.tile(stance, (1, cycles))),
        gamma_per_cycle=gamma_true.tolist(),
        forward_speed_ratio=v_ratios.tolist(),
        loss_events=losses,
        gamma_measured=(bits[:, stance].sum(axis=1) / retraction).tolist(),
        a_v=a_vs,
    )

