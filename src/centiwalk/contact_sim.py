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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .gait import GaitConfig, phase_table
from .kinematics import (
    RobotGeometry,
    recoverable_heights,
    slip_distribution,
    stance_geometry,
)
from .models import predict_speed_band
from .terrain import TerrainGrid


# walks per array pass: bounds the (walks x cycles x legs x steps) arrays,
# and so peak memory, at any batch size
BLOCK_ROWS = 64


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
class Walks:
    """Per-cycle outcomes of every seed walked at every starting amplitude,
    each of shape (seeds, amplitudes, cycles).  The contact maps, of shape
    (block seeds, amplitudes, cycles, 2n, steps), are kept for the first
    block of seeds only, so that memory stays flat at any number of seeds."""

    gamma: np.ndarray            # true contact ratio
    gamma_measured: np.ndarray   # sensed contact ratio
    a_v: np.ndarray              # vertical amplitude
    v_ratio: np.ndarray          # speed ratio v/v_open
    bits: np.ndarray             # measured bits
    lost: np.ndarray             # contact lost to the terrain, same shape


@dataclass
class WalkResult:
    """Outcome of one multi-cycle walk."""

    measured: ContactMap
    ideal: ContactMap
    gamma_per_cycle: List[float]
    forward_speed_ratio: List[float]
    loss_events: List[Tuple[int, int, str]]    # (leg, absolute step, cause)
    gamma_measured: List[float]                # sensed, per cycle


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
def _stance_table(cfg: GaitConfig, geom: RobotGeometry, steps: int) -> tuple:
    """The gait's stance mask over one cycle of `steps` samples, shape
    (2n, steps), and per stance sample in row-major order: its leg, its
    reduced phase and the terrain rise its retraction recovers.  None of
    these depends on cfg.a_v.  Built once per config and shared, read-only,
    by every walk."""
    phases = phase_table(cfg, steps)
    stance = phases < cfg.duty
    u = phases[stance]
    d_s, _, _ = stance_geometry(cfg, geom, u)
    table = (stance, np.nonzero(stance)[0], u, recoverable_heights(geom, d_s))
    for a in table:
        a.setflags(write=False)
    return table


def _height_steps(terrain: TerrainGrid, n: int, cycles: int) -> np.ndarray:
    """Height step H(next) - H(current) under each leg's foothold, shape
    (cycles, 2n): a leg's block row advances one per cycle, with a
    longitudinal stagger of one block per module (module_length equals the
    block size by default), on a lateral block column per side."""
    center = terrain.cols // 2
    leg_cols = np.array([max(center - 1, 0)] * n
                        + [min(center + 1, terrain.cols - 1)] * n)
    leg_rows = np.array([n - 1 - i for i in range(n)] * 2)
    rows = leg_rows + np.arange(cycles)[:, None]
    return terrain.heights[rows + 1, leg_cols] - terrain.heights[rows, leg_cols]


def simulate_walks(cfg: GaitConfig, geom: RobotGeometry,
                   terrains: Sequence[TerrainGrid], seeds: Sequence[int],
                   a_v: Sequence[float], cycles: int, steps: int,
                   sensor: SensorModel,
                   next_av: Optional[Callable[
                       [int, np.ndarray, np.ndarray], np.ndarray]] = None
                   ) -> Walks:
    """Walk `cycles` gait cycles of the gait shape cfg from every seed at
    every starting amplitude: seed i walks terrains[i] and draws its sensor
    flips from default_rng(seeds[i]), the same flips at every amplitude,
    and amplitude column j starts at the vertical amplitude a_v[j] (cfg.a_v
    is not read).  The per-cycle outcomes have shape (seeds, amplitudes,
    cycles).

    Seeds are walked max(1, BLOCK_ROWS // len(a_v)) at a time.  Without
    next_av the amplitudes hold, and all cycles of a block are one array
    operation.  With it the block steps through the cycles together:
    next_av(cycle, gamma_measured, a_v) is given the block's sensed contact
    ratios and amplitudes in that cycle, both of shape (block seeds,
    amplitudes), and returns the amplitudes of the next cycle in that shape;
    a negative or NaN amplitude raises ValueError.
    """
    if steps % 2 != 0:
        raise ValueError(f"steps must be even, got {steps}")
    if not len(terrains) == len(seeds) > 0:
        raise ValueError("need one terrain per seed, and at least one seed")
    a_v = np.array(a_v, dtype=float)
    if a_v.ndim != 1 or len(a_v) == 0:
        raise ValueError("need a list of one or more a_v")
    if not np.all(a_v >= 0.0):
        raise ValueError(f"a_v must be >= 0, got {a_v.min()}")
    n = cfg.n_pairs
    shortest = min(terrains, key=lambda t: t.rows)
    available = max(0, shortest.rows - n)
    if cycles > available:
        raise WalkOffTerrainError(available, shortest.rows)
    stance, stance_leg, u, recover = _stance_table(cfg, geom, steps)
    retraction = len(u)
    if retraction == 0:
        raise NoStanceError(f"{cfg} has no stance sample in a cycle of "
                            f"steps={steps}")
    dist = slip_distribution(cfg, geom)
    shape = (cycles, 2 * n, steps)

    def lost_at(d, reach, lift):
        # d, the terrain steps, is used up: the rise less the lift is
        # computed in its place
        drop = d <= 0.0
        too_deep = d < -reach                   # -d > reach, exactly
        d -= np.maximum(lift, 0.0)
        return np.where(drop, too_deep, d > recover)

    def sense(truth, flips):
        return _debounce(truth ^ flips, sensor.latch_steps)

    def sensed_ratio(bits):
        # measured contact over the stance samples of each cycle
        return (bits & stance).sum(axis=(-2, -1)) / retraction

    def walk_block(block: slice):
        dh = np.stack([_height_steps(t, n, cycles) for t in terrains[block]])
        grid = (len(dh), len(a_v))
        # seeds x amplitudes x cycles x stance samples, a fresh array
        d = np.repeat(dh[:, None], len(a_v), axis=1)[..., stance_leg]
        av = np.broadcast_to(a_v, grid)
        _, reach, lift = stance_geometry(cfg, geom, u, av[..., None])
        if sensor.flip_prob > 0.0:
            # one draw per seed, shared by its amplitudes
            flips = np.stack([
                np.random.default_rng(s).random(shape) < sensor.flip_prob
                for s in seeds[block]]).view(np.uint8)[:, None]
        else:
            flips = np.broadcast_to(np.uint8(0), (grid[0], 1) + shape)
        lost = np.zeros(grid + shape, dtype=bool)
        lost_s = np.empty(d.shape, dtype=bool)
        bits = np.empty(lost.shape, dtype=np.uint8)
        a_vs = np.empty(grid + (cycles,))
        # the next amplitude needs this cycle's sensed contact ratio, so
        # feedback walks one cycle per span; held amplitudes walk all at once
        span = max(cycles, 1) if next_av is None else 1
        for c in range(0, cycles, span):
            now = slice(c, c + span)
            a_vs[..., now] = av[..., None]
            lost_s[:, :, now] = lost_at(d[:, :, now], reach[:, :, None],
                                        lift[:, :, None])
            lost[:, :, now, stance] = lost_s[:, :, now]
            bits[:, :, now] = sense(stance & ~lost[:, :, now], flips[:, :, now])
            if c + span < cycles:
                sensed = sensed_ratio(bits[:, :, c])
                new = np.asarray(next_av(c, sensed, av),
                                 dtype=float).reshape(grid)
                if not np.all(new >= 0.0):
                    raise ValueError(f"a_v must be >= 0, got {new.min()}")
                changed = new != av
                if changed.any():
                    _, reach[changed], lift[changed] = stance_geometry(
                        cfg, geom, u, new[changed, None])
                    av = new
        gamma = (retraction - lost_s.sum(axis=-1)) / retraction
        return (gamma, sensed_ratio(bits), a_vs,
                predict_speed_band(dist, gamma).v_ratio_mid, bits, lost)

    block = max(1, BLOCK_ROWS // len(a_v))
    per_cycle = []
    for i in range(0, len(seeds), block):
        *arrays, bits, lost = walk_block(slice(i, i + block))
        per_cycle.append(arrays)
        if i == 0:
            maps = bits, lost
    gamma, gamma_measured, a_vs, v_ratio = (np.concatenate(a)
                                            for a in zip(*per_cycle))
    return Walks(gamma=gamma, gamma_measured=gamma_measured, a_v=a_vs,
                 v_ratio=v_ratio, bits=maps[0], lost=maps[1])


def simulate_walk(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
                  cycles: int, steps: int, sensor: SensorModel, seed: int
                  ) -> WalkResult:
    """Walk `cycles` gait cycles over the terrain at the vertical amplitude
    cfg.a_v: the one-walk case of simulate_walks.

    Each leg's foothold advances one block row per cycle (the height
    transition H(next) - H(current) drives the loss rules); the continuous
    forward displacement is tracked separately through the speed model.
    """
    w = simulate_walks(cfg, geom, [terrain], [seed], [cfg.a_v], cycles, steps,
                       sensor)
    n = cfg.n_pairs
    c, leg, k = np.nonzero(w.lost[0, 0])
    causes = np.where(_height_steps(terrain, n, cycles)[c, leg] <= 0.0,
                      "too_deep", "deformed")
    return WalkResult(
        measured=ContactMap(legs=2 * n, steps=steps, cycles=cycles,
                            bits=w.bits[0, 0].transpose(1, 0, 2)
                            .reshape(2 * n, -1)),
        ideal=ideal_contact_map(cfg, steps, cycles),
        gamma_per_cycle=w.gamma[0, 0].tolist(),
        forward_speed_ratio=w.v_ratio[0, 0].tolist(),
        loss_events=list(zip(leg.tolist(), (c * steps + k).tolist(),
                             causes.tolist())),
        gamma_measured=w.gamma_measured[0, 0].tolist(),
    )
