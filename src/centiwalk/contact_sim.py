"""Monte Carlo walker: the independent oracle for the analytic models.

Walks the virtual robot across block terrain heights, applying the geometric
contact-loss rules at every retraction sample: a terrain drop deeper than
the foot's reach loses contact (too_deep), a terrain rise that retraction
cannot recover, after discounting any lift from the vertical wave, loses
contact (deformed).  Contact during protraction is never counted toward the
contact ratio.  A simulated binary sensor (i.i.d. bit flips plus optional
debounce) stands in for the physical contact-sensing hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .gait import GaitConfig, _stance_table, checked_amplitudes, checked_count
from .kinematics import (RobotGeometry, _loss_thresholds, _threshold_table,
                         slip_distribution)
from .models import predict_speed_band
from .terrain import TerrainGrid


# walks per array pass: bounds the (walks x cycles x legs x steps) arrays,
# and so peak memory, at any batch size
BLOCK_ROWS = 64

# amplitudes per loss table the counted walk reads: its below holds a row per
# distinct threshold by (amplitudes x legs) columns, so grows with the square
# of its amplitudes, and a longer grid is counted this many at a time
RANK_AMPLITUDES = 4

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
    plus an optional debounce window of latch_steps samples, which restarts
    at each gait cycle's first sample.  latch_steps is set through the
    library only: no config key and no CLI command turns debounce on."""

    flip_prob: float = 0.0
    latch_steps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError(f"flip_prob must be in [0, 1), got {self.flip_prob}")
        self.latch_steps = checked_count(self.latch_steps, "latch_steps")


@dataclass
class Walks:
    """Per-cycle outcomes of every seed walked at every starting amplitude,
    three arrays of shape (seeds, amplitudes, cycles).  A walk's contact
    maps come from simulate_walk, one seed at a time, and its speed from
    predict_speed_band at gamma."""

    gamma: np.ndarray            # true contact ratio
    gamma_measured: np.ndarray   # sensed contact ratio
    a_v: np.ndarray              # vertical amplitude


@dataclass
class WalkResult:
    """Outcome of one multi-cycle walk."""

    measured: ContactMap
    ideal: ContactMap
    gamma_per_cycle: List[float]
    forward_speed_ratio: List[float]
    loss_events: List[Tuple[int, int, str]]    # (leg, absolute step, cause)


def ideal_contact_map(cfg: GaitConfig, steps: int, cycles: int = 1) -> ContactMap:
    """Contact map of the ideal gait pattern."""
    return ContactMap(legs=2 * cfg.n_pairs, steps=steps, cycles=cycles,
                      bits=np.tile(_stance_table(cfg, steps)[0].view(np.uint8),
                                   (1, cycles)))


def _debounce(bits: np.ndarray, latch_steps: int) -> np.ndarray:
    """Hold each leg's output until the raw signal persists latch_steps
    consecutive samples in the new state, along the last axis.  Each row of
    that axis (one leg in one gait cycle in the engine) restarts from its
    own first raw sample.

    Equivalently, the output at sample k is the raw value at the row's
    latest event at or before k.  The events are the row's first sample and
    the last sample of every window of latch_steps equal raw samples that
    starts a run of such windows.
    """
    if latch_steps <= 1:
        return bits
    steps = bits.shape[-1]
    events = np.zeros(bits.shape, dtype=bool)
    events[..., 0] = True
    if latch_steps <= steps:
        # stable[..., j]: samples j .. j + latch_steps - 1 are all equal
        same = bits[..., 1:] == bits[..., :-1]
        width = steps - latch_steps + 1
        stable = same[..., :width]
        for i in range(1, latch_steps - 1):
            stable = stable & same[..., i:i + width]
        events[..., latch_steps - 1:] = stable
        # a window whose predecessor was stable too holds the value the
        # predecessor already set, so only a run's first window is kept
        events[..., latch_steps:] &= ~stable[..., :-1]
    # each event's raw value holds up to the next event; every row starts
    # with an event, so no value reaches into the row after its own
    at = np.flatnonzero(events)
    held = np.repeat(bits.ravel()[at], np.diff(at, append=bits.size))
    return held.reshape(bits.shape)


def _count_losses(cfg: GaitConfig, geom: RobotGeometry, steps: int,
                  a_v: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Stance samples each leg loses, shape (seeds, amplitudes, cycles, 2n),
    where the legs meet the height steps dh, shape (seeds, cycles, 2n), at
    each amplitude of the 1-D a_v: the loss rule's count, from one search
    per side among the distinct thresholds of every RANK_AMPLITUDES
    amplitudes."""
    rise = dh > 0.0
    side = rise.view(np.int8)[:, None]
    counts = []
    for j in range(0, len(a_v), RANK_AMPLITUDES):
        chunk = tuple(a_v[j:j + RANK_AMPLITUDES].tolist())
        table = _threshold_table(cfg, geom, steps, chunk)
        rank = np.where(rise, np.searchsorted(table.rise, dh),
                        np.searchsorted(table.drop, -dh))
        group = np.arange(table.below.shape[-1]).reshape(len(chunk), 1, -1)
        counts.append(table.below[side, rank[:, None], group])
    return np.concatenate(counts, axis=1)


def _height_steps(heights: np.ndarray, n: int, cycles: int) -> np.ndarray:
    """Height step H(next) - H(current) under each leg's foothold, shape
    (..., cycles, 2n), on block heights of shape (..., rows, cols): a leg's
    block row advances one per cycle, with a longitudinal stagger of one
    block per module (module_length equals the block size by default), on a
    lateral block column per side."""
    center = heights.shape[-1] // 2
    leg_cols = np.array([max(center - 1, 0)] * n
                        + [min(center + 1, heights.shape[-1] - 1)] * n)
    leg_rows = np.array([n - 1 - i for i in range(n)] * 2)
    return np.diff(heights[..., leg_rows + np.arange(cycles + 1)[:, None],
                           leg_cols], axis=-2)


def _checked_a_v(cfg: GaitConfig, heights: np.ndarray, seeds: Sequence[int],
                 a_v: Sequence[float], cycles: int, steps: int) -> np.ndarray:
    """A walk's inputs checked as simulate_walks documents them; returns
    a_v as a 1-D float array."""
    # checked here, as the cached stance table takes steps = 72.0 for 72
    checked_count(steps, "steps")
    checked_count(cycles, "cycles")
    _stance_table(cfg, steps)       # odd steps and no stance sample raise
    if np.ndim(heights) != 3 or not len(heights) == len(seeds) > 0:
        raise ValueError("need a (seeds, rows, cols) height stack: one "
                         "terrain per seed, and at least one seed")
    a_v = checked_amplitudes(a_v)
    if a_v.ndim != 1 or len(a_v) == 0:
        raise ValueError("need a list of one or more a_v")
    rows = heights.shape[1]
    available = max(0, rows - cfg.n_pairs)
    if cycles > available:
        raise WalkOffTerrainError(available, rows)
    return a_v


def _walk_block(cfg: GaitConfig, geom: RobotGeometry,
                heights: np.ndarray, seeds: Sequence[int],
                a_v: np.ndarray, cycles: int, steps: int, sensor: SensorModel,
                next_av: Optional[Callable], maps: bool) -> tuple:
    """simulate_walks on one block of seeds, from the checked a_v, sample
    by sample: the per-cycle gamma, gamma_measured and a_v, (seeds,
    amplitudes, cycles) each, then each stance sample's loss, (seeds,
    amplitudes, cycles, stance samples), with maps the sensed rows, (seeds,
    amplitudes, cycles, 2n, steps), else None, and each stance sample's
    height step, (seeds, 1, cycles, stance samples)."""
    stance, stance_leg = _stance_table(cfg, steps)[:2]
    retraction = len(stance_leg)
    shape = (cycles, 2 * cfg.n_pairs, steps)
    dh = _height_steps(heights, cfg.n_pairs, cycles)
    tables = {}     # the walk's amplitudes, each looked up once

    def thresholds(av):
        # each cell's lower and upper, shape av.shape + (1, stance samples)
        keys = av.ravel().tolist()
        for a in set(keys).difference(tables):
            tables[a] = _loss_thresholds(cfg, geom, steps, a)
        table = np.array([tables[a] for a in keys]).reshape(
            av.shape + (2, 1, -1))
        return table[..., 0, :, :], table[..., 1, :, :]

    # seeds x 1 x cycles x stance samples, broadcast over amplitudes
    d = dh[:, None][..., stance_leg]
    grid = (len(d), len(a_v))
    av = np.broadcast_to(a_v, grid)
    lower, upper = thresholds(av)
    if sensor.flip_prob > 0.0:
        # one draw per seed, shared by its amplitudes
        flips = np.stack([
            np.random.default_rng(s).random(shape) < sensor.flip_prob
            for s in seeds]).view(np.uint8)[:, None]
    else:
        flips = np.broadcast_to(np.uint8(0), (grid[0], 1) + shape)
    rows = maps or sensor.latch_steps > 1
    bits = np.empty(grid + shape, dtype=np.uint8) if rows else None
    flips_s = None if rows else flips[..., stance]
    lost_s = np.empty(grid + (cycles, retraction), dtype=bool)
    a_vs, gamma_s = np.empty((2,) + grid + (cycles,))
    # the next amplitude needs this cycle's sensed contact ratio, so
    # feedback walks one cycle per span; held amplitudes walk all at once
    span = max(cycles, 1) if next_av is None else 1
    for c in range(0, cycles, span):
        now = slice(c, c + span)
        a_vs[..., now] = av[..., None]
        dc, lost = d[:, :, now], lost_s[:, :, now]
        np.logical_or(dc < lower, dc > upper, out=lost)
        if rows:
            # the sensed rows, which the debounce reads and maps keep
            truth = np.zeros(lost.shape[:-1] + shape[1:], dtype=bool)
            truth[..., stance] = ~lost
            bits[:, :, now] = sensed = _debounce(truth ^ flips[:, :, now],
                                                 sensor.latch_steps)
            count = (sensed & stance).sum(axis=(-2, -1))
        else:
            # a stance sample reads 1 unless exactly one of a loss and
            # a flip hit it, so the stance samples alone give the count
            count = retraction - (lost ^ flips_s[:, :, now]).sum(axis=-1)
        gamma_s[..., now] = count / retraction
        if c + span < cycles:
            av = checked_amplitudes(next_av(c, gamma_s[..., c], av)
                                    ).reshape(grid)
            lower, upper = thresholds(av)
    gamma = (retraction - lost_s.sum(axis=-1)) / retraction
    return gamma, gamma_s, a_vs, lost_s, bits, d


def simulate_walks(cfg: GaitConfig, geom: RobotGeometry,
                   heights: np.ndarray, seeds: Sequence[int],
                   a_v: Sequence[float], cycles: int, steps: int,
                   sensor: SensorModel,
                   next_av: Optional[Callable[
                       [int, np.ndarray, np.ndarray], np.ndarray]] = None
                   ) -> Walks:
    """Walk `cycles` gait cycles of the gait shape cfg from every seed at
    every starting amplitude: row i walks heights[i] of the (seeds, rows,
    cols) stack and draws its own sensor flips from default_rng(seeds[i]),
    the same at every amplitude (a seed may repeat: each of its rows draws
    those flips), and amplitude column j starts at a_v[j] (cfg.a_v is not
    read).  The per-cycle outcomes have shape (seeds, amplitudes, cycles).

    Seeds are walked max(1, BLOCK_ROWS // len(a_v)) at a time.  Without
    next_av the amplitudes hold, and all cycles of a block are one array
    operation.  With it the block steps through the cycles together:
    next_av(cycle, gamma_measured, a_v) is given the block's sensed contact
    ratios and amplitudes in that cycle, both of shape (block seeds,
    amplitudes), and returns the amplitudes of the next cycle in that shape;
    any negative, infinite or NaN amplitude raises ValueError.

    An open-loop walk with a noise-free sensor (no flips, latch_steps <= 1)
    senses its true contact ratio, so it counts each leg's lost samples
    from the cycle's height steps and builds no per-sample array; its
    gamma_measured is its gamma array and its a_v a read-only broadcast.
    """
    a_v = _checked_a_v(cfg, heights, seeds, a_v, cycles, steps)
    block = max(1, BLOCK_ROWS // len(a_v))
    starts = range(0, len(seeds), block)
    if (next_av is None and sensor.flip_prob == 0.0
            and sensor.latch_steps <= 1):
        retraction = len(_stance_table(cfg, steps)[1])
        lost = np.concatenate([_count_losses(
            cfg, geom, steps, a_v, _height_steps(heights[i:i + block],
                                                 cfg.n_pairs, cycles)
        ).sum(axis=-1) for i in starts])
        gamma = (retraction - lost) / retraction
        return Walks(gamma=gamma, gamma_measured=gamma,
                     a_v=np.broadcast_to(a_v[:, None], gamma.shape))
    per_cycle = [_walk_block(cfg, geom, heights[i:i + block],
                             seeds[i:i + block], a_v, cycles, steps, sensor,
                             next_av, maps=False)[:3]
                 for i in starts]
    gamma, gamma_measured, a_vs = (np.concatenate(a) for a in zip(*per_cycle))
    return Walks(gamma=gamma, gamma_measured=gamma_measured, a_v=a_vs)


def simulate_walk(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
                  cycles: int, steps: int, sensor: SensorModel, seed: int
                  ) -> WalkResult:
    """Walk `cycles` gait cycles over the terrain at the vertical amplitude
    cfg.a_v: the one-walk case of simulate_walks, with its contact maps.

    Each leg's foothold advances one block row per cycle (the height
    transition H(next) - H(current) drives the loss rules); the continuous
    forward displacement is tracked separately through the speed model.
    """
    heights = terrain.heights[None]
    a_v = _checked_a_v(cfg, heights, [seed], [cfg.a_v], cycles, steps)
    gamma, _, _, lost, bits, d = _walk_block(
        cfg, geom, heights, [seed], a_v, cycles, steps, sensor, None,
        maps=True)
    _, leg, _, step = _stance_table(cfg, steps)
    # each lost sample's cycle and stance sample, from its flat index
    c, s = np.divmod(at := np.flatnonzero(lost), len(leg))
    # object strings: every event shares the two str objects, not a copy
    causes = np.array(["deformed", "too_deep"], dtype=object)[
        (d.ravel()[at] <= 0.0).view(np.uint8)]
    return WalkResult(
        measured=ContactMap(legs=2 * cfg.n_pairs, steps=steps, cycles=cycles,
                            bits=np.concatenate(bits[0, 0], axis=1)),
        ideal=ideal_contact_map(cfg, steps, cycles),
        gamma_per_cycle=gamma[0, 0].tolist(),
        forward_speed_ratio=predict_speed_band(
            slip_distribution(cfg, geom), gamma[0, 0]).v_ratio_mid.tolist(),
        loss_events=list(zip(leg[s].tolist(), (c * steps + step[s]).tolist(),
                             causes.tolist())),
    )
