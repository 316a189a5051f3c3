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

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .gait import GaitConfig, phase_table
from .kinematics import (
    RobotGeometry,
    reach_and_lift,
    recoverable_heights,
    slip_distribution,
    stance_geometry,
    vertical_wave,
)
from .models import predict_speed_band
from .terrain import TerrainGrid


# walks per array pass: bounds the (walks x cycles x legs x steps) arrays,
# and so peak memory, at any batch size
BLOCK_ROWS = 64

# amplitudes per loss-rank table: a table holds (amplitudes x stance samples)
# rows by (amplitudes x legs) columns, so its size grows with the square of
# its amplitudes, and a longer grid is counted this many at a time
RANK_AMPLITUDES = 4

# a loss event's cause, indexed by whether its height step is a drop
_CAUSES = np.array(["deformed", "too_deep"], dtype=object)


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
    plus an optional debounce window of latch_steps samples, which restarts
    at each gait cycle's first sample.  latch_steps is set through the
    library only: no config key and no CLI command turns debounce on."""

    flip_prob: float = 0.0
    latch_steps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError(f"flip_prob must be in [0, 1), got {self.flip_prob}")
        try:
            self.latch_steps = operator.index(self.latch_steps)
        except TypeError:
            raise ValueError(f"latch_steps must be an integer, got "
                             f"{self.latch_steps!r}") from None
        if self.latch_steps < 0:
            raise ValueError("latch_steps must be >= 0")


@dataclass
class Walks:
    """Per-cycle outcomes of every seed walked at every starting amplitude,
    each of shape (seeds, amplitudes, cycles).  The contact maps, of shape
    (block seeds, amplitudes, cycles, 2n, steps), cover the first block of
    seeds only, so that memory stays flat at any number of seeds; a walk
    that counts its losses builds them when they are first read."""

    gamma: np.ndarray            # true contact ratio
    gamma_measured: np.ndarray   # sensed contact ratio
    a_v: np.ndarray              # vertical amplitude
    v_ratio: np.ndarray          # speed ratio v/v_open
    # returns the first block's (bits, lost)
    _build_maps: Callable[[], Tuple[np.ndarray, np.ndarray]] = field(
        repr=False)

    @cached_property
    def _maps(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._build_maps()

    @property
    def bits(self) -> np.ndarray:
        """Measured bits."""
        return self._maps[0]

    @property
    def lost(self) -> np.ndarray:
        """Contact lost to the terrain, the shape of bits."""
        return self._maps[1]


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


@lru_cache
def _stance_table(cfg: GaitConfig, geom: RobotGeometry, steps: int) -> tuple:
    """The gait's stance mask over one cycle of `steps` samples, shape
    (2n, steps), and per stance sample in row-major order: its leg, the
    terrain rise its retraction recovers and the vertical wave's shape at
    its reduced phase, from which reach_and_lift gives its reach and lift
    at any amplitude.  None of these depends on cfg.a_v.  Built once per
    config and shared, read-only, by every walk."""
    phases = phase_table(cfg, steps)
    stance = phases < cfg.duty
    u = phases[stance]
    d_s, _, _ = stance_geometry(cfg, geom, u)
    table = (stance, np.nonzero(stance)[0], recoverable_heights(geom, d_s),
             vertical_wave(cfg, u))
    for a in table:
        a.setflags(write=False)
    return table


def _rise_cutoffs(recover: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Per stance sample, the largest float c with c - max(lift, 0) <=
    recover: a terrain rise d loses the sample exactly when d > c, under
    the rule's own rounding of d - max(lift, 0).  recover + max(lift, 0)
    rounds to within one float of c, so one step down where it fails the
    rule and one step up where the next float still passes find c."""
    lift = np.maximum(lift, 0.0)
    c = recover + lift
    c = np.where(c - lift <= recover, c, np.nextafter(c, -np.inf))
    up = np.nextafter(c, np.inf)
    return np.where(up - lift <= recover, up, c)


@lru_cache
def _loss_ranks(cfg: GaitConfig, geom: RobotGeometry, steps: int,
                a_v: Tuple[float, ...]) -> tuple:
    """Loss thresholds of every stance sample at every amplitude of a_v,
    for counting: a drop d loses the samples whose reach is below -d, a
    rise d the samples whose rise cutoff is below d.  Per side (0 drop,
    1 rise): the thresholds in ascending order, shape (2, amplitudes x
    stance samples), and below[side, r, g], how many of group g's
    thresholds are among that side's r smallest, where group g is leg
    g % 2n at amplitude a_v[g // 2n].  Built once per grid and shared,
    read-only, by every walk."""
    _, stance_leg, recover, wave = _stance_table(cfg, geom, steps)
    reach, lift = reach_and_lift(geom, wave, np.array(a_v)[:, None])
    groups = len(a_v) * 2 * cfg.n_pairs
    group = (2 * cfg.n_pairs * np.arange(len(a_v))[:, None]
             + stance_leg).ravel()
    thresholds = np.stack([reach.ravel(),
                           _rise_cutoffs(recover, lift).ravel()])
    order = np.argsort(thresholds, axis=-1)
    # a group's count is at most its leg's stance samples, so at most steps
    below = np.zeros((2, order.shape[1] + 1, groups),
                     dtype=np.min_scalar_type(steps))
    np.cumsum(group[order][..., None] == np.arange(groups), axis=1,
              dtype=below.dtype, out=below[:, 1:])
    table = (np.take_along_axis(thresholds, order, axis=-1), below)
    for a in table:
        a.setflags(write=False)
    return table


def _count_losses(cfg: GaitConfig, geom: RobotGeometry, steps: int,
                  a_v: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Stance samples each leg loses, shape (seeds, amplitudes, cycles, 2n),
    where the legs meet the height steps dh, shape (seeds, cycles, 2n), at
    each amplitude of the 1-D a_v: the per-sample loss rules' count, from
    one sorted search per side for every RANK_AMPLITUDES amplitudes."""
    rise = dh > 0.0
    side = rise.view(np.int8)[:, None]
    counts = []
    for j in range(0, len(a_v), RANK_AMPLITUDES):
        chunk = tuple(a_v[j:j + RANK_AMPLITUDES].tolist())
        thresholds, below = _loss_ranks(cfg, geom, steps, chunk)
        rank = np.where(rise, np.searchsorted(thresholds[1], dh),
                        np.searchsorted(thresholds[0], -dh))
        group = np.arange(below.shape[-1]).reshape(len(chunk), 1, -1)
        counts.append(below[side, rank[:, None], group])
    return np.concatenate(counts, axis=1)


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

    An open-loop walk with a noise-free sensor (no flips, latch_steps <= 1)
    senses its true contact ratio, so it counts each leg's lost samples
    from the cycle's height steps and builds no per-sample array; its
    contact maps are walked sample by sample when first read.
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
    stance, stance_leg, recover, wave = _stance_table(cfg, geom, steps)
    retraction = len(stance_leg)
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

    def block_steps(block: slice) -> np.ndarray:
        return np.stack([_height_steps(t, n, cycles) for t in terrains[block]])

    def count_block(block: slice):
        dh = block_steps(block)
        lost = _count_losses(cfg, geom, steps, a_v, dh).sum(axis=-1)
        gamma = (retraction - lost) / retraction
        a_vs = np.broadcast_to(a_v[:, None], lost.shape)
        return (gamma, gamma.copy(), a_vs,
                predict_speed_band(dist, gamma).v_ratio_mid)

    def walk_block(block: slice):
        dh = block_steps(block)
        grid = (len(dh), len(a_v))
        # seeds x amplitudes x cycles x stance samples, a fresh array
        d = np.repeat(dh[:, None], len(a_v), axis=1)[..., stance_leg]
        av = np.broadcast_to(a_v, grid)
        reach, lift = reach_and_lift(geom, wave, av[..., None])
        if sensor.flip_prob > 0.0:
            # one draw per seed, shared by its amplitudes
            flips = np.stack([
                np.random.default_rng(s).random(shape) < sensor.flip_prob
                for s in seeds[block]]).view(np.uint8)[:, None]
        else:
            flips = np.broadcast_to(np.uint8(0), (grid[0], 1) + shape)
        lost_s = np.empty(d.shape, dtype=bool)
        a_vs = np.empty(grid + (cycles,))

        def sensed_at(c):
            # cycle c's sensed contact ratio, of shape grid
            if sensor.latch_steps <= 1:
                # a stance sample reads 1 unless exactly one of a loss and
                # a flip hit it, so the stance samples alone give the count
                wrong = lost_s[:, :, c] ^ flips[:, :, c][..., stance]
                return (retraction - wrong.sum(axis=-1)) / retraction
            # the debounce reads protraction samples too: the cycle's rows
            truth = np.zeros(grid + shape[1:], dtype=bool)
            truth[..., stance] = ~lost_s[:, :, c]
            return sensed_ratio(sense(truth, flips[:, :, c]))

        # the next amplitude needs this cycle's sensed contact ratio, so
        # feedback walks one cycle per span; held amplitudes walk all at once
        span = max(cycles, 1) if next_av is None else 1
        for c in range(0, cycles, span):
            now = slice(c, c + span)
            a_vs[..., now] = av[..., None]
            lost_s[:, :, now] = lost_at(d[:, :, now], reach[:, :, None],
                                        lift[:, :, None])
            if c + span < cycles:
                new = np.asarray(next_av(c, sensed_at(c), av),
                                 dtype=float).reshape(grid)
                if not np.all(new >= 0.0):
                    raise ValueError(f"a_v must be >= 0, got {new.min()}")
                changed = new != av
                if changed.any():
                    reach[changed], lift[changed] = reach_and_lift(
                        geom, wave, new[changed, None])
                    av = new
        lost = np.zeros(grid + shape, dtype=bool)
        lost[..., stance] = lost_s
        bits = sense(stance & ~lost, flips)
        gamma = (retraction - lost_s.sum(axis=-1)) / retraction
        return (gamma, sensed_ratio(bits), a_vs,
                predict_speed_band(dist, gamma).v_ratio_mid, bits, lost)

    block = max(1, BLOCK_ROWS // len(a_v))
    blocks = [slice(i, i + block) for i in range(0, len(seeds), block)]
    if (next_av is None and sensor.flip_prob == 0.0
            and sensor.latch_steps <= 1):
        per_cycle = [count_block(b) for b in blocks]

        def first_maps():
            return walk_block(blocks[0])[4:]
    else:
        per_cycle = []
        for b in blocks:
            *arrays, bits, lost = walk_block(b)
            per_cycle.append(arrays)
            if b is blocks[0]:
                maps = bits, lost

        def first_maps():
            return maps
    gamma, gamma_measured, a_vs, v_ratio = (np.concatenate(a)
                                            for a in zip(*per_cycle))
    return Walks(gamma=gamma, gamma_measured=gamma_measured, a_v=a_vs,
                 v_ratio=v_ratio, _build_maps=first_maps)


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
    causes = _CAUSES[(_height_steps(terrain, n, cycles)[c, leg] <= 0.0)
                     .view(np.uint8)]
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
