"""Open-loop and feedback gait execution over simulated terrain.

The feedback law is proportional: the vertical wave amplitude for the next
cycle is k_p times the shortfall of the sensed contact ratio below its set
point, clamped to the actuation range.  The sensed contact ratio comes from
the (possibly noisy) binary sensor stream over exactly one gait cycle of
retraction samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean, pvariance
from typing import Dict, List, Optional, Sequence

import numpy as np

from .gait import GaitConfig
from .kinematics import RobotGeometry, flat_ground_stride
from .contact_sim import SensorModel, Walks, simulate_walks
from .terrain import TerrainGrid


@dataclass
class ControllerConfig:
    """Proportional contact-ratio controller parameters.

    A feedback trial starts at av_min; an open-loop trial holds fixed_av.
    """

    k_p: float = 60.0
    gamma_set: float = 0.9
    av_min: float = 0.0
    av_max: float = 25.0
    fixed_av: float = 0.0

    def __post_init__(self):
        # each range test is written so that NaN fails it
        if not self.k_p > 0.0:
            raise ValueError(f"k_p must be > 0, got {self.k_p}")
        if not 0.0 < self.gamma_set <= 1.0:
            raise ValueError("gamma_set must be in (0, 1]")
        if not 0.0 <= self.av_min <= self.av_max:
            raise ValueError(f"need 0 <= av_min <= av_max, got {self.av_min} "
                             f"and {self.av_max}")
        if not self.fixed_av >= 0.0:
            raise ValueError(f"fixed_av must be >= 0, got {self.fixed_av}")


# The compared controller arms, each with its feedback update period in
# cycles; None is open loop
ARMS = {"open_loop": None, "feedback_every1": 1, "feedback_every2": 2,
        "feedback_every3": 3}


@dataclass
class TrialRecord:
    """Per-cycle history and summary statistics of one trial."""

    gamma_s: List[float]
    a_v: List[float]
    v_ratio: List[float]
    displacement: List[float]
    mean_speed_ratio: float
    speed_variance: float
    total_distance: float


def update_av(cc: ControllerConfig, gamma_s):
    """Next-cycle vertical amplitude from the proportional law, clamped, for
    one sensed contact ratio or an array of them."""
    if not np.all((0.0 <= gamma_s) & (gamma_s <= 1.0)):
        raise ValueError(f"gamma_s must be in [0, 1], got {gamma_s}")
    raw = cc.k_p * (cc.gamma_set - gamma_s)
    return np.minimum(np.maximum(raw, cc.av_min), cc.av_max)


def _feedback(cc: ControllerConfig, periods: Sequence[Optional[int]]):
    """simulate_walks' next_av for walks whose row i updates its amplitude
    every periods[i] cycles, or never for None (open loop); None when no
    row updates."""
    if all(p is None for p in periods):
        return None
    # open loop is an infinite period: (cycle + 1) % inf is never 0
    every = np.array([math.inf if p is None else p for p in periods])

    def next_av(rows, cycle, gamma_s, a_v):
        return np.where((cycle + 1) % every[rows] == 0, update_av(cc, gamma_s),
                        a_v)
    return next_av


def _trial(walks: Walks, row: int, stride: float) -> TrialRecord:
    v_ratio = walks.v_ratio[row].tolist()
    displacement = (stride * walks.v_ratio[row]).tolist()
    return TrialRecord(
        gamma_s=walks.gamma_measured[row].tolist(),
        a_v=walks.a_v[row].tolist(),
        v_ratio=v_ratio,
        displacement=displacement,
        mean_speed_ratio=mean(v_ratio),
        speed_variance=pvariance(v_ratio),
        total_distance=sum(displacement),
    )


def _start_av(cc: ControllerConfig, update_every: Optional[int]) -> float:
    return cc.fixed_av if update_every is None else cc.av_min


def run_trial(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
              cc: ControllerConfig, cycles: int, steps: int,
              sensor: SensorModel, seed: int,
              update_every: Optional[int] = None) -> TrialRecord:
    """Execute one trial: open loop at cc.fixed_av if update_every is None,
    else feedback from cc.av_min, updated every update_every cycles."""
    if update_every is not None and update_every < 1:
        raise ValueError(f"update_every must be >= 1, got {update_every}")
    walks = simulate_walks(cfg, geom, [terrain], [seed],
                           [_start_av(cc, update_every)], cycles, steps,
                           sensor, _feedback(cc, [update_every]))
    return _trial(walks, 0, flat_ground_stride(cfg, geom))


@dataclass
class ScenarioStats:
    """Seed-averaged summary of one controller arm plus its per-seed
    trials, in seed order."""

    mean_speed_ratio: float
    speed_variance: float
    mean_distance: float
    trials: List[TrialRecord]

    @property
    def per_seed_speed(self) -> List[float]:
        return [t.mean_speed_ratio for t in self.trials]


def compare_controllers(cfg: GaitConfig, geom: RobotGeometry,
                        cc: ControllerConfig, terrains: Sequence[TerrainGrid],
                        seeds: Sequence[int], cycles: int, steps: int,
                        flip_prob: float) -> Dict[str, ScenarioStats]:
    """Paired-seed comparison of the ARMS: for a given seed every arm walks
    the same terrain, terrains[i] for seeds[i], with the same sensor noise
    stream.  Every arm and seed is one row of a single batch."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    periods = list(ARMS.values())
    arms = len(periods)
    # seed-major rows, so that a block of rows shares each seed's flip draw
    walks = simulate_walks(
        cfg, geom, [t for t in terrains for _ in periods],
        [s for s in seeds for _ in periods],
        [_start_av(cc, p) for p in periods] * len(seeds), cycles, steps,
        SensorModel(flip_prob=flip_prob), _feedback(cc, periods * len(seeds)))
    stride = flat_ground_stride(cfg, geom)
    results: Dict[str, ScenarioStats] = {}
    for j, name in enumerate(ARMS):
        trials = [_trial(walks, row, stride)
                  for row in range(j, len(walks.v_ratio), arms)]
        results[name] = ScenarioStats(
            mean_speed_ratio=mean(t.mean_speed_ratio for t in trials),
            speed_variance=mean(t.speed_variance for t in trials),
            mean_distance=mean(t.total_distance for t in trials),
            trials=trials,
        )
    return results
