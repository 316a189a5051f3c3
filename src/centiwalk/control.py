"""Open-loop and feedback gait execution over simulated terrain.

The feedback law is proportional: the vertical wave amplitude for the next
cycle is k_p times the shortfall of the sensed contact ratio below its set
point, clamped to the actuation range.  The sensed contact ratio comes from
the (possibly noisy) binary sensor stream over exactly one gait cycle of
retraction samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import mean, pvariance
from typing import Dict, List, Optional, Sequence

from .gait import GaitConfig
from .kinematics import RobotGeometry, flat_ground_stride
from .contact_sim import SensorModel, simulate_walk
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


def update_av(cc: ControllerConfig, gamma_s: float) -> float:
    """Next-cycle vertical amplitude from the proportional law, clamped."""
    if not 0.0 <= gamma_s <= 1.0:
        raise ValueError(f"gamma_s must be in [0, 1], got {gamma_s}")
    raw = cc.k_p * (cc.gamma_set - gamma_s)
    return float(min(max(raw, cc.av_min), cc.av_max))


def run_trial(cfg: GaitConfig, geom: RobotGeometry, terrain: TerrainGrid,
              cc: ControllerConfig, cycles: int, steps: int,
              sensor: SensorModel, seed: int,
              update_every: Optional[int] = None) -> TrialRecord:
    """Execute one trial: open loop at cc.fixed_av if update_every is None,
    else feedback from cc.av_min, updated every update_every cycles."""
    if update_every is not None and update_every < 1:
        raise ValueError(f"update_every must be >= 1, got {update_every}")

    def next_av(cycle: int, gamma_measured: float, a_v: float) -> float:
        if (cycle + 1) % update_every:
            return a_v
        return update_av(cc, gamma_measured)

    open_loop = update_every is None
    start = replace(cfg, a_v=cc.fixed_av if open_loop else cc.av_min)
    res = simulate_walk(start, geom, terrain, cycles, steps, sensor, seed,
                        None if open_loop else next_av)
    stride = flat_ground_stride(cfg, geom)
    displacement = [stride * v for v in res.forward_speed_ratio]
    return TrialRecord(
        gamma_s=res.gamma_measured,
        a_v=res.a_v,
        v_ratio=res.forward_speed_ratio,
        displacement=displacement,
        mean_speed_ratio=mean(res.forward_speed_ratio),
        speed_variance=pvariance(res.forward_speed_ratio),
        total_distance=sum(displacement),
    )


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
    stream."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    sensor = SensorModel(flip_prob=flip_prob)
    results: Dict[str, ScenarioStats] = {}
    for name, update_every in ARMS.items():
        trials = [run_trial(cfg, geom, terrain, cc, cycles, steps, sensor,
                            seed, update_every)
                  for terrain, seed in zip(terrains, seeds, strict=True)]
        results[name] = ScenarioStats(
            mean_speed_ratio=mean(t.mean_speed_ratio for t in trials),
            speed_variance=mean(t.speed_variance for t in trials),
            mean_distance=mean(t.total_distance for t in trials),
            trials=trials,
        )
    return results
