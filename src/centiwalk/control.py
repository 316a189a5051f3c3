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
from typing import Dict, List, Sequence

from .gait import GaitConfig
from .kinematics import RobotGeometry, flat_ground_stride
from .contact_sim import SensorModel, simulate_walk
from .terrain import TerrainGrid, generate_terrain


@dataclass
class ControllerConfig:
    """Proportional contact-ratio controller parameters.

    mode is "feedback" or "open_loop"; in open-loop mode the amplitude is
    held at fixed_av.  update_every sets the modulation period in cycles.
    """

    k_p: float = 60.0
    gamma_set: float = 0.9
    av_min: float = 0.0
    av_max: float = 25.0
    update_every: int = 1
    mode: str = "feedback"
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
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")
        if self.mode not in ("feedback", "open_loop"):
            raise ValueError(f"unknown controller mode {self.mode!r}")


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
              sensor: SensorModel, seed: int) -> TrialRecord:
    """Execute one trial; feedback updates every cc.update_every cycles."""
    open_loop = cc.mode == "open_loop"

    def next_av(cycle: int, gamma_measured: float, a_v: float) -> float:
        if (cycle + 1) % cc.update_every:
            return a_v
        return update_av(cc, gamma_measured)

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
class Scenario:
    """One controller-comparison arm: a named controller configuration run
    on terrain of the given rugosity."""

    name: str
    controller: ControllerConfig
    r_g: float
    flip_prob: float = 0.0


@dataclass
class ScenarioStats:
    """Seed-averaged summary of one scenario plus its per-seed trials, in
    seed order."""

    name: str
    mean_speed_ratio: float
    speed_variance: float
    mean_distance: float
    trials: List[TrialRecord]

    @property
    def per_seed_speed(self) -> List[float]:
        return [t.mean_speed_ratio for t in self.trials]


def compare_controllers(cfg: GaitConfig, geom: RobotGeometry,
                        scenarios: Sequence[Scenario], seeds: Sequence[int],
                        cycles: int = 10, steps: int = 72,
                        terrain_cols: int = 5) -> Dict[str, ScenarioStats]:
    """Paired-seed comparison: every scenario sees the same terrain and the
    same sensor noise stream for a given seed."""
    if len(scenarios) < 2:
        raise ValueError("need at least two scenarios to compare")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    rows = cycles + cfg.n_pairs + 2
    terrains = {(r_g, seed): generate_terrain(r_g, rows=rows,
                                              cols=terrain_cols, seed=seed)
                for r_g in {sc.r_g for sc in scenarios} for seed in seeds}
    results: Dict[str, ScenarioStats] = {}
    for sc in scenarios:
        trials = [
            run_trial(cfg, geom, terrains[sc.r_g, seed], sc.controller,
                      cycles, steps, SensorModel(flip_prob=sc.flip_prob), seed)
            for seed in seeds
        ]
        results[sc.name] = ScenarioStats(
            name=sc.name,
            mean_speed_ratio=mean(t.mean_speed_ratio for t in trials),
            speed_variance=mean(t.speed_variance for t in trials),
            mean_distance=mean(t.total_distance for t in trials),
            trials=trials,
        )
    return results
