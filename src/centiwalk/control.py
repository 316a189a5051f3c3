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
from .kinematics import RobotGeometry
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
        if self.k_p <= 0.0:
            raise ValueError("k_p must be > 0")
        if not 0.0 < self.gamma_set <= 1.0:
            raise ValueError("gamma_set must be in (0, 1]")
        if self.av_min > self.av_max:
            raise ValueError("av_min must be <= av_max")
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

    def to_csv(self, path, stamp: str = "") -> None:
        """Write the trace as CSV, after the comment line `stamp` if given."""
        with open(path, "w") as fh:
            fh.write(stamp)
            fh.write("cycle,gamma_s,a_v_deg,v_ratio,displacement_cm\n")
            for c, (g, a, v, d) in enumerate(
                    zip(self.gamma_s, self.a_v, self.v_ratio, self.displacement)):
                fh.write(f"{c},{g:.6f},{a:.6f},{v:.6f},{d:.6f}\n")
            fh.write(f"summary,{mean(self.gamma_s):.6f},,"
                     f"{self.mean_speed_ratio:.6f},{self.total_distance:.6f}\n")


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
    return TrialRecord(
        gamma_s=res.gamma_measured,
        a_v=res.a_v,
        v_ratio=res.forward_speed_ratio,
        displacement=res.displacement_per_cycle,
        mean_speed_ratio=mean(res.forward_speed_ratio),
        speed_variance=pvariance(res.forward_speed_ratio),
        total_distance=sum(res.displacement_per_cycle),
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
    results: Dict[str, ScenarioStats] = {}
    for sc in scenarios:
        trials = [
            run_trial(cfg, geom,
                      generate_terrain(sc.r_g, rows=rows, cols=terrain_cols,
                                       seed=seed),
                      sc.controller, cycles, steps,
                      SensorModel(flip_prob=sc.flip_prob), seed)
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
