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
from typing import Optional, Sequence

import numpy as np

from .gait import GaitConfig
from .kinematics import RobotGeometry
from .contact_sim import SensorModel, Walks, simulate_walks


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
        # each range test is written so that NaN and inf fail it
        if not 0.0 < self.k_p < math.inf:
            raise ValueError(f"k_p must be finite and > 0, got {self.k_p}")
        if not 0.0 < self.gamma_set <= 1.0:
            raise ValueError("gamma_set must be in (0, 1]")
        if not 0.0 <= self.av_min <= self.av_max < math.inf:
            raise ValueError(f"need 0 <= av_min <= av_max < inf, got "
                             f"{self.av_min} and {self.av_max}")
        if not 0.0 <= self.fixed_av < math.inf:
            raise ValueError(f"fixed_av must be finite and >= 0, got "
                             f"{self.fixed_av}")


# The compared controller arms, each with its feedback update period in
# cycles; None is open loop
ARMS = {"open_loop": None, "feedback_every1": 1, "feedback_every2": 2,
        "feedback_every3": 3}


def update_av(cc: ControllerConfig, gamma_s):
    """Next-cycle vertical amplitude from the proportional law, clamped, for
    one sensed contact ratio or an array of them."""
    if not np.all((0.0 <= gamma_s) & (gamma_s <= 1.0)):
        raise ValueError(f"gamma_s must be in [0, 1], got {gamma_s}")
    raw = cc.k_p * (cc.gamma_set - gamma_s)
    return np.minimum(np.maximum(raw, cc.av_min), cc.av_max)


def _feedback(cc: ControllerConfig, periods: Sequence[Optional[int]]):
    """simulate_walks' next_av for amplitude columns whose column j updates
    its amplitude every periods[j] cycles, or never for None (open loop)."""
    # open loop is an infinite period: (cycle + 1) % inf is never 0
    every = np.array([math.inf if p is None else p for p in periods])

    def next_av(cycle, gamma_s, a_v):
        return np.where((cycle + 1) % every == 0, update_av(cc, gamma_s), a_v)
    return next_av


def compare_controllers(cfg: GaitConfig, geom: RobotGeometry,
                        cc: ControllerConfig, heights: np.ndarray,
                        seeds: Sequence[int], cycles: int, steps: int,
                        flip_prob: float) -> Walks:
    """Paired-seed comparison of the ARMS: every seed walks its terrain,
    heights[i] of the (seeds, rows, cols) stack for seeds[i], once per arm
    with the same sensor noise stream.  The arms are the amplitude columns
    of one batch, in ARMS order: open loop holds cc.fixed_av, feedback
    starts at cc.av_min."""
    periods = list(ARMS.values())
    return simulate_walks(
        cfg, geom, heights, seeds,
        [cc.fixed_av if p is None else cc.av_min for p in periods], cycles,
        steps, SensorModel(flip_prob=flip_prob), _feedback(cc, periods))
