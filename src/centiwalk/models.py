"""Analytic performance models.

Two models, validated elsewhere against the Monte Carlo walker:

* speed vs contact ratio: given the slip-angle distribution, the set of
  per-bin contact weights consistent with a contact ratio gamma spans a
  band of achievable mean friction, which maps linearly to forward speed.
* contact ratio vs terrain and vertical amplitude: conditional loss
  probabilities for the terrain-drop (reach-limited) and terrain-rise
  (deformation-limited) cases, combined into gamma and the contact-error
  probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .gait import GaitConfig
from .kinematics import (
    RobotGeometry,
    SlipDistribution,
    recoverable_heights,
    retraction_profile,
)
from .terrain import HeightDeltaModel, tail_probability

WEIGHT_TOL = 1e-9


@dataclass
class FrictionPrediction:
    """Band of normalized friction and speed consistent with gamma: floats
    for one gamma, arrays of its shape for an array of them."""

    gamma: float
    f_norm_min: float
    f_norm_max: float
    v_ratio_min: float
    v_ratio_max: float

    def __post_init__(self):
        if np.any(self.f_norm_min > self.f_norm_max + WEIGHT_TOL):
            raise ValueError("friction band inverted")

    @property
    def v_ratio_mid(self) -> float:
        return 0.5 * (self.v_ratio_min + self.v_ratio_max)


@dataclass
class LossModelOutput:
    """Analytic loss bundle for one (terrain model, gait) pair."""

    p_loss1: float
    p_loss2: float
    p_loss: float
    gamma: float
    gamma_ideal: float
    p_e: float


def friction_bounds(dist: SlipDistribution,
                    gamma) -> Tuple[np.ndarray, np.ndarray]:
    """Min and max normalized mean friction (retained thrust minus belly
    drag 1 - gamma) over all per-bin contact weights w_i in [0, 1]
    realizing the contact ratio gamma, for one gamma or an array of them.

    The objective is linear over the box [0,1]^B with one equality
    constraint, so the optimum is the greedy fill: contact mass gamma on the
    bins of least (for the minimum) or greatest (for the maximum) cos(beta),
    with one fractional bin, read off the cumulative mass and thrust of the
    bins sorted by cos(beta).
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma >= 0.0) & (gamma <= 1.0 + WEIGHT_TOL)):
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    cosb = np.cos(np.radians(dist.bin_centers))
    order = np.argsort(cosb)
    p = dist.probs[order]
    mass = np.concatenate([[0.0], np.cumsum(p)])
    thrust = np.concatenate([[0.0], np.cumsum(p * cosb[order])])
    f_min = np.interp(gamma, mass, thrust) - (1.0 - gamma)
    f_max = thrust[-1] - np.interp(mass[-1] - gamma, mass, thrust) - (1.0 - gamma)
    return f_min, f_max


def predict_speed_band(dist: SlipDistribution, gamma) -> FrictionPrediction:
    """Friction band mapped to the speed ratio v/v_open by the linear speed
    law, using the distribution's own coefficient; a negative speed is 0.
    No upper clamp is needed: f_max rises with gamma (slope cos(beta) + 1
    >= 0) to 1 / speed_coeff at gamma = 1, so v_ratio_max <= 1."""
    f_min, f_max = friction_bounds(dist, gamma)
    k = dist.speed_coeff
    return FrictionPrediction(gamma=gamma, f_norm_min=f_min, f_norm_max=f_max,
                              v_ratio_min=np.maximum(0.0, k * f_min),
                              v_ratio_max=np.maximum(0.0, k * f_max))


def predict_gamma(geom: RobotGeometry, cfg: GaitConfig,
                  model: HeightDeltaModel, m: int) -> LossModelOutput:
    """Analytic contact ratio for one gait on a height-difference model.

    Terrain drops cost contact when the drop exceeds the foot's reach;
    terrain rises cost contact when the rise, less any lift from the
    vertical wave, exceeds what leg retraction can recover.
    """
    prof = retraction_profile(cfg, geom, m)
    p_loss1 = float(np.mean(
        tail_probability(model, prof.reach, "dh_nonpositive")))
    thresholds = recoverable_heights(geom, prof.d_s) + np.maximum(prof.lift, 0.0)
    p_loss2 = float(np.mean(tail_probability(model, thresholds, "dh_positive")))
    p_loss = model.p1 * p_loss1 + (1.0 - model.p1) * p_loss2
    gamma = 1.0 - p_loss
    # the flat-terrain contact ratio: samples the vertical wave leaves on
    # the nominal ground plane
    gamma_ideal = float(np.mean(prof.lift <= 1e-12))
    p_e = (1.0 - gamma) / gamma_ideal if gamma_ideal > 0.0 else float("inf")
    return LossModelOutput(
        p_loss1=p_loss1,
        p_loss2=p_loss2,
        p_loss=p_loss,
        gamma=gamma,
        gamma_ideal=gamma_ideal,
        p_e=p_e,
    )

