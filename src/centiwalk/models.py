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
from functools import lru_cache
from typing import Tuple

import numpy as np

from .gait import GaitConfig
from .kinematics import (
    RobotGeometry,
    SlipDistribution,
    recoverable_heights,
    stance_geometry,
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
    """Analytic loss bundle for one (terrain model, gait) pair: arrays with
    one entry per vertical amplitude."""

    p_loss1: np.ndarray
    p_loss2: np.ndarray
    p_loss: np.ndarray
    gamma: np.ndarray
    gamma_ideal: np.ndarray
    p_e: np.ndarray


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


@lru_cache
def _stance_thresholds(geom: RobotGeometry, cfg: GaitConfig, m: int,
                       a_v: Tuple[float, ...]) -> tuple:
    """The terrain-independent part of predict_gamma, per amplitude of a_v
    (one row each) and uniform stance phase (m columns): the foot's reach
    and the rise it recovers after its lift, each as its distinct values
    and the index of every entry's value among them, and per amplitude the
    flat-terrain contact ratio, the share of samples the vertical wave
    leaves on the nominal ground plane.  Built once per grid and shared,
    read-only."""
    d_s, reach, lift = stance_geometry(cfg, geom, cfg.duty * np.arange(m) / m,
                                       np.array(a_v)[:, None])
    rise = recoverable_heights(geom, d_s) + np.maximum(lift, 0.0)
    table = (*np.unique(reach.ravel(), return_inverse=True),
             *np.unique(rise.ravel(), return_inverse=True),
             np.mean(lift <= 1e-12, axis=-1))
    for a in table:
        a.setflags(write=False)
    return table


def predict_gamma(geom: RobotGeometry, cfg: GaitConfig, model: HeightDeltaModel,
                  m: int, a_v) -> LossModelOutput:
    """Analytic contact ratio for one gait on a height-difference model, at
    each vertical amplitude of the 1-D grid a_v (degrees; cfg.a_v is not
    read).

    Terrain drops cost contact when the drop exceeds the foot's reach;
    terrain rises cost contact when the rise, less any lift from the
    vertical wave, exceeds what leg retraction can recover.  The stance is
    sampled at m uniform phases: one row of m samples per amplitude.  Each
    tail is evaluated once per distinct threshold.
    """
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    reach, at_reach, rise, at_rise, gamma_ideal = _stance_thresholds(
        geom, cfg, m, tuple(np.asarray(a_v, dtype=float).tolist()))
    shape = gamma_ideal.shape + (m,)
    p_loss1 = np.mean(tail_probability(model, reach, "dh_nonpositive")
                      [at_reach].reshape(shape), axis=-1)
    p_loss2 = np.mean(tail_probability(model, rise, "dh_positive")
                      [at_rise].reshape(shape), axis=-1)
    p_loss = model.p1 * p_loss1 + (1.0 - model.p1) * p_loss2
    gamma = 1.0 - p_loss
    p_e = np.divide(1.0 - gamma, gamma_ideal, out=np.full_like(gamma, np.inf),
                    where=gamma_ideal > 0.0)
    return LossModelOutput(p_loss1=p_loss1, p_loss2=p_loss2, p_loss=p_loss,
                           gamma=gamma, gamma_ideal=gamma_ideal.copy(),
                           p_e=p_e)
