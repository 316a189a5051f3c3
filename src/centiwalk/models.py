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

from .gait import GaitConfig, checked_amplitudes, checked_count
from .kinematics import RobotGeometry, SlipDistribution, _threshold_table
from .terrain import HeightDeltaModel, tail_probability

WEIGHT_TOL = 1e-9


@dataclass
class FrictionPrediction:
    """Band of the speed ratio v/v_open consistent with gamma: floats for
    one gamma, arrays of its shape for an array of them."""

    v_ratio_min: float
    v_ratio_max: float

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
    with one fractional bin, read off the distribution's cumulative mass and
    thrust of the bins sorted by cos(beta).
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma >= 0.0) & (gamma <= 1.0 + WEIGHT_TOL)):
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    mass, thrust = dist.thrust_table
    f_min = np.interp(gamma, mass, thrust) - (1.0 - gamma)
    f_max = thrust[-1] - np.interp(mass[-1] - gamma, mass, thrust) - (1.0 - gamma)
    if np.any(f_min > f_max + WEIGHT_TOL):
        raise ValueError("friction band inverted")
    return f_min, f_max


def predict_speed_band(dist: SlipDistribution, gamma) -> FrictionPrediction:
    """Friction band mapped to the speed ratio v/v_open by the linear speed
    law, using the distribution's own coefficient; a negative speed is 0.
    No upper clamp is needed: f_max rises with gamma (slope cos(beta) + 1
    >= 0) to 1 / speed_coeff at gamma = 1, so v_ratio_max <= 1."""
    f_min, f_max = friction_bounds(dist, gamma)
    k = dist.speed_coeff
    return FrictionPrediction(v_ratio_min=np.maximum(0.0, k * f_min),
                              v_ratio_max=np.maximum(0.0, k * f_max))


def predict_gamma(geom: RobotGeometry, cfg: GaitConfig, model: HeightDeltaModel,
                  steps: int, a_v) -> LossModelOutput:
    """Analytic contact ratio for one gait on a height-difference model, at
    each vertical amplitude of the 1-D grid a_v (degrees; cfg.a_v is not
    read), sampled where a walk of `steps` samples per cycle samples it.

    Terrain drops cost contact when the drop exceeds the foot's reach;
    terrain rises cost contact when the rise, less any lift from the
    vertical wave, exceeds what leg retraction can recover.  Each tail is
    evaluated once per distinct threshold.  Odd steps, or a gait with no
    stance sample, raise a walk's errors.
    """
    a_v = checked_amplitudes(a_v)
    checked_count(steps, "steps")       # the cached table takes 72.0 for 72
    table = _threshold_table(cfg, geom, steps, tuple(a_v.tolist()))
    p_loss1 = np.mean(tail_probability(model, table.drop, "dh_nonpositive")
                      [table.at_drop].reshape(len(a_v), -1), axis=-1)
    p_loss2 = np.mean(tail_probability(model, table.rise, "dh_positive")
                      [table.at_rise].reshape(len(a_v), -1), axis=-1)
    p_loss = model.p1 * p_loss1 + (1.0 - model.p1) * p_loss2
    gamma = 1.0 - p_loss
    gamma_ideal = table.gamma_ideal.copy()
    p_e = np.divide(1.0 - gamma, gamma_ideal, out=np.full_like(gamma, np.inf),
                    where=gamma_ideal > 0.0)
    return LossModelOutput(p_loss1=p_loss1, p_loss2=p_loss2, p_loss=p_loss,
                           gamma=gamma, gamma_ideal=gamma_ideal, p_e=p_e)
