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

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .gait import GaitConfig
from .kinematics import (
    RobotGeometry,
    SlipDistribution,
    ideal_gamma,
    recoverable_heights,
    retraction_profile,
    slip_distribution,
)
from .terrain import HeightDeltaModel, tail_probability

V_RATIO_MAX = 1.2        # band edges slightly above 1 are allowed
WEIGHT_TOL = 1e-9


@dataclass
class FrictionPrediction:
    """Band of normalized friction and speed consistent with one gamma."""

    gamma: float
    f_norm_min: float
    f_norm_max: float
    v_ratio_min: Optional[float] = None
    v_ratio_max: Optional[float] = None

    def __post_init__(self):
        if self.f_norm_min > self.f_norm_max + WEIGHT_TOL:
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


def _objective(dist: SlipDistribution, w: np.ndarray) -> float:
    """Normalized mean friction: retained thrust minus belly drag from the
    lost contact fraction."""
    cosb = np.cos(np.radians(dist.bin_centers))
    gamma = float(np.dot(dist.probs, w))
    return float(np.dot(w * dist.probs, cosb)) - (1.0 - gamma)


def extremal_weights(dist: SlipDistribution, gamma: float,
                     which: str) -> np.ndarray:
    """Per-bin contact weights w_i in [0, 1] minimizing or maximizing mean
    friction at fixed gamma.

    The objective is linear over the box [0,1]^B with one equality
    constraint, so the optimum is the greedy fill: sort bins by cos(beta)
    and assign full weight from the favourable (or unfavourable) end until
    the probability budget gamma is spent, with one fractional bin.
    """
    if not 0.0 <= gamma <= 1.0 + WEIGHT_TOL:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    probs = dist.probs
    if probs.sum() <= 0.0:
        raise ValueError("slip distribution has no probability mass")
    cosb = np.cos(np.radians(dist.bin_centers))
    order = np.argsort(-cosb if which == "max" else cosb, kind="stable")
    w = np.zeros(dist.bin_count)
    budget = min(gamma, 1.0)
    for idx in order:
        p = probs[idx]
        if p <= 0.0:
            continue
        take = min(p, budget)
        w[idx] = take / p
        budget -= take
        if budget <= 0.0:
            break
    return w


def friction_bounds(dist: SlipDistribution, gamma: float) -> FrictionPrediction:
    """Min and max normalized mean friction over all weight vectors
    realizing the given contact ratio."""
    w_min = extremal_weights(dist, gamma, "min")
    w_max = extremal_weights(dist, gamma, "max")
    return FrictionPrediction(
        gamma=gamma,
        f_norm_min=_objective(dist, w_min),
        f_norm_max=_objective(dist, w_max),
    )


def speed_from_friction(f_norm: float, coeff: float) -> float:
    """Forward speed ratio v/v_open from normalized friction (clamped)."""
    return float(np.clip(coeff * f_norm, 0.0, V_RATIO_MAX))


def predict_speed_band(dist: SlipDistribution,
                       gamma: float) -> FrictionPrediction:
    """Compose the friction band with the linear speed law, using the
    distribution's own speed coefficient."""
    fb = friction_bounds(dist, gamma)
    fb.v_ratio_min = speed_from_friction(fb.f_norm_min, dist.speed_coeff)
    fb.v_ratio_max = speed_from_friction(fb.f_norm_max, dist.speed_coeff)
    return fb


def predict_gamma(geom: RobotGeometry, cfg: GaitConfig,
                  model: HeightDeltaModel, m: int) -> LossModelOutput:
    """Analytic contact ratio for one gait on a height-difference model.

    Terrain drops cost contact when the drop exceeds the foot's reach;
    terrain rises cost contact when the rise, less any lift from the
    vertical wave, exceeds what leg retraction can recover.
    """
    prof = retraction_profile(cfg, geom, m)
    p_loss1 = float(np.mean([
        tail_probability(model, r, "dh_nonpositive") for r in prof.reach
    ]))
    thresholds = recoverable_heights(geom, prof.d_s) + np.maximum(prof.lift, 0.0)
    p_loss2 = float(np.mean([
        tail_probability(model, t, "dh_positive") for t in thresholds
    ]))
    p_loss = model.p1 * p_loss1 + (1.0 - model.p1) * p_loss2
    gamma = 1.0 - p_loss
    gamma_ideal = ideal_gamma(cfg, geom, m)
    p_e = (1.0 - gamma) / gamma_ideal if gamma_ideal > 0.0 else float("inf")
    return LossModelOutput(
        p_loss1=p_loss1,
        p_loss2=p_loss2,
        p_loss=p_loss,
        gamma=gamma,
        gamma_ideal=gamma_ideal,
        p_e=p_e,
    )


def optimal_av(geom: RobotGeometry, cfg: GaitConfig, model: HeightDeltaModel,
               av_grid: Sequence[float], m: int = 360,
               dist: Optional[SlipDistribution] = None,
               ) -> Tuple[float, FrictionPrediction]:
    """Vertical amplitude on the grid maximizing the predicted speed band
    midpoint; ties break toward the smaller amplitude."""
    av_grid = list(av_grid)
    if not av_grid:
        raise ValueError("av_grid must be non-empty")
    if dist is None:
        # planar slip path does not depend on a_v
        dist = slip_distribution(cfg, geom, bins=36)
    best_av = None
    best_band = None
    best_mid = -np.inf
    for a_v in sorted(av_grid):
        out = predict_gamma(geom, replace(cfg, a_v=a_v), model, m)
        band = predict_speed_band(dist, out.gamma)
        mid = band.v_ratio_mid
        if mid > best_mid + 1e-12:
            best_av, best_band, best_mid = a_v, band, mid
    return float(best_av), best_band
