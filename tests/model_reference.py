"""Scalar analytic contact model, kept only as a reference oracle.

This is the one-amplitude `predict_gamma` that the batched
`centiwalk.models.predict_gamma` replaced: it reads the amplitude from
`cfg.a_v`, samples the stance at the walker's stance phases for a cycle of
`steps` samples and applies `math.erf` through `np.vectorize`.  The batched
model must equal it bit for bit at every amplitude of its grid.
"""

import math

import numpy as np

from centiwalk.gait import GaitConfig, _stance_table
from centiwalk.kinematics import RobotGeometry, recoverable_heights, stance_geometry
from centiwalk.models import LossModelOutput
from centiwalk.terrain import HeightDeltaModel

_erf = np.vectorize(math.erf, otypes=[float])


def tail_probability(model: HeightDeltaModel, thresholds,
                     conditioned: str) -> np.ndarray:
    """Conditional tail probabilities of the height-difference magnitude,
    one per threshold: Pr(|dH| > t | dH <= 0) or Pr(dH > t | dH > 0)."""
    t = np.asarray(thresholds, dtype=float)
    if model.kind == "gaussian":
        if model.sigma == 0.0:
            return np.where(t < 0.0, 1.0, 0.0)
        tail = 2.0 * (0.5 * (1.0 + _erf(-t / model.sigma / math.sqrt(2.0))))
        return np.where(t <= 0.0, 1.0, tail)
    s = model.samples
    mags = np.sort(-s[s <= 0.0] if conditioned == "dh_nonpositive"
                   else s[s > 0.0])
    tail = ((len(mags) - np.searchsorted(mags, t, side="right")) / len(mags)
            if len(mags) else 0.0)
    return np.where(t <= 0.0, 1.0, tail)


def predict_gamma(geom: RobotGeometry, cfg: GaitConfig,
                  model: HeightDeltaModel, steps: int) -> LossModelOutput:
    """Analytic loss bundle at the one amplitude cfg.a_v, as floats."""
    d_s, reach, lift = stance_geometry(cfg, geom,
                                       _stance_table(cfg, steps)[2], cfg.a_v)
    p_loss1 = float(np.mean(tail_probability(model, reach, "dh_nonpositive")))
    thresholds = recoverable_heights(geom, d_s) + np.maximum(lift, 0.0)
    p_loss2 = float(np.mean(tail_probability(model, thresholds, "dh_positive")))
    p_loss = model.p1 * p_loss1 + (1.0 - model.p1) * p_loss2
    gamma = 1.0 - p_loss
    gamma_ideal = float(np.mean(lift <= 1e-12))
    p_e = (1.0 - gamma) / gamma_ideal if gamma_ideal > 0.0 else float("inf")
    return LossModelOutput(p_loss1=p_loss1, p_loss2=p_loss2, gamma=gamma,
                           gamma_ideal=gamma_ideal, p_e=p_e)
