"""Foot-tip geometry derived from the gait waves.

Everything here is planar or scalar kinematics: the slipping trajectory of a
stance foot (for the slip-angle distribution), the stance geometry
(rearward travel, vertical reach and lift of the foot over one stance), the
deformation-recovery height, and the contact-loss rule built on them.  No
dynamics are involved; the body is assumed to advance at the gait's ideal
flat-ground speed so that stance feet slip backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Tuple

import numpy as np

from .gait import GaitConfig, TWO_PI, _stance_table, checked_count


class NoSlipError(ValueError):
    """Raised when a gait's stance foot does not move, so that it has no
    slip-angle distribution."""


@dataclass(frozen=True)
class RobotGeometry:
    """Physical dimensions.

    Lengths are cm.  h_l is the maximum depth below the current ground
    surface the foot can reach with no vertical wave; h_l2 the distal link
    length governing deformation recovery; d_l the horizontal offset from
    the body pitch joint to the foot.
    """

    h_l: float = 7.0
    h_l2: float = 4.0
    d_l: float = 9.0
    module_length: float = 10.0
    leg_length: float = 10.0

    def __post_init__(self):
        for name in ("h_l", "h_l2", "d_l", "module_length", "leg_length"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:      # NaN fails it too
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        # and so must the foot paths built from them: a rise threshold is at
        # most h_l2 + 2*h_l + d_l, and the slipping path at every body-leg
        # coordination spans under 4*leg_length + module_length
        if not math.isfinite(4.0 * sum(vars(self).values())):
            raise ValueError(f"lengths overflow the foot's paths: {self}")


@dataclass
class SlipDistribution:
    """Discretized distribution of slip angles over [-180, 180] degrees.

    bin_centers are the angles beta_i, probs the arc-length-weighted
    probability mass per bin.
    """

    bin_centers: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.bin_centers = np.asarray(self.bin_centers, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.probs) != len(self.bin_centers):
            raise ValueError("bin arrays must match in length")
        if not np.all(self.probs >= 0.0):       # NaN fails both tests
            raise ValueError("probabilities must be non-negative numbers")
        if not abs(self.probs.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")
        if not (np.isfinite(self.bin_centers).all()
                and np.all(np.diff(self.bin_centers) > 0.0)):
            raise ValueError("bin centers must be finite, strictly increasing")

    @cached_property
    def speed_coeff(self) -> float:
        """Linear force-to-speed coefficient consistent with this
        distribution: it maps the undisturbed friction (gamma = 1) to full
        open-ground speed.  0 without net forward thrust, as on a grid
        whose stance samples all lie near touchdown: friction then lies at
        or below 0 at every gamma, so each speed is 0 at any coefficient."""
        f_full = float(np.dot(self.probs, np.cos(np.radians(self.bin_centers))))
        return 1.0 / f_full if f_full > 0.0 else 0.0

    @cached_property
    def thrust_table(self) -> np.ndarray:
        """Rows of the cumulative mass and thrust (mass times cos(beta)) of
        the bins sorted by cos(beta), each led by a 0; read-only."""
        cosb = np.cos(np.radians(self.bin_centers))
        order = np.argsort(cosb)
        p = self.probs[order]
        table = np.insert(np.cumsum([p, p * cosb[order]], axis=1), 0, 0.0, 1)
        table.setflags(write=False)
        return table


def flat_ground_stride(cfg: GaitConfig, geom: RobotGeometry) -> float:
    """Forward distance per gait cycle on flat ground, cm.

    Equals the net rearward sweep of a stance foot in the body frame, so the
    body advance exactly cancels the foot slip over one cycle.
    """
    return 2.0 * geom.leg_length * math.sin(math.radians(cfg.theta_leg_amp))


def slip_distribution(cfg: GaitConfig, geom: RobotGeometry,
                      steps: int) -> SlipDistribution:
    """Slip angles of a stance foot at the walker's stance samples of a
    cycle of `steps`, equal angles folded, each weighted by the foot's
    slipping speed there, so by arc length.  The angle is between the
    friction (anti-slip) direction and the forward axis, near 0 for rearward
    slip; every leg traces leg 1's path, at its own reduced phase.  Built
    once per (cfg, geom, steps) and shared: callers must not modify it."""
    return _slip_distribution(cfg, geom, checked_count(steps, "steps"))


@lru_cache
def _slip_distribution(cfg: GaitConfig, geom: RobotGeometry,
                       steps: int) -> SlipDistribution:
    u = _stance_table(cfg, steps)[2]
    leg_amp, body_amp = np.radians([cfg.theta_leg_amp, cfg.theta_body_amp])
    theta_leg = leg_amp * np.cos(np.pi * u / cfg.duty)
    body_phase = TWO_PI * (u - cfg.contact_fraction_offset)
    # d/du of x = 2L sin(A) u + L sin(theta_leg), y = M/2 sin(theta_body) +
    # L cos(theta_leg), times duty / (L + M), which keeps every float finite
    size = geom.leg_length + geom.module_length
    leg, module = geom.leg_length / size, geom.module_length / size
    dleg = -leg_amp * np.pi * np.sin(np.pi * u / cfg.duty)
    dbody = -body_amp * TWO_PI * cfg.duty * np.sin(body_phase)
    dx = leg * (2.0 * cfg.duty * np.sin(leg_amp) + np.cos(theta_leg) * dleg)
    dy = 0.5 * module * np.cos(body_amp * np.cos(body_phase)) * dbody \
        - leg * np.sin(theta_leg) * dleg
    speed = np.hypot(dx, dy)
    total = speed.sum()
    if total <= 0.0:
        raise NoSlipError(f"degenerate foot trajectory: no slip motion at "
                          f"theta_leg_amp = {cfg.theta_leg_amp:g} and "
                          f"theta_body_amp = {cfg.theta_body_amp:g}")
    # friction opposes slip: thrust direction is minus the velocity
    angles, at = np.unique(np.degrees(np.arctan2(-dy, -dx)),
                           return_inverse=True)
    return SlipDistribution(angles, np.bincount(at, weights=speed) / total)


def stance_geometry(cfg: GaitConfig, geom: RobotGeometry, u, a_v) -> tuple:
    """(d_s, reach, lift) arrays at reduced stance phases u in [0, duty), cm:
    the rearward foot travel since stance onset, the deepest drop below the
    current surface the foot can reach, and the foot's lift above the
    nominal ground plane by the vertical wave (negative when lowered).

    reach and lift are taken at the vertical amplitude a_v (degrees; cfg.a_v
    is not read), a float or an array that broadcasts against u: a column
    of amplitudes gives one row of reach and lift per amplitude.
    """
    u = np.asarray(u, dtype=float)
    amp = math.radians(cfg.theta_leg_amp)
    theta_leg = amp * np.cos(np.pi * u / cfg.duty)
    d_s = geom.leg_length * (math.sin(amp) - np.sin(theta_leg))
    # the body pitch of the vertical wave, which runs at twice the gait
    # frequency, at the leg's module
    theta_v = np.radians(a_v) * np.cos(
        2.0 * TWO_PI * (u - cfg.contact_fraction_offset))
    reach = geom.d_l * np.sin(theta_v) + geom.h_l * np.cos(theta_v)
    return d_s, reach, geom.h_l - reach


def recoverable_heights(geom: RobotGeometry, d_s: Sequence[float]) -> np.ndarray:
    """Maximum terrain rise the leg can recover by retracting distances
    d_s >= 0.  Saturates at h_l2 once the distal link is vertical
    (d_s >= h_l2)."""
    ratio = np.minimum(np.asarray(d_s, dtype=float), geom.h_l2) / geom.h_l2
    return geom.h_l2 * (1.0 - np.cos(np.arcsin(ratio)))


@lru_cache(maxsize=1024)
def _loss_thresholds(cfg: GaitConfig, geom: RobotGeometry, steps: int,
                     a_v: float) -> np.ndarray:
    """The contact-loss rule at the vertical amplitude a_v (degrees) and the
    walker's stance phases, shape (2, stance samples).  A terrain step d
    loses a stance sample when it is a drop deeper than the foot's reach
    (d <= 0 and -d > reach) or a rise above what retraction recovers plus
    any lift of the vertical wave (d > rise): that is when d < lower, where
    lower = min(-reach, 5e-324), or d > upper, the rise.  The one
    definition of the rule and its one cache, which predict_gamma and the
    walker read; its bound is ample, as a feedback amplitude is a function
    of a count over retraction."""
    d_s, reach, lift = stance_geometry(cfg, geom,
                                       _stance_table(cfg, steps)[2], a_v)
    rise = recoverable_heights(geom, d_s) + np.maximum(lift, 0.0)
    table = np.stack([np.minimum(-reach, 5e-324), rise])
    table.setflags(write=False)
    return table


class _LossTable:
    """The loss rule's one sorted form at the amplitudes a_v (rows) and the
    stance samples (columns), which predict_gamma and the counted walk read:
    the drop keys -lower and the rise keys upper, each as its distinct
    values ascending and every entry's index among them (flat on numpy 1.x
    and 2.x alike), and per amplitude the flat-terrain contact ratio, the
    share of samples the vertical wave leaves on the ground; arrays read-only."""

    def __init__(self, cfg: GaitConfig, geom: RobotGeometry, steps: int,
                 a_v: Tuple[float, ...]):
        lower, upper = np.stack([_loss_thresholds(cfg, geom, steps, a)
                                 for a in a_v], axis=1)
        # -lower is the reach, or of its sign where that is not positive, so
        # the tails agree; h_l + lower is the lift h_l - reach, or h_l below it
        self.drop, self.at_drop = np.unique(-lower.ravel(), return_inverse=True)
        self.rise, self.at_rise = np.unique(upper.ravel(), return_inverse=True)
        self.gamma_ideal = np.mean(geom.h_l + lower <= 1e-12, axis=-1)
        for a in vars(self).values():
            a.setflags(write=False)
        self._cfg, self._steps = cfg, steps

    @cached_property
    def below(self) -> np.ndarray:
        """below[side, r, g], built on first read: how many samples of leg
        g % 2n at amplitude g // 2n have a key among that side's (0 drop, 1
        rise) r smallest; rows past its keys are unread.  A step d <= 0 loses
        the samples keyed below -d, and a step d > 0 those keyed below d."""
        legs, amplitudes = 2 * self._cfg.n_pairs, len(self.gamma_ideal)
        groups = amplitudes * legs
        group = (legs * np.arange(amplitudes)[:, None]
                 + _stance_table(self._cfg, self._steps)[1]).ravel()
        # a group's count is at most its leg's stance samples, so at most steps
        below = np.zeros((2, max(len(self.drop), len(self.rise)) + 1, groups),
                         dtype=np.min_scalar_type(self._steps))
        for row, keys, at in zip(below, (self.drop, self.rise),
                                 (self.at_drop, self.at_rise)):
            counts = np.bincount(at * groups + group,
                                 minlength=len(keys) * groups)
            np.cumsum(counts.reshape(-1, groups), axis=0, dtype=below.dtype,
                      out=row[1:len(keys) + 1])
        below.setflags(write=False)
        return below


_threshold_table = lru_cache(_LossTable)
