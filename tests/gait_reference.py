"""Per-leg, per-sample gait functions, kept only as reference oracles.

These are the scalar gait API that `centiwalk.gait.phase_table` and
`centiwalk.gait.joint_angles` replaced: one leg and one phase per call, with
`side` strings.  The array functions must equal them bit for bit.

`foot_trajectory` and `slip_distribution` are the per-leg slip path and the
uncached histogram of any resolution that the cached
`centiwalk.kinematics.slip_distribution` replaced.  At its 36 bins and 4096
samples of leg 1's path, the two must be equal bit for bit.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from centiwalk.gait import TWO_PI, GaitConfig
from centiwalk.kinematics import (
    NoSlipError,
    RobotGeometry,
    SlipDistribution,
    flat_ground_stride,
)


def wave_lag(cfg: GaitConfig, i: int) -> float:
    """Cycle fraction by which the waves at pair i lag pair 1: xi*(i-1)/n."""
    if not 1 <= i <= cfg.n_pairs:
        raise IndexError(f"leg index {i} out of range 1..{cfg.n_pairs}")
    return cfg.xi * (i - 1) / cfg.n_pairs


@dataclass
class JointCommand:
    """All joint targets and ideal contacts for one phase sample."""

    leg_angles_left: List[float]
    leg_angles_right: List[float]
    body_yaw: List[float]
    body_pitch: List[float]
    contact_left: List[bool]
    contact_right: List[bool]


def _leg_phase(cfg: GaitConfig, frac_c, side: str, i: int):
    """Phase of leg i at contact phase frac_c (cycle fractions, scalar or
    array): minus the wave lag, plus half a cycle for right legs, reduced
    into [0, 1)."""
    frac = frac_c - wave_lag(cfg, i)
    if side == "right":
        frac = frac + 0.5
    elif side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return frac % 1.0 % 1.0


def contact_at_fraction(cfg: GaitConfig, frac_c: float, side: str, i: int) -> bool:
    """Ideal contact evaluated at a contact phase given in cycle fractions."""
    return _leg_phase(cfg, frac_c, side, i) < cfg.duty


def leg_angle_at_fraction(cfg: GaitConfig, frac_c: float, side: str, i: int) -> float:
    """Shoulder excursion angle in degrees at a cycle-fraction phase."""
    u = _leg_phase(cfg, frac_c, side, i)
    d = cfg.duty
    if u < d:
        return cfg.theta_leg_amp * math.cos(math.pi * u / d)
    return -cfg.theta_leg_amp * math.cos(math.pi * (u - d) / (1.0 - d))


def ideal_contact(cfg: GaitConfig, tau_c: float, side: str, i: int) -> bool:
    """Ideal binary contact state at contact phase tau_c in radians."""
    return contact_at_fraction(cfg, tau_c / TWO_PI, side, i)


def leg_angle(cfg: GaitConfig, tau_c: float, side: str, i: int) -> float:
    """Shoulder excursion angle in degrees at contact phase tau_c."""
    return leg_angle_at_fraction(cfg, tau_c / TWO_PI, side, i)


def body_yaw(cfg: GaitConfig, tau_b: float, i: int) -> float:
    """Lateral body wave joint angle in degrees."""
    return cfg.theta_body_amp * math.cos(tau_b - TWO_PI * wave_lag(cfg, i))


def body_pitch(cfg: GaitConfig, tau_b: float, i: int) -> float:
    """Vertical body wave joint angle in degrees."""
    return cfg.a_v * math.cos(2.0 * (tau_b - TWO_PI * wave_lag(cfg, i)))


def sample_cycle(cfg: GaitConfig, steps_per_cycle: int) -> List[JointCommand]:
    """One full cycle of joint commands: tau_b sweeps [0, 2*pi) in
    steps_per_cycle samples; tau_c follows via the contact-phase offset."""
    if steps_per_cycle < 4:
        raise ValueError(f"steps_per_cycle must be >= 4, got {steps_per_cycle}")
    off = cfg.contact_fraction_offset
    commands = []
    for k in range(steps_per_cycle):
        frac_b = k / steps_per_cycle
        frac_c = frac_b + off
        tau_b = TWO_PI * frac_b
        idx = range(1, cfg.n_pairs + 1)
        commands.append(JointCommand(
            leg_angles_left=[leg_angle_at_fraction(cfg, frac_c, "left", i)
                             for i in idx],
            leg_angles_right=[leg_angle_at_fraction(cfg, frac_c, "right", i)
                              for i in idx],
            body_yaw=[body_yaw(cfg, tau_b, i) for i in idx],
            body_pitch=[body_pitch(cfg, tau_b, i) for i in idx],
            contact_left=[contact_at_fraction(cfg, frac_c, "left", i)
                          for i in idx],
            contact_right=[contact_at_fraction(cfg, frac_c, "right", i)
                           for i in idx],
        ))
    return commands


def foot_trajectory(cfg: GaitConfig, geom: RobotGeometry, leg: int,
                    steps: int, onset: Optional[float] = None) -> np.ndarray:
    """Ground-frame slipping trajectory of a left leg's stance foot, shape
    (steps, 2) cm.

    The leg is parameterized by its own reduced phase, so every leg traces
    the same shape; the absolute stance-onset time and the shoulder's
    longitudinal station only translate it.  onset is that time in cycles,
    by default the leg's own, its wave lag minus the contact offset.
    """
    if steps < 8:
        raise ValueError(f"steps must be >= 8, got {steps}")
    off = cfg.contact_fraction_offset
    if onset is None:
        onset = wave_lag(cfg, leg) - off
    u = cfg.duty * np.arange(steps) / steps          # reduced phase in [0, D)
    t = onset + u                                    # absolute time, cycle units
    theta_leg = np.radians(cfg.theta_leg_amp) * np.cos(np.pi * u / cfg.duty)
    theta_body = np.radians(cfg.theta_body_amp) * np.cos(TWO_PI * (u - off))
    v = flat_ground_stride(cfg, geom)                # per cycle of unit duration
    x_sh = v * t - (leg - 1) * geom.module_length
    y_sh = 0.5 * geom.module_length * np.sin(theta_body)
    x = x_sh + geom.leg_length * np.sin(theta_leg)
    y = y_sh + geom.leg_length * np.cos(theta_leg)
    return np.column_stack([x, y])


def slip_distribution(cfg: GaitConfig, geom: RobotGeometry, bins: int,
                      steps: int = 4096) -> SlipDistribution:
    """Arc-length-weighted histogram of slip angles along leg 1's stance
    path, in `bins` bins over `steps` path samples.  The path starts at
    time 0: the onset only translates it, and a far one would round its
    steps away or overflow a float."""
    if bins < 8:
        raise ValueError(f"bins must be >= 8, got {bins}")
    path = foot_trajectory(cfg, geom, 1, steps, onset=0.0)
    delta = np.diff(path, axis=0)
    seg_len = np.hypot(delta[:, 0], delta[:, 1])
    total = seg_len.sum()
    if total <= 0.0:
        raise NoSlipError("degenerate foot trajectory: no slip motion")
    # friction opposes slip: thrust direction is minus the velocity
    phi = np.degrees(np.arctan2(-delta[:, 1], -delta[:, 0]))
    edges = np.linspace(-180.0, 180.0, bins + 1)
    hist, _ = np.histogram(phi, bins=edges, weights=seg_len)
    probs = hist / total
    probs = probs / probs.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SlipDistribution(bin_centers=centers, probs=probs)
