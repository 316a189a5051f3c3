"""Per-leg, per-sample gait functions, kept only as reference oracles.

These are the scalar gait API that `centiwalk.gait.phase_table` and
`centiwalk.gait.joint_angles` replaced: one leg and one phase per call, with
`side` strings.  The array functions must equal them bit for bit.
"""

import math
from dataclasses import dataclass
from typing import List

from centiwalk.gait import TWO_PI, GaitConfig, wave_lag


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
