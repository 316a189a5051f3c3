"""Gait wave generation for a 2n-legged undulating robot.

All outputs are pure functions of the gait configuration and a phase, so a
gait is fully described by evaluating these over one cycle.  Phases are
compared modulo 2*pi everywhere; internally we work in cycle fractions so
that stance/swing boundary decisions stay exact on uniform sample grids
(no pi round-trips near the duty boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GaitConfig:
    """Wave parameters defining one gait.

    n_pairs      number of leg pairs (robot has 2*n_pairs legs)
    xi           spatial wave count on the legs; body wave count is set equal
    duty         fraction of the cycle each leg spends in stance, in (0, 1)
    theta_leg_amp   leg shoulder sweep amplitude, degrees
    theta_body_amp  lateral body wave amplitude, degrees
    a_v          vertical body wave amplitude, degrees (>= 0)
    phase_offset  explicit contact-phase offset in radians, or None for the
                  optimal body-leg coordination tau_b - (xi/n + 1/2)*pi
    """

    n_pairs: int = 6
    xi: float = 1.0
    duty: float = 0.5
    theta_leg_amp: float = 30.0
    theta_body_amp: float = 30.0
    a_v: float = 0.0
    phase_offset: Optional[float] = None

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ValueError(f"n_pairs must be >= 2, got {self.n_pairs}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if self.a_v < 0.0:
            raise ValueError(f"a_v must be >= 0, got {self.a_v}")
        for name in ("theta_leg_amp", "theta_body_amp"):
            amp = getattr(self, name)
            if not 0.0 <= amp < 90.0:
                raise ValueError(f"{name} must be in [0, 90), got {amp}")

    @property
    def contact_phase_offset(self) -> float:
        """Offset phi_c - tau_b in radians (contact phase lags the body wave)."""
        return self.contact_fraction_offset * TWO_PI

    @property
    def contact_fraction_offset(self) -> float:
        """Same offset expressed as a fraction of one cycle."""
        if self.phase_offset is not None:
            return self.phase_offset / TWO_PI
        return -(self.xi / (2.0 * self.n_pairs) + 0.25)


@dataclass
class JointCommand:
    """All joint targets and ideal contacts for one phase sample."""

    leg_angles_left: List[float]
    leg_angles_right: List[float]
    body_yaw: List[float]
    body_pitch: List[float]
    contact_left: List[bool]
    contact_right: List[bool]


def wave_lag(cfg: GaitConfig, i: int) -> float:
    """Cycle fraction by which the waves at pair i lag pair 1: xi*(i-1)/n."""
    if not 1 <= i <= cfg.n_pairs:
        raise IndexError(f"leg index {i} out of range 1..{cfg.n_pairs}")
    return cfg.xi * (i - 1) / cfg.n_pairs


def _leg_phase(cfg: GaitConfig, frac_c, side: str, i: int):
    """Phase of leg i at contact phase frac_c (cycle fractions, scalar or
    array): minus the wave lag, plus half a cycle for right legs, reduced
    into [0, 1)."""
    frac = frac_c - wave_lag(cfg, i)
    if side == "right":
        frac = frac + 0.5
    elif side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # x % 1.0 rounds to exactly 1.0 for a tiny negative x; reducing twice
    # maps that sample to 0.0, the start of stance, and keeps [0, 1) as is
    return frac % 1.0 % 1.0


def phase_table(cfg: GaitConfig, steps: int) -> np.ndarray:
    """Reduced phases of every leg over one cycle of `steps` uniform samples,
    shape (2n, steps); rows are left legs 1..n then right legs 1..n.  The
    ideal contact map and the walker's stance window both read this table."""
    frac_c = np.arange(steps) / steps + cfg.contact_fraction_offset
    return np.array([_leg_phase(cfg, frac_c, side, i)
                     for side in ("left", "right")
                     for i in range(1, cfg.n_pairs + 1)])


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
    """Ideal binary contact state: stance iff the reduced phase is within
    the duty window.  Right legs run in antiphase with their left partner."""
    return contact_at_fraction(cfg, tau_c / TWO_PI, side, i)


def leg_angle(cfg: GaitConfig, tau_c: float, side: str, i: int) -> float:
    """Shoulder excursion angle in degrees (piecewise stance/swing cosine).

    Reaches +amp exactly at the swing-to-stance transition and -amp at the
    stance-to-swing transition, and is continuous across both.
    """
    return leg_angle_at_fraction(cfg, tau_c / TWO_PI, side, i)


def body_yaw(cfg: GaitConfig, tau_b: float, i: int) -> float:
    """Lateral body wave joint angle in degrees, head-to-tail traveling wave."""
    return cfg.theta_body_amp * math.cos(tau_b - TWO_PI * wave_lag(cfg, i))


def body_pitch(cfg: GaitConfig, tau_b: float, i: int) -> float:
    """Vertical body wave joint angle in degrees.

    Temporal and spatial frequencies are exactly twice those of the lateral
    wave, so every segment oscillates up and down once per stance.
    """
    return cfg.a_v * math.cos(2.0 * (tau_b - TWO_PI * wave_lag(cfg, i)))


def sample_cycle(cfg: GaitConfig, steps_per_cycle: int) -> List[JointCommand]:
    """Uniformly sample one full cycle of joint commands.

    tau_b sweeps [0, 2*pi) in steps_per_cycle samples; tau_c follows via the
    configured contact-phase offset.
    """
    if steps_per_cycle < 4:
        raise ValueError(f"steps_per_cycle must be >= 4, got {steps_per_cycle}")
    off = cfg.contact_fraction_offset
    commands = []
    for k in range(steps_per_cycle):
        frac_b = k / steps_per_cycle
        frac_c = frac_b + off
        tau_b = TWO_PI * frac_b
        idx = range(1, cfg.n_pairs + 1)
        commands.append(
            JointCommand(
                leg_angles_left=[
                    leg_angle_at_fraction(cfg, frac_c, "left", i) for i in idx
                ],
                leg_angles_right=[
                    leg_angle_at_fraction(cfg, frac_c, "right", i) for i in idx
                ],
                body_yaw=[body_yaw(cfg, tau_b, i) for i in idx],
                body_pitch=[body_pitch(cfg, tau_b, i) for i in idx],
                contact_left=[
                    contact_at_fraction(cfg, frac_c, "left", i) for i in idx
                ],
                contact_right=[
                    contact_at_fraction(cfg, frac_c, "right", i) for i in idx
                ],
            )
        )
    return commands
