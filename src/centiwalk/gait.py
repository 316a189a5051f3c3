"""Gait wave generation for a 2n-legged undulating robot.

Every output is an array over one cycle of uniform samples, a pure function
of the gait configuration and the sample count.  Phases are cycle fractions
reduced into [0, 1), so that stance/swing boundary decisions stay exact on
uniform sample grids (no pi round-trips near the duty boundary).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi


def checked_count(value, name: str, low: int = 0, error=ValueError) -> int:
    """value as an int, by operator.index; error, naming the field, if it is
    not an integer or is below low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


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
        checked_count(self.n_pairs, "n_pairs", 2)
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        off = self.phase_offset
        if off is not None and not math.isfinite(off):
            raise ValueError(f"phase_offset must be finite, got {off}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if not 0.0 <= self.a_v < math.inf:      # NaN fails this test too
            raise ValueError(f"a_v must be finite and >= 0, got {self.a_v}")
        for name in ("theta_leg_amp", "theta_body_amp"):
            amp = getattr(self, name)
            if not 0.0 <= amp < 90.0:
                raise ValueError(f"{name} must be in [0, 90), got {amp}")

    @property
    def contact_fraction_offset(self) -> float:
        """Offset phi_c - tau_b as a fraction of one cycle (the contact
        phase lags the body wave)."""
        if self.phase_offset is not None:
            return self.phase_offset / TWO_PI
        return -(self.xi / (2.0 * self.n_pairs) + 0.25)


def checked_amplitudes(a_v) -> np.ndarray:
    """a_v as a new float array; ValueError, in GaitConfig's words, at its
    first negative, infinite or NaN amplitude."""
    a_v = np.array(a_v, dtype=float)
    ok = (a_v >= 0.0) & (a_v < np.inf)      # NaN fails this test too
    if not ok.all():
        raise ValueError(f"a_v must be finite and >= 0, got {a_v[~ok][0]}")
    return a_v


def _wave_lags(cfg: GaitConfig) -> np.ndarray:
    """Cycle fractions by which the waves at pairs 1..n lag pair 1:
    xi*(i-1)/n for pair i."""
    return cfg.xi * np.arange(cfg.n_pairs) / cfg.n_pairs


def phase_table(cfg: GaitConfig, steps: int) -> np.ndarray:
    """Reduced phases of every leg over one cycle of `steps` uniform samples,
    shape (2n, steps); rows are left legs 1..n then right legs 1..n.  A leg's
    phase is the contact phase minus its wave lag, plus half a cycle for a
    right leg.  The ideal contact map, the joint angles and the walker's
    stance window all read this table."""
    frac = np.arange(steps) / steps + cfg.contact_fraction_offset \
        - np.tile(_wave_lags(cfg), 2)[:, None]
    frac[cfg.n_pairs:] += 0.5
    # x % 1.0 rounds to exactly 1.0 for a tiny negative x; reducing twice
    # maps that sample to 0.0, the start of stance, and keeps [0, 1) as is
    return frac % 1.0 % 1.0


class NoStanceError(ValueError):
    """A gait with no stance sample in a cycle: a contact ratio of 0/0."""


@lru_cache
def _stance_table(cfg: GaitConfig, steps: int) -> tuple:
    """The gait's stance mask over one cycle of `steps` samples, shape
    (2n, steps), and per stance sample in row-major order its leg, its
    reduced phase and its step in the cycle.  None of these depends on
    cfg.a_v or the geometry; shared, read-only, by every walk and
    predict_gamma.  ValueError for odd steps, NoStanceError for a gait with
    no stance sample."""
    if steps % 2 != 0:
        raise ValueError(f"steps must be even, got {steps}")
    phases = phase_table(cfg, steps)
    stance = phases < cfg.duty
    leg, step = np.nonzero(stance)
    if not leg.size:
        raise NoStanceError(f"{cfg} has no stance sample in a cycle of "
                            f"steps={steps}")
    table = (stance, leg, phases[stance], step)
    for a in table:
        a.setflags(write=False)
    return table


def joint_angles(cfg: GaitConfig, steps: int) -> np.ndarray:
    """Joint targets in degrees over one cycle of `steps` uniform body-wave
    samples, shape (4n, steps): the leg shoulder angles (left legs 1..n,
    right legs 1..n), then the lateral body yaw and the vertical body pitch
    of pairs 1..n.

    A leg angle is a piecewise cosine of the leg's phase: +amp entering
    stance, -amp leaving it, continuous across both transitions.  The yaw is
    a head-to-tail traveling wave; the pitch runs at twice its temporal and
    spatial frequency, so every segment rises and falls once per stance.
    """
    u = phase_table(cfg, steps)
    d, amp = cfg.duty, cfg.theta_leg_amp
    legs = np.where(u < d, amp * np.cos(math.pi * u / d),
                    -amp * np.cos(math.pi * (u - d) / (1.0 - d)))
    # scale both terms, then subtract: gait-dump's printed values, signed
    # zeros included, depend on this rounding order
    tau = TWO_PI * (np.arange(steps) / steps) \
        - TWO_PI * _wave_lags(cfg)[:, None]
    return np.vstack([legs, cfg.theta_body_amp * np.cos(tau),
                      cfg.a_v * np.cos(2.0 * tau)])
