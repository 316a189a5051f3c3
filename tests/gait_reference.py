"""Per-leg, per-sample gait functions, kept only as reference oracles.

These are the scalar gait API that `centiwalk.gait.phase_table` and
`centiwalk.gait.joint_angles` replaced: one leg and one phase per call, with
`side` strings.  The array functions must equal them bit for bit.

`foot_trajectory` is the per-leg slip path.  `slip_distribution` weighs
its velocity at the stance samples of its own per-leg phases, and the
cached `centiwalk.kinematics.slip_distribution` must equal it bit for bit.
`slip_histogram` is the arc-length histogram of the sampled path that the
package built before, of any resolution: finely binned, it stands for the
continuous path.
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


def foot_position(cfg: GaitConfig, geom: RobotGeometry, leg: int, u,
                  onset: float) -> np.ndarray:
    """Ground-frame position of a left leg's stance foot at the reduced
    phases u (cycles, in [0, duty) in stance), shape (len(u), 2) cm, for a
    stance that starts at time onset (cycles)."""
    off = cfg.contact_fraction_offset
    u = np.asarray(u, dtype=float)
    t = onset + u                                    # absolute time, cycle units
    theta_leg = np.radians(cfg.theta_leg_amp) * np.cos(np.pi * u / cfg.duty)
    theta_body = np.radians(cfg.theta_body_amp) * np.cos(TWO_PI * (u - off))
    v = flat_ground_stride(cfg, geom)                # per cycle of unit duration
    x_sh = v * t - (leg - 1) * geom.module_length
    y_sh = 0.5 * geom.module_length * np.sin(theta_body)
    x = x_sh + geom.leg_length * np.sin(theta_leg)
    y = y_sh + geom.leg_length * np.cos(theta_leg)
    return np.column_stack([x, y])


def foot_trajectory(cfg: GaitConfig, geom: RobotGeometry, leg: int,
                    steps: int, onset: Optional[float] = None) -> np.ndarray:
    """Ground-frame slipping trajectory of a left leg's stance foot at
    `steps` uniform reduced phases over [0, duty), shape (steps, 2) cm.

    The leg is parameterized by its own reduced phase, so every leg traces
    the same shape; the absolute stance-onset time and the shoulder's
    longitudinal station only translate it.  onset is that time in cycles,
    by default the leg's own, its wave lag minus the contact offset.
    """
    if steps < 8:
        raise ValueError(f"steps must be >= 8, got {steps}")
    if onset is None:
        onset = wave_lag(cfg, leg) - cfg.contact_fraction_offset
    return foot_position(cfg, geom, leg, cfg.duty * np.arange(steps) / steps,
                         onset)


def foot_velocity(cfg: GaitConfig, geom: RobotGeometry, u) -> tuple:
    """foot_position's derivative in u at the reduced phases u, written out,
    times duty / (leg_length + module_length): the slipping path's direction
    and relative speed there, as the arrays (dx, dy)."""
    u = np.asarray(u, dtype=float)
    leg_amp, body_amp = np.radians([cfg.theta_leg_amp, cfg.theta_body_amp])
    theta_leg = leg_amp * np.cos(np.pi * u / cfg.duty)
    body_phase = TWO_PI * (u - cfg.contact_fraction_offset)
    size = geom.leg_length + geom.module_length
    leg, module = geom.leg_length / size, geom.module_length / size
    # d theta / du times duty, for the leg sweep and the body wave
    dleg = -leg_amp * np.pi * np.sin(np.pi * u / cfg.duty)
    dbody = -body_amp * TWO_PI * cfg.duty * np.sin(body_phase)
    # the stride 2 L sin(leg_amp) per cycle, and the chain rule through
    # L sin(theta_leg), M/2 sin(theta_body) and L cos(theta_leg)
    dx = leg * (2.0 * cfg.duty * np.sin(leg_amp) + np.cos(theta_leg) * dleg)
    dy = 0.5 * module * np.cos(body_amp * np.cos(body_phase)) * dbody \
        - leg * np.sin(theta_leg) * dleg
    return dx, dy


def stance_phases(cfg: GaitConfig, steps: int) -> np.ndarray:
    """The reduced phase of every stance sample of a cycle of `steps`
    uniform samples: left legs 1..n then right legs 1..n, each in step
    order."""
    frac_c = np.arange(steps) / steps + cfg.contact_fraction_offset
    phases = np.concatenate([_leg_phase(cfg, frac_c, side, i)
                             for side in ("left", "right")
                             for i in range(1, cfg.n_pairs + 1)])
    return phases[phases < cfg.duty]


def slip_distribution(cfg: GaitConfig, geom: RobotGeometry,
                      steps: int) -> SlipDistribution:
    """Slip angles at the stance samples of a cycle of `steps`, one entry
    per distinct angle, each weighted by the foot's speed at its samples."""
    dx, dy = foot_velocity(cfg, geom, stance_phases(cfg, steps))
    speed = np.hypot(dx, dy)
    total = speed.sum()
    if total <= 0.0:
        raise NoSlipError("degenerate foot trajectory: no slip motion")
    # friction opposes slip: thrust direction is minus the velocity
    mass = {}
    for angle, weight in zip(np.degrees(np.arctan2(-dy, -dx)).tolist(),
                             speed.tolist()):
        mass[angle] = mass.get(angle, 0.0) + weight
    angles = sorted(mass)
    return SlipDistribution(bin_centers=angles,
                            probs=[mass[a] / total for a in angles])


def slip_histogram(cfg: GaitConfig, geom: RobotGeometry, bins: int,
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
