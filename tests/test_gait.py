"""Gait wave unit tests.

Oracle values were derived by hand from the wave definitions before the
implementation existed and are frozen here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centiwalk.gait import (
    GaitConfig,
    body_pitch,
    body_yaw,
    contact_at_fraction,
    ideal_contact,
    leg_angle,
    sample_cycle,
)

TWO_PI = 2.0 * math.pi


def contact_row(cfg, side, i, steps):
    """Ideal contact bits for one leg over one cycle of contact phase."""
    return [int(ideal_contact(cfg, TWO_PI * k / steps, side, i))
            for k in range(steps)]


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = GaitConfig()
        assert cfg.n_pairs == 6 and cfg.duty == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(n_pairs=1),
        dict(duty=0.0),
        dict(duty=1.0),
        dict(a_v=-1.0),
        dict(theta_leg_amp=90.0),
        dict(theta_body_amp=-5.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GaitConfig(**kwargs)

    def test_default_phase_offset(self):
        # optimal coordination: phi_c - tau_b = -(xi/n + 1/2) * pi
        cfg = GaitConfig(n_pairs=6, xi=1.0)
        expected = -(1.0 / 6.0 + 0.5) * math.pi
        assert cfg.contact_phase_offset == pytest.approx(expected, abs=1e-12)

    def test_explicit_phase_offset(self):
        cfg = GaitConfig(phase_offset=0.3)
        assert cfg.contact_phase_offset == pytest.approx(0.3)


class TestContact:
    def test_duty_count_bit_exact(self):
        # [DERIVED] 360 uniform samples at D=0.5 give exactly 180 stance bits
        cfg = GaitConfig(n_pairs=4, xi=1.0, duty=0.5)
        for side in ("left", "right"):
            for i in range(1, 5):
                assert sum(contact_row(cfg, side, i, 360)) == 180

    def test_antiphase_left_right(self):
        # [DERIVED] at D=0.5 right leg i is the complement of left leg i
        cfg = GaitConfig(n_pairs=4, duty=0.5)
        for i in range(1, 5):
            left = contact_row(cfg, "left", i, 360)
            right = contact_row(cfg, "right", i, 360)
            assert all(l != r for l, r in zip(left, right))

    def test_ipsilateral_phase_lag(self):
        # [DERIVED] adjacent ipsilateral legs lag by xi/n of a cycle
        cfg = GaitConfig(n_pairs=4, xi=1.0, duty=0.5)
        steps = 360
        lag = steps // 4                           # 2*pi/4 at n=4, xi=1
        first = contact_row(cfg, "left", 1, steps)
        for i in range(2, 5):
            row = contact_row(cfg, "left", i, steps)
            shifted = first[-lag * (i - 1):] + first[:-lag * (i - 1)]
            assert row == shifted

    def test_duty_boundary_is_half_open(self):
        # stance holds on [0, D), so the sample exactly at D is swing
        cfg = GaitConfig(duty=0.5)
        assert contact_at_fraction(cfg, 0.0, "left", 1)
        assert not contact_at_fraction(cfg, 0.5, "left", 1)

    @given(duty=st.floats(min_value=0.05, max_value=0.95),
           xi=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_duty_fraction_property(self, duty, xi):
        # stance occupancy over a uniform grid is within one sample of D*K
        cfg = GaitConfig(n_pairs=4, xi=xi, duty=duty)
        count = sum(contact_row(cfg, "left", 2, 360))
        assert abs(count - duty * 360) <= 1.0

    def test_bad_leg_index(self):
        cfg = GaitConfig(n_pairs=4)
        with pytest.raises(IndexError):
            ideal_contact(cfg, 0.0, "left", 5)
        with pytest.raises(ValueError):
            ideal_contact(cfg, 0.0, "up", 1)


class TestLegAngle:
    def test_extremes_at_transitions(self):
        # +amp entering stance, -amp leaving it
        cfg = GaitConfig(duty=0.5, theta_leg_amp=30.0)
        assert leg_angle(cfg, 0.0, "left", 1) == pytest.approx(30.0)
        assert leg_angle(cfg, math.pi, "left", 1) == pytest.approx(-30.0)

    def test_continuity_across_duty_boundary(self):
        cfg = GaitConfig(duty=0.4, theta_leg_amp=25.0)
        eps = 1e-9
        d = 0.4 * TWO_PI
        before = leg_angle(cfg, d - eps, "left", 1)
        after = leg_angle(cfg, d + eps, "left", 1)
        assert before == pytest.approx(after, abs=1e-6)

    def test_stance_is_cosine(self):
        # [DERIVED] theta = amp * cos(tau / (2 D)) during stance
        cfg = GaitConfig(duty=0.5, theta_leg_amp=30.0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            expected = 30.0 * math.cos(tau / (2 * 0.5))
            assert leg_angle(cfg, tau, "left", 1) == pytest.approx(expected)

    @given(tau=st.floats(min_value=0.0, max_value=4 * TWO_PI))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_amplitude(self, tau):
        cfg = GaitConfig(duty=0.45, theta_leg_amp=35.0)
        assert abs(leg_angle(cfg, tau, "right", 3)) <= 35.0 + 1e-9


class TestBodyWaves:
    def test_yaw_traveling_wave(self):
        # [DERIVED] theta_i = amp * cos(tau - 2 pi xi (i-1)/n)
        cfg = GaitConfig(n_pairs=6, xi=1.0, theta_body_amp=30.0)
        tau = 0.7
        for i in range(1, 7):
            expected = 30.0 * math.cos(tau - TWO_PI * (i - 1) / 6)
            assert body_yaw(cfg, tau, i) == pytest.approx(expected)

    def test_pitch_double_frequency(self):
        # [DERIVED] vertical wave runs at twice the lateral frequency
        cfg = GaitConfig(n_pairs=6, xi=1.0, a_v=20.0)
        tau = 1.1
        for i in range(1, 7):
            expected = 20.0 * math.cos(2 * (tau - TWO_PI * (i - 1) / 6))
            assert body_pitch(cfg, tau, i) == pytest.approx(expected)

    def test_pitch_zero_without_vertical_wave(self):
        cfg = GaitConfig(a_v=0.0)
        assert body_pitch(cfg, 0.123, 2) == 0.0

    def test_periodicity(self):
        cfg = GaitConfig(a_v=10.0)
        assert body_pitch(cfg, 0.5, 1) == pytest.approx(
            body_pitch(cfg, 0.5 + math.pi, 1))


class TestSampleCycle:
    def test_shapes(self):
        cfg = GaitConfig(n_pairs=4)
        cmds = sample_cycle(cfg, 36)
        assert len(cmds) == 36
        first = cmds[0]
        for attr in ("leg_angles_left", "leg_angles_right", "body_yaw",
                     "body_pitch", "contact_left", "contact_right"):
            assert len(getattr(first, attr)) == 4

    def test_contact_consistent_with_ideal_contact(self):
        cfg = GaitConfig(n_pairs=4)
        cmds = sample_cycle(cfg, 72)
        off = cfg.contact_fraction_offset
        for k, cmd in enumerate(cmds):
            for i in range(1, 5):
                assert cmd.contact_left[i - 1] == contact_at_fraction(
                    cfg, k / 72 + off, "left", i)

    def test_rejects_tiny_step_count(self):
        with pytest.raises(ValueError):
            sample_cycle(GaitConfig(), 3)

    def test_mean_contact_equals_duty(self):
        cfg = GaitConfig(n_pairs=6, duty=0.5)
        cmds = sample_cycle(cfg, 72)
        bits = np.array([c.contact_left + c.contact_right for c in cmds])
        assert bits.mean() == pytest.approx(0.5, abs=1e-12)
