"""Gait wave unit tests.

Oracle values were derived by hand from the wave definitions before the
implementation existed and are frozen here as literals.  The per-leg scalar
functions in `gait_reference` are a second oracle that the array functions
must equal bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centiwalk.config import ConfigError, ExperimentSpec
from centiwalk.gait import GaitConfig, joint_angles, phase_table
from gait_reference import sample_cycle

TWO_PI = 2.0 * math.pi


def contact_rows(cfg, steps):
    """Ideal contact bits of every leg over one cycle, (2n, steps)."""
    return (phase_table(cfg, steps) < cfg.duty).astype(int)


def left_leg1(cfg, tau_c, steps=4):
    """Angle of left leg 1 at contact phase tau_c (radians): with the
    contact phase offset set to tau_c, the first sample sits there."""
    return joint_angles(replace(cfg, phase_offset=tau_c), steps)[0, 0]


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
        dict(a_v=float("nan")),
        dict(xi=float("nan")),
        dict(phase_offset=float("inf")),
        dict(a_v=float("inf")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GaitConfig(**kwargs)

    @pytest.mark.parametrize("n_pairs", [2.5, 6.0, "6", None])
    def test_rejects_n_pairs_that_is_not_an_integer(self, n_pairs):
        # refused at construction, with the field's name, not later as a
        # TypeError inside phase_table
        with pytest.raises(ValueError, match="^n_pairs must be an integer"):
            GaitConfig(n_pairs=n_pairs)

    def test_takes_numpy_integers(self):
        assert GaitConfig(n_pairs=np.int64(4)).n_pairs == 4

    def test_default_phase_offset(self):
        # optimal coordination: phi_c - tau_b = -(xi/n + 1/2) * pi
        cfg = GaitConfig(n_pairs=6, xi=1.0)
        expected = -(1.0 / 6.0 + 0.5) * math.pi
        assert TWO_PI * cfg.contact_fraction_offset == pytest.approx(
            expected, abs=1e-12)

    def test_explicit_phase_offset(self):
        cfg = GaitConfig(phase_offset=0.3)
        assert TWO_PI * cfg.contact_fraction_offset == pytest.approx(0.3)


class TestContact:
    def test_duty_count_bit_exact(self):
        # [DERIVED] 360 uniform samples at D=0.5 give exactly 180 stance bits
        cfg = GaitConfig(n_pairs=4, xi=1.0, duty=0.5)
        assert contact_rows(cfg, 360).sum(axis=1).tolist() == [180] * 8

    def test_antiphase_left_right(self):
        # [DERIVED] at D=0.5 right leg i is the complement of left leg i
        rows = contact_rows(GaitConfig(n_pairs=4, duty=0.5), 360)
        assert np.array_equal(rows[:4], 1 - rows[4:])

    def test_ipsilateral_phase_lag(self):
        # [DERIVED] adjacent ipsilateral legs lag by xi/n of a cycle
        cfg = GaitConfig(n_pairs=4, xi=1.0, duty=0.5)
        steps = 360
        lag = steps // 4                           # 2*pi/4 at n=4, xi=1
        rows = contact_rows(cfg, steps)
        for i in range(1, 4):
            assert np.array_equal(rows[i], np.roll(rows[0], lag * i))

    def test_duty_boundary_is_half_open(self):
        # stance holds on [0, D), so the sample exactly at D is swing
        cfg = GaitConfig(duty=0.5, phase_offset=0.0)
        assert contact_rows(cfg, 4)[0].tolist() == [1, 1, 0, 0]

    @given(duty=st.floats(min_value=0.05, max_value=0.95),
           xi=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_duty_fraction_property(self, duty, xi):
        # stance occupancy over a uniform grid is within one sample of D*K
        cfg = GaitConfig(n_pairs=4, xi=xi, duty=duty)
        counts = contact_rows(cfg, 360).sum(axis=1)
        assert np.all(np.abs(counts - duty * 360) <= 1.0)


class TestLegAngle:
    def test_extremes_at_transitions(self):
        # +amp entering stance, -amp leaving it
        cfg = GaitConfig(duty=0.5, theta_leg_amp=30.0, phase_offset=0.0)
        legs = joint_angles(cfg, 4)[0]
        assert legs[0] == pytest.approx(30.0)
        assert legs[2] == pytest.approx(-30.0)

    def test_continuity_across_duty_boundary(self):
        cfg = GaitConfig(duty=0.4, theta_leg_amp=25.0)
        eps = 1e-9
        d = 0.4 * TWO_PI
        before = left_leg1(cfg, d - eps)
        after = left_leg1(cfg, d + eps)
        assert before == pytest.approx(after, abs=1e-6)

    def test_stance_is_cosine(self):
        # [DERIVED] theta = amp * cos(tau / (2 D)) during stance
        cfg = GaitConfig(duty=0.5, theta_leg_amp=30.0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            expected = 30.0 * math.cos(tau / (2 * 0.5))
            assert left_leg1(cfg, tau) == pytest.approx(expected)

    @given(offset=st.floats(min_value=-TWO_PI, max_value=TWO_PI),
           half_steps=st.integers(min_value=2, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_amplitude(self, offset, half_steps):
        cfg = GaitConfig(duty=0.45, theta_leg_amp=35.0, phase_offset=offset)
        legs = joint_angles(cfg, 2 * half_steps)[:12]
        assert np.all(np.abs(legs) <= 35.0 + 1e-9)


class TestBodyWaves:
    # with 72 samples per cycle, sample k sits at body phase 2 pi k / 72
    STEPS = 72

    def test_yaw_traveling_wave(self):
        # [DERIVED] theta_i = amp * cos(tau - 2 pi xi (i-1)/n)
        cfg = GaitConfig(n_pairs=6, xi=1.0, theta_body_amp=30.0)
        yaw = joint_angles(cfg, self.STEPS)[12:18]
        for k in (0, 7, 50):
            tau = TWO_PI * k / self.STEPS
            for i in range(1, 7):
                expected = 30.0 * math.cos(tau - TWO_PI * (i - 1) / 6)
                assert yaw[i - 1, k] == pytest.approx(expected)

    def test_pitch_double_frequency(self):
        # [DERIVED] vertical wave runs at twice the lateral frequency
        cfg = GaitConfig(n_pairs=6, xi=1.0, a_v=20.0)
        pitch = joint_angles(cfg, self.STEPS)[18:]
        for k in (0, 13, 61):
            tau = TWO_PI * k / self.STEPS
            for i in range(1, 7):
                expected = 20.0 * math.cos(2 * (tau - TWO_PI * (i - 1) / 6))
                assert pitch[i - 1, k] == pytest.approx(expected)

    def test_pitch_zero_without_vertical_wave(self):
        cfg = GaitConfig(a_v=0.0)
        assert np.all(joint_angles(cfg, self.STEPS)[18:] == 0.0)

    def test_periodicity(self):
        # half a lateral cycle is a whole vertical one
        cfg = GaitConfig(a_v=10.0)
        pitch = joint_angles(cfg, self.STEPS)[18:]
        half = self.STEPS // 2
        assert np.allclose(pitch[:, :half], pitch[:, half:], atol=1e-12)


class TestSampleCycle:
    def test_shapes(self):
        cfg = GaitConfig(n_pairs=4)
        assert joint_angles(cfg, 36).shape == (16, 36)
        assert phase_table(cfg, 36).shape == (8, 36)

    def test_contact_consistent_with_ideal_contact(self):
        # the leg angle takes its stance branch exactly on the ideal
        # contact samples: it falls from +amp while in stance
        cfg = GaitConfig(n_pairs=4, phase_offset=0.0)
        legs = joint_angles(cfg, 72)[:8]
        stance = contact_rows(cfg, 72).astype(bool)
        u = phase_table(cfg, 72)
        assert np.array_equal(legs[stance],
                              30.0 * np.cos(math.pi * u[stance] / 0.5))

    def test_rejects_tiny_step_count(self):
        # a cycle is sampled at no fewer than 4 (and an even number of) steps
        with pytest.raises(ConfigError):
            ExperimentSpec(steps=3)
        with pytest.raises(ConfigError):
            ExperimentSpec(steps=2)

    def test_mean_contact_equals_duty(self):
        cfg = GaitConfig(n_pairs=6, duty=0.5)
        assert contact_rows(cfg, 72).mean() == pytest.approx(0.5, abs=1e-12)


@given(n_pairs=st.integers(min_value=2, max_value=8),
       xi=st.floats(min_value=0.0, max_value=3.0),
       duty=st.floats(min_value=0.02, max_value=0.98),
       theta_leg_amp=st.floats(min_value=0.0, max_value=89.0),
       theta_body_amp=st.floats(min_value=0.0, max_value=89.0),
       a_v=st.floats(min_value=0.0, max_value=30.0),
       phase_offset=st.one_of(st.none(), st.floats(min_value=-7.0,
                                                   max_value=7.0)),
       half_steps=st.integers(min_value=2, max_value=199))
@settings(max_examples=200, deadline=None)
def test_arrays_match_scalar_reference(n_pairs, xi, duty, theta_leg_amp,
                                       theta_body_amp, a_v, phase_offset,
                                       half_steps):
    # bit for bit, signed zeros included: gait-dump prints these values
    cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                     theta_leg_amp=theta_leg_amp,
                     theta_body_amp=theta_body_amp, a_v=a_v,
                     phase_offset=phase_offset)
    steps = 2 * half_steps
    cmds = sample_cycle(cfg, steps)
    ref = np.array([c.leg_angles_left + c.leg_angles_right + c.body_yaw
                    + c.body_pitch for c in cmds]).T
    contact = np.array([c.contact_left + c.contact_right for c in cmds]).T
    assert joint_angles(cfg, steps).tobytes() == ref.tobytes()
    assert np.array_equal(phase_table(cfg, steps) < duty, contact)
