"""Foot-tip kinematics unit tests with hand-derived frozen oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gait_reference
from centiwalk.gait import GaitConfig
from centiwalk.kinematics import (
    NoSlipError,
    RobotGeometry,
    SlipDistribution,
    flat_ground_stride,
    recoverable_heights,
    slip_distribution,
    stance_geometry,
)
from centiwalk.models import predict_gamma, predict_speed_band
from centiwalk.terrain import HeightDeltaModel


class TestGeometryValidation:
    def test_defaults_valid(self):
        RobotGeometry()

    @pytest.mark.parametrize("kwargs", [
        dict(h_l=0.0), dict(h_l2=-1.0), dict(d_l=0.0),
        dict(leg_length=0.0), dict(module_length=0.0),
        dict(h_l=float("nan")), dict(h_l2=float("nan")),
        dict(d_l=float("nan")), dict(leg_length=float("nan")),
        dict(module_length=float("nan")),
        dict(h_l=float("inf")), dict(h_l2=float("inf")),
        dict(d_l=float("inf")), dict(leg_length=float("inf")),
        dict(module_length=float("inf")),
        # finite lengths whose derived paths overflow
        dict(leg_length=1e308), dict(h_l=1.7e308, d_l=1.7e308),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RobotGeometry(**kwargs)


class TestStride:
    def test_default_stride(self):
        # [DERIVED] 2 * L * sin(30 deg) = L for L = 10 cm
        assert flat_ground_stride(GaitConfig(), RobotGeometry()) == \
            pytest.approx(10.0)

    def test_scales_with_amplitude(self):
        cfg = GaitConfig(theta_leg_amp=15.0)
        expected = 2 * 10.0 * math.sin(math.radians(15.0))
        assert flat_ground_stride(cfg, RobotGeometry()) == pytest.approx(expected)


class TestRecoverableHeight:
    def test_frozen_oracle(self):
        # [DERIVED] h_l2=6, d_s=3: 6 * (1 - cos(asin(1/2))) = 6 (1 - sqrt(3)/2)
        geom = RobotGeometry(h_l2=6.0)
        assert recoverable_heights(geom, [3.0])[0] == pytest.approx(
            0.8038475772933684, abs=1e-12)

    def test_saturation(self):
        geom = RobotGeometry(h_l2=6.0)
        assert recoverable_heights(geom, [6.0, 100.0]).tolist() == \
            pytest.approx([6.0, 6.0])

    def test_zero_at_zero(self):
        assert recoverable_heights(RobotGeometry(), [0.0])[0] == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=2,
                    max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nondecreasing(self, d_s):
        geom = RobotGeometry(h_l2=5.0)
        d_s = sorted(d_s)
        vals = recoverable_heights(geom, d_s)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals <= 5.0 + 1e-12)


class TestRetractionProfile:
    """Stance geometry at m uniform stance phases."""

    @staticmethod
    def profile(cfg, geom, m):
        return stance_geometry(cfg, geom, cfg.duty * np.arange(m) / m,
                               cfg.a_v)

    def test_reach_without_vertical_wave(self):
        # a_v = 0: reach is h_l everywhere, lift is 0
        cfg = GaitConfig(a_v=0.0)
        _, reach, lift = self.profile(cfg, RobotGeometry(h_l=7.0), 64)
        assert np.allclose(reach, 7.0)
        assert np.allclose(lift, 0.0)

    def test_reach_frozen_oracle(self):
        # [DERIVED] at theta_v = 15 deg, d_l=5, h_l=7:
        # reach = 5 sin(15) + 7 cos(15) = 8.055576...
        geom = RobotGeometry(h_l=7.0, d_l=5.0)
        cfg = GaitConfig(a_v=15.0)
        # stance onset: vertical wave phase puts theta_v at its crest
        d_s, reach, lift = stance_geometry(cfg, geom, np.array([0.0]),
                                           cfg.a_v)
        theta_max = math.radians(15.0)
        expected = 5.0 * math.sin(theta_max) + 7.0 * math.cos(theta_max)
        peak = reach[0]
        # crest occurs where cos(...) = 1; check the profile max instead
        _, reach_grid, _ = self.profile(cfg, geom, 720)
        assert reach_grid.max() == pytest.approx(8.055576009536082, abs=1e-4)
        assert peak <= expected + 1e-12

    def test_d_s_monotone_and_full_sweep(self):
        cfg = GaitConfig(theta_leg_amp=30.0)
        geom = RobotGeometry()
        d_s, _, _ = self.profile(cfg, geom, 256)
        assert d_s[0] == pytest.approx(0.0)
        assert np.all(np.diff(d_s) >= -1e-12)
        # end of stance approaches the full stride
        assert d_s[-1] == pytest.approx(
            flat_ground_stride(cfg, geom), abs=0.01)

    @given(cfg=st.builds(
               GaitConfig, n_pairs=st.integers(2, 8),
               duty=st.floats(0.05, 0.95),
               phase_offset=st.one_of(st.none(),
                                      st.floats(-math.pi, math.pi))),
           geom=st.builds(RobotGeometry, h_l=st.floats(0.5, 20.0),
                          d_l=st.floats(0.5, 20.0)),
           m=st.integers(1, 200),
           a_v=st.lists(st.floats(0.0, 90.0), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_amplitude_column_rows_equal_scalar_amplitudes(self, cfg, geom,
                                                            m, a_v):
        # the walker and predict_gamma read one float at a time, the
        # model's oracles a column of amplitudes or cfg.a_v: row j of the
        # column form is, bit for bit, the float form at a_v[j], whatever
        # cfg.a_v holds, amplitudes where reach turns negative included
        u = cfg.duty * np.arange(m) / m
        d_s, reach, lift = stance_geometry(cfg, geom, u,
                                           np.array(a_v)[:, None])
        assert reach.shape == lift.shape == (len(a_v), m)
        for j, a in enumerate(a_v):
            for got in (stance_geometry(cfg, geom, u, a),
                        stance_geometry(replace(cfg, a_v=a), geom, u, a)):
                assert np.array_equal(got[0], d_s)
                assert np.array_equal(got[1], reach[j])
                assert np.array_equal(got[2], lift[j])

    def test_lift_definition(self):
        # lift = h_l - reach, positive when the wave raises the foot
        cfg = GaitConfig(a_v=20.0)
        geom = RobotGeometry(h_l=7.0)
        _, reach, lift = self.profile(cfg, geom, 128)
        assert np.allclose(lift, geom.h_l - reach)
        assert lift.max() > 0.0


class TestIdealGamma:
    @staticmethod
    def ideal_gamma(a_v, m):
        # the flat-terrain contact ratio does not depend on the terrain model
        return predict_gamma(RobotGeometry(), GaitConfig(),
                             HeightDeltaModel.from_rugosity(0.32),
                             m, [a_v]).gamma_ideal[0]

    def test_flat_wave_full_contact(self):
        # [TRIVIAL] no vertical wave -> gamma' = 1
        assert self.ideal_gamma(0.0, 360) == 1.0

    def test_vertical_wave_sheds_contact(self):
        g = self.ideal_gamma(20.0, 360)
        assert 0.0 < g < 1.0

    def test_nonincreasing_in_a_v(self):
        vals = [self.ideal_gamma(a, 720)
                for a in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSlipDistribution:
    def test_normalized(self):
        dist = slip_distribution(GaitConfig(), RobotGeometry(), 72)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs >= 0.0)

    def test_leg_invariance(self):
        # every leg traces the same stance shape up to translation, so leg
        # 1's path, the one the distribution is built from, stands for all
        cfg = GaitConfig(n_pairs=6)
        geom = RobotGeometry()
        base = gait_reference.foot_trajectory(cfg, geom, 1, 512)
        for leg in (2, 4, 6):
            other = gait_reference.foot_trajectory(cfg, geom, leg, 512)
            offsets = other - base
            assert np.allclose(offsets, offsets[0], atol=1e-9)

    def test_mostly_forward_thrust(self):
        # retraction slips rearward, so thrust angles concentrate near 0
        dist = slip_distribution(GaitConfig(), RobotGeometry(), 72)
        cosb = np.cos(np.radians(dist.bin_centers))
        assert float(np.dot(dist.probs, cosb)) > 0.3

    @pytest.mark.parametrize("centers, match", [
        ([0.0, 90.0, 180.0], "length"), ([0.0, math.nan], "finite"),
        ([0.0, math.inf], "finite"), ([-math.inf, 0.0], "finite"),
        ([math.nan, 0.0], "finite"), ([90.0, 0.0], "strictly increasing")],
        ids=["length", "nan", "inf", "-inf", "nan-first", "decreasing"])
    def test_rejects_bad_bin_centers(self, centers, match):
        # a non-finite angle made every speed band NaN
        with pytest.raises(ValueError, match=match):
            SlipDistribution(bin_centers=centers, probs=[0.5, 0.5])

    def test_steps_checked_before_the_cache(self):
        cfg, geom = GaitConfig(), RobotGeometry()
        dist = slip_distribution(cfg, geom, 72)
        assert slip_distribution(cfg, geom, np.int64(72)) is dist
        for steps in (72.0, "72"):
            with pytest.raises(ValueError, match="steps must be an integer"):
                slip_distribution(cfg, geom, steps)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            slip_distribution(cfg, geom, -2)
        with pytest.raises(ValueError, match="even"):
            slip_distribution(cfg, geom, 71)

    def test_far_phase_offset_keeps_the_path_finite(self):
        # the offset only translates the foot path: at 1e306 with a 1e4 cm
        # leg that translation overflowed a float
        dist = slip_distribution(GaitConfig(phase_offset=1e306),
                                 RobotGeometry(leg_length=1e4), 72)
        assert np.all(np.isfinite(dist.probs))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [1.5, -0.5]],
                             ids=["nan", "negative"])
    def test_rejects_nan_or_negative_probs(self, probs):
        with pytest.raises(ValueError, match="non-negative"):
            SlipDistribution(bin_centers=[0.0, 90.0], probs=probs)

    @pytest.mark.parametrize("geom", [
        RobotGeometry(leg_length=1e306), RobotGeometry(module_length=1e306),
        RobotGeometry(leg_length=1e-300, module_length=1e-300)],
        ids=["long-leg", "long-module", "tiny"])
    def test_extreme_lengths_keep_the_weights_finite(self, geom):
        # the velocity is taken in lengths of leg plus module: at 1e306 cm
        # its sum over the samples would overflow a float
        for cfg in (GaitConfig(), GaitConfig(duty=0.01, theta_body_amp=0.0)):
            dist = slip_distribution(cfg, geom, 720)
            assert np.all(np.isfinite(dist.probs))
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @given(n_pairs=st.integers(2, 8), xi=st.floats(-3.0, 3.0),
           duty=st.floats(0.05, 0.95),
           phase_offset=st.one_of(st.none(), st.floats(-10.0, 10.0)),
           theta_leg_amp=st.one_of(st.just(0.0), st.floats(0.0, 89.0)),
           theta_body_amp=st.one_of(st.just(0.0), st.floats(0.0, 89.0)),
           leg_length=st.floats(0.5, 30.0),
           module_length=st.floats(0.5, 30.0),
           steps=st.sampled_from([24, 72, 720]))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, n_pairs, xi, duty, phase_offset,
                               theta_leg_amp, theta_body_amp, leg_length,
                               module_length, steps):
        # bit for bit the per-leg oracle's speeds at its own stance phases
        cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                         phase_offset=phase_offset,
                         theta_leg_amp=theta_leg_amp,
                         theta_body_amp=theta_body_amp)
        geom = RobotGeometry(leg_length=leg_length,
                             module_length=module_length)
        try:
            ref = gait_reference.slip_distribution(cfg, geom, steps)
        except NoSlipError:
            with pytest.raises(NoSlipError):
                slip_distribution(cfg, geom, steps)
            return
        dist = slip_distribution(cfg, geom, steps)
        assert dist.bin_centers.tolist() == ref.bin_centers.tolist()
        assert dist.probs.tolist() == ref.probs.tolist()

    @given(n_pairs=st.integers(2, 8), xi=st.floats(-3.0, 3.0),
           duty=st.floats(0.05, 0.95),
           phase_offset=st.one_of(st.none(), st.floats(-10.0, 10.0)),
           theta_leg_amp=st.floats(1.0, 89.0),
           theta_body_amp=st.floats(0.0, 89.0),
           leg_length=st.floats(0.5, 30.0),
           module_length=st.floats(0.5, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_velocity_is_the_paths_derivative(self, n_pairs, xi, duty,
                                              phase_offset, theta_leg_amp,
                                              theta_body_amp, leg_length,
                                              module_length):
        # at every stance phase of the walker's grid, the oracle's velocity
        # is foot_position's central difference, in the same units
        cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                         phase_offset=phase_offset,
                         theta_leg_amp=theta_leg_amp,
                         theta_body_amp=theta_body_amp)
        geom = RobotGeometry(leg_length=leg_length,
                             module_length=module_length)
        u = gait_reference.stance_phases(cfg, 72)
        h = 1e-6
        ahead, behind = (gait_reference.foot_position(cfg, geom, 1, u + du,
                                                      onset=0.0)
                         for du in (h, -h))
        numeric = (ahead - behind) / (2.0 * h) * duty \
            / (leg_length + module_length)
        velocity = np.column_stack(gait_reference.foot_velocity(cfg, geom, u))
        np.testing.assert_allclose(velocity, numeric, rtol=1e-6,
                                   atol=1e-6 * np.abs(numeric).max())

    @pytest.mark.parametrize("cfg", [
        GaitConfig(),
        GaitConfig(n_pairs=4, xi=1.5, duty=0.6, theta_leg_amp=25.0,
                   phase_offset=-2.0, a_v=15.0)], ids=["default", "other"])
    def test_band_approaches_the_continuous_path(self, cfg):
        # at 720 steps the band's midpoint lies within 1e-3 of the one of a
        # fine histogram of the sampled path, which stands for the continuum
        geom = RobotGeometry()
        gammas = np.linspace(0.05, 1.0, 96)
        fine = gait_reference.slip_histogram(cfg, geom, 3600, 2 ** 16)
        mid = predict_speed_band(slip_distribution(cfg, geom, 720),
                                 gammas).v_ratio_mid
        assert np.abs(mid - predict_speed_band(fine, gammas).v_ratio_mid
                      ).max() <= 1e-3
