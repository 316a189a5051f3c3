"""Feedback controller tests."""

import pytest

from centiwalk.contact_sim import SensorModel
from centiwalk.control import (
    ControllerConfig,
    Scenario,
    compare_controllers,
    run_trial,
    update_av,
)
from centiwalk.gait import GaitConfig
from centiwalk.kinematics import RobotGeometry, flat_ground_stride
from centiwalk.terrain import generate_terrain


class TestUpdateAv:
    def test_zero_error_gives_floor(self):
        # [TRIVIAL] gamma_s = set point -> raw command 0 -> av_min
        cc = ControllerConfig(k_p=60.0, gamma_set=0.9)
        assert update_av(cc, 0.9) == 0.0

    def test_proportional_arithmetic(self):
        # [DERIVED] 60 * (0.9 - 0.8) = 6
        cc = ControllerConfig(k_p=60.0, gamma_set=0.9, av_max=25.0)
        assert update_av(cc, 0.8) == pytest.approx(6.0)

    def test_saturates_at_av_max(self):
        # [DERIVED] 60 * (0.9 - 0.5) = 24 -> clamped when av_max < 24
        cc = ControllerConfig(k_p=60.0, gamma_set=0.9, av_max=20.0)
        assert update_av(cc, 0.5) == 20.0

    def test_never_negative(self):
        # [TRIVIAL] gamma_s above the set point clamps to av_min
        cc = ControllerConfig(k_p=60.0, gamma_set=0.9, av_min=0.0)
        assert update_av(cc, 1.0) == 0.0

    def test_rejects_out_of_range_gamma(self):
        cc = ControllerConfig()
        with pytest.raises(ValueError):
            update_av(cc, 1.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(k_p=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(gamma_set=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(av_min=10.0, av_max=5.0)
        with pytest.raises(ValueError):
            ControllerConfig(update_every=0)
        with pytest.raises(ValueError):
            ControllerConfig(mode="pid")
        nan = float("nan")
        for kwargs in (dict(k_p=nan), dict(av_min=nan), dict(av_max=nan),
                       dict(av_min=-1.0), dict(fixed_av=-1.0),
                       dict(fixed_av=nan)):
            with pytest.raises(ValueError):
                ControllerConfig(**kwargs)


class TestRunTrial:
    def test_open_loop_flat_ground(self):
        # [TRIVIAL] flat terrain at a_v = 0 walks at full speed every cycle
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        cc = ControllerConfig(mode="open_loop", fixed_av=0.0)
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 6, 72,
                        SensorModel(), seed=0)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in rec.v_ratio)
        assert rec.a_v == [0.0] * 6

    def test_feedback_converges_on_flat_ground(self):
        # [DERIVED] noiseless gamma_s = 1 drives the command to the clamp
        # floor within two cycles and keeps it there (fixed point)
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        cc = ControllerConfig(mode="feedback")
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 6, 72,
                        SensorModel(), seed=0)
        assert all(a == 0.0 for a in rec.a_v[1:])
        assert all(g == 1.0 for g in rec.gamma_s)

    def test_clamp_safety(self):
        terrain = generate_terrain(0.32, rows=40, cols=5, seed=1)
        cc = ControllerConfig(av_min=0.0, av_max=25.0)
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 20, 72,
                        SensorModel(), seed=1)
        assert all(0.0 <= a <= 25.0 for a in rec.a_v)

    def test_update_every_holds_amplitude(self):
        terrain = generate_terrain(0.32, rows=40, cols=5, seed=2)
        cc = ControllerConfig(update_every=3)
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 12, 72,
                        SensorModel(), seed=2)
        # amplitude can change only at cycles 3, 6, 9 (0-based commands)
        for c in range(1, 12):
            if c % 3 != 0:
                assert rec.a_v[c] == rec.a_v[c - 1]

    def test_sensor_noise_bias_bounded(self):
        # measured gamma deviates from truth by about the flip probability
        terrain = generate_terrain(0.0, rows=40, cols=5, seed=3)
        cc = ControllerConfig(mode="open_loop", fixed_av=0.0)
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 30, 72,
                        SensorModel(flip_prob=0.05), seed=3)
        bias = 1.0 - sum(rec.gamma_s) / len(rec.gamma_s)
        assert bias <= 0.05 + 0.02

    def test_summary_fields(self):
        terrain = generate_terrain(0.17, rows=25, cols=5, seed=4)
        cc = ControllerConfig()
        rec = run_trial(GaitConfig(), RobotGeometry(), terrain, cc, 8, 72,
                        SensorModel(), seed=4)
        assert rec.mean_speed_ratio == pytest.approx(
            sum(rec.v_ratio) / len(rec.v_ratio))
        assert rec.total_distance == pytest.approx(sum(rec.displacement))
        # a cycle's displacement is the flat-ground stride times its speed
        stride = flat_ground_stride(GaitConfig(), RobotGeometry())
        assert rec.displacement == [stride * v for v in rec.v_ratio]


class TestCompareControllers:
    def test_identical_scenarios_identical_stats(self):
        # [TRIVIAL] paired seeds: same config twice gives the same numbers
        cc = ControllerConfig(mode="open_loop", fixed_av=0.0)
        scenarios = [Scenario("a", cc, 0.32), Scenario("b", cc, 0.32)]
        stats = compare_controllers(GaitConfig(), RobotGeometry(), scenarios,
                                    seeds=[0, 1, 2], cycles=6, steps=72)
        assert stats["a"].per_seed_speed == stats["b"].per_seed_speed
        assert stats["a"].mean_speed_ratio == stats["b"].mean_speed_ratio

    def test_requires_two_scenarios(self):
        with pytest.raises(ValueError):
            compare_controllers(GaitConfig(), RobotGeometry(),
                                [Scenario("a", ControllerConfig(), 0.32)],
                                seeds=[0])

    def test_requires_seeds(self):
        cc = ControllerConfig()
        with pytest.raises(ValueError):
            compare_controllers(GaitConfig(), RobotGeometry(),
                                [Scenario("a", cc, 0.1),
                                 Scenario("b", cc, 0.1)], seeds=[])
