"""Feedback controller tests."""

import numpy as np
import pytest

from centiwalk.contact_sim import SensorModel, simulate_walks
from centiwalk.control import (
    ARMS,
    ControllerConfig,
    _feedback,
    compare_controllers,
    update_av,
)
from centiwalk.gait import GaitConfig
from centiwalk.kinematics import RobotGeometry
from centiwalk.terrain import generate_terrain, generate_terrains


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
        nan, inf = float("nan"), float("inf")
        for kwargs in (dict(k_p=nan), dict(av_min=nan), dict(av_max=nan),
                       dict(av_min=-1.0), dict(fixed_av=-1.0),
                       dict(fixed_av=nan), dict(k_p=inf), dict(av_max=inf),
                       dict(av_min=inf, av_max=inf), dict(fixed_av=inf)):
            with pytest.raises(ValueError):
                ControllerConfig(**kwargs)


def arm_column(walks, name):
    """The per-cycle outcomes of one arm of a controller comparison."""
    return {field: getattr(walks, field)[:, list(ARMS).index(name)]
            for field in ("gamma_measured", "a_v", "v_ratio")}


def compare(r_g, seed, cycles, cc, flip_prob=0.0, rows=20):
    """compare_controllers on one seed's generated terrain."""
    terrain = generate_terrain(r_g, rows=rows, cols=5, seed=seed)
    return compare_controllers(GaitConfig(), RobotGeometry(), cc,
                               terrain.heights[None], [seed], cycles, 72,
                               flip_prob)


class TestRunTrial:
    """A trial is one seed's walk in one arm column of compare_controllers."""

    def test_open_loop_flat_ground(self):
        # [TRIVIAL] flat terrain at a_v = 0 walks at full speed every cycle
        arm = arm_column(compare(0.0, 0, 6, ControllerConfig(fixed_av=0.0)),
                         "open_loop")
        assert np.allclose(arm["v_ratio"], 1.0, rtol=0.0, atol=1e-9)
        assert arm["a_v"].tolist() == [[0.0] * 6]

    def test_open_loop_holds_fixed_av_and_feedback_starts_at_av_min(self):
        cc = ControllerConfig(av_min=5.0, fixed_av=12.0)
        walks = compare(0.32, 0, 4, cc)
        assert arm_column(walks, "open_loop")["a_v"].tolist() == [[12.0] * 4]
        for name in list(ARMS)[1:]:
            assert arm_column(walks, name)["a_v"][0, 0] == 5.0

    def test_feedback_converges_on_flat_ground(self):
        # [DERIVED] noiseless gamma_s = 1 drives the command to the clamp
        # floor within two cycles and keeps it there (fixed point)
        arm = arm_column(compare(0.0, 0, 6, ControllerConfig()),
                         "feedback_every1")
        assert np.all(arm["a_v"][:, 1:] == 0.0)
        assert np.all(arm["gamma_measured"] == 1.0)

    def test_clamp_safety(self):
        walks = compare(0.32, 1, 20, ControllerConfig(av_min=0.0, av_max=25.0),
                        rows=40)
        assert np.all((0.0 <= walks.a_v) & (walks.a_v <= 25.0))

    def test_update_every_holds_amplitude(self):
        # an arm updating every p cycles commands a new amplitude only at
        # cycles p, 2p, ... (0-based), and open loop never
        walks = compare(0.32, 2, 12, ControllerConfig(), rows=40)
        for name, period in ARMS.items():
            a_v = arm_column(walks, name)["a_v"][0]
            for c in range(1, 12):
                if period is None or c % period != 0:
                    assert a_v[c] == a_v[c - 1], (name, c)
        assert len(set(arm_column(walks, "feedback_every3")["a_v"][0])) > 1

    def test_sensor_noise_bias_bounded(self):
        # measured gamma deviates from truth by about the flip probability
        arm = arm_column(compare(0.0, 3, 30, ControllerConfig(fixed_av=0.0),
                                 flip_prob=0.05, rows=40), "open_loop")
        bias = 1.0 - arm["gamma_measured"].mean()
        assert bias <= 0.05 + 0.02


class TestCompareControllers:
    @staticmethod
    def terrains(seeds):
        (heights,) = generate_terrains([0.32], 14, 5, seeds)
        return heights

    def test_identical_scenarios_identical_stats(self):
        # [TRIVIAL] paired seeds: with av_min = av_max = fixed_av every arm
        # walks at the same amplitude, so all four give the same numbers
        cc = ControllerConfig(av_min=10.0, av_max=10.0, fixed_av=10.0)
        seeds = [0, 1, 2]
        walks = compare_controllers(GaitConfig(), RobotGeometry(), cc,
                                    self.terrains(seeds), seeds, cycles=6,
                                    steps=72, flip_prob=0.05)
        assert walks.v_ratio.shape == (len(seeds), len(ARMS), 6)
        per_seed = walks.v_ratio[:, 0].mean(axis=-1)
        assert len(set(per_seed.tolist())) > 1        # the seeds differ
        for j in range(len(ARMS)):
            assert np.array_equal(walks.v_ratio[:, j], walks.v_ratio[:, 0])

    def test_arms_are_the_papers_update_periods(self):
        # open loop, and feedback updated every 1, 2 and 3 cycles: each
        # arm's column is the single walk at that period
        periods = {"open_loop": None, "feedback_every1": 1,
                   "feedback_every2": 2, "feedback_every3": 3}
        cc = ControllerConfig(fixed_av=5.0)
        seeds = [0, 1]
        terrains = self.terrains(seeds)
        sensor = SensorModel(flip_prob=0.05)
        walks = compare_controllers(GaitConfig(), RobotGeometry(), cc,
                                    terrains, seeds, cycles=6, steps=72,
                                    flip_prob=0.05)
        assert ARMS == periods
        for j, period in enumerate(periods.values()):
            start = cc.fixed_av if period is None else cc.av_min
            for i, (terrain, seed) in enumerate(zip(terrains, seeds)):
                one = simulate_walks(GaitConfig(), RobotGeometry(),
                                     terrain[None], [seed], [start], 6, 72,
                                     sensor, _feedback(cc, [period]))
                for field in ("gamma", "gamma_measured", "a_v", "v_ratio"):
                    assert np.array_equal(getattr(walks, field)[i, j],
                                          getattr(one, field)[0, 0])

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            compare_controllers(GaitConfig(), RobotGeometry(),
                                ControllerConfig(), np.empty((0, 14, 5)),
                                seeds=[], cycles=6, steps=72, flip_prob=0.0)
