"""Monte Carlo walker tests: ideal maps, loss rules, sensors, determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centiwalk.contact_sim import (
    ContactMap,
    SensorModel,
    WalkOffTerrainError,
    _debounce,
    ideal_contact_map,
    measure_gamma,
    simulate_walk,
)
from centiwalk.control import ControllerConfig, run_trial
from centiwalk.gait import GaitConfig, ideal_contact, TWO_PI
from centiwalk.kinematics import RobotGeometry
from centiwalk.terrain import TerrainGrid, generate_terrain, sigma_from_rugosity


def step_terrain(drop, rows=20, cols=5):
    """Ramp terrain: every row-to-row height difference equals `drop`."""
    heights = np.tile(drop * np.arange(rows)[:, None], (1, cols))
    return TerrainGrid(block_size=10.0, heights=heights, r_g=0.0, sigma=0.0,
                       seed=0)


class TestIdealContactMap:
    def test_matches_gait_functions(self):
        cfg = GaitConfig(n_pairs=4)
        cmap = ideal_contact_map(cfg, 72)
        off = cfg.contact_phase_offset
        for i in range(1, 5):
            for k in range(72):
                tau_c = TWO_PI * k / 72 + off
                assert cmap.bits[i - 1, k] == ideal_contact(cfg, tau_c, "left", i)
                assert cmap.bits[4 + i - 1, k] == ideal_contact(
                    cfg, tau_c, "right", i)

    def test_duty_fraction(self):
        cmap = ideal_contact_map(GaitConfig(n_pairs=6, duty=0.5), 72)
        assert cmap.bits.mean() == pytest.approx(0.5, abs=1e-12)

    def test_tiling_over_cycles(self):
        cmap = ideal_contact_map(GaitConfig(), 36, cycles=3)
        assert cmap.bits.shape == (12, 108)
        assert np.array_equal(cmap.bits[:, :36], cmap.bits[:, 36:72])

    @given(n_pairs=st.integers(min_value=2, max_value=12),
           xi=st.floats(min_value=0.0, max_value=3.0),
           duty=st.floats(min_value=0.05, max_value=0.95),
           phase_offset=st.one_of(
               st.none(), st.floats(min_value=-2 * math.pi,
                                    max_value=2 * math.pi)),
           half_steps=st.integers(min_value=2, max_value=100))
    @example(n_pairs=2, xi=1.5, duty=0.125, phase_offset=None, half_steps=2)
    @settings(max_examples=300, deadline=None)
    def test_walker_stance_window_is_ideal_map(self, n_pairs, xi, duty,
                                               phase_offset, half_steps):
        # on flat ground a noiseless walker keeps contact on exactly the
        # ideal map's retraction samples; a gait with none is rejected
        cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                         phase_offset=phase_offset)
        steps = 2 * half_steps
        terrain = generate_terrain(0.0, rows=n_pairs + 2, cols=5, seed=0)
        ideal = ideal_contact_map(cfg, steps).bits
        if not ideal.any():
            with pytest.raises(ValueError, match=f"steps={steps}"):
                simulate_walk(cfg, RobotGeometry(), terrain, 1, steps,
                              SensorModel(), seed=0)
            return
        res = simulate_walk(cfg, RobotGeometry(), terrain, 1, steps,
                            SensorModel(), seed=0)
        assert np.array_equal(res.measured.bits, ideal)

    def test_default_gait_full_stance_on_flat_ground(self):
        # [DERIVED] 72 samples at D = 0.5: 36 stance samples on every leg,
        # and flat ground at a_v = 0 keeps contact on each of them
        cfg = GaitConfig()
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        res = simulate_walk(cfg, RobotGeometry(), terrain, 5, 72,
                            SensorModel(), seed=0)
        assert res.ideal.bits.sum(axis=1).tolist() == [5 * 36] * 12
        assert np.array_equal(res.measured.bits, res.ideal.bits)
        assert measure_gamma(res.ideal, res.measured) == 1.0

    def test_contact_map_validation(self):
        with pytest.raises(ValueError):
            ContactMap(legs=2, steps=4, cycles=1, bits=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            ContactMap(legs=2, steps=2, cycles=1,
                       bits=np.full((2, 2), 3), kind="measured")


class TestLossRules:
    def test_flat_terrain_full_contact(self):
        # [TRIVIAL] no height changes -> every stance sample keeps contact
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 5, 72,
                            SensorModel(), seed=0)
        assert res.gamma_per_cycle == [1.0] * 5
        assert res.loss_events == []
        assert all(v == pytest.approx(1.0, abs=1e-9)
                   for v in res.forward_speed_ratio)

    def test_flat_terrain_with_vertical_wave(self):
        # loss rules only react to terrain height changes, so a vertical
        # wave on flat ground does not shed measured stance contact
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        res = simulate_walk(GaitConfig(a_v=20.0), RobotGeometry(), terrain,
                            5, 72, SensorModel(), seed=0)
        assert res.gamma_per_cycle == [1.0] * 5

    def test_deep_drop_loses_all_contact(self):
        # drop far beyond reach -> first cycle loses every stance sample
        geom = RobotGeometry(h_l=7.0)
        res = simulate_walk(GaitConfig(), geom, step_terrain(-100.0), 1, 72,
                            SensorModel(), seed=0)
        assert res.gamma_per_cycle[0] == 0.0
        assert {cause for _, _, cause in res.loss_events} == {"too_deep"}

    def test_small_drop_within_reach_keeps_contact(self):
        geom = RobotGeometry(h_l=7.0)
        res = simulate_walk(GaitConfig(), geom, step_terrain(-3.0), 1, 72,
                            SensorModel(), seed=0)
        assert res.gamma_per_cycle[0] == 1.0

    def test_tall_rise_loses_contact(self):
        geom = RobotGeometry(h_l2=4.0)
        res = simulate_walk(GaitConfig(), geom, step_terrain(100.0), 1, 72,
                            SensorModel(), seed=0)
        assert res.gamma_per_cycle[0] == 0.0
        assert {cause for _, _, cause in res.loss_events} == {"deformed"}

    def test_rise_partially_recoverable(self):
        # a modest rise is lost early in stance (small d_s) and regained
        # later once retraction can deform the distal link far enough
        geom = RobotGeometry(h_l2=4.0)
        res = simulate_walk(GaitConfig(), geom, step_terrain(2.0), 1, 72,
                            SensorModel(), seed=0)
        assert 0.0 < res.gamma_per_cycle[0] < 1.0


class TestSensor:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorModel(flip_prob=1.0)
        with pytest.raises(ValueError):
            SensorModel(latch_steps=-1)

    def test_noiseless_sensor_reports_truth(self):
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=4)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 10, 72,
                            SensorModel(), seed=4)
        assert res.gamma_measured == res.gamma_per_cycle
        assert min(res.gamma_per_cycle) < 1.0

    def test_flip_noise_biases_toward_half(self):
        # flat ground truth is all-ones; flips pull the measurement down by
        # about flip_prob (binary symmetric channel)
        terrain = generate_terrain(0.0, rows=60, cols=5, seed=0)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 40, 72,
                            SensorModel(flip_prob=0.05), seed=0)
        meas = res.measured.bits[res.ideal.bits == 1].mean()
        assert meas == pytest.approx(0.95, abs=0.01)

    def test_debounce_suppresses_single_flips(self):
        bits = np.array([[1, 1, 0, 1, 1, 1, 0, 0, 0, 1]], dtype=np.uint8)
        out = _debounce(bits.copy(), 2)
        # isolated zero is held over; the run of three zeros switches state
        assert out.tolist() == [[1, 1, 1, 1, 1, 1, 1, 0, 0, 0]]

    def test_debounce_zero_is_identity(self):
        bits = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        assert np.array_equal(_debounce(bits, 0), bits)


class TestSimulationHarness:
    def test_deterministic(self):
        terrain = generate_terrain(0.32, rows=25, cols=5, seed=9)
        a = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 8, 72,
                          SensorModel(flip_prob=0.05), seed=9)
        b = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 8, 72,
                          SensorModel(flip_prob=0.05), seed=9)
        assert np.array_equal(a.measured.bits, b.measured.bits)
        assert a.gamma_per_cycle == b.gamma_per_cycle

    def test_walk_off_terrain(self):
        # 8 rows hold 8 - n_pairs = 2 cycles, for fixed and feedback walks
        terrain = generate_terrain(0.32, rows=8, cols=5, seed=0)
        with pytest.raises(WalkOffTerrainError) as exc:
            simulate_walk(GaitConfig(), RobotGeometry(), terrain, 30, 72,
                          SensorModel(), seed=0)
        assert exc.value.cycle == 2
        with pytest.raises(WalkOffTerrainError) as exc:
            run_trial(GaitConfig(), RobotGeometry(), terrain,
                      ControllerConfig(), 30, 72, SensorModel(), seed=0)
        assert exc.value.cycle == 2

    def test_odd_steps_rejected(self):
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        with pytest.raises(ValueError, match="even"):
            simulate_walk(GaitConfig(), RobotGeometry(), terrain, 1, 71,
                          SensorModel(), seed=0)

    def test_result_shapes(self):
        terrain = generate_terrain(0.17, rows=20, cols=5, seed=2)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 6, 72,
                            SensorModel(), seed=2)
        assert res.measured.bits.shape == (12, 6 * 72)
        assert len(res.gamma_per_cycle) == 6
        assert len(res.forward_speed_ratio) == 6
        assert len(res.displacement_per_cycle) == 6


class TestMeasureGamma:
    def test_perfect_measurement(self):
        cmap = ideal_contact_map(GaitConfig(), 72)
        measured = ContactMap(legs=12, steps=72, cycles=1,
                              bits=cmap.bits.copy(), kind="measured")
        assert measure_gamma(cmap, measured) == 1.0

    def test_counts_only_retraction_samples(self):
        # zeroing swing samples in the measurement changes nothing
        cmap = ideal_contact_map(GaitConfig(), 72)
        bits = cmap.bits.copy()
        bits[cmap.bits == 0] = 0
        measured = ContactMap(legs=12, steps=72, cycles=1, bits=bits,
                              kind="measured")
        assert measure_gamma(cmap, measured) == 1.0

    def test_requires_ideal_first(self):
        cmap = ideal_contact_map(GaitConfig(), 72)
        measured = ContactMap(legs=12, steps=72, cycles=1,
                              bits=cmap.bits.copy(), kind="measured")
        with pytest.raises(ValueError):
            measure_gamma(measured, measured)

    def test_shape_mismatch(self):
        a = ideal_contact_map(GaitConfig(), 72)
        b = ContactMap(legs=12, steps=36, cycles=1,
                       bits=np.ones((12, 36), dtype=np.uint8), kind="measured")
        with pytest.raises(ValueError):
            measure_gamma(a, b)
