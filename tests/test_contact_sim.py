"""Monte Carlo walker tests: ideal maps, loss rules, sensors, determinism."""

import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gait_reference
from centiwalk import contact_sim
from centiwalk.contact_sim import (
    ContactMap,
    SensorModel,
    WalkOffTerrainError,
    _debounce,
    ideal_contact_map,
    simulate_walk,
    simulate_walks,
)
from centiwalk.control import ControllerConfig, compare_controllers
from centiwalk.gait import GaitConfig, NoStanceError, TWO_PI, phase_table
from centiwalk.kinematics import RobotGeometry, slip_distribution
from centiwalk.models import predict_speed_band
from centiwalk.terrain import TerrainGrid, generate_terrain, generate_terrains
from gait_reference import ideal_contact


def sensed_ratios(cfg, terrain, cycles, steps, sensor, seed):
    """The engine's sensed contact ratio per cycle, Walks.gamma_measured, of
    the walk that simulate_walk takes with the same arguments."""
    return simulate_walks(cfg, RobotGeometry(), terrain.heights[None], [seed],
                          [cfg.a_v], cycles, steps,
                          sensor).gamma_measured[0, 0].tolist()


def step_terrain(drop, rows=20, cols=5):
    """Ramp terrain: every row-to-row height difference equals `drop`."""
    heights = np.tile(drop * np.arange(rows)[:, None], (1, cols))
    return TerrainGrid(block_size=10.0, heights=heights, r_g=0.0, seed=0)


class TestIdealContactMap:
    def test_matches_gait_functions(self):
        cfg = GaitConfig(n_pairs=4)
        cmap = ideal_contact_map(cfg, 72)
        off = TWO_PI * cfg.contact_fraction_offset
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

    @pytest.mark.parametrize("cfg", [
        GaitConfig(), GaitConfig(n_pairs=5, duty=0.3),
        GaitConfig(n_pairs=3, xi=1.5, duty=0.7, phase_offset=1.0)])
    @pytest.mark.parametrize("cycles", [1, 2, 5])
    def test_walk_and_gait_dump_share_one_stance_mask(self, cfg, cycles):
        # a walk's ideal map and ideal_contact_map read one cached stance
        # mask: both are the phase table's stance window tiled over the
        # cycles, and writing into a map's bits leaves the cache as it was
        want = np.tile((phase_table(cfg, 36) < cfg.duty).astype(np.uint8),
                       (1, cycles))
        terrain = generate_terrain(0.17, rows=cfg.n_pairs + cycles + 1,
                                   cols=5, seed=0)
        res = simulate_walk(cfg, RobotGeometry(), terrain, cycles, 36,
                            SensorModel(), seed=0)
        cmap = ideal_contact_map(cfg, 36, cycles)
        assert np.array_equal(res.ideal.bits, want)
        assert np.array_equal(cmap.bits, want)
        res.ideal.bits[:] = 0
        cmap.bits[:] = 0
        assert np.array_equal(ideal_contact_map(cfg, 36, cycles).bits, want)

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
        # ideal map's retraction samples; a gait with none has no ideal map
        # and no walk
        cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                         phase_offset=phase_offset)
        steps = 2 * half_steps
        terrain = generate_terrain(0.0, rows=n_pairs + 2, cols=5, seed=0)
        if not (phase_table(cfg, steps) < duty).any():
            with pytest.raises(NoStanceError, match=f"steps={steps}"):
                ideal_contact_map(cfg, steps)
            with pytest.raises(NoStanceError, match=f"steps={steps}"):
                simulate_walk(cfg, RobotGeometry(), terrain, 1, steps,
                              SensorModel(), seed=0)
            return
        ideal = ideal_contact_map(cfg, steps).bits
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
        assert sensed_ratios(cfg, terrain, 5, 72, SensorModel(), 0) == \
            [1.0] * 5

    def test_contact_map_validation(self):
        with pytest.raises(ValueError):
            ContactMap(legs=2, steps=4, cycles=1, bits=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            ContactMap(legs=2, steps=2, cycles=1,
                       bits=np.full((2, 2), 3))


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

    def test_loss_events_hold_builtin_types(self):
        # the events' repr is what a caller hashes, so a numpy scalar in
        # place of a builtin would change it
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=4)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 10, 72,
                            SensorModel(flip_prob=0.05, latch_steps=3),
                            seed=4)
        assert {cause for _, _, cause in res.loss_events} \
            == {"too_deep", "deformed"}
        for event in res.loss_events:
            assert type(event) is tuple
            assert [type(x) for x in event] == [int, int, str]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_walk_leaves_the_collector_as_it_found_it(self, enabled):
        # the event build pauses the cyclic garbage collector; afterwards
        # it is on again only if the caller had it on
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=4)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 10,
                                72, SensorModel(flip_prob=0.05), seed=4)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert res.loss_events

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
        with pytest.raises(ValueError, match="integer"):
            SensorModel(latch_steps=2.5)
        assert SensorModel(latch_steps=np.int64(3)).latch_steps == 3

    def test_noiseless_sensor_reports_truth(self):
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=4)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 10, 72,
                            SensorModel(), seed=4)
        assert sensed_ratios(GaitConfig(), terrain, 10, 72, SensorModel(),
                             4) == res.gamma_per_cycle
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


class TestCountedWalkPassesGammaOnOnce:
    def walks(self, flip_prob=0.0, next_av=None):
        # 70 seeds at 3 amplitudes are four engine blocks of 21 seeds
        seeds = list(range(70))
        (heights,) = generate_terrains([0.32], 12, 5, seeds)
        return simulate_walks(GaitConfig(), RobotGeometry(), heights, seeds,
                              [0.0, 10.0, 20.0], 6, 72,
                              SensorModel(flip_prob=flip_prob), next_av)

    def test_counted_walk_shares_gamma_and_broadcasts_a_v(self):
        w = self.walks()
        assert w.gamma_measured is w.gamma
        assert not w.a_v.flags.writeable
        assert w.a_v.shape == w.gamma.shape == (70, 3, 6)
        assert w.a_v.strides[0] == w.a_v.strides[2] == 0
        assert w.a_v[:, :, 0].tolist() == [[0.0, 10.0, 20.0]] * 70

    @pytest.mark.parametrize("flip_prob, feedback", [(0.05, False),
                                                     (0.0, True)],
                             ids=["flips", "next_av"])
    def test_sampled_walk_has_its_own_arrays(self, flip_prob, feedback):
        w = self.walks(flip_prob,
                       (lambda cycle, gamma_s, a_v: a_v) if feedback else None)
        assert not np.shares_memory(w.gamma_measured, w.gamma)
        for a in (w.gamma, w.gamma_measured, w.a_v):
            assert a.flags.owndata and a.flags.writeable
        if not feedback:
            assert np.array_equal(w.a_v, self.walks().a_v)


class TestSlipDistributionCache:
    def test_one_distribution_per_gait_shape(self):
        geom = RobotGeometry()
        terrain = generate_terrain(0.32, rows=12, cols=5, seed=3)
        base = GaitConfig(n_pairs=4)
        slip_distribution.cache_clear()
        for _ in range(3):
            w = simulate_walks(base, geom, terrain.heights[None], [3],
                               [0.0, 12.0, 25.0], 4, 72, SensorModel())
            predict_speed_band(slip_distribution(base, geom), w.gamma)
        info = slip_distribution.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert slip_distribution(base, geom) is slip_distribution(base, geom)
        variants = [(replace(base, theta_leg_amp=20.0), geom),
                    (replace(base, duty=0.6), geom),
                    (replace(base, xi=1.5), geom),
                    (replace(base, phase_offset=1.0), geom),
                    (base, RobotGeometry(leg_length=14.0))]
        for cfg, g in variants + [(base, geom)]:
            w = simulate_walks(cfg, g, terrain.heights[None], [3], [10.0], 4,
                               72, SensorModel())
            fresh = gait_reference.slip_distribution(cfg, g, 36)
            speeds = predict_speed_band(fresh, w.gamma[0, 0])
            v_ratio = predict_speed_band(slip_distribution(cfg, g),
                                         w.gamma).v_ratio_mid
            assert v_ratio[0, 0].tolist() == speeds.v_ratio_mid.tolist()
        assert slip_distribution.cache_info().misses == 1 + len(variants)

    def test_walks_read_no_slip_distribution(self, monkeypatch):
        # a walk returns contact only: its speed is the caller's to compute
        (heights,) = generate_terrains([0.32], 12, 5, [0, 1])
        sensors = (SensorModel(), SensorModel(flip_prob=0.05))
        expected = [simulate_walks(GaitConfig(), RobotGeometry(), heights,
                                   [0, 1], [0.0, 10.0], 4, 72, sensor)
                    for sensor in sensors]

        def no_slip(*args):
            raise AssertionError("the walk read a slip distribution")

        monkeypatch.setattr(contact_sim, "slip_distribution", no_slip)
        for sensor, want in zip(sensors, expected):
            got = simulate_walks(GaitConfig(), RobotGeometry(), heights,
                                 [0, 1], [0.0, 10.0], 4, 72, sensor)
            for name in ("gamma", "gamma_measured", "a_v"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name


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
            compare_controllers(GaitConfig(), RobotGeometry(),
                                ControllerConfig(), terrain.heights[None],
                                [0], 30, 72, flip_prob=0.0)
        assert exc.value.cycle == 2

    @pytest.mark.parametrize("feedback", [False, True],
                             ids=["open_loop", "feedback"])
    def test_batch_walks_off_its_terrain(self, feedback):
        # n_pairs = 6: a stack of 9-row terrains holds 3 cycles
        (heights,) = generate_terrains([0.32], 9, 5, [0, 1, 2])

        def hold(cycle, gamma_measured, a_v):
            return a_v

        with pytest.raises(WalkOffTerrainError, match=r"\(9 rows available\)") \
                as exc:
            simulate_walks(GaitConfig(), RobotGeometry(), heights, [0, 1, 2],
                           [0.0, 10.0, 20.0], 5, 72, SensorModel(),
                           hold if feedback else None)
        assert exc.value.cycle == 3

    @pytest.mark.parametrize("shape", ["2-D", "4-D", "short", "grid-list"])
    def test_batch_needs_one_stack_of_seed_terrains(self, shape):
        # the batch walks a 3-D stack of one (rows, cols) terrain per seed;
        # every case but the short stack is as long as the seed list, so
        # only its shape is wrong, and a list of grids is the per-seed form
        levels = generate_terrains([0.32], 20, 5, [0, 1, 2])
        heights = {"2-D": levels[0, 0], "4-D": levels, "short": levels[0, :2],
                   "grid-list": [generate_terrain(0.32, 20, 5, s)
                                 for s in (0, 1, 2)]}[shape]
        seeds = [0, 1, 2] if shape == "short" else list(range(len(heights)))
        with pytest.raises(ValueError, match=r"\(seeds, rows, cols\) height "
                                             "stack"):
            simulate_walks(GaitConfig(), RobotGeometry(), heights, seeds,
                           [0.0], 4, 72, SensorModel())

    def test_odd_steps_rejected(self):
        terrain = generate_terrain(0.0, rows=20, cols=5, seed=0)
        with pytest.raises(ValueError, match="even"):
            simulate_walk(GaitConfig(), RobotGeometry(), terrain, 1, 71,
                          SensorModel(), seed=0)

    @pytest.mark.parametrize("cycles, steps, flip_prob, field", [
        (2.5, 72, 0.0, "cycles"), (np.float64(3.0), 72, 0.0, "cycles"),
        (-1, 72, 0.0, "cycles"), (4, 72.0, 0.0, "steps"),
        (4, 72.0, 0.05, "steps"),
    ], ids=["half-cycles", "float-cycles", "negative-cycles",
            "float-steps-counted", "float-steps-flips"])
    def test_counts_must_be_integers(self, cycles, steps, flip_prob, field):
        # a float count is refused up front, with the field's name, on the
        # counted path and the sampled one alike, though 72.0 hashes as 72
        # in the stance table's cache
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            simulate_walks(GaitConfig(), RobotGeometry(),
                           terrain.heights[None], [0], [0.0], cycles, steps,
                           SensorModel(flip_prob))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            simulate_walk(GaitConfig(), RobotGeometry(), terrain, cycles,
                          steps, SensorModel(flip_prob), seed=0)

    def test_result_shapes(self):
        terrain = generate_terrain(0.17, rows=20, cols=5, seed=2)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 6, 72,
                            SensorModel(), seed=2)
        assert res.measured.bits.shape == res.ideal.bits.shape == (12, 6 * 72)
        assert len(res.gamma_per_cycle) == 6
        assert len(res.forward_speed_ratio) == 6
        assert len(sensed_ratios(GaitConfig(), terrain, 6, 72, SensorModel(),
                                 2)) == 6

    @pytest.mark.parametrize("terrains, seeds, a_v, law, match", [
        (1, [0, 1], [0.0], None, "one terrain per seed"),
        (0, [], [0.0], None, "at least one seed"),
        (1, [0], [], None, "one or more a_v"),
        (1, [0], [5.0, -1.0], None, "a_v must be finite and >= 0"),
        (1, [0], [5.0, np.inf], None, "a_v must be finite and >= 0"),
        (1, [0], [5.0], lambda cycle, gamma_measured, a_v: a_v - 10.0,
         "a_v must be finite and >= 0"),
        (1, [0], [5.0], lambda cycle, gamma_measured, a_v: a_v * np.nan,
         "a_v must be finite and >= 0"),
        (1, [0], [5.0], lambda cycle, gamma_measured, a_v: a_v * np.inf,
         "a_v must be finite and >= 0"),
    ], ids=["terrain-count", "no-seed", "no-a_v", "negative-a_v", "inf-a_v",
            "law-negative-a_v", "law-nan-a_v", "law-inf-a_v"])
    def test_batch_input_rejected(self, terrains, seeds, a_v, law, match):
        terrain = generate_terrain(0.32, rows=20, cols=5, seed=0)
        with pytest.raises(ValueError, match=match):
            simulate_walks(GaitConfig(), RobotGeometry(),
                           np.repeat(terrain.heights[None], terrains, axis=0),
                           seeds, a_v, 4, 72, SensorModel(), law)


class TestMeasureGamma:
    """The sensed contact ratio, Walks.gamma_measured, against the maps of
    simulate_walk's same walk."""

    def test_perfect_measurement(self):
        terrain = generate_terrain(0.0, rows=12, cols=5, seed=0)
        res = simulate_walk(GaitConfig(), RobotGeometry(), terrain, 4, 72,
                            SensorModel(), seed=0)
        assert sensed_ratios(GaitConfig(), terrain, 4, 72, SensorModel(),
                             0) == [1.0] * 4
        assert np.array_equal(res.measured.bits,
                              ideal_contact_map(GaitConfig(), 72, 4).bits)

    def test_counts_only_retraction_samples(self):
        # flips on swing samples show in the measured map but not in the
        # sensed ratio, which reads the ideal stance samples alone
        cfg = GaitConfig()
        terrain = generate_terrain(0.32, rows=12, cols=5, seed=5)
        res = simulate_walk(cfg, RobotGeometry(), terrain, 4, 72,
                            SensorModel(flip_prob=0.3), seed=5)
        stance = ideal_contact_map(cfg, 72).bits == 1
        bits = res.measured.bits.reshape(12, 4, 72)
        assert bits[:, :, ~stance[0]].any()
        assert sensed_ratios(cfg, terrain, 4, 72, SensorModel(flip_prob=0.3),
                             5) == [bits[:, c][stance].sum() / stance.sum()
                                    for c in range(4)]
