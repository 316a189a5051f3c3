"""Analytic model tests, including an exhaustive LP vertex oracle."""

import itertools
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import model_reference
from centiwalk.config import ConfigError, ExperimentSpec, load_config
from centiwalk.contact_sim import SensorModel, simulate_walks
from centiwalk.control import ControllerConfig
from centiwalk.gait import GaitConfig, NoStanceError, _stance_table, phase_table
from centiwalk.kinematics import (
    RobotGeometry,
    SlipDistribution,
    slip_distribution,
    stance_geometry,
)
from centiwalk.models import (
    LossModelOutput,
    friction_bounds,
    predict_gamma,
    predict_speed_band,
)
from centiwalk.terrain import HeightDeltaModel, generate_terrain, generate_terrains


@st.composite
def height_models(draw):
    """A Gaussian model (sigma = 0 too) or an empirical one of mixed,
    positive-only or nonpositive-only samples."""
    kind = draw(st.sampled_from(
        ["gaussian", "mixed", "positive", "nonpositive"]))
    if kind == "gaussian":
        return HeightDeltaModel(kind="gaussian", sigma=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 20.0))))
    lo, hi = {"mixed": (-15.0, 15.0), "positive": (1e-3, 15.0),
              "nonpositive": (-15.0, 0.0)}[kind]
    return HeightDeltaModel.from_samples(draw(
        st.lists(st.floats(lo, hi), min_size=1, max_size=40)))


@st.composite
def amplitude_grids(draw):
    """Amplitude grids with 0, repeats and amplitudes past av_max."""
    av_max = ControllerConfig().av_max
    grid = draw(st.lists(
        st.one_of(st.just(0.0), st.just(av_max),
                  st.floats(0.0, 4.0 * av_max)), min_size=1, max_size=6))
    return grid + grid[:draw(st.integers(0, len(grid)))]


GAITS = st.builds(
    GaitConfig, n_pairs=st.integers(2, 8),
    xi=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    duty=st.sampled_from([0.1, 0.2, 0.5, 0.6, 0.9]),
    phase_offset=st.one_of(st.none(), st.floats(-math.pi, math.pi)))


def make_dist(centers, probs):
    centers = np.asarray(centers, float)
    probs = np.asarray(probs, float)
    return SlipDistribution(bin_centers=centers, probs=probs / probs.sum())


def objective(dist, w):
    cosb = np.cos(np.radians(dist.bin_centers))
    gamma = float(np.dot(dist.probs, w))
    return float(np.dot(w * dist.probs, cosb)) - (1.0 - gamma)


def enumerate_bounds(dist, gamma):
    """Brute-force LP oracle: check every vertex of the feasible polytope.

    With one equality constraint over the box [0,1]^B, every vertex has at
    most one fractional coordinate.  Enumerate each subset at weight 1 plus
    an optional fractional bin.
    """
    probs = dist.probs
    b = len(dist.bin_centers)
    best_min, best_max = math.inf, -math.inf
    for subset in itertools.product((0, 1), repeat=b):
        w0 = np.array(subset, float)
        mass = float(np.dot(probs, w0))
        if abs(mass - gamma) <= 1e-12:
            val = objective(dist, w0)
            best_min, best_max = min(best_min, val), max(best_max, val)
        for j in range(b):
            if subset[j] == 1 or probs[j] <= 0.0:
                continue
            frac = (gamma - mass) / probs[j]
            if -1e-12 <= frac <= 1.0 + 1e-12:
                w = w0.copy()
                w[j] = min(max(frac, 0.0), 1.0)
                val = objective(dist, w)
                best_min, best_max = min(best_min, val), max(best_max, val)
    return best_min, best_max


class TestFrictionBounds:
    def test_two_bin_frozen_example(self):
        # [DERIVED] bins at 0 and 180 deg, equal mass, gamma = 1/2:
        # max puts all contact on cos=+1 -> 0.5*1 - 0.5 = 0.0
        # min puts it on cos=-1 -> -0.5 - 0.5 = -1.0
        dist = make_dist([0.0, 180.0 - 1e-9], [0.5, 0.5])
        f_min, f_max = friction_bounds(dist, 0.5)
        cos_back = math.cos(math.radians(180.0 - 1e-9))
        assert f_max == pytest.approx(0.0, abs=1e-9)
        assert f_min == pytest.approx(0.5 * cos_back - 0.5, abs=1e-9)

    def test_full_contact_band_collapses(self):
        dist = slip_distribution(GaitConfig(), RobotGeometry())
        f_min, f_max = friction_bounds(dist, 1.0)
        assert f_min == pytest.approx(f_max, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        # [DERIVED] greedy fill vs exhaustive vertex oracle, <= 1e-9
        rng = np.random.default_rng(42)
        for _ in range(10):
            b = int(rng.integers(3, 9))
            dist = make_dist(np.sort(rng.uniform(-180, 180, b)),
                             rng.uniform(0.05, 1.0, b))
            for gamma in np.linspace(0.0, 1.0, 11):
                lo, hi = enumerate_bounds(dist, gamma)
                f_min, f_max = friction_bounds(dist, float(gamma))
                assert abs(f_min - lo) <= 1e-9
                assert abs(f_max - hi) <= 1e-9

    def test_rejects_out_of_range_gamma(self):
        dist = make_dist([0.0, 90.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            friction_bounds(dist, 1.5)


class TestSpeedLaw:
    @given(data=st.data(), gamma=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_band_within_zero_and_one(self, data, gamma):
        # a negative speed reads 0, and the full-contact speed (1) bounds
        # the band from above, so no upper clamp is needed; the two edges
        # round apart, so a band that collapses (one bin, or bins of equal
        # cos) may invert by an ulp
        b = data.draw(st.integers(min_value=2, max_value=12))
        centers = data.draw(st.lists(
            st.floats(min_value=-179.0, max_value=179.0), min_size=b,
            max_size=b, unique=True).map(sorted))
        probs = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=b, max_size=b)))
        assume(probs.sum() > 1e-3)
        dist = make_dist(centers, probs)
        assume(np.dot(dist.probs, np.cos(np.radians(dist.bin_centers))) > 1e-3)
        band = predict_speed_band(dist, gamma)
        assert 0.0 <= band.v_ratio_min <= band.v_ratio_max + 1e-12
        assert band.v_ratio_max <= 1.0 + 1e-12

    def test_distribution_coeff_normalizes_full_contact(self):
        dist = slip_distribution(GaitConfig(), RobotGeometry())
        band = predict_speed_band(dist, 1.0)
        assert band.v_ratio_min == pytest.approx(1.0, abs=1e-9)
        assert band.v_ratio_max == pytest.approx(1.0, abs=1e-9)

    def test_band_monotone_in_gamma(self):
        dist = slip_distribution(GaitConfig(), RobotGeometry())
        gammas = np.linspace(0.0, 1.0, 21)
        bands = [predict_speed_band(dist, g) for g in gammas]
        v_min = [b.v_ratio_min for b in bands]
        v_max = [b.v_ratio_max for b in bands]
        assert all(a <= b + 1e-12 for a, b in zip(v_min, v_min[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(v_max, v_max[1:]))


class TestPredictGamma:
    def test_flat_terrain_trivial(self):
        # [TRIVIAL] sigma = 0: no loss, gamma = 1, p_e = 0
        out = predict_gamma(RobotGeometry(), GaitConfig(),
                            HeightDeltaModel.from_rugosity(0.0), 360, [10.0])
        assert out.p_loss == 0.0
        assert out.gamma == 1.0
        assert out.p_e == 0.0

    @pytest.mark.parametrize("a_v", [45.0, 60.0])
    def test_flat_terrain_loses_where_the_reach_is_negative(self, a_v):
        # [DERIVED] on flat terrain every step is d = 0, a drop that exceeds
        # a negative reach only: gamma is the share of the walker's stance
        # samples whose reach is not negative
        cfg, geom, steps = GaitConfig(), RobotGeometry(), 360
        u = _stance_table(cfg, steps)[2]
        reach = stance_geometry(cfg, geom, u, a_v)[1]
        out = predict_gamma(geom, cfg, HeightDeltaModel.from_rugosity(0.0),
                            steps, [a_v])
        lost = np.count_nonzero(reach < 0.0)
        assert 0 < lost < len(u)
        assert out.gamma[0] == 1.0 - lost / len(u)

    @given(cfg=GAITS, steps=st.integers(2, 100).map(lambda h: 2 * h),
           grid=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=6))
    @example(cfg=GaitConfig(), steps=72, grid=[0.0, 45.0, 60.0, 80.0])
    @settings(max_examples=100, deadline=None)
    def test_flat_terrain_is_the_walk_exactly(self, cfg, steps, grid):
        # [DERIVED] on flat terrain every cycle of every walk loses the
        # same samples, those whose reach is negative (from about 38
        # degrees at the default gait), and the model predicts at those
        # very samples: its gamma is the walk's to within 1 ulp of 1.0
        assume((phase_table(cfg, steps) < cfg.duty).any())
        geom = RobotGeometry()
        heights = generate_terrains([0.0], cfg.n_pairs + 2, 5, [0, 1])[0]
        walked = simulate_walks(cfg, geom, heights, [0, 1], grid, 2, steps,
                                SensorModel()).gamma
        out = predict_gamma(geom, cfg, HeightDeltaModel.from_rugosity(0.0),
                            steps, grid)
        assert np.all(walked == walked[:1, :, :1])
        assert np.all(np.abs(walked[0, :, 0] - out.gamma)
                      <= np.spacing(1.0))

    def test_within_4_se_of_2000_seed_walks(self):
        # alongside validate's 0.05 gate: in each of the default config's
        # rough cells, 2000 seeds' mean walked gamma lies within 4 standard
        # errors, from the seeds' own spread, of the predicted gamma
        fc = load_config(None)
        cfg, geom, exp = fc.gait, fc.geometry, fc.experiment
        levels = [0.17, 0.32]
        seeds = list(range(2000))
        heights = generate_terrains(levels, exp.cycles + cfg.n_pairs,
                                    exp.terrain_cols, seeds)
        for r_g, level in zip(levels, heights):
            per_seed = simulate_walks(cfg, geom, level, seeds, exp.a_v_grid,
                                      exp.cycles, exp.steps,
                                      SensorModel()).gamma.mean(axis=-1)
            predicted = predict_gamma(geom, cfg,
                                      HeightDeltaModel.from_rugosity(r_g),
                                      exp.steps, exp.a_v_grid).gamma
            se = per_seed.std(axis=0, ddof=1) / math.sqrt(len(seeds))
            z = (per_seed.mean(axis=0) - predicted) / se
            assert np.all(np.abs(z) <= 4.0), (r_g, z)

    def test_p_loss1_frozen_oracle(self):
        # [DERIVED] a_v=0 makes reach constant h_l, so
        # P_loss,1 = 2 Phi(-h_l / sigma) = 2 Phi(-7/4.8)
        geom = RobotGeometry(h_l=7.0)
        out = predict_gamma(geom, GaitConfig(),
                            HeightDeltaModel.from_rugosity(0.32), 360, [0.0])
        assert out.p_loss1 == pytest.approx(0.14474868660299556, abs=1e-12)

    def test_mixture_identity(self):
        model = HeightDeltaModel.from_rugosity(0.32)
        out = predict_gamma(RobotGeometry(), GaitConfig(), model, 360, [10.0])
        assert out.p_loss == pytest.approx(
            model.p1 * out.p_loss1 + (1 - model.p1) * out.p_loss2)
        assert out.gamma == pytest.approx(1.0 - out.p_loss)

    def test_p_e_uses_ideal_gamma(self):
        out = predict_gamma(RobotGeometry(), GaitConfig(),
                            HeightDeltaModel.from_rugosity(0.32), 360, [10.0])
        assert out.p_e == pytest.approx((1 - out.gamma) / out.gamma_ideal)

    def test_gamma_decreasing_in_rugosity(self):
        geom = RobotGeometry()
        cfg = GaitConfig()
        gammas = [predict_gamma(geom, cfg, HeightDeltaModel.from_rugosity(r),
                                360, [0.0]).gamma[0] for r in (0.0, 0.17, 0.32)]
        assert gammas[0] > gammas[1] > gammas[2]

    def test_p_e_infinite_without_ideal_contact(self):
        # a short stance that the vertical wave lifts throughout keeps no
        # flat-ground contact at a_v > 0: p_e is inf there, with no warning
        cfg = GaitConfig(duty=0.2, phase_offset=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = predict_gamma(RobotGeometry(), cfg,
                                HeightDeltaModel.from_rugosity(0.0), 64,
                                [0.0, 20.0])
        assert out.gamma_ideal.tolist() == [1.0, 0.0]
        assert out.p_e.tolist() == [0.0, math.inf]

    def test_rejects_odd_steps_and_no_stance_as_a_walk_does(self):
        # the model and the walker read one stance table, which raises one
        # error for odd steps and one for a gait with no stance sample
        geom, model = RobotGeometry(), HeightDeltaModel.from_rugosity(0.32)
        heights = generate_terrains([0.32], 4, 5, [0])[0]
        no_stance = GaitConfig(n_pairs=2, xi=1.5, duty=0.125)
        for cfg, steps, error in [(GaitConfig(), 71, ValueError),
                                  (no_stance, 4, NoStanceError)]:
            with pytest.raises(error) as predicted:
                predict_gamma(geom, cfg, model, steps, [0.0])
            with pytest.raises(error) as walked:
                simulate_walks(cfg, geom, heights, [0], [0.0], 1, steps,
                               SensorModel())
            assert str(predicted.value) == str(walked.value)
            assert str(predicted.value).endswith(
                f"steps={steps}" if cfg is no_stance
                else f"steps must be even, got {steps}")

    @pytest.mark.parametrize("steps", [72.0, 72.5, np.float64(72.0)],
                             ids=["float", "half", "numpy-float"])
    def test_rejects_steps_that_are_not_integers_as_a_walk_does(self, steps):
        # 72.0 would hit the stance table cached for 72, so the model checks
        # steps itself, with the walker's error and wording
        geom, model = RobotGeometry(), HeightDeltaModel.from_rugosity(0.32)
        heights = generate_terrains([0.32], 10, 5, [0])[0]
        with pytest.raises(ValueError) as predicted:
            predict_gamma(geom, GaitConfig(), model, steps, [0.0])
        with pytest.raises(ValueError) as walked:
            simulate_walks(GaitConfig(), geom, heights, [0], [0.0], 1, steps,
                           SensorModel())
        assert str(predicted.value) == str(walked.value) == \
            f"steps must be an integer, got {steps!r}"

    @pytest.mark.parametrize("bad", [math.inf, -1.0, math.nan])
    def test_rejects_amplitudes_gait_config_rejects(self, bad):
        # the grid's amplitudes obey GaitConfig's rule and wording
        with pytest.raises(ValueError, match="a_v must be finite and >= 0"):
            predict_gamma(RobotGeometry(), GaitConfig(),
                          HeightDeltaModel.from_rugosity(0.32), 360,
                          [0.0, bad])

    @given(model=height_models(), grid=amplitude_grids(), cfg=GAITS,
           steps=st.integers(2, 100).map(lambda h: 2 * h))
    # a subnormal sigma: -t / sigma overflows to -inf, a tail of 0
    @example(model=HeightDeltaModel(kind="gaussian", sigma=2.2e-311),
             grid=[0.0], cfg=GaitConfig(n_pairs=2, xi=0.5, duty=0.1), steps=6)
    # model-sweep's shape: the default steps = 72 on a five-amplitude grid,
    # where the tails are evaluated once per distinct threshold and
    # gathered back, for a rugosity level and for a terrain file's
    # empirical sample
    @example(model=HeightDeltaModel.from_rugosity(0.32),
             grid=[0.0, 6.0, 12.0, 18.0, 24.0], cfg=GaitConfig(), steps=72)
    @example(model=HeightDeltaModel.from_samples(
                 generate_terrain(0.32, rows=40, cols=5, seed=3)
                 .longitudinal_deltas()),
             grid=[0.0, 6.0, 12.0, 18.0, 24.0], cfg=GaitConfig(), steps=72)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, model, grid, cfg, steps):
        # every field at every amplitude equals the one-amplitude oracle bit
        # for bit, over Gaussian (sigma = 0 too) and empirical models and
        # grids with 0, repeats and amplitudes past the controller's av_max
        assume((phase_table(cfg, steps) < cfg.duty).any())
        out = predict_gamma(RobotGeometry(), cfg, model, steps, grid)
        for f in fields(LossModelOutput):
            assert getattr(out, f.name).shape == (len(grid),)
        for i, a_v in enumerate(grid):
            with np.errstate(over="ignore"):
                ref = model_reference.predict_gamma(
                    RobotGeometry(), replace(cfg, a_v=a_v), model, steps)
            for f in fields(LossModelOutput):
                assert getattr(out, f.name)[i] == getattr(ref, f.name), \
                    (f.name, a_v)


def best_av(r_g, grid):
    """The amplitude on the grid whose predicted speed-band midpoint is
    fastest (argmax: ties go to the smaller amplitude), and that band."""
    geom, cfg = RobotGeometry(), GaitConfig()
    model = HeightDeltaModel.from_rugosity(r_g)
    gammas = predict_gamma(geom, cfg, model, 360, grid).gamma
    band = predict_speed_band(slip_distribution(cfg, geom), gammas)
    best = int(np.argmax(band.v_ratio_mid))
    return grid[best], band.v_ratio_mid[best]


class TestOptimalAv:
    def test_interior_maximum_on_rough_terrain(self):
        best, mid = best_av(0.32, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
        assert 0.0 < best < 25.0
        assert mid >= 0.0

    def test_flat_terrain_prefers_zero(self):
        # gamma is 1 everywhere, ties break toward the smaller amplitude
        best, _ = best_av(0.0, [0.0, 10.0, 20.0])
        assert best == 0.0

    def test_rejects_empty_grid(self):
        # an empty amplitude grid has no optimum to sweep for
        with pytest.raises(ConfigError):
            ExperimentSpec(a_v_grid=[])
