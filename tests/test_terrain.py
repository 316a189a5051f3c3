"""Terrain generation and height-difference statistics tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centiwalk.terrain import (
    HeightDeltaModel,
    TerrainGrid,
    generate_terrain,
    sigma_from_rugosity,
    tail_probability,
)


class TestSigma:
    def test_frozen_values(self):
        # [DERIVED] sigma = 15 * r_g cm
        assert sigma_from_rugosity(0.32) == pytest.approx(4.8)
        assert sigma_from_rugosity(0.17) == pytest.approx(2.55)
        assert sigma_from_rugosity(0.0) == 0.0


class TestGenerateTerrain:
    def test_shape_and_origin(self):
        grid = generate_terrain(0.32, rows=40, cols=5, seed=1)
        assert grid.heights.shape == (40, 5)
        assert np.allclose(grid.heights[0], 0.0)

    def test_deterministic(self):
        a = generate_terrain(0.32, rows=30, cols=4, seed=7)
        b = generate_terrain(0.32, rows=30, cols=4, seed=7)
        assert np.array_equal(a.heights, b.heights)

    def test_seed_changes_heights(self):
        a = generate_terrain(0.32, rows=30, cols=4, seed=7)
        b = generate_terrain(0.32, rows=30, cols=4, seed=8)
        assert not np.array_equal(a.heights, b.heights)

    def test_increments_are_the_seed_normal_stream(self):
        # the increments are the seed's N(0, 15 r_g) draws, row by row, so
        # a test can draw the same height differences with rng.normal
        grid = generate_terrain(0.32, rows=30, cols=4, seed=11)
        dh = np.random.default_rng(11).normal(0.0, sigma_from_rugosity(0.32),
                                              size=(29, 4))
        assert np.array_equal(grid.heights[1:], np.cumsum(dh, axis=0))

    def test_flat_at_zero_rugosity(self):
        grid = generate_terrain(0.0, rows=20, cols=3, seed=0)
        assert np.allclose(grid.heights, 0.0)

    def test_increment_std(self):
        # [DERIVED] sample std of longitudinal deltas approaches 15 * r_g
        grid = generate_terrain(0.32, rows=20001, cols=5, seed=3)
        deltas = grid.longitudinal_deltas()
        assert len(deltas) == 20000 * 5
        assert np.std(deltas, ddof=1) == pytest.approx(4.8, rel=0.02)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_terrain(-0.1, rows=10, cols=2)
        with pytest.raises(ValueError):
            generate_terrain(0.1, rows=0, cols=2)
        with pytest.raises(ValueError):
            generate_terrain(float("nan"), rows=10, cols=2)

    def test_save_load_roundtrip(self, tmp_path):
        grid = generate_terrain(0.17, rows=12, cols=3, seed=5)
        path = tmp_path / "t.txt"
        grid.save(path)
        loaded = TerrainGrid.load(path)
        assert np.allclose(loaded.heights, grid.heights, atol=1e-5)
        assert loaded.r_g == pytest.approx(0.17)
        assert loaded.seed == 5

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            TerrainGrid.load(path)


class TestHeightDeltaModel:
    def test_gaussian_p1(self):
        # [TRIVIAL] symmetric zero-mean model: Pr(dH <= 0) = 1/2
        assert HeightDeltaModel.from_rugosity(0.32).p1 == 0.5

    def test_empirical_p1(self):
        model = HeightDeltaModel.from_samples([-2.0, -1.0, 0.0, 3.0])
        assert model.p1 == pytest.approx(0.75)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            HeightDeltaModel.from_samples([])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            HeightDeltaModel(kind="uniform")

    def test_sample_dh_degenerate(self):
        # a zero-rugosity model has sigma 0, and the height differences
        # drawn at that rugosity (a terrain's longitudinal deltas) are all 0
        model = HeightDeltaModel.from_rugosity(0.0)
        assert model.sigma == 0.0
        dh = generate_terrain(0.0, rows=11, cols=1, seed=0).longitudinal_deltas()
        assert dh.shape == (10,)
        assert np.all(dh == 0.0)


class TestTailProbability:
    def test_frozen_gaussian_oracle(self):
        # [DERIVED] 2 * Phi(-7 / 4.8) computed independently via erf; an
        # array of thresholds gives an array of the same shape
        model = HeightDeltaModel(kind="gaussian", sigma=4.8)
        p = tail_probability(model, 7.0, "dh_nonpositive")
        assert p == pytest.approx(0.14474868660299556, abs=1e-12)
        p = tail_probability(model, [[7.0, 0.0], [-1.0, 7.0]], "dh_positive")
        assert p.shape == (2, 2)
        assert p[0, 0] == p[1, 1] == pytest.approx(0.14474868660299556,
                                                   abs=1e-12)
        assert p[0, 1] == p[1, 0] == 1.0

    def test_symmetry_of_conditional_tails(self):
        model = HeightDeltaModel(kind="gaussian", sigma=3.0)
        for thr in (0.5, 1.0, 4.0):
            assert tail_probability(model, thr, "dh_nonpositive") == \
                pytest.approx(tail_probability(model, thr, "dh_positive"))

    def test_degenerate_sigma(self):
        # [TRIVIAL] dH identically 0 never strictly exceeds any threshold
        model = HeightDeltaModel(kind="gaussian", sigma=0.0)
        assert tail_probability(model, 0.0, "dh_positive") == 0.0
        assert tail_probability(model, 5.0, "dh_nonpositive") == 0.0

    def test_nonpositive_threshold(self):
        model = HeightDeltaModel(kind="gaussian", sigma=2.0)
        assert tail_probability(model, 0.0, "dh_positive") == 1.0
        assert tail_probability(model, -1.0, "dh_nonpositive") == 1.0

    def test_empirical_hand_counted(self):
        # [DERIVED] sample {-3, -1, 0, 2, 5}: dH<=0 gives |dH| in {3,1,0},
        # so Pr(|dH| > 2 | dH<=0) = 1/3; dH>0 gives {2,5}, Pr(>2) = 1/2
        model = HeightDeltaModel.from_samples([-3.0, -1.0, 0.0, 2.0, 5.0])
        assert tail_probability(model, 2.0, "dh_nonpositive") == \
            pytest.approx(1.0 / 3.0)
        assert tail_probability(model, 2.0, "dh_positive") == pytest.approx(0.5)

    @given(data=st.data(), positive_only=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_empirical_matches_per_threshold_mean(self, data, positive_only):
        # ties with the sample, t = 0, negative t and an empty conditioning
        # set (a sample with no dH <= 0) against a brute-force np.mean
        lo = 0.25 if positive_only else -5.0
        grid = st.integers(min_value=int(lo * 4), max_value=20).map(
            lambda i: i / 4.0)
        samples = np.array(data.draw(st.lists(grid, min_size=1, max_size=30)))
        thresholds = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(list(np.abs(samples)) + [0.0, -1.0]),
                      st.floats(min_value=-6.0, max_value=6.0)),
            min_size=1, max_size=10)))
        model = HeightDeltaModel.from_samples(samples)
        for conditioned, cond in (("dh_nonpositive", -samples[samples <= 0.0]),
                                  ("dh_positive", samples[samples > 0.0])):
            expected = [1.0 if t <= 0.0 else
                        float(np.mean(cond > t)) if len(cond) else 0.0
                        for t in thresholds]
            got = tail_probability(model, thresholds, conditioned)
            assert got.shape == thresholds.shape
            assert got.tolist() == expected

    def test_rejects_unknown_conditioning(self):
        model = HeightDeltaModel.from_rugosity(0.1)
        with pytest.raises(ValueError):
            tail_probability(model, 1.0, "dh_anything")

    @given(thr=st.floats(min_value=0.01, max_value=30.0),
           sigma=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_tail_against_mc(self, thr, sigma):
        # analytic tail within 4 binomial SEs of a fixed Monte Carlo draw
        model = HeightDeltaModel(kind="gaussian", sigma=sigma)
        p = tail_probability(model, thr, "dh_nonpositive")
        dh = np.random.default_rng(123).normal(0.0, sigma, size=20000)
        neg = dh[dh <= 0.0]
        phat = np.mean(-neg > thr)
        se = math.sqrt(max(p * (1 - p), 1e-9) / len(neg))
        assert abs(phat - p) <= 4 * se + 1e-3
