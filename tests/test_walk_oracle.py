"""The vectorised walk engine against a per-leg reference loop.

`reference_walk` is the walker's earlier cycle loop, one leg at a time, kept
here only as an oracle: every per-cycle number, loss event and measured bit
of `simulate_walk` must equal it exactly, and so must every per-cycle number
of every (seed, amplitude) cell of `simulate_walks`, in open loop and under
the controller's feedback rule, alone or in a mixed grid.  `reference_debounce`
is the sensor's earlier per-sample state machine, the oracle for the
windowed `_debounce`.  The per-sample loss rules are the oracle for the
counts that noise-free open-loop walks take from sorted thresholds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centiwalk.contact_sim import (
    BLOCK_ROWS,
    RANK_AMPLITUDES,
    SensorModel,
    _count_losses,
    _debounce,
    simulate_walk,
    simulate_walks,
)
from centiwalk.control import ControllerConfig, _feedback, update_av
from centiwalk.gait import GaitConfig, NoStanceError, _stance_table, phase_table
from centiwalk.kinematics import (
    RobotGeometry,
    _loss_thresholds,
    _threshold_table,
    recoverable_heights,
    stance_geometry,
)
from centiwalk.kinematics import slip_distribution as engine_distribution
from centiwalk.models import predict_gamma, predict_speed_band
from centiwalk.terrain import HeightDeltaModel, generate_terrain
from gait_reference import slip_distribution


def reference_debounce(bits, latch_steps):
    """Per-sample debounce of each row of a (legs, steps) array: the output
    holds its state until the raw signal persists latch_steps consecutive
    samples in the new state."""
    if latch_steps <= 0:
        return bits
    out = bits.copy()
    for row in out:
        state = row[0]
        run = 0
        for k, raw in enumerate(row):
            if raw != state:
                run += 1
                if run >= latch_steps:
                    state = raw
                    run = 0
            else:
                run = 0
            row[k] = state
    return out


@given(shape=st.sampled_from([(1, 1), (4, 2), (12, 8), (3, 5, 12)]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_debounce_matches_reference(shape, data):
    steps = shape[-1]
    latch_steps = data.draw(st.integers(min_value=0, max_value=steps + 2),
                            label="latch_steps")
    bits = np.array(data.draw(st.lists(st.integers(0, 1),
                                       min_size=math.prod(shape),
                                       max_size=math.prod(shape)),
                              label="bits"), dtype=np.uint8).reshape(shape)
    out = _debounce(bits, latch_steps)
    # every cycle of a (cycles, legs, steps) array starts from its own
    # first raw sample
    ref = np.stack([reference_debounce(b, latch_steps)
                    for b in bits.reshape(-1, shape[-2], steps)])
    assert out.dtype == bits.dtype
    assert np.array_equal(out, ref.reshape(shape))
    if latch_steps == 1:
        assert np.array_equal(out, bits)
    if latch_steps >= steps:
        assert np.array_equal(out, np.repeat(bits[..., :1], steps, axis=-1))


@pytest.mark.parametrize("flip_prob", [0.05, 0.5])
def test_debounce_matches_reference_at_engine_shape(flip_prob):
    # the engine's (block seeds, amplitudes, cycles, 2n, steps) shape: the
    # ideal gait's bits with flips, each (leg, cycle) row debounced alone
    steps = 72
    shape = (2, 3, 4, 12, steps)
    cfg = GaitConfig()
    ideal = phase_table(cfg, steps) < cfg.duty
    flips = np.random.default_rng(17).random(shape) < flip_prob
    bits = (ideal ^ flips).view(np.uint8)
    for latch_steps in range(steps + 3):
        out = _debounce(bits, latch_steps)
        ref = reference_debounce(bits.reshape(-1, steps), latch_steps)
        assert out.dtype == bits.dtype
        assert np.array_equal(out, ref.reshape(shape)), latch_steps


def reference_rule(d, reach, lift, recover):
    """The per-sample loss rule for a terrain step d: a drop loses a
    sample deeper than its reach, a rise one higher than its recoverable
    rise plus any lift of the vertical wave."""
    if d <= 0.0:
        return -d > reach
    return d > recover + np.maximum(lift, 0.0)


def reference_walk(cfg, geom, terrain, cycles, steps, sensor, seed, cc=None,
                   update_every=None):
    """Per-leg walk; with an update period, a_v follows cc's feedback law,
    updated every update_every cycles."""
    rng = np.random.default_rng(seed)
    n = cfg.n_pairs
    phases = phase_table(cfg, steps)
    stance = phases < cfg.duty
    cols = terrain.heights.shape[1]
    center = cols // 2
    leg_cols = np.array([max(center - 1, 0)] * n
                        + [min(center + 1, cols - 1)] * n)
    leg_rows = np.array([n - 1 - i for i in range(n)] * 2)
    dist = slip_distribution(cfg, geom, bins=36)
    out = {"gamma": [], "gamma_measured": [], "v": [], "a_v": [],
           "losses": [], "bits": []}
    for c in range(cycles):
        dh = (terrain.heights[leg_rows + 1, leg_cols]
              - terrain.heights[leg_rows, leg_cols])
        truth = np.zeros((2 * n, steps), dtype=np.uint8)
        for leg in range(2 * n):
            mask = stance[leg]
            d_s, reach, lift = stance_geometry(cfg, geom, phases[leg][mask],
                                               cfg.a_v)
            d = dh[leg]
            lost = reference_rule(d, reach, lift,
                                  recoverable_heights(geom, d_s))
            cause = "too_deep" if d <= 0.0 else "deformed"
            truth[leg, mask] = (~lost).astype(np.uint8)
            out["losses"] += [(leg, c * steps + int(k), cause)
                              for k in np.nonzero(mask)[0][lost]]
        bits = truth.copy()
        if sensor.flip_prob > 0.0:
            flips = rng.random(bits.shape) < sensor.flip_prob
            bits = bits ^ flips.astype(np.uint8)
        bits = reference_debounce(bits, sensor.latch_steps)
        gamma = float(truth[stance].sum() / stance.sum())
        out["gamma"].append(gamma)
        out["gamma_measured"].append(float(bits[stance].sum() / stance.sum()))
        out["v"].append(predict_speed_band(dist, gamma).v_ratio_mid)
        out["a_v"].append(cfg.a_v)
        out["bits"].append(bits)
        if update_every is not None and (c + 1) % update_every == 0:
            cfg = replace(cfg, a_v=update_av(cc, out["gamma_measured"][-1]))
        leg_rows = leg_rows + 1
    return out


@pytest.mark.parametrize("feedback", [False, True], ids=["open_loop", "feedback"])
@given(n_pairs=st.integers(min_value=2, max_value=8),
       xi=st.floats(min_value=0.0, max_value=3.0),
       duty=st.floats(min_value=0.1, max_value=0.9),
       phase_offset=st.one_of(st.none(), st.floats(min_value=-2 * math.pi,
                                                   max_value=2 * math.pi)),
       half_steps=st.integers(min_value=2, max_value=40),
       r_g=st.sampled_from([0.0, 0.1, 0.17, 0.32, 0.6]),
       a_v=st.floats(min_value=0.0, max_value=25.0),
       seed=st.integers(min_value=0, max_value=2**16),
       flip_prob=st.sampled_from([0.0, 0.02, 0.2]),
       latch_steps=st.integers(min_value=0, max_value=4),
       cycles=st.integers(min_value=1, max_value=6),
       update_every=st.integers(min_value=1, max_value=3))
# controller-compare's walk shape, 72 steps and 20 cycles with flips, at
# an amplitude past 38 degrees, where the default geometry's reach turns
# negative, undebounced and debounced
@example(n_pairs=6, xi=1.0, duty=0.5, phase_offset=None, half_steps=36,
         r_g=0.32, a_v=45.0, seed=7, flip_prob=0.05, latch_steps=0,
         cycles=20, update_every=1)
@example(n_pairs=6, xi=1.0, duty=0.5, phase_offset=None, half_steps=36,
         r_g=0.32, a_v=45.0, seed=7, flip_prob=0.05, latch_steps=3,
         cycles=20, update_every=1)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_loop(feedback, n_pairs, xi, duty,
                                       phase_offset, half_steps, r_g, a_v,
                                       seed, flip_prob, latch_steps, cycles,
                                       update_every):
    cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty, a_v=a_v,
                     phase_offset=phase_offset)
    geom = RobotGeometry()
    steps = 2 * half_steps
    terrain = generate_terrain(r_g, rows=cycles + n_pairs + 2, cols=5,
                               seed=seed)
    sensor = SensorModel(flip_prob, latch_steps)
    # either controller starts the trial at cfg.a_v
    cc = ControllerConfig(av_min=a_v, av_max=max(a_v, 25.0), fixed_av=a_v)
    period = update_every if feedback else None
    if not (phase_table(cfg, steps) < duty).any():
        with pytest.raises(ValueError):
            simulate_walk(cfg, geom, terrain, cycles, steps, sensor, seed)
        return
    ref = reference_walk(cfg, geom, terrain, cycles, steps, sensor, seed,
                         cc, period)
    one = simulate_walks(cfg, geom, terrain.heights[None], [seed], [a_v],
                         cycles, steps, sensor,
                         _feedback(cc, [period]) if feedback else None)
    assert_cell_matches(one, engine_distribution(cfg, geom), 0, 0, ref)
    if not feedback:
        res = simulate_walk(cfg, geom, terrain, cycles, steps, sensor, seed)
        assert_walk_matches(res, ref)


def reference_lost(losses, cycles, legs, steps):
    """The loss mask, cycles x legs x steps, of a walk's loss events."""
    lost = np.zeros((cycles, legs, steps), dtype=bool)
    for leg, step, _ in losses:
        lost[step // steps, leg, step % steps] = True
    return lost


def assert_cell_matches(walks, dist, i, j, ref):
    """Seed i at amplitude column j of `walks` is reference_walk's `ref`,
    its speed the band's middle on the gait's slip distribution dist."""
    assert walks.gamma[i, j].tolist() == ref["gamma"]
    assert walks.gamma_measured[i, j].tolist() == ref["gamma_measured"]
    assert walks.a_v[i, j].tolist() == ref["a_v"]
    assert predict_speed_band(dist, walks.gamma[i, j]).v_ratio_mid.tolist() \
        == ref["v"]


def assert_walk_matches(res, ref):
    """simulate_walk's result `res`, maps included, is reference_walk's
    open-loop `ref`."""
    assert res.gamma_per_cycle == ref["gamma"]
    # the sensed ratio per cycle: the measured map's share of stance samples
    shape = (len(res.ideal.bits), len(res.gamma_per_cycle), -1)
    stance = res.ideal.bits.reshape(shape)
    sensed = res.measured.bits.reshape(shape) & stance
    assert (sensed.sum(axis=(0, 2)) / stance.sum(axis=(0, 2))).tolist() == \
        ref["gamma_measured"]
    assert res.forward_speed_ratio == ref["v"]
    assert res.loss_events == ref["losses"]
    assert np.array_equal(res.measured.bits, np.hstack(ref["bits"]))


@given(n_pairs=st.integers(min_value=2, max_value=6),
       xi=st.floats(min_value=0.0, max_value=3.0),
       duty=st.floats(min_value=0.1, max_value=0.9),
       phase_offset=st.one_of(st.none(), st.floats(min_value=-2 * math.pi,
                                                   max_value=2 * math.pi)),
       half_steps=st.integers(min_value=2, max_value=30),
       flip_prob=st.sampled_from([0.0, 0.02, 0.2]),
       latch_steps=st.integers(min_value=0, max_value=4),
       cycles=st.integers(min_value=1, max_value=5),
       k_p=st.floats(min_value=1.0, max_value=200.0),
       gamma_set=st.floats(min_value=0.5, max_value=1.0),
       av_max=st.sampled_from([25.0, 60.0]),
       walkers=st.lists(st.tuples(
           st.integers(min_value=0, max_value=3),             # seed
           st.sampled_from([0.0, 0.1, 0.17, 0.32, 0.6])),     # rugosity
           min_size=1, max_size=4),
       extra_rows=st.integers(min_value=0, max_value=2),
       cols=st.integers(min_value=3, max_value=7),
       variants=st.lists(st.tuples(
           st.floats(min_value=0.0, max_value=25.0),          # start a_v
           st.sampled_from([None, 1, 2, 3])),                 # update period
           min_size=1, max_size=4))
# controller-compare's benchmark shape: 72 steps, 20 cycles and its four
# arms with flips, undebounced and debounced
@example(n_pairs=6, xi=1.0, duty=0.5, phase_offset=None, half_steps=36,
         flip_prob=0.05, latch_steps=0, cycles=20, k_p=60.0, gamma_set=0.9,
         av_max=25.0, walkers=[(678444, 0.32)], extra_rows=0, cols=5,
         variants=[(0.0, None), (0.0, 1), (0.0, 2), (0.0, 3)])
@example(n_pairs=6, xi=1.0, duty=0.5, phase_offset=None, half_steps=36,
         flip_prob=0.05, latch_steps=3, cycles=20, k_p=60.0, gamma_set=0.9,
         av_max=25.0, walkers=[(678444, 0.32)], extra_rows=0, cols=5,
         variants=[(0.0, None), (0.0, 1), (0.0, 2), (0.0, 3)])
# amplitudes past 38 degrees, where the default geometry's reach turns
# negative, at the start and from the controller's updates
@example(n_pairs=6, xi=1.0, duty=0.5, phase_offset=None, half_steps=36,
         flip_prob=0.2, latch_steps=0, cycles=12, k_p=100.0, gamma_set=0.95,
         av_max=60.0, walkers=[(1, 0.6), (2, 0.32)], extra_rows=1, cols=5,
         variants=[(45.0, None), (0.0, 1), (50.0, 2), (60.0, 3)])
@settings(max_examples=40, deadline=None)
def test_mixed_batch_rows_match_reference_loop(n_pairs, xi, duty,
                                               phase_offset, half_steps,
                                               flip_prob, latch_steps, cycles,
                                               k_p, gamma_set, av_max,
                                               walkers, extra_rows, cols,
                                               variants):
    # one grid of seeds (duplicates included, each with a terrain of its
    # own, all of one shape) by variants (start amplitude, update period):
    # each cell walks as if alone, and an open-loop cell's maps are its
    # simulate_walk's
    cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty,
                     phase_offset=phase_offset)
    geom = RobotGeometry()
    steps = 2 * half_steps
    assume((phase_table(cfg, steps) < duty).any())
    sensor = SensorModel(flip_prob, latch_steps)
    cc = ControllerConfig(k_p=k_p, gamma_set=gamma_set, av_max=av_max)
    # a terrain is seeded apart from the sensor, so that equal sensor
    # seeds walk different terrains
    terrains = [generate_terrain(r_g, rows=cycles + n_pairs + 1 + extra_rows,
                                 cols=cols, seed=100 + i)
                for i, (_, r_g) in enumerate(walkers)]
    seeds = [w[0] for w in walkers]
    batch = simulate_walks(cfg, geom, np.stack([t.heights for t in terrains]),
                           seeds, [a_v for a_v, _ in variants], cycles, steps,
                           sensor, _feedback(cc, [p for _, p in variants]))
    assert batch.gamma.shape == (len(seeds), len(variants), cycles)
    for i, seed in enumerate(seeds):
        for j, (a_v, period) in enumerate(variants):
            ref = reference_walk(replace(cfg, a_v=a_v), geom, terrains[i],
                                 cycles, steps, sensor, seed, cc, period)
            assert_cell_matches(batch, engine_distribution(cfg, geom), i, j,
                                ref)
            if period is None:
                assert_walk_matches(
                    simulate_walk(replace(cfg, a_v=a_v), geom, terrains[i],
                                  cycles, steps, sensor, seed), ref)


def test_batch_beyond_one_block_equals_single_walks():
    # more seeds than one block holds, so that the block edge falls
    # inside the grid, with a seed's duplicates on both sides of it; an
    # open-loop cell's maps are its simulate_walk's.  One terrain shape
    # per batch, at an even and an odd row count
    cfg = GaitConfig(n_pairs=4)
    geom = RobotGeometry()
    cycles, steps = 4, 24
    sensor = SensorModel(flip_prob=0.05, latch_steps=2)
    cc = ControllerConfig()
    dist = engine_distribution(cfg, geom)
    a_vs = [0.0, 7.0, 12.5, 25.0, 3.0, 18.0]
    periods = [None, 1, 2, 3, 1, None]
    block = BLOCK_ROWS // len(a_vs)
    count = block + 5
    seeds = [i // 3 for i in range(count)]
    assert seeds[block - 1] == seeds[block]
    for rows in (cycles + 4, cycles + 5):
        terrains = [generate_terrain(0.32, rows=rows, cols=5, seed=seed)
                    for seed in seeds]
        batch = simulate_walks(cfg, geom,
                               np.stack([t.heights for t in terrains]), seeds,
                               a_vs, cycles, steps, sensor,
                               _feedback(cc, periods))
        assert batch.gamma.shape == (count, len(a_vs), cycles)
        for i in range(count):
            for j, (a_v, period) in enumerate(zip(a_vs, periods)):
                one = simulate_walks(
                    cfg, geom, terrains[i].heights[None], [seeds[i]], [a_v],
                    cycles, steps, sensor,
                    None if period is None else _feedback(cc, [period]))
                for name in ("gamma", "gamma_measured", "a_v"):
                    assert np.array_equal(getattr(batch, name)[i, j],
                                          getattr(one, name)[0, 0]), \
                        (rows, i, j, name)
                assert np.array_equal(
                    predict_speed_band(dist, batch.gamma[i, j]).v_ratio_mid,
                    predict_speed_band(dist, one.gamma[0, 0]).v_ratio_mid), \
                    (rows, i, j, "v_ratio")
                if period is None:
                    walk_cfg = replace(cfg, a_v=a_v)
                    assert_walk_matches(
                        simulate_walk(walk_cfg, geom, terrains[i], cycles,
                                      steps, sensor, seeds[i]),
                        reference_walk(walk_cfg, geom, terrains[i], cycles,
                                       steps, sensor, seeds[i]))


GAIT_SHAPES = st.builds(
    GaitConfig, n_pairs=st.integers(min_value=2, max_value=4),
    xi=st.floats(min_value=0.0, max_value=3.0),
    duty=st.floats(min_value=0.1, max_value=0.9),
    phase_offset=st.one_of(st.none(), st.floats(min_value=-2 * math.pi,
                                                max_value=2 * math.pi)))
AMPLITUDE_GRIDS = st.lists(st.floats(min_value=0.0, max_value=60.0),
                           min_size=1, max_size=RANK_AMPLITUDES + 2)


def per_sample_losses(cfg, geom, steps, a_v, d):
    """The per-sample loss rules at every amplitude of a_v, every leg
    meeting the height step d[k]: lost samples per (amplitude, k, leg)."""
    stance, stance_leg = _stance_table(cfg, steps)[:2]
    u = phase_table(cfg, steps)[stance]
    recover = recoverable_heights(geom,
                                  stance_geometry(cfg, geom, u, cfg.a_v)[0])
    counts = np.zeros((len(a_v), len(d), 2 * cfg.n_pairs), dtype=int)
    for j, av in enumerate(a_v):
        _, reach, lift = stance_geometry(cfg, geom, u, av)
        dd = d[:, None]
        lost = np.where(dd <= 0.0, dd < -reach,
                        dd > recover + np.maximum(lift, 0.0))
        for leg in range(2 * cfg.n_pairs):
            counts[j, :, leg] = lost[:, stance_leg == leg].sum(axis=1)
    return counts


@given(cfg=GAIT_SHAPES, half_steps=st.integers(min_value=2, max_value=12),
       a_v=AMPLITUDE_GRIDS, sigma=st.floats(min_value=0.0, max_value=10.0),
       seed=st.integers(min_value=0, max_value=2**16))
@example(cfg=GaitConfig(), half_steps=12, a_v=[0.0, 5.0, 10.0, 15.0, 20.0,
                                               25.0, 30.0, 40.0, 50.0, 60.0],
         sigma=4.8, seed=0)
@settings(max_examples=40, deadline=None)
def test_counts_equal_the_per_sample_rules_at_every_threshold(
        cfg, half_steps, a_v, sigma, seed):
    # d exactly on, and one float either side of, every sample's -reach
    # and rise at every amplitude, plus both zeros and N(0, sigma) draws:
    # each leg's count is the per-sample rules' sum
    geom = RobotGeometry()
    steps = 2 * half_steps
    phases = phase_table(cfg, steps)
    u = phases[phases < cfg.duty]
    assume(len(u) > 0)
    recover = recoverable_heights(geom,
                                  stance_geometry(cfg, geom, u, cfg.a_v)[0])
    a_v = np.array(a_v)
    _, reach, lift = stance_geometry(cfg, geom, u, a_v[:, None])
    rise = recover + np.maximum(lift, 0.0)
    edges = np.concatenate([-reach.ravel(), rise.ravel()])
    d = np.concatenate([edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), [0.0, -0.0],
                        np.random.default_rng(seed).normal(0.0, sigma, 50)])
    dh = np.repeat(d[None, :, None], 2 * cfg.n_pairs, axis=2)
    counts = _count_losses(cfg, geom, steps, a_v, dh)
    assert counts.shape == (1, len(a_v), len(d), 2 * cfg.n_pairs)
    assert np.array_equal(counts[0],
                          per_sample_losses(cfg, geom, steps, a_v, d))


@given(cfg=GAIT_SHAPES, half_steps=st.integers(min_value=2, max_value=40),
       a_v=AMPLITUDE_GRIDS)
@settings(max_examples=60, deadline=None)
def test_walker_and_model_read_one_loss_rule(cfg, half_steps, a_v):
    # bit for bit, the walker's thresholds at its stance phases are the
    # reach and rise of stance_geometry and recoverable_heights there, the model's distinct
    # thresholds gathered back are the walker's, and the model's
    # flat-terrain contact ratio counts the same lift as stance_geometry's
    geom = RobotGeometry()
    steps = 2 * half_steps
    assume((phase_table(cfg, steps) < cfg.duty).any())
    u = _stance_table(cfg, steps)[2]
    for a in a_v:
        d_s, reach, lift = stance_geometry(cfg, geom, u, a)
        rise = recoverable_heights(geom, d_s) + np.maximum(lift, 0.0)
        lower, upper = _loss_thresholds(cfg, geom, steps, a)
        assert lower.tobytes() == np.minimum(-reach, 5e-324).tobytes()
        assert upper.tobytes() == rise.tobytes()
    lower, upper = np.stack([_loss_thresholds(cfg, geom, steps, a)
                             for a in a_v], axis=1)
    table = _threshold_table(cfg, geom, steps, tuple(a_v))
    assert table.drop[table.at_drop].tobytes() == (-lower).ravel().tobytes()
    assert table.rise[table.at_rise].tobytes() == upper.ravel().tobytes()
    lift = stance_geometry(cfg, geom, u, np.array(a_v)[:, None])[2]
    assert table.gamma_ideal.tobytes() == \
        np.mean(lift <= 1e-12, axis=-1).tobytes()


@given(cfg=GAIT_SHAPES, half_steps=st.integers(min_value=2, max_value=40),
       a_v=AMPLITUDE_GRIDS)
@settings(max_examples=30, deadline=None)
def test_walker_counts_on_the_models_sorted_table(cfg, half_steps, a_v):
    # the counted walk searches the model's distinct thresholds, the very
    # arrays, and its cumulative counts have one row per distinct key
    geom = RobotGeometry()
    steps = 2 * half_steps
    assume((phase_table(cfg, steps) < cfg.duty).any())
    chunk = tuple(a_v[:RANK_AMPLITUDES])
    # _count_losses and predict_gamma each look the chunk's table up
    walker = _threshold_table(cfg, geom, steps, chunk)
    model = _threshold_table(cfg, geom, steps, chunk)
    assert walker.drop is model.drop
    assert walker.rise is model.rise
    assert walker.below.shape == (2, max(len(model.drop), len(model.rise)) + 1,
                                  len(chunk) * 2 * cfg.n_pairs)


def test_default_grid_counts_on_its_distinct_thresholds():
    # 113 distinct drop and 103 distinct rise keys of 1296 samples each
    cfg, geom, grid = GaitConfig(), RobotGeometry(), (0.0, 10.0, 20.0)
    table = _threshold_table(cfg, geom, 72, grid)
    assert (len(table.drop), len(table.rise)) == (113, 103)
    assert table.below.shape == (2, 114, 36)
    assert len(table.at_drop) == 1296


def test_counted_walk_builds_below_on_the_models_table():
    # the default grid's counted walk fills in the one cached table that
    # predict_gamma reads: its per-leg counts are there, and the model gets
    # that same object back
    cfg, geom, grid = GaitConfig(), RobotGeometry(), (0.0, 10.0, 20.0)
    _threshold_table.cache_clear()
    heights = generate_terrain(0.32, rows=40, cols=5, seed=0).heights[None]
    simulate_walks(cfg, geom, heights, [0], grid, 10, 72, SensorModel())
    table = _threshold_table(cfg, geom, 72, grid)
    assert "below" in vars(table)
    predict_gamma(geom, cfg, HeightDeltaModel.from_rugosity(0.32), 72, grid)
    assert _threshold_table(cfg, geom, 72, grid) is table


def test_model_builds_no_per_leg_counts():
    # predict_gamma reads only the sorted keys, so a grid longer than the
    # walker's chunks never pays for its square-size per-leg counts
    cfg, geom = GaitConfig(), RobotGeometry()
    grid = (0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0)
    _threshold_table.cache_clear()
    predict_gamma(geom, cfg, HeightDeltaModel.from_rugosity(0.32), 72, grid)
    assert "below" not in vars(_threshold_table(cfg, geom, 72, grid))


@given(n_pairs=st.integers(min_value=2, max_value=6),
       xi=st.floats(min_value=0.0, max_value=2.5),
       duty=st.floats(min_value=0.2, max_value=0.8),
       half_steps=st.integers(min_value=2, max_value=40),
       a_v=AMPLITUDE_GRIDS,
       samples=st.lists(st.one_of(st.just(0.0), st.just(-0.0),
                                  st.floats(min_value=-20.0, max_value=20.0)),
                        max_size=40))
@settings(max_examples=40, deadline=None)
def test_model_is_the_counted_walks_mean_on_its_own_samples(
        n_pairs, xi, duty, half_steps, a_v, samples):
    # on an empirical model, predict_gamma is exactly the mean contact ratio
    # of counted walks with every leg on each sample step in turn: the core
    # invariant on discrete terrain, up to rounding
    cfg = GaitConfig(n_pairs=n_pairs, xi=xi, duty=duty)
    geom = RobotGeometry()
    steps = 2 * half_steps
    assume((phase_table(cfg, steps) < cfg.duty).any())
    s = np.array(samples + [0.0])
    predicted = predict_gamma(geom, cfg, HeightDeltaModel.from_samples(s),
                              steps, a_v).gamma
    retraction = len(_stance_table(cfg, steps)[1])
    dh = np.repeat(s[None, :, None], 2 * cfg.n_pairs, axis=2)
    lost = _count_losses(cfg, geom, steps, np.array(a_v), dh).sum(axis=-1)
    walked = np.mean((retraction - lost[0]) / retraction, axis=-1)
    assert np.max(np.abs(predicted - walked)) <= 1e-12


@given(cfg=GAIT_SHAPES, half_steps=st.integers(min_value=2, max_value=40))
@settings(max_examples=60, deadline=None)
def test_stance_table_lists_each_stance_sample_once(cfg, half_steps):
    # the table's leg, phase and step entries are the mask's stance samples
    # in row-major order: scattered back they rebuild the mask, and each
    # phase is the phase table's at that leg and step; a gait with none is
    # rejected
    steps = 2 * half_steps
    if not (phase_table(cfg, steps) < cfg.duty).any():
        with pytest.raises(NoStanceError, match=f"steps={steps}"):
            _stance_table(cfg, steps)
        return
    stance, leg, u, step = _stance_table(cfg, steps)
    rebuilt = np.zeros_like(stance)
    rebuilt[leg, step] = True
    assert np.array_equal(rebuilt, stance)
    assert np.all(np.diff(leg * steps + step) > 0)
    assert phase_table(cfg, steps)[leg, step].tobytes() == u.tobytes()


@given(cfg=GAIT_SHAPES, half_steps=st.integers(min_value=2, max_value=20),
       r_g=st.sampled_from([0.0, 0.17, 0.32, 0.6, 1.5]),
       a_v=AMPLITUDE_GRIDS,
       seeds=st.lists(st.integers(min_value=0, max_value=2**16), min_size=1,
                      max_size=30),
       flip_prob=st.sampled_from([0.0, 0.02, 0.2]),
       latch_steps=st.integers(min_value=0, max_value=3),
       cycles=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_counted_gamma_is_the_loss_maps_count(cfg, half_steps, r_g, a_v, seeds,
                                              flip_prob, latch_steps, cycles):
    # noise-free walks count their losses, noisy ones test every sample:
    # either way each (seed, amplitude) cell's gamma is the count of the
    # losses that the cell's own simulate_walk finds sample by sample, on
    # stance samples only, and a noise-free sensor reads the true ratio
    geom = RobotGeometry()
    steps = 2 * half_steps
    stance = phase_table(cfg, steps) < cfg.duty
    assume(stance.any())
    terrains = [generate_terrain(r_g, rows=cycles + cfg.n_pairs + 2, cols=5,
                                 seed=s) for s in seeds]
    sensor = SensorModel(flip_prob, latch_steps)
    walks = simulate_walks(cfg, geom, np.stack([t.heights for t in terrains]),
                           seeds, a_v, cycles, steps, sensor)
    retraction = int(stance.sum())
    noise_free = flip_prob == 0.0 and latch_steps <= 1
    if noise_free:
        assert np.array_equal(walks.gamma_measured, walks.gamma)
    for i, (seed, terrain) in enumerate(zip(seeds, terrains)):
        for j, a in enumerate(a_v):
            res = simulate_walk(replace(cfg, a_v=a), geom, terrain, cycles,
                                steps, sensor, seed)
            lost = reference_lost(res.loss_events, cycles, 2 * cfg.n_pairs,
                                  steps)
            assert not (lost & ~stance).any()
            assert np.array_equal(
                walks.gamma[i, j],
                (retraction - lost.sum(axis=(-2, -1))) / retraction)
            if noise_free:
                assert np.array_equal(
                    res.measured.bits,
                    (stance & ~lost).view(np.uint8).transpose(1, 0, 2)
                    .reshape(2 * cfg.n_pairs, -1))


# terrain steps on and one float either side of each loss boundary, given
# each stance sample's reach and rise: the rise is the rule's cutoff, the
# highest step it keeps
BOUNDARY_STEPS = {
    "+0.0": lambda reach, rise: np.full_like(reach, 0.0),
    "-0.0": lambda reach, rise: np.full_like(reach, -0.0),
    "+5e-324": lambda reach, rise: np.full_like(reach, 5e-324),
    "-5e-324": lambda reach, rise: np.full_like(reach, -5e-324),
    "-reach": lambda reach, rise: -reach,
    "below -reach": lambda reach, rise: np.nextafter(-reach, -np.inf),
    "above -reach": lambda reach, rise: np.nextafter(-reach, np.inf),
    "cutoff": lambda reach, rise: rise,
    "below cutoff": lambda reach, rise: np.nextafter(rise, -np.inf),
    "above cutoff": lambda reach, rise: np.nextafter(rise, np.inf),
}


# at the default gait, 10 degrees gives some stance samples a negative
# lift, and 45 degrees some a negative reach
@pytest.mark.parametrize("a_v", [0.0, 10.0, 45.0])
@pytest.mark.parametrize("at", list(BOUNDARY_STEPS))
def test_thresholds_equal_the_per_sample_rule_at_its_edges(a_v, at):
    cfg, geom, steps = GaitConfig(), RobotGeometry(), 72
    stance = _stance_table(cfg, steps)[0]
    d_s, reach, lift = stance_geometry(
        cfg, geom, phase_table(cfg, steps)[stance], a_v)
    recover = recoverable_heights(geom, d_s)
    if a_v == 10.0:
        assert (lift < 0.0).any()
    if a_v == 45.0:
        assert (reach <= 0.0).any()
    d = BOUNDARY_STEPS[at](reach, recover + np.maximum(lift, 0.0))
    lower, upper = _loss_thresholds(cfg, geom, steps, a_v)
    expected = [reference_rule(*sample)
                for sample in zip(d, reach, lift, recover)]
    assert ((d < lower) | (d > upper)).tolist() == expected
