"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints a single summary line and then asserts, so running
`pytest tests/test_acceptance.py -v -s` gives a ten-line scorecard.
"""

import itertools
import math
from dataclasses import replace
from statistics import mean, pvariance

import numpy as np
import pytest
from scipy import stats

from centiwalk.cli import main as cli_main
from centiwalk.contact_sim import SensorModel, ideal_contact_map, simulate_walk
from centiwalk.control import ARMS, ControllerConfig, compare_controllers
from centiwalk.gait import GaitConfig
from centiwalk.kinematics import RobotGeometry, SlipDistribution, slip_distribution
from centiwalk.models import friction_bounds, predict_gamma, predict_speed_band
from centiwalk.terrain import (
    HeightDeltaModel,
    generate_terrain,
    generate_terrains,
    tail_probability,
)

R_G_GRID = [0.0, 0.17, 0.32]
A_V_GRID = [0.0, 10.0, 20.0]
SEEDS = list(range(20))
STEPS = 72


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def controller_walks():
    """Paired-seed controller comparison shared by criteria 8 and 9."""
    cfg = GaitConfig()
    (heights,) = generate_terrains([0.32], 30 + cfg.n_pairs + 2, 5, SEEDS)
    return compare_controllers(cfg, RobotGeometry(), ControllerConfig(),
                               heights, SEEDS, cycles=30, steps=STEPS,
                               flip_prob=0.0)


def test_01_gait_contact_pattern():
    """Ideal contact map: duty, antiphase, ipsilateral lag, bit-exact."""
    cfg = GaitConfig(n_pairs=4, xi=1.0, duty=0.5)
    cmap = ideal_contact_map(cfg, 360)
    bits = cmap.bits
    duty_ok = all(int(bits[leg].sum()) == 180 for leg in range(8))
    anti_ok = all(np.array_equal(bits[i], 1 - bits[4 + i]) for i in range(4))
    lag = 360 // 4
    lag_ok = all(
        np.array_equal(bits[i], np.roll(bits[0], lag * i)) for i in range(4))
    report(1, "gait contact map duty/antiphase/lag bit-exact at 360 samples",
           duty_ok and anti_ok and lag_ok)


def test_02_terrain_statistics():
    """Longitudinal increment std within 2% of 4.8 cm; KS vs N(0, 4.8)."""
    grid = generate_terrain(0.32, rows=20001, cols=5, seed=0)
    deltas = grid.longitudinal_deltas()
    assert len(deltas) >= 100000
    std = float(np.std(deltas, ddof=1))
    std_ok = abs(std - 4.8) <= 0.02 * 4.8
    ks = stats.kstest(deltas, "norm", args=(0.0, 4.8))
    ks_ok = ks.pvalue > 0.01
    report(2, f"terrain dH std {std:.3f} cm (target 4.8 +/- 2%), "
              f"KS p={ks.pvalue:.3f} > 0.01", std_ok and ks_ok)


def test_03_lp_vertex_oracle():
    """Greedy friction bounds match exhaustive vertex enumeration."""
    def enum_bounds(dist, gamma):
        probs, b = dist.probs, len(dist.bin_centers)
        cosb = np.cos(np.radians(dist.bin_centers))

        def val(w):
            return float(np.dot(w * probs, cosb)) - (1.0 - float(np.dot(probs, w)))

        lo, hi = math.inf, -math.inf
        for subset in itertools.product((0, 1), repeat=b):
            w0 = np.array(subset, float)
            mass = float(np.dot(probs, w0))
            if abs(mass - gamma) <= 1e-12:
                v = val(w0)
                lo, hi = min(lo, v), max(hi, v)
            for j in range(b):
                if subset[j] == 1:
                    continue
                frac = (gamma - mass) / probs[j]
                if -1e-12 <= frac <= 1.0 + 1e-12:
                    w = w0.copy()
                    w[j] = min(max(frac, 0.0), 1.0)
                    v = val(w)
                    lo, hi = min(lo, v), max(hi, v)
        return lo, hi

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        centers = np.sort(rng.uniform(-180.0, 180.0, 10))
        probs = rng.uniform(0.05, 1.0, 10)
        dist = SlipDistribution(bin_centers=centers, probs=probs / probs.sum())
        for gamma in np.round(np.linspace(0.0, 1.0, 11), 10):
            lo, hi = enum_bounds(dist, float(gamma))
            f_min, f_max = friction_bounds(dist, float(gamma))
            worst = max(worst, abs(f_min - lo), abs(f_max - hi))
    report(3, f"LP greedy vs vertex enumeration, max gap {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_04_tail_probability():
    """P_loss,1 closed form equals 2*Phi(-7/4.8) and matches Monte Carlo."""
    model = HeightDeltaModel(kind="gaussian", sigma=4.8)
    p = tail_probability(model, 7.0, "dh_nonpositive")
    analytic_ok = abs(p - 0.14474868660299556) <= 1e-12
    dh = np.random.default_rng(2024).normal(0.0, 4.8, size=1_000_000)
    neg = dh[dh <= 0.0]
    phat = float(np.mean(-neg > 7.0))
    se = math.sqrt(p * (1.0 - p) / len(neg))
    mc_ok = abs(phat - p) <= 3.0 * se
    report(4, f"P_loss,1 = {p:.4f} (2*Phi(-7/4.8)), MC {phat:.4f} within 3 SE",
           analytic_ok and mc_ok)


def test_05_analytic_vs_simulation():
    """Predicted vs simulated gamma within 0.05 on the 3x3 grid, 20 seeds."""
    cfg0 = GaitConfig()
    geom = RobotGeometry()
    rows = 10 + cfg0.n_pairs + 2
    worst = 0.0
    for r_g in R_G_GRID:
        model = HeightDeltaModel.from_rugosity(r_g)
        for a_v in A_V_GRID:
            cfg = replace(cfg0, a_v=a_v)
            predicted = predict_gamma(geom, cfg, model, STEPS, [a_v]).gamma[0]
            sims = []
            for seed in SEEDS:
                terrain = generate_terrain(r_g, rows=rows, cols=5, seed=seed)
                res = simulate_walk(cfg, geom, terrain, 10, STEPS,
                                    SensorModel(), seed)
                sims.append(mean(res.gamma_per_cycle))
            worst = max(worst, abs(mean(sims) - predicted))
    report(5, f"analytic vs simulated gamma, max |dev| {worst:.4f} <= 0.05",
           worst <= 0.05)


def test_06_trend_reproduction():
    """Loss-model trends: rugosity monotonicity, lift-reduced sensitivity,
    non-increasing flat-ground contact ratio."""
    geom = RobotGeometry()
    cfg0 = GaitConfig()

    def gamma(r_g, a_v):
        return predict_gamma(geom, cfg0, HeightDeltaModel.from_rugosity(r_g),
                             720, [a_v]).gamma[0]

    g0 = [gamma(r, 0.0) for r in R_G_GRID]
    decreasing_ok = g0[0] > g0[1] > g0[2]
    g20 = [gamma(r, 20.0) for r in R_G_GRID]
    sens0 = [abs(a - b) for a, b in zip(g0, g0[1:])]
    sens20 = [abs(a - b) for a, b in zip(g20, g20[1:])]
    sens_ok = all(s20 < s0 for s20, s0 in zip(sens20, sens0))
    g_ideal = predict_gamma(geom, cfg0, HeightDeltaModel.from_rugosity(0.32),
                            720, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]).gamma_ideal
    ideal_ok = all(a >= b - 1e-12 for a, b in zip(g_ideal, g_ideal[1:]))
    report(6, "gamma trends: decreasing in r_g, damped sensitivity at a_v=20, "
              "gamma' non-increasing",
           decreasing_ok and sens_ok and ideal_ok)


def test_07_speed_gamma_band():
    """Speed band monotone in gamma, collapses at gamma=1; simulated speed
    correlates with simulated gamma (Spearman > 0.9)."""
    cfg = GaitConfig()
    geom = RobotGeometry()
    dist = slip_distribution(cfg, geom)
    gammas = np.linspace(0.0, 1.0, 41)
    bands = [predict_speed_band(dist, float(g)) for g in gammas]
    v_min = [b.v_ratio_min for b in bands]
    v_max = [b.v_ratio_max for b in bands]
    monotone_ok = (all(a <= b + 1e-12 for a, b in zip(v_min, v_min[1:]))
                   and all(a <= b + 1e-12 for a, b in zip(v_max, v_max[1:])))
    collapse_ok = abs(v_max[-1] - v_min[-1]) <= 1e-9

    sim_g, sim_v = [], []
    rows = 10 + cfg.n_pairs + 2
    for r_g in (0.05, 0.1, 0.2, 0.3, 0.4):
        for seed in range(5):
            terrain = generate_terrain(r_g, rows=rows, cols=5, seed=seed)
            res = simulate_walk(cfg, geom, terrain, 10, STEPS, SensorModel(),
                                seed)
            sim_g.extend(res.gamma_per_cycle)
            sim_v.extend(res.forward_speed_ratio)
    rho = stats.spearmanr(sim_g, sim_v).statistic
    report(7, f"speed band monotone/collapse; Spearman(gamma, v) = {rho:.3f} "
              "> 0.9", monotone_ok and collapse_ok and rho > 0.9)


def arm_speeds(walks, name):
    """One arm's per-seed mean speed ratios and its seed-averaged speed
    variance, from the arm's rows of the speed ratio at the walks' gamma,
    the default gait's speed band's middle."""
    v_ratio = predict_speed_band(slip_distribution(GaitConfig(),
                                                   RobotGeometry()),
                                 walks.gamma).v_ratio_mid
    speeds = v_ratio[:, list(ARMS).index(name)].tolist()
    return [mean(v) for v in speeds], mean(pvariance(v) for v in speeds)


def test_08_controller_ordering(controller_walks):
    """Feedback beats open loop in mean speed (sign test p < 0.05) with no
    larger speed variance, paired over 20 seeds at r_g = 0.32."""
    ol, ol_var = arm_speeds(controller_walks, "open_loop")
    fb, fb_var = arm_speeds(controller_walks, "feedback_every1")
    diffs = [f - o for f, o in zip(fb, ol)]
    npos = sum(d > 0 for d in diffs)
    ntrials = sum(d != 0 for d in diffs)
    p = stats.binomtest(npos, ntrials, 0.5, alternative="greater").pvalue
    mean_ok = mean(fb) > mean(ol)
    var_ok = fb_var <= ol_var
    report(8, f"feedback > open loop: {npos}/{ntrials} seeds, sign test "
              f"p={p:.4f} < 0.05, var {fb_var:.4f} <= "
              f"{ol_var:.4f}", mean_ok and p < 0.05 and var_ok)


def test_09_modulation_frequency(controller_walks):
    """Cycle-wise modulation (update_every=1) is fastest on rough ground."""
    v1, v2, v3 = (mean(arm_speeds(controller_walks, f"feedback_every{k}")[0])
                  for k in (1, 2, 3))
    report(9, f"update_every speeds: 1={v1:.4f} >= 2={v2:.4f}, 3={v3:.4f}",
           v1 >= v2 and v1 >= v3)


def test_10_cli_determinism(tmp_path):
    """Re-running every CLI command produces byte-identical files."""
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "[meta]\nschema_version = 1\n"
        "[experiment]\nseeds = 0..2\ncycles = 6\nsteps = 72\n"
        "terrain_rows = 20\n"
    )
    commands = [
        ["gait-dump"],
        ["terrain-gen", "--r-g", "0.32"],
        ["model-sweep"],
        ["validate"],
        ["walk"],
        ["controller-compare"],
    ]
    ok = True
    for tag in ("a", "b"):
        out = tmp_path / tag
        for cmd in commands:
            code = cli_main(["--config", str(cfg), "--out", str(out)] + cmd)
            ok = ok and code == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = ok and files_a == files_b and len(files_a) > 0
    for name in files_a:
        ok = ok and ((tmp_path / "a" / name).read_bytes()
                     == (tmp_path / "b" / name).read_bytes())
    report(10, f"all 6 CLI commands byte-identical across re-runs "
               f"({len(files_a)} files)", ok)
