"""Acceptance suite: ten criteria, one test and one printed verdict each.

Criteria 1, 2, and 6 carry runtime budgets which are asserted. The
directional criteria (5, 7, 8) run on two seeded synthetic corpora:

  corpus A: 50 subnets x 500 wallets, lognormal(-1, 1.5) stakes,
            beta(2, 5) performance, zero stake-perf coupling, one day.
  corpus B: 20 subnets x 250 wallets, same laws, 75 days (so daily,
            weekly, and monthly windows all exist).

Magnitudes are dataset-dependent and deliberately not asserted; signs,
orderings, and exact-arithmetic claims are.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from yumalab.cli import run as run_cli
from yumalab.consensus import BondState, consensus_clip, run_tempo, split_block_emission
from yumalab.ingest import history_snapshots, load_events, resample, save_events
from yumalab.metrics import coalition_fraction, gini, pearson
from yumalab.model import EmissionParams, Role, ValidationError, WeightMatrix
from yumalab.interventions import TransformSpec
from yumalab.sweep import NULL_PARAMS, default_frontier_specs, sweep_scheme, temporal_robustness, tradeoff_frontier
from yumalab.synth import SynthConfig, generate

PARAMS = EmissionParams(alpha=0.1, beta=0.5, kappa=0.5)


def report(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def corpus_a():
    cfg = SynthConfig(
        n_subnets=50, wallets_per_subnet=500, validator_fraction=0.2,
        stake_law="lognormal:-1,1.5", perf_law="beta:2,5",
        stake_perf_coupling=0.0, reward_rule="stake_proportional",
        seed=2024, span_days=1,
    )
    return generate(cfg)


@pytest.fixture(scope="module")
def corpus_b():
    cfg = SynthConfig(
        n_subnets=20, wallets_per_subnet=250, validator_fraction=0.2,
        stake_law="lognormal:-1,1.5", perf_law="beta:2,5",
        stake_perf_coupling=0.0, reward_rule="stake_proportional",
        seed=77, span_days=75,
    )
    return generate(cfg)


def test_criterion_01_gini_pairwise_oracle():
    """Shipped Gini vs the quadratic mean-absolute-difference formula."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        x = rng.pareto(1.3, size=n) + 1e-3
        shipped = gini(x)
        reference = float(np.abs(x[:, None] - x[None, :]).sum()) / (2.0 * n * float(x.sum()))
        worst = max(worst, abs(shipped - reference))
    elapsed = time.perf_counter() - start
    report(1, f"gini matches pairwise oracle on 1000 vectors "
              f"(worst |diff| {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s)",
           worst <= 1e-12 and elapsed < 5.0)


def _random_instance(rng, max_side=10):
    n_val = int(rng.integers(1, max_side + 1))
    n_min = int(rng.integers(1, max_side + 1))
    stakes = rng.uniform(0.1, 10.0, size=n_val)
    weights = np.clip(rng.random((n_val, n_min)) + 0.02, 0.0, 1.0)
    return WeightMatrix(
        validators=tuple((f"v{i}", float(s)) for i, s in enumerate(stakes)),
        miners=tuple(f"m{j}" for j in range(n_min)),
        weights=weights,
    )


def test_criterion_02_conservation_and_split():
    """Emission conservation to 1e-9 relative with the exact 18/41/41 split."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        wm = _random_instance(rng)
        emission = float(rng.uniform(0.5, 500.0))
        owner, miner_pool, validator_pool = split_block_emission(emission)
        ok &= owner == 0.18 * emission
        ok &= miner_pool == 0.41 * emission
        ok &= validator_pool == 0.41 * emission
        out = run_tempo(wm, BondState.initial(wm.n_validators, wm.n_miners), PARAMS, emission)
        ok &= out.owner_amount == 0.18 * emission
        if not out.no_ranking_mass:
            total = out.owner_amount + math.fsum(out.miner_tao.values()) + math.fsum(
                out.validator_tao.values())
            ok &= abs(total - emission) <= 1e-9 * emission
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(2, f"500 instances conserve emission (rel 1e-9) with exact pools "
              f"({elapsed:.2f}s < 5s)", ok and elapsed < 5.0)


def test_criterion_03_clipping_futility():
    """Raising a weight already above the benchmark changes no ranking."""
    rng = np.random.default_rng(303)
    checked = 0
    ok = True
    for _ in range(200):
        wm = _random_instance(rng, max_side=8)
        benchmarks, clipped = consensus_clip(wm, kappa=0.5)
        base_rankings = wm.stakes @ clipped
        above = np.argwhere(wm.weights > benchmarks[np.newaxis, :])
        for i, j in above:
            old = wm.weights[i, j]
            if old >= 1.0:
                continue
            raised = wm.weights.copy()
            raised[i, j] = old + (1.0 - old) * float(rng.uniform(0.2, 1.0))
            wm2 = WeightMatrix(validators=wm.validators, miners=wm.miners, weights=raised)
            _, clipped2 = consensus_clip(wm2, kappa=0.5)
            rankings2 = wm2.stakes @ clipped2
            if not np.array_equal(base_rankings, rankings2):
                ok = False
                break
            checked += 1
        if not ok:
            break
    report(3, f"raising any of {checked} above-benchmark weights left rankings "
              f"bit-identical", ok and checked > 100)


def test_criterion_04_scheme_endpoints(fixture_path):
    """Null parameters reproduce the baseline profile; lambda=0 gives r_pr = 1."""
    dataset = load_events(fixture_path)
    snaps = history_snapshots(dataset)
    ok = True
    for scheme in ("split", "composite", "bonus"):
        result = sweep_scheme(dataset, scheme)
        null = NULL_PARAMS[scheme]
        for point in result.per_point:
            if point.param != null:
                continue
            ok &= point.d_r_sr == 0.0 and point.d_r_pr == 0.0
            snap = next(s for s in snaps if s.netuid == point.netuid)
            raw_sr = pearson(snap.stakes(point.role), snap.rewards(point.role))
            raw_pr = pearson(snap.perfs(point.role), snap.rewards(point.role))
            ok &= abs(point.r_sr - raw_sr) <= 1e-12
            ok &= abs(point.r_pr - raw_pr) <= 1e-12
    composite = sweep_scheme(dataset, "composite")
    for point in composite.per_point:
        if point.param == 0.0 and point.role is Role.MINER:
            ok &= point.r_pr is not None and abs(point.r_pr - 1.0) <= 1e-9
    report(4, "null deltas exactly zero, null profiles match raw to 1e-12, "
              "lambda=0 drives miner r_pr to 1 (1e-9)", ok)


def _miner_median_deltas(result):
    out = {}
    for agg in result.aggregates:
        if agg.role is Role.MINER:
            out[agg.param] = (agg.median_d_r_sr, agg.median_d_r_pr)
    return out


def test_criterion_05_directional_signs(corpus_a):
    """Monotone miner delta-r_pr along each grid plus signs at operating points."""
    ok = True
    details = []
    for scheme, operating in (("split", 1.0), ("composite", 0.8), ("bonus", 0.2)):
        result = sweep_scheme(corpus_a, scheme)
        medians = _miner_median_deltas(result)
        grid = sorted(medians)
        if scheme == "composite":
            grid = grid[::-1]  # intervention strengthens toward lambda=0
        series = [medians[g][1] for g in grid]
        monotone = all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        d_sr, d_pr = medians[operating]
        if scheme == "bonus":
            signs = d_pr > 0.0 and abs(d_sr) < abs(d_pr)
        else:
            signs = d_pr > 0.0 and d_sr < 0.0
        details.append(f"{scheme}@{operating:g}: d_pr={d_pr:+.4f} d_sr={d_sr:+.4f}")
        ok &= monotone and signs
    report(5, "; ".join(details), ok)


def test_criterion_06_coalition_exhaustive_oracle():
    """coalition_fraction vs brute force over all coalition sizes."""
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        stakes = rng.pareto(1.2, size=n) + 1e-3
        if rng.random() < 0.2:
            stakes = np.round(stakes, 1) + 0.1  # provoke ties
        threshold = float(rng.uniform(0.1, 0.95))
        # the best coalition of size m is always the m largest stakes
        ordered = np.sort(stakes)[::-1]
        prefix = np.cumsum(ordered)
        target = threshold * prefix[-1]
        m = int(np.argmax(prefix >= target)) + 1
        if coalition_fraction(stakes, threshold) != pytest.approx(m / n, rel=1e-15):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(6, f"1000 stake vectors match exhaustive coalition search "
              f"({elapsed:.2f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_07_cap_security_monotonic(corpus_a, corpus_b):
    """Security rises as the cap tightens; cap:88 beats baseline in every window."""
    specs = tuple(TransformSpec("cap", p)
                  for p in (50, 60, 70, 80, 88, 90, 95, 99))
    points = {p.param: p.median_coalition_fraction
              for p in tradeoff_frontier(corpus_a, specs)}
    percentiles = sorted(points)
    fractions = [points[p] for p in percentiles]
    monotone = all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))

    series = temporal_robustness(corpus_b, TransformSpec("cap", 88.0))
    windows_ok = True
    n_windows = 0
    for entry in series:
        for window in entry.windows:
            n_windows += 1
            windows_ok &= (window.median is not None
                           and window.baseline_median is not None
                           and window.median > window.baseline_median)
    report(7, f"median fraction nonincreasing over cap percentiles and cap:88 "
              f"above baseline in all {n_windows} windows across 3 frequencies",
           monotone and windows_ok and n_windows >= 75 + 11 + 3)


def test_criterion_08_frontier_ordering(corpus_a):
    """Identity sits at zero penalty; concave powers cost less than caps <= 90."""
    points = tradeoff_frontier(corpus_a, default_frontier_specs())
    by_label = {p.label: p for p in points}
    identity = by_label["cap:100"]
    baseline = float(np.median([coalition_fraction(s.stakes()) for s in history_snapshots(corpus_a)]))
    identity_ok = (identity.median_whale_penalty == 0.0
                   and identity.median_coalition_fraction == baseline)
    power_penalties = [p.median_whale_penalty for p in points
                       if p.kind == "power" and 0.5 <= p.param <= 1.0]
    cap_penalties = [p.median_whale_penalty for p in points
                     if p.kind == "cap" and p.param <= 90]
    ordering_ok = max(power_penalties) < min(cap_penalties)
    report(8, f"identity at (0, baseline); max power penalty "
              f"{max(power_penalties):.3f} < min cap<=90 penalty {min(cap_penalties):.3f}",
           identity_ok and ordering_ok)


def test_criterion_09_ingest_round_trip(tmp_path):
    """synth -> write -> parse -> daily resample conserves reward mass exactly."""
    laws = ("pareto:1.2", "lognormal:0,1", "uniform", "pareto:2.0")
    rules = ("stake_proportional", "yuma_replay")
    ok = True
    for seed in range(20):
        cfg = SynthConfig(
            n_subnets=2, wallets_per_subnet=25, validator_fraction=0.2,
            stake_law=laws[seed % len(laws)], perf_law="beta:2,5",
            stake_perf_coupling=0.1 * (seed % 5), reward_rule=rules[seed % 2],
            seed=seed, span_days=4,
        )
        dataset = generate(cfg)
        path = tmp_path / f"round_{seed}.{'csv' if seed % 5 == 0 else 'jsonl'}"
        save_events(dataset, path)
        try:
            parsed = load_events(path)
        except ValidationError:
            ok = False
            break
        event_mass = math.fsum(e.reward for e in parsed.events)
        entry_mass = math.fsum(
            entry.reward for snap in resample(parsed, "daily") for entry in snap.entries
        )
        ok &= parsed.events == dataset.events
        ok &= entry_mass == event_mass
        if not ok:
            break
    report(9, "20 seeded configs round-trip with exact reward-mass conservation", ok)


def test_criterion_10_golden_determinism(tmp_path, fixture_path, tempo_instance_path):
    """Every subcommand rerun on the bundled fixture is byte-identical."""
    invocations = [
        ("ingest", ["ingest", "--input", fixture_path]),
        ("metrics", ["metrics", "--input", fixture_path]),
        ("attack", ["attack", "--input", fixture_path]),
        ("tempo", ["tempo", "--input", tempo_instance_path]),
        ("sweep", ["sweep", "--input", fixture_path, "--scheme", "composite"]),
        ("frontier", ["frontier", "--input", fixture_path]),
        ("robustness", ["robustness", "--input", fixture_path]),
        ("synth", ["synth", "--seed", "5", "--subnets", "2", "--wallets", "12", "--days", "3"]),
    ]
    ok = True
    compared = 0
    for name, argv in invocations:
        dirs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}_{attempt}"
            code = run_cli(argv + ["--out", str(out_dir)])
            ok &= code == 0
            dirs.append(out_dir)
        files = sorted(os.listdir(dirs[0]))
        ok &= files == sorted(os.listdir(dirs[1])) and len(files) > 0
        for file_name in files:
            compared += 1
            ok &= filecmp.cmp(dirs[0] / file_name, dirs[1] / file_name, shallow=False)
        if not ok:
            break
    report(10, f"8 subcommands, {compared} output files byte-identical on rerun", ok)
