"""Scheme sweeps, the security/penalty frontier, and temporal robustness."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.ingest import Dataset, resample
from yumalab.interventions import SchemeParams, TransformSpec, apply_stake_transform, whale_penalty
from yumalab.metrics import coalition_fraction, pearson
from yumalab.model import Role, SnapshotEvent, SubnetSnapshot, ValidationError
from yumalab.sweep import (
    DEFAULT_CAP_PERCENTILES,
    NULL_PARAMS,
    SCHEMES,
    _scheme_rewards,
    default_frontier_specs,
    default_grid,
    sweep_scheme,
    temporal_robustness,
    tradeoff_frontier,
)

UTC = timezone.utc
T0 = datetime(2024, 1, 1, tzinfo=UTC)


def snapshot(netuid, rows):
    """rows: (wallet, role, stake, reward, perf)."""
    wallets, roles, stakes, rewards, perfs = zip(*rows)
    return SubnetSnapshot(netuid=netuid, window_start=T0, window_end=T0 + timedelta(days=1),
                          wallet_names=wallets, miner=[role is Role.MINER for role in roles],
                          stake=stakes, reward=rewards, perf=perfs)


def seeded_snapshots(n_subnets=4, n_wallets=40, seed=5):
    rng = np.random.default_rng(seed)
    snaps = []
    for netuid in range(n_subnets):
        rows = []
        n_validators = max(2, n_wallets // 5)
        for i in range(n_wallets):
            role = Role.VALIDATOR if i < n_validators else Role.MINER
            stake = float(rng.pareto(1.5) + 0.1)
            reward = float(stake * rng.uniform(0.5, 1.5))
            perf = float(rng.random())
            rows.append((f"w{i}", role, stake, reward, perf))
        snaps.append(snapshot(netuid, rows))
    return snaps


class TestGrids:
    def test_default_grid_sizes(self):
        assert len(default_grid("split")) == 21
        assert len(default_grid("composite")) == 11
        assert len(default_grid("bonus")) == 21

    def test_null_param_present(self):
        for scheme, null in NULL_PARAMS.items():
            assert null in default_grid(scheme)

    def test_frontier_specs_include_identity(self):
        labels = [spec.label for spec in default_frontier_specs()]
        assert labels[0] == "cap:100"
        assert "log" in labels
        assert len(labels) == len(set(labels))


class TestSweepScheme:
    def test_null_point_deltas_are_exact_zeros(self):
        snaps = seeded_snapshots()
        for scheme in ("split", "composite", "bonus"):
            result = sweep_scheme(snaps, scheme)
            null = NULL_PARAMS[scheme]
            null_points = [p for p in result.per_point if p.param == null]
            assert null_points
            for point in null_points:
                assert point.d_r_sr == 0.0
                assert point.d_r_pr == 0.0

    def test_null_point_reproduces_raw_profile(self):
        # The null parameter must leave correlations at the unmodified
        # values (composite rescales affinely, which Pearson ignores).
        snaps = seeded_snapshots(n_subnets=2)
        for scheme in ("split", "composite", "bonus"):
            result = sweep_scheme(snaps, scheme)
            null = NULL_PARAMS[scheme]
            for point in (p for p in result.per_point if p.param == null):
                snap = next(s for s in snaps if s.netuid == point.netuid)
                raw_sr = pearson(snap.stakes(point.role), snap.rewards(point.role))
                raw_pr = pearson(snap.perfs(point.role), snap.rewards(point.role))
                assert point.r_sr == pytest.approx(raw_sr, abs=1e-12)
                assert point.r_pr == pytest.approx(raw_pr, abs=1e-12)

    def test_bonus_point_matches_manual_computation(self):
        rows = [
            ("m1", Role.MINER, 4.0, 8.0, 0.9),
            ("m2", Role.MINER, 2.0, 5.0, 0.1),
            ("m3", Role.MINER, 1.0, 2.0, 0.6),
            ("v1", Role.VALIDATOR, 9.0, 3.0, 0.8),
            ("v2", Role.VALIDATOR, 3.0, 1.0, 0.2),
        ]
        snaps = [snapshot(0, rows)]
        result = sweep_scheme(snaps, "bonus", grid=(0.0, 0.5))
        point = next(p for p in result.per_point
                     if p.param == 0.5 and p.role is Role.MINER)
        adjusted = [8.0 * 1.45, 5.0 * 1.05, 2.0 * 1.3]
        assert point.r_pr == pytest.approx(pearson([0.9, 0.1, 0.6], adjusted), abs=1e-12)
        assert point.r_sr == pytest.approx(pearson([4.0, 2.0, 1.0], adjusted), abs=1e-12)

    def test_composite_reallocates_only_miners(self):
        snaps = seeded_snapshots(n_subnets=1)
        result = sweep_scheme(snaps, "composite", grid=(1.0, 0.0))
        null_v = next(p for p in result.per_point
                      if p.param == 1.0 and p.role is Role.VALIDATOR)
        full_v = next(p for p in result.per_point
                      if p.param == 0.0 and p.role is Role.VALIDATOR)
        assert full_v.r_sr == null_v.r_sr
        assert full_v.r_pr == null_v.r_pr

    def test_composite_pure_perf_endpoint(self):
        snaps = seeded_snapshots(n_subnets=3)
        result = sweep_scheme(snaps, "composite")
        for point in result.per_point:
            if point.param == 0.0 and point.role is Role.MINER:
                assert point.r_pr == pytest.approx(1.0, abs=1e-9)

    def test_default_composite_grid_row_count(self):
        snaps = seeded_snapshots(n_subnets=3)
        result = sweep_scheme(snaps, "composite")
        for netuid in (0, 1, 2):
            for role in (Role.MINER, Role.VALIDATOR):
                rows = [p for p in result.per_point
                        if p.netuid == netuid and p.role is role]
                assert len(rows) == 11

    def test_grid_must_include_null(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_snapshots(1), "split", grid=(0.5, 1.0))

    def test_composite_grid_range_checked(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_snapshots(1), "composite", grid=(1.0, 1.5))

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_snapshots(1), "demurrage")

    def test_duplicate_netuids_rejected(self):
        snaps = seeded_snapshots(1) + seeded_snapshots(1)
        with pytest.raises(ValidationError):
            sweep_scheme(snaps, "split")

    def test_degenerate_role_is_skipped_not_fatal(self):
        rows = [
            ("m1", Role.MINER, 1.0, 1.0, 0.5),
            ("m2", Role.MINER, 2.0, 3.0, 0.7),
            ("m3", Role.MINER, 3.0, 2.0, 0.2),
            ("v1", Role.VALIDATOR, 5.0, 1.0, 0.9),
        ]
        result = sweep_scheme([snapshot(0, rows)], "bonus", grid=(0.0, 0.1))
        assert all(p.role is Role.MINER for p in result.per_point)

    def test_constant_stake_subnet_counts_as_excluded(self):
        rows = [
            ("m1", Role.MINER, 1.0, 1.0, 0.5),
            ("m2", Role.MINER, 1.0, 3.0, 0.7),
            ("m3", Role.MINER, 1.0, 2.0, 0.2),
        ]
        result = sweep_scheme([snapshot(0, rows)], "bonus", grid=(0.0, 0.1))
        aggregate = next(a for a in result.aggregates
                         if a.param == 0.1 and a.role is Role.MINER)
        assert aggregate.excluded == 1
        assert aggregate.n_subnets == 0
        assert aggregate.median_d_r_sr is None

    def test_points_sorted_by_grid_then_netuid(self):
        result = sweep_scheme(seeded_snapshots(n_subnets=3), "split", grid=(0.0, 1.0, 0.5))
        keys = [((0.0, 1.0, 0.5).index(p.param), p.netuid, p.role.value)
                for p in result.per_point]
        assert keys == sorted(keys)


class TestTradeoffFrontier:
    def test_identity_point_is_baseline(self):
        snaps = seeded_snapshots()
        specs = (TransformSpec(kind="cap", cap_percentile=100.0),
                 TransformSpec(kind="cap", cap_percentile=50.0))
        points = tradeoff_frontier(snaps, specs)
        identity = next(p for p in points if p.label == "cap:100")
        assert identity.median_whale_penalty == 0.0
        assert identity.n_subnets == len(snaps)

    def test_cap_lowers_whale_share_and_raises_fraction(self):
        snaps = seeded_snapshots(n_subnets=6, n_wallets=120)
        points = tradeoff_frontier(snaps, (
            TransformSpec(kind="cap", cap_percentile=100.0),
            TransformSpec(kind="cap", cap_percentile=60.0),
        ))
        by_label = {p.label: p for p in points}
        assert by_label["cap:60"].median_whale_penalty > 0.0
        assert (by_label["cap:60"].median_coalition_fraction
                >= by_label["cap:100"].median_coalition_fraction)

    def test_points_sorted_by_penalty(self):
        points = tradeoff_frontier(seeded_snapshots(), default_frontier_specs())
        penalties = [p.median_whale_penalty for p in points]
        assert penalties == sorted(penalties)

    def test_dominated_point_flagged(self):
        # A lower cap that both costs more and defends no better than a
        # higher cap cannot be on the frontier. Construct directly.
        rows = [("w0", Role.MINER, 100.0, 1.0, 0.5)] + [
            (f"w{i}", Role.MINER, 1.0, 1.0, 0.5) for i in range(1, 10)
        ]
        snaps = [snapshot(0, rows)]
        specs = (
            TransformSpec(kind="cap", cap_percentile=100.0),
            TransformSpec(kind="cap", cap_percentile=90.0),
            TransformSpec(kind="cap", cap_percentile=50.0),
        )
        points = tradeoff_frontier(snaps, specs)
        by_label = {p.label: p for p in points}
        # both caps clamp the whale to 1.0: identical security, different cost
        assert by_label["cap:90"].median_coalition_fraction == by_label["cap:50"].median_coalition_fraction
        assert by_label["cap:90"].pareto and by_label["cap:50"].pareto

    def test_strictly_dominated_flag(self):
        snaps = seeded_snapshots(n_subnets=6, n_wallets=120)
        points = tradeoff_frontier(snaps, default_frontier_specs())
        for p in points:
            dominated = any(
                q.median_coalition_fraction > p.median_coalition_fraction
                and q.median_whale_penalty < p.median_whale_penalty
                for q in points
            )
            assert p.pareto == (not dominated)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValidationError):
            tradeoff_frontier(seeded_snapshots(), ())

    @pytest.mark.parametrize("threshold", [0.0, 1.5, math.nan])
    def test_threshold_range_checked(self, threshold):
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\], got"):
            tradeoff_frontier(seeded_snapshots(), default_frontier_specs(), threshold)


def temporal_dataset(days=10, n_subnets=3, n_wallets=30, seed=11):
    rng = np.random.default_rng(seed)
    events = []
    for netuid in range(n_subnets):
        stakes = rng.pareto(1.5, size=n_wallets) + 0.1
        for day in range(days):
            stamp = T0 + timedelta(days=day)
            for i in range(n_wallets):
                events.append(SnapshotEvent(
                    timestamp=stamp,
                    block_number=day * 7200,
                    netuid=netuid,
                    wallet=f"sn{netuid}-w{i}",
                    role=Role.MINER,
                    stake=float(stakes[i] * (1.0 + 0.01 * day)),
                    reward=1.0,
                    trust=0.5,
                    validator_trust=None,
                ))
    return Dataset.from_events(events)


class TestTemporalRobustness:
    def test_window_counts(self):
        ds = temporal_dataset(days=15)
        series = temporal_robustness(ds, TransformSpec(kind="cap", cap_percentile=88.0),
                                     freqs=("daily", "weekly"))
        by_freq = {s.freq: s for s in series}
        assert len(by_freq["daily"].windows) == 15
        assert len(by_freq["weekly"].windows) == 3

    def test_identity_transform_matches_baseline(self):
        ds = temporal_dataset()
        series = temporal_robustness(ds, TransformSpec(kind="cap", cap_percentile=100.0),
                                     freqs=("daily",))
        for window in series[0].windows:
            assert window.median == window.baseline_median
            assert window.p10 == window.baseline_p10
            assert window.p90 == window.baseline_p90

    def test_percentiles_ordered(self):
        ds = temporal_dataset()
        series = temporal_robustness(ds, TransformSpec(kind="cap", cap_percentile=80.0),
                                     freqs=("daily", "weekly"))
        for entry in series:
            for window in entry.windows:
                assert window.p10 <= window.median <= window.p90

    @pytest.mark.parametrize("threshold", [0.0, 1.5, math.nan])
    def test_threshold_range_checked(self, threshold):
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\], got"):
            temporal_robustness(temporal_dataset(days=2), TransformSpec(kind="log"),
                                freqs=("daily",), threshold=threshold)

    def test_single_window_rejected(self):
        ds = temporal_dataset(days=1)
        with pytest.raises(ValidationError):
            temporal_robustness(ds, TransformSpec(kind="log"), freqs=("daily",))

    def test_monthly_needs_two_months(self):
        ds = temporal_dataset(days=20)
        with pytest.raises(ValidationError):
            temporal_robustness(ds, TransformSpec(kind="log"), freqs=("monthly",))


# The frontier, robustness and sweep paths call private kernels on sorted
# or centred snapshot columns. Each must give, bit for bit, what the checked
# public functions give when composed as the reports composed them before:
# apply_stake_transform, then coalition_fraction and whale_penalty, and
# pearson at every grid point. Columns hold ties, zeros of both signs and
# values over sixty orders of magnitude, or no mass at all.
VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0]), st.floats(0.0, 1e30))
PERF = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
SPEC = st.one_of(
    st.builds(lambda p: TransformSpec(kind="cap", cap_percentile=p),
              st.one_of(st.sampled_from([100.0, 88.0, 50.0, 1.0]),
                        st.floats(0.0, 100.0, exclude_min=True))),
    st.builds(lambda a: TransformSpec(kind="power", power_exponent=a),
              st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.0, 1.0, exclude_min=True))),
    st.just(TransformSpec(kind="log")),
)
SPECS = st.one_of(st.just(default_frontier_specs()),
                  st.lists(SPEC, min_size=1, max_size=6, unique_by=lambda spec: spec.label).map(tuple))
THRESHOLD = st.one_of(st.sampled_from([0.51, 1.0 / 3.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True))
ORACLE_SETTINGS = settings(max_examples=100, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def mass_columns(n):
    return st.one_of(arrays(np.float64, n, elements=VALUE),
                     arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])))


@st.composite
def drawn_snapshots(draw, max_subnets=3, max_wallets=300):
    """1 to max_subnets snapshots of 1 to max_wallets wallets each; either
    role may be empty or hold one wallet."""
    snaps = []
    for netuid in range(draw(st.integers(1, max_subnets))):
        n = draw(st.integers(1, max_wallets))
        snaps.append(SubnetSnapshot(
            netuid=netuid, window_start=T0, window_end=T0 + timedelta(days=1),
            wallet_names=tuple(f"w{i:03d}" for i in range(n)),
            miner=draw(arrays(np.bool_, n)), stake=draw(mass_columns(n)),
            reward=draw(mass_columns(n)), perf=draw(arrays(np.float64, n, elements=PERF)),
        ))
    return snaps


def oracle_pairs(snapshots, spec):
    """(stakes, transformed stakes) of each snapshot with stake mass before
    and after the transform."""
    pairs = []
    for snap in snapshots:
        if snap.stake.shape[0] == 0 or float(np.sum(snap.stake)) <= 0.0:
            continue
        transformed = apply_stake_transform(snap.stake, spec)
        if float(np.sum(transformed)) > 0.0:
            pairs.append((snap.stake, transformed))
    return pairs


class TestKernelsMatchPublicFunctions:
    @ORACLE_SETTINGS
    @given(snaps=drawn_snapshots(), specs=SPECS, threshold=THRESHOLD)
    def test_tradeoff_frontier(self, snaps, specs, threshold):
        expected = {}
        for spec in specs:
            pairs = oracle_pairs(snaps, spec)
            if not pairs:
                with pytest.raises(ValidationError, match="no subnet with positive stake mass"):
                    tradeoff_frontier(snaps, specs, threshold)
                return
            penalty = float(np.median([whale_penalty(s, t) for s, t in pairs]))
            if not 0.0 <= penalty <= 1.0:
                # A power below 1 raises stakes below 1: the penalty is negative.
                with pytest.raises(ValidationError, match="median whale penalty must lie in"):
                    tradeoff_frontier(snaps, specs, threshold)
                return
            expected[spec.label] = repr((
                len(pairs),
                float(np.median([coalition_fraction(t, threshold) for _, t in pairs])),
                penalty,
            ))
        points = tradeoff_frontier(snaps, specs, threshold)
        assert {p.label: repr((p.n_subnets, p.median_coalition_fraction, p.median_whale_penalty))
                for p in points} == expected

    @ORACLE_SETTINGS
    @given(data=st.data(), spec=SPEC, threshold=THRESHOLD)
    def test_temporal_robustness(self, data, spec, threshold):
        days, subnets = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 120))
        miner = [data.draw(arrays(np.bool_, n)) for _ in range(subnets)]
        stake = [data.draw(mass_columns(n)) for _ in range(days * subnets)]
        rows = days * subnets * n
        dataset = Dataset(
            timestamp=np.repeat(np.arange(days) * 86_400_000_000 + 1_704_067_200_000_000, subnets * n),
            block_number=np.zeros(rows, dtype=np.int64),
            netuid=np.tile(np.repeat(np.arange(subnets), n), days),
            wallet=np.tile(np.arange(n), days * subnets),
            miner=np.tile(np.concatenate(miner), days),
            stake=np.concatenate(stake),
            reward=np.zeros(rows),
            trust=np.full(rows, math.nan),
            validator_trust=np.full(rows, math.nan),
            wallet_names=tuple(f"w{i:03d}" for i in range(n)),
        )
        windows = {}
        for snap in resample(dataset, "daily"):
            windows.setdefault(snap.window_start, []).append(snap)
        expected = []
        for start in sorted(windows):
            pairs = oracle_pairs(windows[start], spec)
            stats = (None,) * 6
            if pairs:
                p10, p50, p90 = np.percentile([coalition_fraction(t, threshold) for _, t in pairs],
                                              [10.0, 50.0, 90.0])
                b10, b50, b90 = np.percentile([coalition_fraction(s, threshold) for s, _ in pairs],
                                              [10.0, 50.0, 90.0])
                stats = tuple(map(float, (p50, p10, p90, b50, b10, b90)))
            expected.append((start, len(pairs), *stats))
        (series,) = temporal_robustness(dataset, spec, freqs=("daily",), threshold=threshold)
        assert repr([tuple(vars(window).values()) for window in series.windows]) == repr(expected)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @ORACLE_SETTINGS
    @given(snaps=drawn_snapshots())
    def test_sweep_points(self, scheme, snaps):
        expected = {}
        for value in default_grid(scheme):
            for snap in snaps:
                adjusted = _scheme_rewards(snap, scheme, value, SchemeParams())
                for role, rows in ((Role.MINER, snap.miner), (Role.VALIDATOR, ~snap.miner)):
                    if np.count_nonzero(rows) >= 2:
                        expected[(value, snap.netuid, role)] = repr((
                            pearson(snap.stake[rows], adjusted[rows]),
                            pearson(snap.perf[rows], adjusted[rows]),
                        ))
        result = sweep_scheme(snaps, scheme)
        assert {(p.param, p.netuid, p.role): repr((p.r_sr, p.r_pr))
                for p in result.per_point} == expected

