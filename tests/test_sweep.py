"""Scheme sweeps, the security/penalty frontier, and temporal robustness."""

import dataclasses
import functools
import math
import statistics
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.ingest import Dataset, _history_table, history_snapshots, resample
from yumalab.interventions import (
    BASE_VALIDATOR_SHARE,
    TransformSpec,
    apply_stake_transform,
    bonus_rewards,
    composite_ranks,
    perf_weighted_rewards,
    unit_rescale,
    whale_penalty,
)
from yumalab.metrics import _coalition_column, coalition_fraction, pearson
from yumalab.model import Role, SnapshotEvent, ValidationError
from yumalab.sweep import (
    DEFAULT_CAP_PERCENTILES,
    NULL_PARAMS,
    SCHEMES,
    FrontierPoint,
    _scheme_rewards,
    _transformed,
    default_frontier_specs,
    default_grid,
    sweep_scheme,
    temporal_robustness,
    tradeoff_frontier,
)
from yumalab.synth import SynthConfig, generate

UTC = timezone.utc
T0 = datetime(2024, 1, 1, tzinfo=UTC)
T0_US = int(T0.timestamp()) * 1_000_000
COLUMN_DTYPES = (np.int64, np.int64, bool, np.float64, np.float64, np.float64)


def history_dataset(subnets):
    """A Dataset of one event per wallet, all at T0, from per-subnet rows:
    (netuid, rows) pairs of distinct netuids, each row (wallet, role,
    stake, reward, perf). Its history table holds one segment per subnet,
    the rows in wallet-name order and a -0.0 reward summed to 0.0."""
    names = sorted({row[0] for _, rows in subnets for row in rows})
    code = {name: i for i, name in enumerate(names)}
    events = sorted((netuid, code[wallet], role is Role.MINER, stake, reward, perf)
                    for netuid, rows in subnets for wallet, role, stake, reward, perf in rows)
    netuid, wallet, miner, stake, reward, perf = (np.array(column, dtype=dtype)
                                                  for column, dtype in zip(zip(*events), COLUMN_DTYPES))
    return Dataset(timestamp=np.full(len(events), T0_US), block_number=np.zeros(len(events), dtype=np.int64),
                   netuid=netuid, wallet=wallet, miner=miner, stake=stake, reward=reward,
                   trust=np.where(miner, perf, np.nan), validator_trust=np.where(miner, np.nan, perf),
                   wallet_names=tuple(names))


def seeded_dataset(n_subnets=4, n_wallets=40, seed=5):
    rng = np.random.default_rng(seed)
    subnets = []
    for netuid in range(n_subnets):
        rows = []
        n_validators = max(2, n_wallets // 5)
        for i in range(n_wallets):
            role = Role.VALIDATOR if i < n_validators else Role.MINER
            stake = float(rng.pareto(1.5) + 0.1)
            reward = float(stake * rng.uniform(0.5, 1.5))
            perf = float(rng.random())
            rows.append((f"w{i}", role, stake, reward, perf))
        subnets.append((netuid, rows))
    return history_dataset(subnets)


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
        dataset = seeded_dataset()
        for scheme in ("split", "composite", "bonus"):
            result = sweep_scheme(dataset, scheme)
            null = NULL_PARAMS[scheme]
            null_points = [p for p in result.per_point if p.param == null]
            assert null_points
            for point in null_points:
                assert point.d_r_sr == 0.0
                assert point.d_r_pr == 0.0

    def test_null_point_reproduces_raw_profile(self):
        # The null parameter must leave correlations at the unmodified
        # values (composite rescales affinely, which Pearson ignores).
        dataset = seeded_dataset(n_subnets=2)
        snaps = history_snapshots(dataset)
        for scheme in ("split", "composite", "bonus"):
            result = sweep_scheme(dataset, scheme)
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
        result = sweep_scheme(history_dataset([(0, rows)]), "bonus", grid=(0.0, 0.5))
        point = next(p for p in result.per_point
                     if p.param == 0.5 and p.role is Role.MINER)
        adjusted = [8.0 * 1.45, 5.0 * 1.05, 2.0 * 1.3]
        assert point.r_pr == pytest.approx(pearson([0.9, 0.1, 0.6], adjusted), abs=1e-12)
        assert point.r_sr == pytest.approx(pearson([4.0, 2.0, 1.0], adjusted), abs=1e-12)

    def test_composite_reallocates_only_miners(self):
        result = sweep_scheme(seeded_dataset(n_subnets=1), "composite", grid=(1.0, 0.0))
        null_v = next(p for p in result.per_point
                      if p.param == 1.0 and p.role is Role.VALIDATOR)
        full_v = next(p for p in result.per_point
                      if p.param == 0.0 and p.role is Role.VALIDATOR)
        assert full_v.r_sr == null_v.r_sr
        assert full_v.r_pr == null_v.r_pr

    def test_composite_pure_perf_endpoint(self):
        result = sweep_scheme(seeded_dataset(n_subnets=3), "composite")
        for point in result.per_point:
            if point.param == 0.0 and point.role is Role.MINER:
                assert point.r_pr == pytest.approx(1.0, abs=1e-9)

    def test_default_composite_grid_row_count(self):
        result = sweep_scheme(seeded_dataset(n_subnets=3), "composite")
        for netuid in (0, 1, 2):
            for role in (Role.MINER, Role.VALIDATOR):
                rows = [p for p in result.per_point
                        if p.netuid == netuid and p.role is role]
                assert len(rows) == 11

    def test_grid_must_include_null(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_dataset(1), "split", grid=(0.5, 1.0))

    def test_composite_grid_range_checked(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_dataset(1), "composite", grid=(1.0, 1.5))

    # A repeated value once interleaved its rows; -0.0 and 0.0 are one value.
    @pytest.mark.parametrize("grid, value", [((0.0, 0.5, 0.0), "0.0"), ((0.0, 0.5, -0.0), "-0.0"),
                                             ((0.1, 0.0, 0.1), "0.1")])
    def test_grid_values_must_be_distinct(self, grid, value):
        with pytest.raises(ValidationError) as excinfo:
            sweep_scheme(seeded_dataset(1), "split", grid=grid)
        assert str(excinfo.value) == f"grid values must be distinct; {value} appears more than once"

    def test_split_uses_a_quarter_base_validator_share(self):
        assert BASE_VALIDATOR_SHARE == 0.25
        (snap,) = history_snapshots(seeded_dataset(n_subnets=1))
        grid = default_grid("split")
        for value, rewards in zip(grid, _scheme_rewards(snap.miner, snap.reward, snap.perf, "split", grid)):
            expected = perf_weighted_rewards(snap.reward, snap.perf, snap.miner, sensitivity=value)
            np.testing.assert_array_equal(rewards, expected)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            sweep_scheme(seeded_dataset(1), "demurrage")

    def test_degenerate_role_is_skipped_not_fatal(self):
        rows = [
            ("m1", Role.MINER, 1.0, 1.0, 0.5),
            ("m2", Role.MINER, 2.0, 3.0, 0.7),
            ("m3", Role.MINER, 3.0, 2.0, 0.2),
            ("v1", Role.VALIDATOR, 5.0, 1.0, 0.9),
        ]
        result = sweep_scheme(history_dataset([(0, rows)]), "bonus", grid=(0.0, 0.1))
        assert all(p.role is Role.MINER for p in result.per_point)
        # A lone wallet gives no rows at all, and each (grid value, role)
        # still has its aggregate, with nothing defined or excluded.
        lone = history_dataset([(0, [("v1", Role.VALIDATOR, 5.0, 1.0, 0.9)])])
        for scheme in ("split", "composite", "bonus"):
            result = sweep_scheme(lone, scheme)
            assert result.per_point == ()
            assert [(a.param, a.role) for a in result.aggregates] == [
                (value, role) for value in result.grid for role in (Role.MINER, Role.VALIDATOR)]
            for aggregate in result.aggregates:
                assert (aggregate.n_subnets, aggregate.excluded) == (0, 0)
                assert (aggregate.mean_d_r_sr, aggregate.median_d_r_sr,
                        aggregate.mean_d_r_pr, aggregate.median_d_r_pr) == (None,) * 4

    # Every scheme reward must be finite, also that of a role too small to
    # correlate: a lone validator whose bonus leaves the float range fails
    # as two validators do.
    @pytest.mark.parametrize("validators", [1, 2])
    def test_reward_beyond_float_range_is_an_error(self, validators):
        rows = [("m1", Role.MINER, 1.0, 1.0, 0.5), ("m2", Role.MINER, 2.0, 3.0, 0.7)]
        rows += [(f"v{i}", Role.VALIDATOR, 5.0 + i, 1e308, 1.0) for i in range(validators)]
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="^pearson inputs must be finite$"):
            sweep_scheme(history_dataset([(0, rows)]), "bonus", grid=(0.0, 1.0))

    def test_constant_stake_subnet_counts_as_excluded(self):
        rows = [
            ("m1", Role.MINER, 1.0, 1.0, 0.5),
            ("m2", Role.MINER, 1.0, 3.0, 0.7),
            ("m3", Role.MINER, 1.0, 2.0, 0.2),
        ]
        result = sweep_scheme(history_dataset([(0, rows)]), "bonus", grid=(0.0, 0.1))
        aggregate = next(a for a in result.aggregates
                         if a.param == 0.1 and a.role is Role.MINER)
        assert aggregate.excluded == 1
        assert aggregate.n_subnets == 0
        assert aggregate.median_d_r_sr is None

    def test_points_sorted_by_grid_then_netuid(self):
        result = sweep_scheme(seeded_dataset(n_subnets=3), "split", grid=(0.0, 1.0, 0.5))
        keys = [((0.0, 1.0, 0.5).index(p.param), p.netuid, p.role.value)
                for p in result.per_point]
        assert keys == sorted(keys)


class TestTradeoffFrontier:
    def test_identity_point_is_baseline(self):
        specs = (TransformSpec("cap", 100.0),
                 TransformSpec("cap", 50.0))
        points = tradeoff_frontier(seeded_dataset(), specs)
        identity = next(p for p in points if p.label == "cap:100")
        assert identity.median_whale_penalty == 0.0
        assert identity.n_subnets == 4

    def test_cap_lowers_whale_share_and_raises_fraction(self):
        points = tradeoff_frontier(seeded_dataset(n_subnets=6, n_wallets=120), (
            TransformSpec("cap", 100.0),
            TransformSpec("cap", 60.0),
        ))
        by_label = {p.label: p for p in points}
        assert by_label["cap:60"].median_whale_penalty > 0.0
        assert (by_label["cap:60"].median_coalition_fraction
                >= by_label["cap:100"].median_coalition_fraction)

    def test_points_sorted_by_penalty(self):
        points = tradeoff_frontier(seeded_dataset(), default_frontier_specs())
        penalties = [p.median_whale_penalty for p in points]
        assert penalties == sorted(penalties)

    def test_dominated_point_flagged(self):
        # A lower cap that both costs more and defends no better than a
        # higher cap cannot be on the frontier. Construct directly.
        rows = [("w0", Role.MINER, 100.0, 1.0, 0.5)] + [
            (f"w{i}", Role.MINER, 1.0, 1.0, 0.5) for i in range(1, 10)
        ]
        specs = (
            TransformSpec("cap", 100.0),
            TransformSpec("cap", 90.0),
            TransformSpec("cap", 50.0),
        )
        points = tradeoff_frontier(history_dataset([(0, rows)]), specs)
        by_label = {p.label: p for p in points}
        # both caps clamp the whale to 1.0: identical security, different cost
        assert by_label["cap:90"].median_coalition_fraction == by_label["cap:50"].median_coalition_fraction
        assert by_label["cap:90"].pareto and by_label["cap:50"].pareto

    def test_strictly_dominated_flag(self):
        points = tradeoff_frontier(seeded_dataset(n_subnets=6, n_wallets=120), default_frontier_specs())
        for p in points:
            dominated = any(
                q.median_coalition_fraction > p.median_coalition_fraction
                and q.median_whale_penalty < p.median_whale_penalty
                for q in points
            )
            assert p.pareto == (not dominated)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValidationError):
            tradeoff_frontier(seeded_dataset(), ())

    def test_no_stake_mass_rejected(self):
        dataset = history_dataset([(netuid, [("w0", Role.MINER, 0.0, 1.0, 0.5), ("w1", Role.VALIDATOR, -0.0, 0.0, 0.5)])
                                   for netuid in (0, 3)])
        with pytest.raises(ValidationError, match="no subnet with positive stake mass for transform cap:100"):
            tradeoff_frontier(dataset, (TransformSpec("cap", 100.0),))

    @pytest.mark.parametrize("threshold", [0.0, 1.5, math.nan])
    def test_threshold_range_checked(self, threshold):
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\], got"):
            tradeoff_frontier(seeded_dataset(), default_frontier_specs(), threshold)


def frontier_point(penalty):
    return FrontierPoint(label="power:0.9", kind="power", param=0.9,
                         median_coalition_fraction=0.5, median_whale_penalty=penalty, n_subnets=1)


class TestFrontierPoint:
    @pytest.mark.parametrize("penalty", [-0.0717734625, 0.0, 1.0])
    def test_penalty_at_most_one_accepted(self, penalty):
        assert frontier_point(penalty).median_whale_penalty == penalty

    @pytest.mark.parametrize("penalty", [1.5, math.nan, math.inf, -math.inf])
    def test_penalty_above_one_or_non_finite_rejected(self, penalty):
        with pytest.raises(ValidationError, match="median whale penalty must be finite and at most 1"):
            frontier_point(penalty)


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
        series = temporal_robustness(ds, TransformSpec("cap", 88.0),
                                     freqs=("daily", "weekly"))
        by_freq = {s.freq: s for s in series}
        assert len(by_freq["daily"].windows) == 15
        assert len(by_freq["weekly"].windows) == 3

    def test_identity_transform_matches_baseline(self):
        ds = temporal_dataset()
        series = temporal_robustness(ds, TransformSpec("cap", 100.0),
                                     freqs=("daily",))
        for window in series[0].windows:
            assert window.median == window.baseline_median
            assert window.p10 == window.baseline_p10
            assert window.p90 == window.baseline_p90

    def test_percentiles_ordered(self):
        ds = temporal_dataset()
        series = temporal_robustness(ds, TransformSpec("cap", 80.0),
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
# apply_stake_transform, then coalition_fraction and whale_penalty, and the
# scheme's rewards and pearson at every grid point. Columns hold ties, zeros
# of both signs and values over sixty orders of magnitude, or no mass at all.


def scheme_rewards(snap, scheme, value):
    """A snapshot's rewards under `scheme` at one grid value, from the public
    functions: the composite scheme re-allocates the miner pool along the
    mixed ranks and leaves validator rewards untouched."""
    if scheme == "split":
        return perf_weighted_rewards(snap.reward, snap.perf, snap.miner, sensitivity=value)
    if scheme == "bonus":
        return bonus_rewards(snap.reward, snap.perf, value)
    adjusted = snap.reward.copy()
    miners = snap.miner
    if miners.any():
        miner_rewards = snap.reward[miners]
        mixed = composite_ranks(unit_rescale(miner_rewards), snap.perf[miners], value)
        mass = float(np.sum(mixed))
        adjusted[miners] = float(np.sum(miner_rewards)) * (mixed / mass) if mass > 0.0 else 0.0
    return adjusted


VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0]), st.floats(0.0, 1e30))
PERF = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
SPEC = st.one_of(
    st.builds(lambda p: TransformSpec("cap", p),
              st.one_of(st.sampled_from([100.0, 88.0, 50.0, 1.0]),
                        st.floats(0.0, 100.0, exclude_min=True))),
    st.builds(lambda a: TransformSpec("power", a),
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
                     arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])),
                     VALUE.map(lambda value: np.full(n, value)))


def perf_columns(n):
    return st.one_of(arrays(np.float64, n, elements=PERF), PERF.map(lambda value: np.full(n, value)))


def miner_columns(n):
    """Miner flags at random, or with 0, 1 or 2 wallets of one role."""
    few = st.tuples(st.integers(0, min(n, 2)), st.booleans())
    return st.one_of(arrays(np.bool_, n), few.map(lambda pick: (np.arange(n) < pick[0]) == pick[1]))


@st.composite
def drawn_datasets(draw, max_subnets=3, max_wallets=300, stakes=mass_columns):
    """The history_dataset of 1 to max_subnets subnets of 1 to max_wallets
    wallets each, all of one size or each of its own, with stakes drawn by
    stakes(n); either role may be empty or hold one wallet, and a column
    may be constant or hold no mass."""
    n_subnets = draw(st.integers(1, max_subnets))
    size = st.integers(1, max_wallets)
    sizes = draw(st.one_of(size.map(lambda n: [n] * n_subnets),
                           st.lists(size, min_size=n_subnets, max_size=n_subnets)))
    subnets = []
    for netuid, n in enumerate(sizes):
        roles = [Role.MINER if miner else Role.VALIDATOR for miner in draw(miner_columns(n)).tolist()]
        columns = (draw(stakes(n)).tolist(), draw(mass_columns(n)).tolist(), draw(perf_columns(n)).tolist())
        subnets.append((netuid, [(f"w{i:03d}", *row) for i, row in enumerate(zip(roles, *columns))]))
    return history_dataset(subnets)


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


# A subnormal stake of a whale, which a power below 1 raises so far that its
# penalty overflows to -inf.
SUBNORMAL_WHALE = history_dataset([(0, [("w000", Role.VALIDATOR, 5e-324, 0.0, 0.0)])])
SUBNORMAL_AND_EMPTY = history_dataset([(0, [("w000", Role.VALIDATOR, 0.0, 0.0, 0.0),
                                            ("w001", Role.VALIDATOR, 5e-324, 0.0, 0.0)])])
ROOT_32 = TransformSpec("power", 0.03125)


class TestKernelsMatchPublicFunctions:
    @ORACLE_SETTINGS
    @given(dataset=drawn_datasets(), specs=SPECS, threshold=THRESHOLD)
    @example(dataset=SUBNORMAL_WHALE, specs=(ROOT_32,), threshold=0.51)
    @example(dataset=SUBNORMAL_AND_EMPTY, specs=(ROOT_32, TransformSpec("cap", 1.0)),
             threshold=0.51)
    def test_tradeoff_frontier(self, dataset, specs, threshold):
        snaps = history_snapshots(dataset)
        expected = {}
        for spec in specs:
            pairs = oracle_pairs(snaps, spec)
            if not pairs:
                with pytest.raises(ValidationError, match="no subnet with positive stake mass"):
                    tradeoff_frontier(dataset, specs, threshold)
                return
            # A power below 1 raises stakes below 1: the penalty can be negative,
            # and beyond the float range, which the frontier rejects.
            penalty = float(np.median([whale_penalty(s, t) for s, t in pairs]))
            if not math.isfinite(penalty):
                with pytest.raises(ValidationError, match="median whale penalty must be finite and at most 1"):
                    tradeoff_frontier(dataset, specs, threshold)
                return
            expected[spec.label] = repr((
                len(pairs),
                float(np.median([coalition_fraction(t, threshold) for _, t in pairs])),
                penalty,
            ))
        points = tradeoff_frontier(dataset, specs, threshold)
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
    @given(dataset=drawn_datasets())
    def test_scheme_rewards(self, scheme, dataset):
        grid = default_grid(scheme)
        for snap in history_snapshots(dataset):
            batched = _scheme_rewards(snap.miner, snap.reward, snap.perf, scheme, grid)
            for value, rewards in zip(grid, batched):
                assert rewards.tobytes() == scheme_rewards(snap, scheme, value).tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @ORACLE_SETTINGS
    @given(dataset=drawn_datasets())
    def test_sweep_points(self, scheme, dataset):
        expected = {}
        for value in default_grid(scheme):
            for snap in history_snapshots(dataset):
                adjusted = scheme_rewards(snap, scheme, value)
                for role, rows in ((Role.MINER, snap.miner), (Role.VALIDATOR, ~snap.miner)):
                    if np.count_nonzero(rows) >= 2:
                        expected[(value, snap.netuid, role)] = repr((
                            pearson(snap.stake[rows], adjusted[rows]),
                            pearson(snap.perf[rows], adjusted[rows]),
                        ))
        result = sweep_scheme(dataset, scheme)
        assert {(p.param, p.netuid, p.role): repr((p.r_sr, p.r_pr))
                for p in result.per_point} == expected



# attack, the frontier and robustness read stake columns: each segment of a
# column must get what the public function gives that segment alone.
# COLUMN_EDGES holds a one-wallet subnet, an all-zero subnet with -0.0
# stakes, and a subnet of tied stakes.
COLUMN_EDGES = history_dataset([
    (0, [("w000", Role.VALIDATOR, 3.0, 0.0, 0.0)]),
    (1, [("w000", Role.MINER, 0.0, 0.0, 0.0), ("w001", Role.VALIDATOR, -0.0, 0.0, 0.0),
         ("w002", Role.MINER, -0.0, 0.0, 0.0)]),
    (2, [("w000", Role.MINER, 2.0, 0.0, 0.0), ("w001", Role.MINER, 2.0, 0.0, 0.0),
         ("w002", Role.VALIDATOR, 1.0, 0.0, 0.0), ("w003", Role.MINER, 2.0, 0.0, 0.0)]),
])


def history_segments(dataset):
    """The history table's stake column, its offsets, and its segments."""
    _, _, offsets, _, _, stake, _, _ = _history_table(dataset)
    return stake, offsets, [stake[first:stop] for first, stop in zip(offsets[:-1], offsets[1:])]


class TestColumnFunctions:
    @ORACLE_SETTINGS
    @given(dataset=drawn_datasets(), threshold=THRESHOLD)
    @example(dataset=COLUMN_EDGES, threshold=0.51)
    def test_coalition_column(self, dataset, threshold):
        stake, offsets, segments = history_segments(dataset)
        fractions = _coalition_column(stake, offsets, threshold).tolist()
        for fraction, segment in zip(fractions, segments, strict=True):
            if float(np.sum(segment)) > 0.0:
                assert repr(fraction) == repr(coalition_fraction(segment, threshold))
            else:
                assert math.isnan(fraction)

    @ORACLE_SETTINGS
    @given(dataset=drawn_datasets())
    @example(dataset=COLUMN_EDGES)
    def test_transformed(self, dataset):
        stake, offsets, segments = history_segments(dataset)
        for spec in default_frontier_specs():
            transformed = _transformed(stake, offsets, spec)
            assert transformed.tobytes() == b"".join(
                apply_stake_transform(segment, spec).tobytes() for segment in segments), spec.label


# ---------------------------------------------------------------------------
# Known answers for the reward schemes
# ---------------------------------------------------------------------------

# Independent stakes s ~ U(0.5, 1.5) and perfs p ~ U(0, 1) with
# stake-proportional rewards, one day of 8 subnets of 2,000 wallets (1,600
# miners and 400 validators each); each figure is a role's median over the
# 8 subnets. `bonus` at rate b pays X = s (1 + b p), so with
# V = (13/12)(1 + b + b^2/3) - (1 + b/2)^2, corr(s, X) = (1 + b/2)/sqrt(12 V)
# and corr(p, X) = b/sqrt(12 V). Within a role `split`'s base share beta is a
# constant (0.75 for miners, 0.25 for validators), so `split` at sensitivity
# sigma is `bonus` at b = sigma/beta. `composite` at weight w shares the
# miner pool along w u + (1 - w) p, where u, the unit rescale of the
# rewards, is linear in s: corr(s, X) = w/sqrt(w^2 + (1 - w)^2) and
# corr(p, X) = (1 - w)/sqrt(w^2 + (1 - w)^2). It leaves validator rewards
# as they are, so their stake correlation is 1 and their deltas are 0.
#
# Each tolerance is four standard deviations of (median - closed form) over
# seeds 0-29. The mean deviations lie within 1.3 standard errors of zero,
# so no scheme misses its closed form. Seed 0 reads 0.98283/0.17625 for
# `bonus:0.2` miners and 0.70066/0.70230 for `split:0.5` validators.
SCHEME_CORPUS = dict(stake_law="uniform", perf_law="uniform", n_subnets=8, wallets_per_subnet=2000, span_days=1)


@functools.lru_cache(maxsize=3)
def scheme_dataset(seed):
    return generate(SynthConfig(**SCHEME_CORPUS, seed=seed))


def bonus_correlations(b):
    v = 13 / 12 * (1 + b + b * b / 3) - (1 + b / 2) ** 2
    return (1 + b / 2) / math.sqrt(12 * v), b / math.sqrt(12 * v)


def composite_correlations(w):
    return w / math.hypot(w, 1 - w), (1 - w) / math.hypot(w, 1 - w)


# (scheme, value, role, closed-form (r_sr, r_pr), tolerances)
SCHEME_KNOWN_ANSWERS = [
    ("bonus", 0.2, Role.MINER, bonus_correlations(0.2), (0.0012, 0.036)),
    ("bonus", 0.2, Role.VALIDATOR, bonus_correlations(0.2), (0.0021, 0.088)),
    ("split", 0.5, Role.MINER, bonus_correlations(0.5 / 0.75), (0.0073, 0.029)),
    ("split", 0.5, Role.VALIDATOR, bonus_correlations(0.5 / 0.25), (0.035, 0.039)),
    ("composite", 0.2, Role.MINER, composite_correlations(0.2), (0.039, 0.0016)),
    ("composite", 0.5, Role.MINER, composite_correlations(0.5), (0.018, 0.017)),
    ("composite", 0.8, Role.MINER, composite_correlations(0.8), (0.0018, 0.035)),
]


def role_points(seed, scheme, value, role):
    result = sweep_scheme(scheme_dataset(seed), scheme, (NULL_PARAMS[scheme], value))
    points = [p for p in result.per_point if p.param == value and p.role is role]
    assert len(points) == 8
    return points


class TestSchemeKnownAnswers:
    def test_closed_forms(self):
        assert bonus_correlations(0.2) == pytest.approx((0.98256, 0.17865), abs=5e-6)
        assert bonus_correlations(0.5 / 0.75) == pytest.approx((0.88707, 0.44353), abs=5e-6)
        assert bonus_correlations(0.5 / 0.25) == pytest.approx((0.69282, 0.69282), abs=5e-6)
        assert composite_correlations(0.2) == pytest.approx((0.24254, 0.97014), abs=5e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme, value, role, expected, tolerance", SCHEME_KNOWN_ANSWERS,
                             ids=[f"{case[0]}:{case[1]}-{case[2].value}" for case in SCHEME_KNOWN_ANSWERS])
    def test_role_medians(self, seed, scheme, value, role, expected, tolerance):
        points = role_points(seed, scheme, value, role)
        assert statistics.median(p.r_sr for p in points) == pytest.approx(expected[0], abs=tolerance[0])
        assert statistics.median(p.r_pr for p in points) == pytest.approx(expected[1], abs=tolerance[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composite_leaves_validators_alone(self, seed):
        result = sweep_scheme(scheme_dataset(seed), "composite")
        validators = [p for p in result.per_point if p.role is Role.VALIDATOR]
        assert len(validators) == 8 * len(default_grid("composite"))
        assert all(p.r_sr == pytest.approx(1.0, abs=1e-12) for p in validators)
        assert {(p.d_r_sr, p.d_r_pr) for p in validators} == {(0.0, 0.0)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_delta_is_zero_at_the_null_value(self, seed, scheme):
        result = sweep_scheme(scheme_dataset(seed), scheme)
        null = NULL_PARAMS[scheme]
        points = [p for p in result.per_point if p.param == null]
        aggregates = [a for a in result.aggregates if a.param == null]
        assert len(points) == 16 and len(aggregates) == 2
        assert {(p.d_r_sr, p.d_r_pr) for p in points} == {(0.0, 0.0)}
        assert {(a.n_subnets, a.mean_d_r_sr, a.median_d_r_sr, a.mean_d_r_pr, a.median_d_r_pr)
                for a in aggregates} == {(8, 0.0, 0.0, 0.0, 0.0)}


# ---------------------------------------------------------------------------
# The stake unit
# ---------------------------------------------------------------------------

# A cap commutes with scaling, and the whale penalty compares the top 1%'s
# stake before and after the transform, so the `cap` rows do not depend on
# the unit of the stakes. Multiplying by 2^k is exact for stakes that stay
# normal floats, so the rows are equal to the last bit. `power` and `log`
# rows do depend on the unit, and so may every Pareto flag.
def normal_stakes(n):
    return arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(2.0 ** -900, 1e30)))


CAP_SPEC = st.builds(lambda p: TransformSpec("cap", p),
                     st.one_of(st.sampled_from([100.0, 88.0, 50.0, 1.0]), st.floats(0.0, 100.0, exclude_min=True)))
UNIT_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def two_day_datasets(draw, max_subnets=3, max_wallets=40):
    """Events of 1 to max_subnets subnets on 2024-03-31 and 2024-04-01: a
    Sunday that ends a month, then a Monday, so each frequency has two
    windows."""
    n_subnets, n_wallets = draw(st.integers(1, max_subnets)), draw(st.integers(1, max_wallets))
    day, netuid, wallet = (column.ravel() for column in np.indices((2, n_subnets, n_wallets)))
    start = int(datetime(2024, 3, 31, tzinfo=UTC).timestamp()) * 1_000_000
    return Dataset(timestamp=start + day * 86_400_000_000, block_number=day, netuid=netuid, wallet=wallet,
                   miner=np.ones(len(day), dtype=bool), stake=draw(normal_stakes(len(day))),
                   reward=np.zeros(len(day)), trust=np.full(len(day), np.nan),
                   validator_trust=np.full(len(day), np.nan),
                   wallet_names=tuple(f"w{i:03d}" for i in range(n_wallets)))


class TestStakeUnit:
    @UNIT_SETTINGS
    @given(dataset=drawn_datasets(stakes=normal_stakes), specs=SPECS, k=st.integers(-20, 20))
    def test_frontier_cap_rows(self, dataset, specs, k):
        scaled = dataclasses.replace(dataset, stake=dataset.stake * 2.0 ** k)

        def cap_rows(dataset):
            try:
                points = tradeoff_frontier(dataset, specs)
            except ValidationError as exc:
                return str(exc)
            return [(p.label, p.median_coalition_fraction, p.median_whale_penalty, p.n_subnets)
                    for p in sorted(points, key=lambda p: p.label) if p.kind == "cap"]

        assert repr(cap_rows(scaled)) == repr(cap_rows(dataset))

    @UNIT_SETTINGS
    @given(dataset=two_day_datasets(), spec=CAP_SPEC, k=st.integers(-20, 20))
    def test_robustness_under_a_cap(self, dataset, spec, k):
        scaled = dataclasses.replace(dataset, stake=dataset.stake * 2.0 ** k)
        assert repr(temporal_robustness(scaled, spec)) == repr(temporal_robustness(dataset, spec))
