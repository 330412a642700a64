"""Concentration and correlation metric oracles."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.ingest import _history_table, history_snapshots
from yumalab.metrics import (
    ROLE_FILTERS,
    _correlation_rows,
    concentration_report,
    correlation_profile,
    coalition_fraction,
    gini,
    hhi,
    pearson,
    top_share,
)
from yumalab.model import Role, SubnetSnapshot, ValidationError

from test_sweep import drawn_datasets

UTC = timezone.utc


def pairwise_gini(values) -> float:
    """Quadratic reference: mean absolute pairwise difference over 2*mean."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    diff_sum = float(np.abs(x[:, None] - x[None, :]).sum())
    return diff_sum / (2.0 * n * float(np.sum(x)))


def snapshot(rows):
    """rows: (wallet, role, stake, reward, perf), as built by `entry`."""
    wallets, roles, stakes, rewards, perfs = zip(*rows)
    return SubnetSnapshot(
        netuid=1,
        window_start=datetime(2024, 1, 1, tzinfo=UTC),
        window_end=datetime(2024, 1, 2, tzinfo=UTC),
        wallet=np.arange(len(wallets)),
        wallet_names=wallets,
        miner=[role is Role.MINER for role in roles],
        stake=stakes,
        reward=rewards,
        perf=perfs,
    )


class TestGini:
    def test_single_holder(self):
        assert gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75, abs=1e-12)

    def test_ladder(self):
        assert gini([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25, abs=1e-12)

    def test_equal(self):
        assert gini([2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError):
            gini([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            gini([1.0, -0.5])

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            x = rng.pareto(1.4, size=n) + 0.01
            assert gini(x) == pytest.approx(pairwise_gini(x), abs=1e-12)


class TestHHI:
    def test_known_value(self):
        assert hhi([0.5, 0.3, 0.2]) == pytest.approx(0.38, abs=1e-12)

    def test_normalizes_unscaled_input(self):
        # 5/3/2 should give the same index as the share vector itself.
        assert hhi([5.0, 3.0, 2.0]) == pytest.approx(0.38, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            x = rng.random(n) + 1e-6
            value = hhi(x)
            assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError):
            hhi([0.0])


class TestTopShare:
    def test_top_one_percent_rounds_up(self):
        # n=150 -> ceil(1.5) = 2 wallets
        values = np.ones(150)
        values[0] = 50.0
        values[1] = 25.0
        expected = 75.0 / (148.0 + 75.0)
        assert top_share(values) == pytest.approx(expected, rel=1e-12)

    def test_fraction_half(self):
        assert top_share([4.0, 3.0, 2.0, 1.0], fraction=0.5) == pytest.approx(0.7)

    def test_full_fraction_is_one(self):
        assert top_share([1.0, 5.0], fraction=1.0) == pytest.approx(1.0)


class TestCoalitionFraction:
    def test_single_whale(self):
        assert coalition_fraction([100.0, 1.0, 1.0, 1.0]) == pytest.approx(0.25)

    def test_equal_stakes(self):
        assert coalition_fraction(np.ones(100)) == pytest.approx(0.51)

    def test_exact_boundary_counts(self):
        assert coalition_fraction([1.0, 1.0], threshold=0.5) == pytest.approx(0.5)

    def test_exhaustive_small_cases(self):
        # check against a brute-force scan over prefix sizes of the sorted stakes
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            stakes = rng.pareto(1.2, size=n) + 0.01
            threshold = float(rng.uniform(0.1, 0.9))
            ordered = np.sort(stakes)[::-1]
            target = threshold * ordered.sum()
            m = next(i for i in range(1, n + 1) if ordered[:i].sum() >= target)
            assert coalition_fraction(stakes, threshold) == pytest.approx(m / n, rel=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError):
            coalition_fraction([0.0, 0.0])


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_is_none(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_short_input_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = rng.random(n)
            out = pearson(x, 3.0 * x)
            assert out is not None and -1.0 <= out <= 1.0

    def test_matches_corrcoef(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            x, y = rng.random(n), rng.random(n)
            assert pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-10)

    def test_sums_of_squares_whose_product_underflows(self):
        # 1e-200 * 1e-240 is 0.0 in float64.
        got = pearson([1e-100, 2e-100, 3.5e-100], [1e-120, 2e-120, 3e-120])
        assert got == pytest.approx(pearson([1.0, 2.0, 3.5], [1.0, 2.0, 3.0]), rel=1e-15)

    def test_sums_of_squares_whose_product_overflows(self):
        # 2e300 * 2e300 is inf in float64.
        x = [1e150, 2e150, 3e150]
        assert pearson(x, x) == pytest.approx(1.0, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(xy=st.integers(2, 12).flatmap(lambda n: st.tuples(
               arrays(np.float64, n, elements=st.floats(1.0, 2.0)),
               arrays(np.float64, n, elements=st.floats(1.0, 2.0)))),
           kx=st.integers(-450, 450), ky=st.integers(-450, 450))
    @example(xy=(np.array([1.0, 2.0, 3.5]), np.array([1.0, 2.0, 3.0])), kx=-332, ky=-399)
    @example(xy=(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])), kx=498, ky=498)
    def test_power_of_two_scaling(self, xy, kx, ky):
        """Scaling by a power of two scales the deviations and their dot
        product exactly; the coefficient moves by at most the rounding of
        the two square roots, where sxx * syy leaves the normal range."""
        x, y = xy
        base = pearson(x, y)
        scaled = pearson(x * 2.0 ** kx, y * 2.0 ** ky)
        if base is None:
            assert scaled is None
        else:
            assert scaled == pytest.approx(base, rel=1e-12)


def entry(wallet, role, stake, reward, perf):
    return (wallet, role, stake, reward, perf)


class TestCorrelationProfile:
    def test_role_restriction(self):
        snap = snapshot([
            entry("m1", Role.MINER, 1.0, 1.0, 0.1),
            entry("m2", Role.MINER, 2.0, 2.0, 0.2),
            entry("m3", Role.MINER, 3.0, 3.0, 0.3),
            entry("v1", Role.VALIDATOR, 100.0, 0.0, 0.0),
            entry("v2", Role.VALIDATOR, 200.0, 5.0, 1.0),
        ])
        profile = correlation_profile(snap, Role.MINER)
        assert profile.n_wallets == 3
        assert profile.r_sr == pytest.approx(1.0, abs=1e-12)
        assert profile.r_sp == pytest.approx(1.0, abs=1e-12)
        assert profile.r_pr == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_wallets(self):
        snap = snapshot([entry("m1", Role.MINER, 1.0, 1.0, 0.1)])
        with pytest.raises(ValidationError):
            correlation_profile(snap, Role.MINER)

    # A role given as its text is read with Role.parse, so a lone miner is
    # the same ValidationError, not an AttributeError from building the
    # message, and an unknown role is a ValidationError too.
    @pytest.mark.parametrize("role", [Role.MINER, "miner"], ids=["member", "text"])
    def test_requires_two_wallets_of_a_role_member_or_text(self, role):
        snap = snapshot([
            entry("m1", Role.MINER, 1.0, 1.0, 0.1),
            entry("v1", Role.VALIDATOR, 2.0, 1.0, 0.5),
            entry("v2", Role.VALIDATOR, 3.0, 2.0, 0.7),
        ])
        with pytest.raises(ValidationError) as excinfo:
            correlation_profile(snap, role)
        assert str(excinfo.value) == "need at least 2 wallets with role miner in netuid 1, got 1"
        with pytest.raises(ValidationError, match="^unknown role 'owner'$"):
            correlation_profile(snap, "owner")

    def test_degenerate_axis_is_none(self):
        snap = snapshot([
            entry("m1", Role.MINER, 5.0, 1.0, 0.5),
            entry("m2", Role.MINER, 5.0, 2.0, 0.5),
        ])
        profile = correlation_profile(snap, Role.MINER)
        assert profile.r_sr is None
        assert profile.r_pr is None


class TestConcentrationReport:
    def test_all_roles(self):
        snap = snapshot([
            entry("m1", Role.MINER, 1.0, 4.0, 0.0),
            entry("m2", Role.MINER, 1.0, 0.0, 0.0),
            entry("v1", Role.VALIDATOR, 2.0, 1.0, 0.0),
        ])
        report = concentration_report(snap)
        assert report.n_wallets == 3
        assert report.gini_stake == pytest.approx(gini([1.0, 1.0, 2.0]), abs=1e-15)
        assert report.hhi_reward == pytest.approx(hhi([4.0, 0.0, 1.0]), abs=1e-15)
        assert report.top1_stake_share == pytest.approx(0.5)

    def test_role_filters(self):
        snap = snapshot([
            entry("m1", Role.MINER, 1.0, 4.0, 0.0),
            entry("m2", Role.MINER, 3.0, 0.0, 0.0),
            entry("v1", Role.VALIDATOR, 2.0, 1.0, 0.0),
        ])
        miner_report = concentration_report(snap, "miner")
        assert miner_report.n_wallets == 2
        assert miner_report.gini_stake == pytest.approx(gini([1.0, 3.0]), abs=1e-15)

    def test_zero_mass_metrics_are_none(self):
        snap = snapshot([
            entry("m1", Role.MINER, 1.0, 0.0, 0.0),
            entry("m2", Role.MINER, 2.0, 0.0, 0.0),
        ])
        report = concentration_report(snap)
        assert report.gini_reward is None
        assert report.hhi_reward is None
        assert report.top1_reward_share is None
        assert report.gini_stake is not None

    def test_empty_filter_yields_all_none(self):
        snap = snapshot([entry("m1", Role.MINER, 1.0, 1.0, 0.0)])
        report = concentration_report(snap, "validator")
        assert report.n_wallets == 0
        assert report.gini_stake is None

    def test_unknown_filter_rejected(self):
        snap = snapshot([entry("m1", Role.MINER, 1.0, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            concentration_report(snap, "owner")


# Stakes far from overflow and from subnormals, so that scaling by a power
# of two is exact at every step of every metric; zeros of both signs and
# repeated values included. At least one stake is positive.
STAKES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0]), st.floats(1e-30, 1e30)), min_size=1, max_size=60,
).filter(lambda values: max(values) > 0.0)
SCALE_METRICS = {
    "gini": gini,
    "hhi": hhi,
    "top_share": top_share,
    "top_share_half": lambda x: top_share(x, 0.5),
    "coalition_fraction": coalition_fraction,
    "coalition_fraction_third": lambda x: coalition_fraction(x, 1.0 / 3.0),
}


class TestInvariance:
    """Concentration must not depend on the unit of stake or on the order
    of wallets. Powers of two scale exactly, so results must be equal, not
    close; a tolerance would hide a real defect."""

    @pytest.mark.parametrize("name", sorted(SCALE_METRICS))
    @settings(max_examples=150, deadline=None)
    @given(stakes=STAKES, exponent=st.integers(-60, 60))
    def test_scaling_by_a_power_of_two(self, name, stakes, exponent):
        metric = SCALE_METRICS[name]
        x = np.array(stakes)
        assert metric(np.ldexp(x, exponent)) == metric(x)

    @pytest.mark.parametrize("metric", [gini, coalition_fraction], ids=["gini", "coalition_fraction"])
    @settings(max_examples=150, deadline=None)
    @given(stakes=STAKES, data=st.data())
    def test_permuting_the_wallets(self, metric, stakes, data):
        permuted = data.draw(st.permutations(stakes))
        assert metric(np.array(permuted)) == metric(np.array(stakes))


# Report paths call private kernels on snapshot columns. Each must give,
# bit for bit, what the checked public functions give on the same columns;
# these compositions are the oracles. Columns hold ties, zeros of both
# signs and values over sixty orders of magnitude, or no mass at all.
VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0]), st.floats(0.0, 1e30))
PERF = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
ORACLE_SETTINGS = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def mass_columns(n):
    return st.one_of(arrays(np.float64, n, elements=VALUE),
                     arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])))


@st.composite
def drawn_snapshots(draw, max_wallets=300):
    """A snapshot of 1 to max_wallets wallets; either role may be empty."""
    n = draw(st.integers(1, max_wallets))
    return SubnetSnapshot(
        netuid=1,
        window_start=datetime(2024, 1, 1, tzinfo=UTC),
        window_end=datetime(2024, 1, 2, tzinfo=UTC),
        wallet=np.arange(n),
        wallet_names=tuple(f"w{i:03d}" for i in range(n)),
        miner=draw(arrays(np.bool_, n)),
        stake=draw(mass_columns(n)),
        reward=draw(mass_columns(n)),
        perf=draw(arrays(np.float64, n, elements=PERF)),
    )


def _guarded(metric, values):
    if values.shape[0] == 0 or float(np.sum(values)) <= 0.0:
        return None
    return metric(values)


def _miners_and_validators(stakes, rewards, perfs):
    """Three miners and three validators on the same columns."""
    return snapshot([
        entry(f"{prefix}{i}", role, stake, reward, perf)
        for prefix, role in (("m", Role.MINER), ("v", Role.VALIDATOR))
        for i, (stake, reward, perf) in enumerate(zip(stakes, rewards, perfs))
    ])


# Sums of squares whose product leaves the float range: below it for
# reward and perf, above it for stake and reward.
PRODUCT_UNDERFLOWS = _miners_and_validators(
    (1.0, 2.0, 3.0), (1e-100, 2e-100, 3.5e-100), (1e-120, 2e-120, 3e-120))
PRODUCT_OVERFLOWS = _miners_and_validators(
    (1e150, 2e150, 3e150), (1.5e150, 1.75e150, 3.25e150), (0.25, 0.5, 0.75))


class TestReportKernelsMatchPublicFunctions:
    @pytest.mark.parametrize("role_filter", ROLE_FILTERS)
    @ORACLE_SETTINGS
    @given(snap=drawn_snapshots())
    def test_concentration_report(self, role_filter, snap):
        role = None if role_filter == "all" else Role(role_filter)
        stakes, rewards = snap.stakes(role), snap.rewards(role)
        expected = (stakes.shape[0],) + tuple(
            _guarded(metric, values)
            for metric in (gini, hhi, top_share)
            for values in (stakes, rewards)
        )
        report = concentration_report(snap, role_filter)
        assert repr(tuple(getattr(report, name) for name in (
            "n_wallets", "gini_stake", "gini_reward", "hhi_stake", "hhi_reward",
            "top1_stake_share", "top1_reward_share",
        ))) == repr(expected)

    @pytest.mark.parametrize("role", [Role.MINER, Role.VALIDATOR])
    @ORACLE_SETTINGS
    @given(snap=drawn_snapshots())
    @example(snap=PRODUCT_UNDERFLOWS)
    @example(snap=PRODUCT_OVERFLOWS)
    def test_correlation_profile(self, role, snap):
        if snap.count(role) < 2:
            return
        stakes, rewards, perfs = snap.stakes(role), snap.rewards(role), snap.perfs(role)
        profile = correlation_profile(snap, role)
        expected = (pearson(stakes, rewards), pearson(stakes, perfs), pearson(perfs, rewards))
        assert repr((profile.r_sr, profile.r_sp, profile.r_pr)) == repr(expected)


    # The table path batches every segment of one role and length: subnets
    # of equal and unequal sizes, roles of 0, 1 and more wallets, constant
    # columns and subnets without stake mass.
    @ORACLE_SETTINGS
    @given(dataset=drawn_datasets(max_subnets=5, max_wallets=40))
    def test_correlation_rows(self, dataset):
        expected = [
            (snap.netuid, role, snap.count(role), pearson(snap.stakes(role), snap.rewards(role)),
             pearson(snap.stakes(role), snap.perfs(role)), pearson(snap.perfs(role), snap.rewards(role)))
            for snap in history_snapshots(dataset)
            for role in (Role.MINER, Role.VALIDATOR)
            if snap.count(role) >= 2
        ]
        netuids, _, offsets, _, miner, stake, reward, perf = _history_table(dataset)
        assert repr(list(_correlation_rows(netuids.tolist(), offsets, miner, stake, reward, perf))) == repr(expected)
