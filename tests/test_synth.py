"""Synthetic dataset generator: determinism, laws, and replay accounting."""

import io
import math
from datetime import timedelta
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yumalab import synth
from yumalab._util import parse_timestamp
from yumalab.ingest import Dataset, history_snapshots, resample, write_events
from yumalab.metrics import coalition_fraction, gini, pearson
from yumalab.model import Role, SnapshotEvent, ValidationError
from yumalab.synth import DAILY_EMISSION, SynthConfig, generate


def config(**overrides):
    base = dict(
        n_subnets=2,
        wallets_per_subnet=60,
        validator_fraction=0.2,
        stake_law="pareto:1.2",
        perf_law="beta:2,5",
        stake_perf_coupling=0.0,
        reward_rule="stake_proportional",
        seed=123,
        span_days=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


def serialize(dataset) -> bytes:
    buffer = io.BytesIO()
    write_events(dataset, buffer)
    return buffer.getvalue()


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        assert serialize(generate(config())) == serialize(generate(config()))

    def test_different_seed_differs(self):
        assert serialize(generate(config(seed=1))) != serialize(generate(config(seed=2)))

    def test_subnets_are_independent_streams(self):
        # Adding a subnet must not perturb the previous subnets' draws.
        two = generate(config(n_subnets=2))
        three = generate(config(n_subnets=3))
        events_two = [e for e in two.events if e.netuid < 2]
        events_three = [e for e in three.events if e.netuid < 2]
        assert events_two == events_three


class TestShape:
    def test_event_count(self):
        ds = generate(config())
        assert len(ds.events) == 2 * 60 * 5

    def test_role_split(self):
        ds = generate(config(wallets_per_subnet=50, validator_fraction=0.2))
        first_day = [e for e in ds.events if e.netuid == 0 and e.block_number == 0]
        validators = [e for e in first_day if e.role is Role.VALIDATOR]
        assert len(validators) == 10
        assert len(first_day) == 50

    def test_validator_count_bounds(self):
        # At least one validator, at least one miner.
        ds = generate(config(wallets_per_subnet=3, validator_fraction=0.01))
        roles = {e.role for e in ds.events}
        assert roles == {Role.MINER, Role.VALIDATOR}

    def test_daily_blocks_and_timestamps(self):
        ds = generate(config(span_days=3))
        days = sorted({e.block_number for e in ds.events})
        assert days == [0, 7200, 14400]
        stamps = sorted({e.timestamp for e in ds.events})
        assert (stamps[1] - stamps[0]).total_seconds() == 86400.0

    def test_scores_match_roles(self):
        for event in generate(config()).events:
            if event.role is Role.MINER:
                assert event.trust is not None and event.validator_trust is None
            else:
                assert event.validator_trust is not None and event.trust is None


class TestLaws:
    def test_pareto_is_heavy_tailed(self):
        ds = generate(config(stake_law="pareto:1.2", wallets_per_subnet=400, span_days=1))
        stakes = [e.stake for e in ds.events if e.netuid == 0]
        assert gini(stakes) > 0.55

    def test_uniform_is_flat(self):
        ds = generate(config(stake_law="uniform", wallets_per_subnet=400, span_days=1))
        stakes = [e.stake for e in ds.events if e.netuid == 0]
        assert gini(stakes) < 0.35

    def test_lognormal_parameters_respected(self):
        ds = generate(config(stake_law="lognormal:0,0.25", wallets_per_subnet=500, span_days=1))
        stakes = np.array([e.stake for e in ds.events if e.netuid == 0])
        assert abs(float(np.mean(np.log(stakes)))) < 0.1

    def test_beta_perf_stays_in_unit_interval(self):
        ds = generate(config(perf_law="beta:2,5"))
        perfs = [e.perf for e in ds.events]
        assert all(0.0 <= p <= 1.0 for p in perfs)
        assert 0.1 < float(np.mean(perfs)) < 0.5

    @pytest.mark.parametrize("rho,check", [
        (0.0, lambda r: abs(r) < 0.15),
        (0.9, lambda r: r > 0.6),
        (-0.9, lambda r: r < -0.6),
    ])
    def test_coupling_controls_rank_correlation(self, rho, check):
        ds = generate(config(stake_perf_coupling=rho, wallets_per_subnet=300, span_days=1))
        miners = [e for e in ds.events if e.netuid == 0 and e.role is Role.MINER]
        stakes = np.array([e.stake for e in miners])
        perfs = np.array([e.perf for e in miners])
        # rank correlation: compare rank vectors with our own pearson
        r = pearson(np.argsort(np.argsort(stakes)).astype(float),
                    np.argsort(np.argsort(perfs)).astype(float))
        assert check(r)


def one_day_subnet(**overrides):
    snap, = history_snapshots(generate(SynthConfig(n_subnets=1, span_days=1, **overrides)))
    return snap


def rank_correlation(x, y) -> float:
    return pearson(np.argsort(np.argsort(x)).astype(float), np.argsort(np.argsort(y)).astype(float))


_NORMAL = NormalDist()

# Closed forms of the Gini and the 51% coalition fraction of each stake law:
# uniform on [0.5, 1.5]; lognormal with sigma 1 (Gini erf(sigma/2), fraction
# 1 - Phi(Phi^-1(0.49) + sigma)); Pareto I with x_m 1 and shape a (Gini
# 1/(2a - 1), fraction 0.51^(a/(a - 1))). The tolerance of each is four
# standard deviations of (measured - closed form) over seeds 0-29 of a
# 20,000-wallet subnet. No law misses its closed forms: the mean deviation
# over those seeds lies within 2.4 standard errors of zero, and the two
# largest, the lognormal's, lie within 1.3 over seeds 30-129.
KNOWN_ANSWERS = {
    # law: (gini, its tolerance, coalition fraction, its tolerance)
    "uniform": (1 / 6, 0.0025, 1.5 - math.sqrt(1.23), 0.002),
    "lognormal:0,1": (math.erf(0.5), 0.0101, 1 - _NORMAL.cdf(_NORMAL.inv_cdf(0.49) + 1), 0.0069),
    "pareto:3": (1 / 5, 0.0103, 0.51 ** 1.5, 0.0075),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("law", sorted(KNOWN_ANSWERS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_stake_law_meets_its_closed_forms(self, law, seed):
        expected_gini, gini_tol, expected_fraction, fraction_tol = KNOWN_ANSWERS[law]
        snap = one_day_subnet(wallets_per_subnet=20_000, stake_law=law, seed=seed)
        assert gini(snap.stake) == pytest.approx(expected_gini, abs=gini_tol)
        assert coalition_fraction(snap.stake) == pytest.approx(expected_fraction, abs=fraction_tol)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_correlation_follows_the_coupling(self, seed):
        # Over seeds 0-29 of 2,000 wallets, coupling 0 read |r| <= 0.041
        # (sd 0.023) and coupling +-0.2 read |r| >= 0.17 (sd 0.02).
        couplings = (-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0)
        correlations = []
        for rho in couplings:
            snap = one_day_subnet(wallets_per_subnet=2_000, stake_perf_coupling=rho, seed=seed)
            correlations.append(rank_correlation(snap.stakes(Role.MINER), snap.perfs(Role.MINER)))
        assert correlations == sorted(correlations) and len(set(correlations)) == len(couplings)
        for rho, r in zip(couplings, correlations):
            if rho == 0.0:
                assert abs(r) < 0.09
            else:
                assert math.copysign(1.0, r) == math.copysign(1.0, rho)
        assert correlations[0] == pytest.approx(-1.0, abs=1e-12)
        assert correlations[-1] == pytest.approx(1.0, abs=1e-12)


class TestRewardRules:
    def test_stake_proportional_is_exactly_proportional(self):
        ds = generate(config(span_days=1))
        for netuid in (0, 1):
            events = [e for e in ds.events if e.netuid == netuid]
            stakes = np.array([e.stake for e in events])
            rewards = np.array([e.reward for e in events])
            expected = DAILY_EMISSION * stakes / stakes.sum()
            np.testing.assert_allclose(rewards, expected, rtol=1e-12)

    def test_yuma_replay_pays_miner_and_validator_pools(self):
        ds = generate(config(reward_rule="yuma_replay", wallets_per_subnet=30, span_days=4))
        for netuid in (0, 1):
            for block in (0, 7200, 14400, 21600):
                day_rewards = [
                    e.reward for e in ds.events if e.netuid == netuid and e.block_number == block
                ]
                # wallets receive the miner and validator pools; the owner
                # slice of the daily emission goes to no tracked wallet
                assert math.fsum(day_rewards) == pytest.approx(0.82 * DAILY_EMISSION, rel=1e-9)

    def test_replay_datasets_resample_cleanly(self):
        ds = generate(config(reward_rule="yuma_replay", span_days=3))
        snaps = resample(ds, "daily")
        assert len(snaps) == 2 * 3


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(stake_law="zipf:1.0"),
        dict(stake_law="pareto:"),
        dict(stake_law="lognormal:1"),
        dict(perf_law="beta:2"),
        dict(perf_law="gauss:0,1"),
        dict(stake_perf_coupling=1.5),
        dict(reward_rule="equal"),
        dict(n_subnets=0),
        dict(wallets_per_subnet=1),
        dict(validator_fraction=1.5),
        dict(span_days=0),
        dict(seed=-1),
        dict(start="not-a-date"),
        dict(start="9999-12-30T00:00:00Z", span_days=3),
        # Each number field takes its own kind only.
        dict(n_subnets=2.7),
        dict(n_subnets="2"),
        dict(wallets_per_subnet=2.5),
        dict(validator_fraction="0.2"),
        dict(stake_perf_coupling=True),
        dict(seed=1.5),
        dict(span_days=2.5),
        # Each text field takes a str only.
        dict(stake_law=1.2),
        dict(perf_law=None),
        dict(start=5),
        dict(start=b"2024-01-01T00:00:00Z"),
    ])
    def test_rejected_configs(self, kwargs):
        with pytest.raises(ValidationError):
            config(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("stake_law", 1.2), ("perf_law", None), ("start", 5), ("start", b"2024-01-01T00:00:00Z"),
    ])
    def test_text_field_of_another_kind_is_named(self, field, value):
        with pytest.raises(ValidationError) as excinfo:
            config(**{field: value})
        assert str(excinfo.value) == f"{field} must be a non-empty string, got {value!r}"


def oracle_generate(cfg):
    """The generator row by row: one validated SnapshotEvent per wallet per
    day, then Dataset.from_events."""
    stake_sampler = synth._stake_sampler(cfg.stake_law)
    perf_sampler = synth._perf_sampler(cfg.perf_law)
    start = parse_timestamp(cfg.start)
    events = []
    for netuid in range(cfg.n_subnets):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, netuid]))
        n = cfg.wallets_per_subnet
        n_validators = min(max(1, round(cfg.validator_fraction * n)), n - 1)
        n_miners = n - n_validators
        validator_stakes = stake_sampler(rng, n_validators)
        miner_stakes = stake_sampler(rng, n_miners)
        validator_perf = synth._couple_to_stake(
            perf_sampler(rng, n_validators), validator_stakes, cfg.stake_perf_coupling, rng
        )
        miner_perf = synth._couple_to_stake(
            perf_sampler(rng, n_miners), miner_stakes, cfg.stake_perf_coupling, rng
        )
        if cfg.reward_rule == "stake_proportional":
            total_stake = float(np.sum(validator_stakes) + np.sum(miner_stakes))
            validator_days = np.tile(DAILY_EMISSION * validator_stakes / total_stake, (cfg.span_days, 1))
            miner_days = np.tile(DAILY_EMISSION * miner_stakes / total_stake, (cfg.span_days, 1))
        else:
            validator_days, miner_days = synth._replay_rewards(
                validator_stakes, validator_perf, miner_perf, rng, cfg.span_days
            )
        for day in range(cfg.span_days):
            timestamp = start + timedelta(days=day)
            block = day * synth.BLOCKS_PER_DAY
            for i in range(n_validators):
                events.append(SnapshotEvent(
                    timestamp=timestamp, block_number=block, netuid=netuid,
                    wallet=f"sn{netuid:03d}-v{i:04d}", role=Role.VALIDATOR,
                    stake=float(validator_stakes[i]), reward=float(validator_days[day, i]),
                    validator_trust=float(validator_perf[i]),
                ))
            for j in range(n_miners):
                events.append(SnapshotEvent(
                    timestamp=timestamp, block_number=block, netuid=netuid,
                    wallet=f"sn{netuid:03d}-m{j:04d}", role=Role.MINER,
                    stake=float(miner_stakes[j]), reward=float(miner_days[day, j]),
                    trust=float(miner_perf[j]),
                ))
    return Dataset.from_events(events)


SYNTH_CONFIGS = st.builds(
    SynthConfig,
    n_subnets=st.integers(1, 3),
    wallets_per_subnet=st.integers(2, 9),
    validator_fraction=st.sampled_from([1e-9, 0.01, 0.2, 0.5, 0.99, 1 - 1e-9])
    | st.floats(min_value=0.01, max_value=0.99),
    stake_law=st.sampled_from(["pareto:1.2", "pareto:3", "lognormal:0,1", "lognormal:2,0", "uniform"]),
    perf_law=st.sampled_from(["beta:2,5", "beta:0.5,0.5", "uniform"]),
    stake_perf_coupling=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(min_value=-1.0, max_value=1.0),
    reward_rule=st.sampled_from(synth.REWARD_RULES),
    seed=st.integers(0, 2**64 - 1),
    span_days=st.integers(1, 4),
    start=st.sampled_from([
        "2024-01-01T00:00:00Z", "2023-06-30T23:59:59.123456+05:30", "1969-12-31T18:00:00.000001-08:00",
        "2024-02-28T12:00:00",
    ]),
)


class TestColumnsAgainstPerEventOracle:
    @settings(max_examples=80, deadline=None)
    @given(cfg=SYNTH_CONFIGS)
    def test_columns_match_the_oracle(self, cfg):
        got, expected = generate(cfg), oracle_generate(cfg)
        assert got.wallet_names == expected.wallet_names
        for name in ("timestamp", "block_number", "netuid", "wallet", "miner", "stake", "reward",
                     "trust", "validator_trust"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert len(vars(got)) == 10  # the nine columns and the names: every field is compared

    def test_wallet_codes_follow_name_order_past_four_digits(self):
        # v10000 sorts before v2, so name order is not generation order.
        cfg = SynthConfig(n_subnets=2, wallets_per_subnet=10_002, validator_fraction=0.5, span_days=1)
        got = generate(cfg)
        assert list(got.wallet_names) == sorted(got.wallet_names)
        assert got.wallet.tobytes() == oracle_generate(cfg).wallet.tobytes()
