"""Emission pipeline oracles and invariants.

The canonical 2x2 instance used throughout: validators v1 (stake 3) and
v2 (stake 1) weighting miners m1/m2 as [[0.5, 0.5], [0.9, 0.1]], kappa
0.5, alpha 0.1, beta 0.5, block emission 100. All frozen numbers below
were derived by hand as exact fractions.
"""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.consensus import (
    BondState,
    Delegation,
    consensus_clip,
    delegator_rewards,
    miner_emission_shares,
    run_tempo,
    run_tempos,
    split_block_emission,
    validator_bonds,
    validator_emission_shares,
)
from yumalab import model
from yumalab.model import EmissionOutcome, EmissionParams, ValidationError, WeightMatrix

PARAMS = EmissionParams(alpha=0.1, beta=0.5, kappa=0.5)


def canonical_wm() -> WeightMatrix:
    return WeightMatrix(
        validators=(("v1", 3.0), ("v2", 1.0)),
        miners=("m1", "m2"),
        weights=np.array([[0.5, 0.5], [0.9, 0.1]]),
    )


def random_wm(rng, max_side=10, allow_zero_stake=False) -> WeightMatrix:
    n_val = int(rng.integers(1, max_side + 1))
    n_min = int(rng.integers(1, max_side + 1))
    stakes = rng.uniform(0.1, 10.0, size=n_val)
    if allow_zero_stake and n_val > 1 and rng.random() < 0.3:
        stakes[int(rng.integers(0, n_val))] = 0.0
    weights = np.clip(rng.random((n_val, n_min)) + 0.05, 0.0, 1.0)
    return WeightMatrix(
        validators=tuple((f"v{i}", float(s)) for i, s in enumerate(stakes)),
        miners=tuple(f"m{j}" for j in range(n_min)),
        weights=weights,
    )


class TestSplit:
    def test_pools_are_exact(self):
        owner, miner, validator = split_block_emission(100.0)
        assert owner == 0.18 * 100.0
        assert miner == 0.41 * 100.0
        assert validator == 0.41 * 100.0

    def test_zero_emission(self):
        assert split_block_emission(0.0) == (0.0, 0.0, 0.0)

    def test_negative_emission_rejected(self):
        with pytest.raises(ValidationError):
            split_block_emission(-1.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_non_finite_emission_rejected(self, total):
        with pytest.raises(ValidationError, match="block emission must be >= 0"):
            split_block_emission(total)

    @pytest.mark.parametrize("total", [1.0, 0.5, 7.25, 1e9])
    def test_pools_use_the_fixed_shares(self, total):
        assert split_block_emission(total) == (
            model.OWNER_SHARE * total, model.MINER_SHARE * total, model.VALIDATOR_SHARE * total,
        )


class TestConsensusClip:
    def test_canonical_benchmarks(self):
        benchmarks, clipped = consensus_clip(canonical_wm(), kappa=0.5)
        np.testing.assert_allclose(benchmarks, [0.5, 0.5], atol=0)
        np.testing.assert_allclose(clipped, [[0.5, 0.5], [0.5, 0.1]], atol=0)

    def test_clipped_never_exceeds_original(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            wm = random_wm(rng)
            _, clipped = consensus_clip(wm)
            assert np.all(clipped <= wm.weights + 1e-15)

    def test_benchmark_is_an_observed_weight(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            wm = random_wm(rng)
            benchmarks, _ = consensus_clip(wm)
            for j, bench in enumerate(benchmarks):
                assert bench in wm.weights[:, j]

    def test_zero_total_stake_rejected(self):
        wm = WeightMatrix(
            validators=(("v1", 0.0),), miners=("m1",), weights=np.array([[0.5]])
        )
        with pytest.raises(ValidationError):
            consensus_clip(wm)

    @pytest.mark.parametrize("kappa", [0.0, -0.5, 1.5])
    def test_kappa_range(self, kappa):
        with pytest.raises(ValidationError):
            consensus_clip(canonical_wm(), kappa=kappa)


class TestMinerShares:
    def test_canonical_shares(self):
        _, clipped = consensus_clip(canonical_wm())
        shares, flag = miner_emission_shares(clipped, canonical_wm().stakes)
        # R = [3*0.5 + 1*0.5, 3*0.5 + 1*0.1] = [2.0, 1.6]
        np.testing.assert_allclose(shares, [5.0 / 9.0, 4.0 / 9.0], rtol=1e-15)
        assert not flag

    def test_all_zero_weights_flagged(self):
        shares, flag = miner_emission_shares(np.zeros((2, 3)), np.array([1.0, 2.0]))
        assert flag
        np.testing.assert_array_equal(shares, np.zeros(3))

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            wm = random_wm(rng)
            _, clipped = consensus_clip(wm)
            shares, flag = miner_emission_shares(clipped, wm.stakes)
            if not flag:
                assert math.fsum(shares) == pytest.approx(1.0, rel=1e-12)


class TestValidatorBonds:
    def test_canonical_first_step(self):
        wm = canonical_wm()
        _, clipped = consensus_clip(wm)
        state = validator_bonds(wm, clipped, beta=0.5, alpha=0.1, prev=BondState.initial(2, 2))
        # bond weights [[0.5, 0.5], [0.7, 0.1]]; bonded stake [[1.5, 1.5], [0.7, 0.1]]
        # column masses [2.2, 1.6]; EMA from zero scales by alpha=0.1
        expected = 0.1 * np.array([[1.5 / 2.2, 1.5 / 1.6], [0.7 / 2.2, 0.1 / 1.6]])
        np.testing.assert_allclose(state.bonds, expected, rtol=1e-15)
        assert state.tempo_index == 1

    def test_instant_bond_columns_normalize(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            wm = random_wm(rng)
            _, clipped = consensus_clip(wm)
            state = validator_bonds(wm, clipped, beta=0.3, alpha=1.0, prev=BondState.initial(wm.n_validators, wm.n_miners))
            sums = state.bonds.sum(axis=0)
            bonded = wm.stakes[:, None] * ((1 - 0.3) * wm.weights + 0.3 * clipped)
            has_mass = bonded.sum(axis=0) > 0
            np.testing.assert_allclose(sums[has_mass], 1.0, rtol=1e-12)
            np.testing.assert_array_equal(sums[~has_mass], 0.0)

    def test_ema_fixed_point(self):
        # When the instant bonds equal the previous state the EMA is a no-op.
        wm = canonical_wm()
        _, clipped = consensus_clip(wm)
        instant = validator_bonds(wm, clipped, 0.5, 1.0, BondState.initial(2, 2))
        again = validator_bonds(wm, clipped, 0.5, 0.37, instant)
        np.testing.assert_allclose(again.bonds, instant.bonds, rtol=1e-15)

    def test_geometric_convergence(self):
        # Constant weights: B_t = (1 - (1-alpha)^t) * instant.
        wm = canonical_wm()
        _, clipped = consensus_clip(wm)
        alpha = 0.1
        instant = validator_bonds(wm, clipped, 0.5, 1.0, BondState.initial(2, 2)).bonds
        state = BondState.initial(2, 2)
        for t in range(1, 12):
            state = validator_bonds(wm, clipped, 0.5, alpha, state)
            factor = 1.0 - (1.0 - alpha) ** t
            np.testing.assert_allclose(state.bonds, factor * instant, rtol=1e-12)
        assert state.tempo_index == 11

    def test_shape_mismatch_rejected(self):
        wm = canonical_wm()
        _, clipped = consensus_clip(wm)
        with pytest.raises(ValidationError):
            validator_bonds(wm, clipped, 0.5, 0.1, BondState.initial(3, 2))


class TestDelegatorRewards:
    def test_commission_and_prorata(self):
        payouts = delegator_rewards(
            [Delegation("v1", "d1", 1.0, 0.18)], validator_reward=32.0, validator_total_stake=4.0
        )
        assert payouts["d1"] == pytest.approx(0.82 * 0.25 * 32.0, rel=1e-15)

    def test_full_take_pays_nothing(self):
        payouts = delegator_rewards([Delegation("v1", "d1", 2.0, 1.0)], 10.0, 4.0)
        assert payouts["d1"] == 0.0

    def test_multiple_delegations_accumulate(self):
        payouts = delegator_rewards(
            [Delegation("v1", "d1", 1.0, 0.0), Delegation("v1", "d1", 1.0, 0.0)],
            10.0,
            4.0,
        )
        assert payouts["d1"] == pytest.approx(5.0, rel=1e-15)

    def test_overdelegation_rejected(self):
        with pytest.raises(ValidationError):
            delegator_rewards([Delegation("v1", "d1", 5.0, 0.0)], 10.0, 4.0)

    def test_payout_never_exceeds_reward(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            stake = float(rng.uniform(1.0, 50.0))
            k = int(rng.integers(1, 6))
            amounts = rng.uniform(0.0, stake / k, size=k)
            delegations = [
                Delegation("v", f"d{i}", float(a), float(rng.random())) for i, a in enumerate(amounts)
            ]
            reward = float(rng.uniform(0.0, 100.0))
            payouts = delegator_rewards(delegations, reward, stake)
            assert math.fsum(payouts.values()) <= reward * (1 + 1e-12)


class TestRunTempo:
    def test_canonical_outcome(self):
        out = run_tempo(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0,
                        delegations=(Delegation("v1", "d1", 1.0, 0.18),))
        assert out.owner_amount == pytest.approx(18.0, abs=0)
        assert out.miner_shares["m1"] == pytest.approx(5.0 / 9.0, rel=1e-12)
        assert out.miner_shares["m2"] == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert out.miner_tao["m1"] == pytest.approx(41.0 * 5.0 / 9.0, rel=1e-12)
        # validator shares normalize to 35/44 and 9/44 (worked out by hand)
        assert out.validator_tao["v1"] == pytest.approx(41.0 * 35.0 / 44.0, rel=1e-12)
        assert out.validator_tao["v2"] == pytest.approx(41.0 * 9.0 / 44.0, rel=1e-12)
        assert out.delegator_rewards["d1"] == pytest.approx(
            0.82 * (1.0 / 3.0) * 41.0 * 35.0 / 44.0, rel=1e-12
        )
        assert out.tempo_index == 1
        assert not out.no_ranking_mass

    def test_conservation_across_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            wm = random_wm(rng, allow_zero_stake=True)
            emission = float(rng.uniform(0.1, 1000.0))
            out = run_tempo(wm, BondState.initial(wm.n_validators, wm.n_miners), PARAMS, emission)
            if out.no_ranking_mass:
                continue
            total = out.owner_amount + math.fsum(out.miner_tao.values()) + math.fsum(
                out.validator_tao.values()
            )
            assert total == pytest.approx(emission, rel=1e-9)

    def test_zero_weights_flag_everything(self):
        wm = WeightMatrix(
            validators=(("v1", 2.0),), miners=("m1", "m2"), weights=np.zeros((1, 2))
        )
        out = run_tempo(wm, BondState.initial(1, 2), PARAMS, 100.0)
        assert out.no_ranking_mass
        assert all(v == 0.0 for v in out.miner_shares.values())
        assert all(v == 0.0 for v in out.miner_tao.values())
        assert all(v == 0.0 for v in out.validator_tao.values())
        assert out.owner_amount == pytest.approx(18.0)

    def test_unknown_delegation_target_rejected(self):
        with pytest.raises(ValidationError):
            run_tempo(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0,
                      delegations=(Delegation("nobody", "d1", 0.5, 0.0),))

    def test_bonds_feed_forward(self):
        wm = canonical_wm()
        state = BondState.initial(2, 2)
        seen = []
        for _ in range(3):
            out = run_tempo(wm, state, PARAMS, 100.0)
            seen.append(out.validator_tao["v1"])
            state = BondState(bonds=out.bonds, tempo_index=out.tempo_index)
        assert state.tempo_index == 3
        # constant weights: normalized validator split is stable across tempos
        assert seen[0] == pytest.approx(seen[1], rel=1e-12)
        assert seen[1] == pytest.approx(seen[2], rel=1e-12)


def oracle_tempo(wm, prev, params, block_emission, delegations=()) -> EmissionOutcome:
    """One tempo composed from the public steps, every part recomputed from
    the weights: the reference for the chained pipeline."""
    owner, miner_pool, validator_pool = split_block_emission(block_emission)
    _, clipped = consensus_clip(wm, params.kappa)
    miner_share_vec, no_ranking_mass = miner_emission_shares(clipped, wm.stakes)
    bond_state = validator_bonds(wm, clipped, params.beta, params.alpha, prev)
    validator_share_vec = validator_emission_shares(bond_state, miner_share_vec)
    miner_tao = miner_pool * miner_share_vec
    share_total = float(np.sum(validator_share_vec))
    if share_total > 0.0:
        validator_tao = validator_pool * (validator_share_vec / share_total)
    else:
        validator_tao = np.zeros_like(validator_share_vec)
    stake_by_id = dict(wm.validators)
    tao_by_id = dict(zip(wm.validator_ids, validator_tao))
    grouped = {}
    for delegation in delegations:
        if delegation.validator_id not in stake_by_id:
            raise ValidationError(f"unknown validator {delegation.validator_id!r} in delegation")
        grouped.setdefault(delegation.validator_id, []).append(delegation)
    delegator_payouts = {}
    for validator_id in wm.validator_ids:
        group = grouped.get(validator_id)
        if not group:
            continue
        payouts = delegator_rewards(group, tao_by_id[validator_id], stake_by_id[validator_id])
        for delegator_id, payout in payouts.items():
            delegator_payouts[delegator_id] = delegator_payouts.get(delegator_id, 0.0) + payout
    return EmissionOutcome(
        block_emission=float(block_emission),
        owner_amount=owner,
        miners=wm.miners,
        validators=tuple(tao_by_id),
        delegators=tuple(delegator_payouts),
        miner_share_vec=miner_share_vec,
        validator_share_vec=validator_share_vec,
        miner_tao_vec=miner_tao,
        validator_tao_vec=list(tao_by_id.values()),
        delegator_reward_vec=list(delegator_payouts.values()),
        bond_state=bond_state,
        no_ranking_mass=no_ranking_mass,
    )


MAPPINGS = ("miner_shares", "validator_shares", "miner_tao", "validator_tao", "delegator_rewards")
UNIT_VALUES = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0]),
                        st.floats(0.0, 1.0))


@st.composite
def chain_instances(draw, delegate=True):
    """(wm, prev, params, emission, delegations) with weight ties,
    zero-stake validators, optional all-zero miner columns and delegators
    that appear under several validators. Delegations to a zero-stake or
    unknown validator, or beyond a validator's stake, make both pipelines
    raise."""
    n_val = draw(st.integers(1, 6))
    n_min = draw(st.integers(1, 8))
    weights = draw(arrays(np.float64, (n_val, n_min), elements=UNIT_VALUES))
    if draw(st.booleans()):
        weights[:, draw(st.integers(0, n_min - 1))] = 0.0
    stakes = draw(arrays(np.float64, n_val, elements=st.one_of(
        st.just(0.0), st.integers(1, 5).map(float), st.floats(0.01, 100.0))))
    if not stakes.any():
        stakes[draw(st.integers(0, n_val - 1))] = draw(st.floats(0.01, 100.0))
    wm = WeightMatrix(
        validators=tuple((f"v{i}", float(x)) for i, x in enumerate(stakes)),
        miners=tuple(f"m{j}" for j in range(n_min)),
        weights=weights,
    )
    params = EmissionParams(
        alpha=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
        beta=draw(UNIT_VALUES),
        kappa=draw(st.one_of(st.just(0.5), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
    )
    if draw(st.booleans()):
        prev = BondState(bonds=draw(arrays(np.float64, (n_val, n_min), elements=UNIT_VALUES)),
                         tempo_index=draw(st.integers(0, 1000)))
    else:
        prev = BondState.initial(n_val, n_min)
    delegations = []
    for _ in range(draw(st.integers(0, 6)) if delegate else 0):
        # About one delegation in ten names a validator the matrix lacks.
        v = n_val if draw(st.integers(0, 9)) == 9 else draw(st.integers(0, n_val - 1))
        delegations.append(Delegation(
            validator_id=f"v{v}",
            delegator_id=draw(st.sampled_from(["d0", "d1", "d2"])),
            amount=float(stakes[v] if v < n_val else 1.0) * draw(st.floats(0.0, 0.5)),
            take=draw(UNIT_VALUES),
        ))
    emission = draw(st.floats(0.1, 1e6))
    return wm, prev, params, emission, tuple(delegations)


class TestRunTempos:
    @settings(max_examples=200, deadline=None)
    @given(chain_instances(), st.integers(1, 6))
    def test_chain_matches_per_tempo_oracle(self, instance, k):
        wm, prev, params, emission, delegations = instance
        want, want_error = [], None
        state = prev
        try:
            for _ in range(k):
                out = oracle_tempo(wm, state, params, emission, delegations)
                want.append(out)
                state = BondState(bonds=out.bonds, tempo_index=out.tempo_index)
        except ValidationError as exc:
            want_error = str(exc)
        got, got_error = [], None
        try:
            chain = run_tempos(wm, prev, params, emission, delegations)
            for _, out in zip(range(k), chain):
                got.append(out)
        except ValidationError as exc:
            got_error = str(exc)
        assert got_error == want_error
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.bonds.tobytes() == w.bonds.tobytes()
            assert (g.tempo_index, g.no_ranking_mass) == (w.tempo_index, w.no_ranking_mass)
            assert repr((g.block_emission, g.owner_amount)) == repr((w.block_emission, w.owner_amount))
            for name in MAPPINGS:
                assert repr(list(getattr(g, name).items())) == repr(list(getattr(w, name).items()))

    def test_run_tempo_is_the_first_chained_tempo(self):
        delegations = (Delegation("v2", "d1", 0.5, 0.1), Delegation("v1", "d1", 1.0, 0.18))
        one = run_tempo(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0, delegations)
        first = next(run_tempos(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0, delegations))
        assert one.bonds.tobytes() == first.bonds.tobytes()
        for name in MAPPINGS:
            assert list(getattr(one, name).items()) == list(getattr(first, name).items())

    def test_delegator_payouts_sum_per_validator_then_merge(self):
        # One delegator, two delegations to v1 listed apart and one to v2.
        delegations = (Delegation("v1", "d1", 0.1, 0.1), Delegation("v2", "d1", 0.2, 0.1),
                       Delegation("v1", "d1", 0.3, 0.1))
        out = run_tempo(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0, delegations)
        stake = dict(canonical_wm().validators)
        p1, p2, p3 = ((1.0 - d.take) * (d.amount / stake[d.validator_id]) * out.validator_tao[d.validator_id]
                      for d in delegations)
        per_validator_then_merge = (p1 + p3) + p2
        running_sum = (p1 + p2) + p3
        assert per_validator_then_merge != running_sum
        assert repr(list(out.delegator_rewards.items())) == repr([("d1", per_validator_then_merge)])

    @settings(max_examples=60, deadline=None)
    @given(chain_instances(delegate=False))
    def test_chain_conserves_emission_when_rankings_have_mass(self, instance):
        wm, prev, params, emission, _ = instance
        for _, out in zip(range(25), run_tempos(wm, prev, params, emission)):
            if out.no_ranking_mass:
                continue
            total = out.owner_amount + math.fsum(out.miner_tao.values()) + math.fsum(
                out.validator_tao.values())
            assert total == pytest.approx(emission, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(chain_instances(delegate=False))
    def test_bonds_stay_in_unit_interval_over_long_chains(self, instance):
        wm, prev, params, emission, _ = instance
        chain = run_tempos(wm, prev, params, emission)
        count = 0
        for _, out in zip(range(250), chain):
            assert np.all(out.bonds >= 0.0) and np.all(out.bonds <= 1.0)
            count += 1
        assert count == 250 and out.tempo_index == prev.tempo_index + 250


OUTCOME_ARRAYS = ("miner_share_vec", "validator_share_vec", "miner_tao_vec", "validator_tao_vec",
                  "delegator_reward_vec", "bonds")
ZERO_WEIGHTS = WeightMatrix(validators=(("v1", 3.0), ("v2", 1.0)), miners=("m1", "m2"),
                            weights=np.zeros((2, 2)))
DELEGATIONS = (Delegation("v2", "d1", 0.5, 0.1), Delegation("v1", "d1", 1.0, 0.18),
               Delegation("v1", "d2", 0.5, 0.0))


class TestRunTempoCount:
    """`run_tempo(..., tempos=k)` is the k-th outcome of `run_tempos`, bit
    for bit, and builds no other outcome."""

    @settings(max_examples=200, deadline=None)
    @given(chain_instances(), st.integers(1, 8))
    @example((canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0, DELEGATIONS), 5)
    @example((ZERO_WEIGHTS, BondState.initial(2, 2), PARAMS, 100.0, DELEGATIONS), 3)
    def test_matches_the_chain(self, instance, k):
        args = instance
        try:
            want = next(islice(run_tempos(*args), k - 1, None))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                run_tempo(*args, tempos=k)
            assert str(caught.value) == str(exc)
            return
        got = run_tempo(*args, tempos=k)
        for name in OUTCOME_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.miners, got.validators, got.delegators) == (want.miners, want.validators, want.delegators)
        assert (got.tempo_index, got.no_ranking_mass) == (want.tempo_index, want.no_ranking_mass)
        assert got.tempo_index == args[1].tempo_index + k
        assert repr((got.block_emission, got.owner_amount)) == repr((want.block_emission, want.owner_amount))
        for name in MAPPINGS:
            assert repr(list(getattr(got, name).items())) == repr(list(getattr(want, name).items()))

    def test_examples_reach_each_branch(self):
        zero = run_tempo(ZERO_WEIGHTS, BondState.initial(2, 2), PARAMS, 100.0, DELEGATIONS, tempos=3)
        assert zero.no_ranking_mass and zero.delegators == ("d1", "d2")

    def test_builds_only_the_returned_outcome(self, monkeypatch):
        built = []
        for cls in (model.BondState, model.EmissionOutcome):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: (built.append(type(self)), check(self))[1])
        prev = BondState(bonds=np.full((2, 2), 0.5), tempo_index=4)
        built.clear()
        out = run_tempo(canonical_wm(), prev, PARAMS, 100.0, DELEGATIONS, tempos=50)
        assert built == [model.BondState, model.EmissionOutcome]
        assert out.tempo_index == 54

    @pytest.mark.parametrize("tempos", [0, -3, 2.0, 1.5, True, "2", None, np.int64(2)])
    def test_tempos_must_be_a_positive_int(self, tempos):
        with pytest.raises(ValidationError, match="tempos must be"):
            run_tempo(canonical_wm(), BondState.initial(2, 2), PARAMS, 100.0, tempos=tempos)


class TestDelegatorRewardsOrder:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["d0", "d1", "d2", "d3"]), st.floats(0.0, 1.0),
                              UNIT_VALUES), max_size=8),
           st.floats(0.0, 1e6))
    def test_matches_per_delegation_loop(self, rows, reward):
        stake = 1.0 + math.fsum(amount for _, amount, _ in rows)
        delegations = [Delegation("v", d, amount, take) for d, amount, take in rows]
        expected = {}
        for delegation in delegations:
            payout = (1.0 - delegation.take) * (delegation.amount / stake) * reward
            expected[delegation.delegator_id] = expected.get(delegation.delegator_id, 0.0) + payout
        got = delegator_rewards(delegations, reward, stake)
        assert repr(list(got.items())) == repr(list(expected.items()))


def _weight_matrix(stake=1.0, validator="v1", miner="m1", weights=((0.5, 0.5), (0.5, 0.5))):
    return WeightMatrix(validators=((validator, stake), ("v2", 1.0)), miners=(miner, "m2"), weights=weights)


# Every field of the consensus value types: (kind, build, read, bounds).
# `build` puts a value into that one field of an otherwise valid instance,
# `read` takes the field back out, and `bounds` is the range of numbers the
# field accepts.
KIND_FIELDS = {
    "WeightMatrix.validator_id": ("id", lambda v: _weight_matrix(validator=v), None, None),
    "WeightMatrix.stake": ("number", lambda v: _weight_matrix(stake=v), lambda o: o.stakes[0], (0, 10**6)),
    "WeightMatrix.miner": ("id", lambda v: _weight_matrix(miner=v), None, None),
    "WeightMatrix.weights": ("matrix", lambda v: _weight_matrix(weights=v), lambda o: o.weights, (0, 1)),
    "EmissionParams.alpha": ("number", lambda v: EmissionParams(alpha=v, beta=0.5), lambda o: o.alpha, (0, 1)),
    "EmissionParams.beta": ("number", lambda v: EmissionParams(alpha=0.1, beta=v), lambda o: o.beta, (0, 1)),
    "EmissionParams.kappa": ("number", lambda v: EmissionParams(alpha=0.1, beta=0.5, kappa=v),
                             lambda o: o.kappa, (0.5, 1)),
    "BondState.bonds": ("matrix", lambda v: BondState(v), lambda o: o.bonds, (0, 1)),
    "BondState.tempo_index": ("int", lambda v: BondState(np.zeros((2, 2)), tempo_index=v), None, None),
    "Delegation.validator_id": ("id", lambda v: Delegation(v, "d1", 1.0, 0.1), None, None),
    "Delegation.delegator_id": ("id", lambda v: Delegation("v1", v, 1.0, 0.1), None, None),
    "Delegation.amount": ("number", lambda v: Delegation("v1", "d1", v, 0.1), lambda o: o.amount, (0, 10**6)),
    "Delegation.take": ("number", lambda v: Delegation("v1", "d1", 1.0, v), lambda o: o.take, (0, 1)),
    "split_block_emission": ("number", split_block_emission, lambda o: o, (0, 10**6)),
}


@st.composite
def non_real_matrices(draw):
    """A 2x2 matrix of numbers in [0, 1] made an object, string or bool
    array, or a nested list with one cell that is not a real number."""
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    rows = [cells[:2], cells[2:]]
    form = draw(st.sampled_from(["object", "str", "bool", "cell"]))
    if form == "object":
        return np.array(rows, dtype=object)
    if form == "str":
        return np.array(rows).astype(str)
    if form == "bool":
        return np.array(rows) > 0.5
    rows[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
        st.one_of(st.booleans(), st.sampled_from([np.True_, "0.5", "1_0", None])))
    return rows


NUMERIC_TEXT = st.one_of(st.sampled_from(["0.5", "1_0", "1", "٥"]), st.floats(0.0, 1.0).map(str))
# For each kind, values that a field of that kind must refuse.
NOT_OF_KIND = {
    "number": st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_, None, [0.5]]), NUMERIC_TEXT),
    "id": st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False),
                    st.sampled_from([None, "", b"v1", np.int64(7)])),
    "int": st.one_of(st.booleans(), st.floats(0.0, 10.0), NUMERIC_TEXT, st.sampled_from([np.int64(3), None])),
    "matrix": non_real_matrices(),
}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestKindRule:
    """The value types own the rule for what a value may be: an id is a
    non-empty str, a number an int, a float or a NumPy real scalar but not a
    bool or a str, and a matrix holds only such numbers. Nothing is converted
    into the kind it should have had."""

    @pytest.mark.parametrize("field", sorted(KIND_FIELDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_field_refuses_a_value_of_another_kind(self, field, data):
        kind, build, _, _ = KIND_FIELDS[field]
        value = data.draw(NOT_OF_KIND[kind], label="value")
        with pytest.raises(ValidationError):
            build(value)

    @pytest.mark.parametrize("field", sorted(name for name, spec in KIND_FIELDS.items() if spec[0] == "number"))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_numbers_give_the_bits_of_their_float(self, field, data):
        _, build, read, (low, high) = KIND_FIELDS[field]
        number = data.draw(st.one_of(st.integers(math.ceil(low), high), st.floats(low, high)), label="number")
        variants = [number, float(number), np.float64(number)]
        if isinstance(number, int):
            variants.append(np.int64(number))
        expected = _bits(read(build(float(number))))
        for variant in variants:
            assert _bits(read(build(variant))) == expected, repr(variant)

    @pytest.mark.parametrize("field", ["WeightMatrix.weights", "BondState.bonds"])
    @settings(max_examples=40, deadline=None)
    @given(cells=st.lists(st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)), min_size=4, max_size=4))
    def test_matrices_give_the_bits_of_their_floats(self, field, cells):
        _, build, read, _ = KIND_FIELDS[field]
        rows = [cells[:2], cells[2:]]
        expected = _bits(read(build(np.array(rows, dtype=np.float64))))
        variants = [rows, tuple(map(tuple, rows)), [list(map(np.float64, row)) for row in rows]]
        if all(isinstance(cell, int) for cell in cells):
            variants.append(np.array(rows, dtype=np.int64))
        for variant in variants:
            matrix = read(build(variant))
            assert matrix.dtype == np.float64 and matrix.tobytes() == expected, repr(variant)

    @pytest.mark.parametrize("field", ["WeightMatrix.weights", "BondState.bonds"])
    def test_a_bool_cell_is_refused(self, field):
        # NumPy alone would read the row as [0.5, 1.0].
        assert np.asarray([[0.5, True]]).dtype == np.float64
        name = field.split(".")[1]
        with pytest.raises(ValidationError) as excinfo:
            KIND_FIELDS[field][1]([[0.5, True]])
        assert str(excinfo.value) == f"{name} must be a real number, got True"

    @pytest.mark.parametrize("build, message", [
        (lambda: WeightMatrix(validators=((7, "1_0"),), miners=(True,), weights=[["0.5"]]),
         "validator id must be a non-empty string, got 7"),
        (lambda: WeightMatrix(validators=(("v1", "1_0"),), miners=("m1",), weights=[[0.5]]),
         "stake of 'v1' must be a real number, got '1_0'"),
        (lambda: WeightMatrix(validators=(("v1", 1.0),), miners=(True,), weights=[[0.5]]),
         "miner id must be a non-empty string, got True"),
        (lambda: WeightMatrix(validators=(("v1", 1.0),), miners=("m1",), weights=[["0.5"]]),
         "weights must be a real number, got '0.5'"),
        (lambda: EmissionParams(alpha=True, beta="0.1"), "alpha must be a real number, got True"),
        (lambda: EmissionParams(alpha=0.1, beta="0.1"), "beta must be a real number, got '0.1'"),
        (lambda: BondState([[True]], tempo_index=3.9), "bonds must be a real number, got True"),
        (lambda: BondState([[1.0]], tempo_index=3.9), "tempo_index must be an int, got 3.9"),
        (lambda: Delegation(7, 3, "1", False), "validator_id must be a non-empty string, got 7"),
        (lambda: Delegation("v1", 3, "1", False), "delegator_id must be a non-empty string, got 3"),
        (lambda: Delegation("v1", "d1", "1", False), "amount must be a real number, got '1'"),
        (lambda: Delegation("v1", "d1", 1, False), "take must be a real number, got False"),
        (lambda: split_block_emission("1_0"), "block emission must be a real number, got '1_0'"),
        (lambda: split_block_emission(10**400), f"block emission must be within float64 range, got {10**400}"),
        (lambda: _weight_matrix(weights=[[10**400, 0.5], [0.5, 0.5]]),
         f"weights must be within float64 range, got {10**400}"),
        (lambda: miner_emission_shares([["0.5", True]], ["1"]), "clipped must be a real number, got '0.5'"),
        (lambda: miner_emission_shares([[0.5, True]], [1.0]), "clipped must be a real number, got True"),
        (lambda: validator_emission_shares(BondState([[1.0]]), [True]), "miner_shares must be a real number, got True"),
    ], ids=["weight-matrix", "stake", "miner", "weight", "alpha", "beta", "bonds", "tempo-index",
            "validator-id", "delegator-id", "amount", "take", "block-emission", "huge-block-emission",
            "huge-weight", "clipped-string", "clipped-bool", "miner-shares-bool"])
    def test_former_coercions_are_refused(self, build, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("matrix, message", [
        ("ab", "weights must be a list, a tuple or an array, got 'ab'"),
        ([[0.5, 0.5], 0.5], "weights row must be a list, a tuple or an array, got 0.5"),
    ], ids=["matrix", "row"])
    def test_a_matrix_that_is_not_rows_is_a_shape_fault(self, matrix, message):
        with pytest.raises(TypeError) as excinfo:
            _weight_matrix(weights=matrix)
        assert str(excinfo.value) == message
