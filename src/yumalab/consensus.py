"""Yuma Consensus emission pipeline for one subnet and one tempo.

The pipeline: split the block emission into owner/miner/validator pools,
clip validator weights at the stake-backed consensus benchmark, rank miners
by stake-weighted clipped weights, update validator bonds as an EMA of the
per-miner normalized bonded stake, pay validators by bond-weighted miner
shares, and pass delegator payouts through each validator's commission.

All operations are pure functions; run_tempos composes them over chained
tempos and run_tempo takes its first tempo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from yumalab.interventions import composite_ranks, unit_rescale
from yumalab.model import (
    BondState,
    EmissionOutcome,
    EmissionParams,
    ValidationError,
    WeightMatrix,
    _freeze,
    _require_nonneg,
    _require_unit,
)

__all__ = [
    "BondState",
    "Delegation",
    "split_block_emission",
    "clip_benchmarks",
    "consensus_clip",
    "miner_emission_shares",
    "validator_bonds",
    "validator_emission_shares",
    "delegator_rewards",
    "run_tempo",
    "run_tempos",
]

# Relative slack for delegated-stake and conservation comparisons.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Delegation:
    """TAO delegated to a validator, subject to its commission (take)."""

    validator_id: str
    delegator_id: str
    amount: float
    take: float

    def __post_init__(self) -> None:
        if not self.validator_id or not self.delegator_id:
            raise ValidationError("validator_id and delegator_id must be non-empty")
        object.__setattr__(self, "amount", _require_nonneg("amount", self.amount))
        object.__setattr__(self, "take", _require_unit("take", self.take))


def split_block_emission(total: float, params: EmissionParams) -> tuple[float, float, float]:
    """Split one block's emission into (owner, miner pool, validator pool)."""
    total = float(total)
    if not math.isfinite(total) or total < 0.0:
        raise ValidationError(f"block emission must be >= 0, got {total}")
    return (
        params.owner_share * total,
        params.miner_share * total,
        params.validator_share * total,
    )


def clip_benchmarks(weights: np.ndarray, stakes: np.ndarray, kappa: float) -> np.ndarray:
    """Per-miner consensus benchmark: the largest observed weight backed by
    at least a kappa fraction of total validator stake.

    The whole matrix is handled in one pass. Each column is sorted by
    descending weight and its stake accumulated down the column; the sort
    is stable, so equal weights keep validator order and the sums do not
    depend on the sort algorithm. The backing of a weight is the
    accumulated stake at the last row of its run of equal weights. Backing
    never decreases down a column, so the first row that reaches the
    target lies in the run of the benchmark, and its index is the count of
    rows whose backing is below the target. Candidates tied on backing
    (only possible via zero-stake validators) thus resolve to the larger
    weight. A column whose full backing falls a rounding error short of
    the target gets its smallest weight.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(stakes, dtype=np.float64)
    target = kappa * float(np.sum(s))
    order = np.argsort(-w, axis=0, kind="stable")
    sorted_w = np.take_along_axis(w, order, axis=0)
    backing = np.cumsum(s[order], axis=0)
    pick = np.minimum(np.count_nonzero(backing < target, axis=0), w.shape[0] - 1)
    return sorted_w[pick, np.arange(w.shape[1])]


def consensus_clip(wm: WeightMatrix, kappa: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Clip weights at the per-miner consensus benchmark.

    The benchmark for miner j is the largest observed weight on j that is
    backed by at least a kappa fraction of total validator stake;
    zero-stake validators contribute candidate values but no backing.
    Returns (benchmarks, clipped matrix).
    """
    kappa = float(kappa)
    if not 0.0 < kappa <= 1.0:
        raise ValidationError(f"kappa must lie in (0, 1], got {kappa}")
    stakes = wm.stakes
    if float(np.sum(stakes)) <= 0.0:
        raise ValidationError("benchmark undefined: all validator stakes are zero")
    benchmarks = clip_benchmarks(wm.weights, stakes, kappa)
    clipped = np.minimum(wm.weights, benchmarks[np.newaxis, :])
    return benchmarks, clipped


def miner_emission_shares(clipped: np.ndarray, stakes: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalize stake-weighted clipped weights into miner shares.

    Returns (shares, no_ranking_mass). When every miner's ranking is zero
    the shares are all zero and the flag is set instead of raising.
    """
    clipped = np.asarray(clipped, dtype=np.float64)
    stakes = np.asarray(stakes, dtype=np.float64)
    if clipped.ndim != 2 or stakes.shape != (clipped.shape[0],):
        raise ValidationError("clipped matrix and stake vector dimensions do not match")
    if np.any(stakes < 0.0):
        raise ValidationError("stakes must be nonnegative")
    rankings = stakes @ clipped
    total = float(np.sum(rankings))
    if total <= 0.0:
        return np.zeros(clipped.shape[1]), True
    return rankings / total, False


def _check_bond_shapes(wm: WeightMatrix, clipped: np.ndarray, prev: BondState) -> None:
    shape = (wm.n_validators, wm.n_miners)
    if clipped.shape != shape:
        raise ValidationError(f"clipped matrix shape {clipped.shape} does not match {shape}")
    if prev.bonds.shape != shape:
        raise ValidationError(f"previous bond shape {prev.bonds.shape} does not match {shape}")


def _bond_target(wm: WeightMatrix, clipped: np.ndarray, beta: float) -> np.ndarray:
    """Per-miner normalized bonded stake, the state the bond EMA moves toward."""
    bond_weights = (1.0 - beta) * wm.weights + beta * clipped
    bonded = wm.stakes[:, np.newaxis] * bond_weights
    column_mass = np.sum(bonded, axis=0)
    return np.divide(
        bonded,
        column_mass[np.newaxis, :],
        out=np.zeros_like(bonded),
        where=column_mass[np.newaxis, :] > 0.0,
    )


def _bond_step(instant: np.ndarray, alpha: float, prev: BondState) -> BondState:
    smoothed = alpha * instant + (1.0 - alpha) * prev.bonds
    return BondState(bonds=_freeze(smoothed), tempo_index=prev.tempo_index + 1)


def validator_bonds(
    wm: WeightMatrix,
    clipped: np.ndarray,
    beta: float,
    alpha: float,
    prev: BondState,
) -> BondState:
    """One EMA step of the bond matrix.

    Bond weights blend raw and clipped weights (beta toward clipped), are
    normalized per miner over the validators' bonded stake, and smoothed
    into the previous state with factor alpha. Miners with no bonded stake
    keep zero bonds.
    """
    beta = _require_unit("beta", beta)
    alpha = _require_unit("alpha", alpha)
    clipped = np.asarray(clipped, dtype=np.float64)
    _check_bond_shapes(wm, clipped, prev)
    return _bond_step(_bond_target(wm, clipped, beta), alpha, prev)


def validator_emission_shares(bonds: BondState, miner_shares: np.ndarray) -> np.ndarray:
    """Validator shares: bond-weighted sums of miner shares."""
    miner_shares = np.asarray(miner_shares, dtype=np.float64)
    if miner_shares.shape != (bonds.bonds.shape[1],):
        raise ValidationError("miner share vector does not match bond matrix width")
    return bonds.bonds @ miner_shares


def _payout_coefficients(delegations: Sequence[Delegation], validator_total_stake: float) -> list[float]:
    """Each delegation's fraction of its validator's reward after commission."""
    stake = float(validator_total_stake)
    if stake <= 0.0:
        raise ValidationError("validator_total_stake must be positive")
    delegated = math.fsum(d.amount for d in delegations)
    if delegated > stake * (1.0 + REL_TOL):
        raise ValidationError(
            f"delegated stake {delegated} exceeds validator stake {stake}"
        )
    return [(1.0 - d.take) * (d.amount / stake) for d in delegations]


def _slots(keys: Iterable) -> tuple[tuple, np.ndarray]:
    """The distinct keys in first-appearance order, and each key's index."""
    index: dict = {}
    slots = [index.setdefault(key, len(index)) for key in keys]
    return tuple(index), np.array(slots, dtype=np.intp)


def _sum_by_slot(slots: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per-slot sums, each added up from 0.0 in the order of `values`."""
    totals = np.zeros(n)
    np.add.at(totals, slots, values)
    return totals


def delegator_rewards(
    delegations: Sequence[Delegation],
    validator_reward: float,
    validator_total_stake: float,
) -> dict[str, float]:
    """Per-delegator payouts from one validator's reward.

    Each delegator receives its stake fraction of the reward after the
    validator's commission. The validator's self-stake is not treated as a
    delegation, so commission applies to external delegations only; whether
    the protocol also takes commission on self-stake is unobservable here
    because both flows pay the same wallet.
    """
    reward = _require_nonneg("validator_reward", validator_reward)
    coefficients = _payout_coefficients(delegations, validator_total_stake)
    delegators, slots = _slots(d.delegator_id for d in delegations)
    totals = _sum_by_slot(slots, np.array(coefficients) * reward, len(delegators))
    return dict(zip(delegators, totals.tolist()))


class _DelegationPlan:
    """The delegations of one weight matrix, checked and grouped once.

    Payouts are summed per (validator, delegator) pair in delegation order,
    then per delegator in validator order: `delegator_rewards` per validator
    and the merge of its results add them up in that order. One running sum
    per delegator over all delegations would round differently when a
    delegator has two delegations to a validator after its first one.
    """

    def __init__(self, wm: WeightMatrix, delegations: Sequence[Delegation]) -> None:
        stake_by_id = dict(wm.validators)
        grouped: dict[str, list[Delegation]] = {}
        for delegation in delegations:
            if delegation.validator_id not in stake_by_id:
                raise ValidationError(f"unknown validator {delegation.validator_id!r} in delegation")
            grouped.setdefault(delegation.validator_id, []).append(delegation)
        owners: list[int] = []
        coefficients: list[float] = []
        pairs: list[tuple[int, str]] = []
        for v, validator_id in enumerate(wm.validator_ids):
            group = grouped.get(validator_id)
            if not group:
                continue
            coefficients.extend(_payout_coefficients(group, stake_by_id[validator_id]))
            owners.extend([v] * len(group))
            pairs.extend((v, d.delegator_id) for d in group)
        self.owners = np.array(owners, dtype=np.intp)
        self.coefficients = np.array(coefficients, dtype=np.float64)
        pair_list, self.pair_slots = _slots(pairs)
        self.delegators, self.pair_delegator = _slots(d for _, d in pair_list)
        self.n_pairs = len(pair_list)

    def payouts(self, validator_tao: np.ndarray) -> np.ndarray:
        """Each delegator's payout, in the order of `delegators`."""
        per_pair = _sum_by_slot(
            self.pair_slots, self.coefficients * validator_tao[self.owners], self.n_pairs
        )
        return _sum_by_slot(self.pair_delegator, per_pair, len(self.delegators))


def run_tempos(
    wm: WeightMatrix,
    prev: BondState,
    params: EmissionParams,
    block_emission: float,
    delegations: Sequence[Delegation] = (),
    rank_mix_perfs: Optional[np.ndarray] = None,
    rank_mix_weight: float = 1.0,
) -> Iterator[EmissionOutcome]:
    """Run the emission pipeline over chained tempos, one outcome each.

    The weights, stakes, params and delegations stay fixed along the
    chain, so the pool split, the consensus clip, the miner shares and TAO,
    the bond target and the delegation checks are worked out once, before
    the first outcome. Each tempo then moves the bond EMA from the previous
    tempo's bonds, starting from `prev`, and pays validators and delegators
    from it. The generator never ends; take as many tempos as needed.

    Validator TAO is the validator pool allocated proportionally to the
    bond-weighted shares (normalized over their sum); when total validator
    share is zero the pool goes unallocated, mirroring the all-zero miner
    ranking case.

    `rank_mix_perfs` is a simulation hook: when given, miner shares are
    re-derived from a convex mix of the min-max rescaled rankings with
    these per-miner performance scores (weight `rank_mix_weight` on the
    rankings). Note the rescaling: even at weight 1 the hook yields shares
    proportional to rescaled ranks, which differs from the plain
    normalization used when the hook is off.
    """
    owner, miner_pool, validator_pool = split_block_emission(block_emission, params)
    _, clipped = consensus_clip(wm, params.kappa)
    miner_share_vec, no_ranking_mass = miner_emission_shares(clipped, wm.stakes)
    if rank_mix_perfs is not None:
        perfs = np.asarray(rank_mix_perfs, dtype=np.float64)
        if perfs.shape != (wm.n_miners,):
            raise ValidationError("rank_mix_perfs length does not match the miner count")
        mixed = composite_ranks(unit_rescale(wm.stakes @ clipped), perfs, rank_mix_weight)
        mass = float(np.sum(mixed))
        if mass > 0.0:
            miner_share_vec = mixed / mass
            no_ranking_mass = False
        else:
            miner_share_vec = np.zeros(wm.n_miners)
            no_ranking_mass = True
    _check_bond_shapes(wm, clipped, prev)
    instant = _bond_target(wm, clipped, params.beta)
    bond_state = _bond_step(instant, params.alpha, prev)
    plan = _DelegationPlan(wm, delegations)
    # Every outcome shares the arrays built here; frozen, they are not copied.
    _freeze(miner_share_vec)
    miner_tao = _freeze(miner_pool * miner_share_vec)
    validator_ids = wm.validator_ids
    while True:
        validator_share_vec = validator_emission_shares(bond_state, miner_share_vec)
        share_total = float(np.sum(validator_share_vec))
        if share_total > 0.0:
            validator_tao = validator_pool * (validator_share_vec / share_total)
        else:
            validator_tao = np.zeros_like(validator_share_vec)
        yield EmissionOutcome(
            block_emission=float(block_emission),
            owner_amount=owner,
            miners=wm.miners,
            validators=validator_ids,
            delegators=plan.delegators,
            miner_share_vec=miner_share_vec,
            validator_share_vec=_freeze(validator_share_vec),
            miner_tao_vec=miner_tao,
            validator_tao_vec=_freeze(validator_tao),
            delegator_reward_vec=_freeze(plan.payouts(validator_tao)),
            bond_state=bond_state,
            no_ranking_mass=no_ranking_mass,
        )
        bond_state = _bond_step(instant, params.alpha, bond_state)


def run_tempo(
    wm: WeightMatrix,
    prev: BondState,
    params: EmissionParams,
    block_emission: float,
    delegations: Sequence[Delegation] = (),
    rank_mix_perfs: Optional[np.ndarray] = None,
    rank_mix_weight: float = 1.0,
) -> EmissionOutcome:
    """Run the full emission pipeline for one tempo: the first outcome of
    `run_tempos` with the same arguments."""
    return next(run_tempos(
        wm, prev, params, block_emission, delegations, rank_mix_perfs, rank_mix_weight
    ))
