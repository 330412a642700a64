"""Yuma Consensus emission pipeline for one subnet and one tempo.

The pipeline: split the block emission into owner/miner/validator pools,
clip validator weights at the stake-backed consensus benchmark, rank miners
by stake-weighted clipped weights, update validator bonds as an EMA of the
per-miner normalized bonded stake, pay validators by bond-weighted miner
shares, and pass delegator payouts through each validator's commission.

All operations are pure functions. run_tempos composes them over chained
tempos and yields every tempo's outcome; run_tempo builds the outcome of
one given tempo of the chain, and only that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from yumalab.model import (
    MINER_SHARE,
    OWNER_SHARE,
    VALIDATOR_SHARE,
    BondState,
    EmissionOutcome,
    EmissionParams,
    ValidationError,
    WeightMatrix,
    _freeze,
    _require_array,
    _require_finite,
    _require_id,
    _require_int,
    _require_nonneg,
    _require_real,
    _require_unit,
    _require_upto,
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
        _require_id("validator_id", self.validator_id)
        _require_id("delegator_id", self.delegator_id)
        object.__setattr__(self, "amount", _require_nonneg("amount", self.amount))
        object.__setattr__(self, "take", _require_unit("take", self.take))


def split_block_emission(total: float) -> tuple[float, float, float]:
    """Split one block's emission into (owner, miner pool, validator pool)
    at the protocol's fixed shares."""
    total = _require_real("block emission", total)
    if not 0.0 <= total < math.inf:
        raise ValidationError(f"block emission must be >= 0, got {total}")
    return OWNER_SHARE * total, MINER_SHARE * total, VALIDATOR_SHARE * total


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
    w = _require_array("weights", weights, 2)
    s = _require_array("stakes", stakes, 1)
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
    kappa = _require_upto("kappa", kappa)
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
    clipped = _require_array("clipped", clipped, 2)
    stakes = _require_array("stakes", stakes, 1)
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


def _bond_step(instant: np.ndarray, alpha: float, bonds: np.ndarray) -> np.ndarray:
    """The bond matrix one EMA step from `bonds` toward `instant`."""
    return alpha * instant + (1.0 - alpha) * bonds


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
    clipped = _require_array("clipped", clipped, 2)
    _check_bond_shapes(wm, clipped, prev)
    smoothed = _bond_step(_bond_target(wm, clipped, beta), alpha, prev.bonds)
    return BondState(bonds=_freeze(smoothed), tempo_index=prev.tempo_index + 1)


def validator_emission_shares(bonds: BondState, miner_shares: np.ndarray) -> np.ndarray:
    """Validator shares: bond-weighted sums of miner shares."""
    miner_shares = _require_array("miner_shares", miner_shares, 1)
    if miner_shares.shape != (bonds.bonds.shape[1],):
        raise ValidationError("miner share vector does not match bond matrix width")
    return bonds.bonds @ miner_shares


def _payout_coefficients(delegations: Sequence[Delegation], validator_total_stake: float) -> list[float]:
    """Each delegation's fraction of its validator's reward after commission."""
    stake = _require_finite("validator_total_stake", validator_total_stake)
    if stake <= 0.0:
        raise ValidationError("validator_total_stake must be positive")
    delegated = math.fsum(d.amount for d in delegations)
    if delegated > stake * (1.0 + REL_TOL):
        raise ValidationError(
            f"delegated stake {delegated} exceeds validator stake {stake}"
        )
    return [(1.0 - d.take) * (d.amount / stake) for d in delegations]


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
    payouts: dict[str, float] = {}
    for d, coefficient in zip(delegations, coefficients):
        payouts[d.delegator_id] = payouts.get(d.delegator_id, 0.0) + coefficient * reward
    return payouts


class _Chain:
    """The weights-only work of a tempo chain, done once.

    The weights, stakes, params and delegations stay fixed along a chain,
    so the pool split, the consensus clip, the miner shares and TAO, the
    bond target and the delegation checks are worked out here, before any
    tempo. The only per-tempo state is the bond matrix: `step` moves it one
    EMA step, and `outcome` builds the validated outcome of a tempo from it.
    """

    def __init__(
        self,
        wm: WeightMatrix,
        prev: BondState,
        params: EmissionParams,
        block_emission: float,
        delegations: Sequence[Delegation],
    ) -> None:
        self.owner, miner_pool, self.validator_pool = split_block_emission(block_emission)
        _, clipped = consensus_clip(wm, params.kappa)
        miner_share_vec, self.no_ranking_mass = miner_emission_shares(clipped, wm.stakes)
        _check_bond_shapes(wm, clipped, prev)
        self.instant = _bond_target(wm, clipped, params.beta)
        self.alpha = params.alpha
        grouped: dict[str, list[Delegation]] = {validator_id: [] for validator_id in wm.validator_ids}
        for delegation in delegations:
            if delegation.validator_id not in grouped:
                raise ValidationError(f"unknown validator {delegation.validator_id!r} in delegation")
            grouped[delegation.validator_id].append(delegation)
        # (row, delegations, stake) of each delegated validator, in validator
        # order; their stakes are checked here, before any tempo.
        self.groups = [(v, group, wm.stakes[v]) for v, group in enumerate(grouped.values()) if group]
        for _, group, stake in self.groups:
            _payout_coefficients(group, stake)
        # Every outcome shares the arrays built here; frozen, they are not copied.
        self.miner_share_vec = _freeze(miner_share_vec)
        self.miner_tao = _freeze(miner_pool * miner_share_vec)
        self.block_emission = block_emission
        self.wm = wm

    def step(self, bonds: np.ndarray) -> np.ndarray:
        """The bond matrix one tempo after `bonds`."""
        return _bond_step(self.instant, self.alpha, bonds)

    def outcome(self, bonds: np.ndarray, tempo_index: int) -> EmissionOutcome:
        """The outcome of the tempo that ended with `bonds` and `tempo_index`."""
        bond_state = BondState(bonds=_freeze(bonds), tempo_index=tempo_index)
        validator_share_vec = validator_emission_shares(bond_state, self.miner_share_vec)
        share_total = float(np.sum(validator_share_vec))
        if share_total > 0.0:
            validator_tao = self.validator_pool * (validator_share_vec / share_total)
        else:
            validator_tao = np.zeros_like(validator_share_vec)
        # Summed per validator, then merged per delegator in validator order.
        payouts: dict[str, float] = {}
        for v, group, stake in self.groups:
            for delegator_id, payout in delegator_rewards(group, validator_tao[v], stake).items():
                payouts[delegator_id] = payouts.get(delegator_id, 0.0) + payout
        return EmissionOutcome(
            block_emission=self.block_emission,
            owner_amount=self.owner,
            miners=self.wm.miners,
            validators=self.wm.validator_ids,
            delegators=tuple(payouts),
            miner_share_vec=self.miner_share_vec,
            validator_share_vec=_freeze(validator_share_vec),
            miner_tao_vec=self.miner_tao,
            validator_tao_vec=_freeze(validator_tao),
            delegator_reward_vec=_freeze(np.array(list(payouts.values()), dtype=np.float64)),
            bond_state=bond_state,
            no_ranking_mass=self.no_ranking_mass,
        )


def run_tempos(
    wm: WeightMatrix,
    prev: BondState,
    params: EmissionParams,
    block_emission: float,
    delegations: Sequence[Delegation] = (),
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
    """
    chain = _Chain(wm, prev, params, block_emission, delegations)
    bonds, tempo_index = prev.bonds, prev.tempo_index
    while True:
        bonds, tempo_index = chain.step(bonds), tempo_index + 1
        yield chain.outcome(bonds, tempo_index)


def run_tempo(
    wm: WeightMatrix,
    prev: BondState,
    params: EmissionParams,
    block_emission: float,
    delegations: Sequence[Delegation] = (),
    tempos: int = 1,
) -> EmissionOutcome:
    """Run the emission pipeline over `tempos` chained tempos (default 1)
    and return the last outcome: the `tempos`-th outcome of `run_tempos`
    with the same arguments, bit for bit. Only that outcome is built; the
    tempos before it move the bond matrix and nothing else."""
    if _require_int("tempos", tempos) < 1:
        raise ValidationError("tempos must be >= 1")
    chain = _Chain(wm, prev, params, block_emission, delegations)
    bonds = prev.bonds
    for _ in range(tempos):
        bonds = chain.step(bonds)
    return chain.outcome(bonds, prev.tempo_index + tempos)
