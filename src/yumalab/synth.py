"""Synthetic snapshot datasets with controllable concentration and coupling.

Generates daily wallet events for a configurable number of subnets. Stake
and performance marginals come from named distribution laws; a rank-mixing
step couples performance to stake with strength rho in [-1, 1]. Rewards
are either exactly proportional to stake or produced by replaying the
consensus pipeline day by day on a generated weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from typing import Callable

import numpy as np

from yumalab._util import REWARD_RULES, name_args, parse_timestamp, to_epoch_us
from yumalab.ingest import _DAY_US, Dataset, _sorted_dataset
from yumalab.model import EmissionParams, ValidationError, WeightMatrix, _freeze, _require_id, _require_int, _require_real

__all__ = ["SynthConfig", "generate"]

STAKE_LAWS = ("pareto", "lognormal", "uniform")
PERF_LAWS = ("beta", "uniform")

# Blocks per day on Bittensor (12-second blocks).
BLOCKS_PER_DAY = 7200

DAILY_EMISSION = 100.0

REPLAY_PARAMS = EmissionParams(alpha=0.3, beta=0.5, kappa=0.5)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    Laws are strings: "pareto:SHAPE", "lognormal:MU,SIGMA" or "uniform"
    for stakes; "beta:A,B" or "uniform" for performance scores.
    stake_perf_coupling is the rank-coupling strength (sign sets the
    direction). The span starts at `start` and emits one event per wallet
    per day for `span_days` days.
    """

    n_subnets: int = 4
    wallets_per_subnet: int = 50
    validator_fraction: float = 0.2
    stake_law: str = "pareto:1.2"
    perf_law: str = "beta:2,5"
    stake_perf_coupling: float = 0.0
    reward_rule: str = "stake_proportional"
    seed: int = 0
    span_days: int = 90
    start: str = "2024-01-01T00:00:00Z"

    def __post_init__(self) -> None:
        if _require_int("n_subnets", self.n_subnets) < 1:
            raise ValidationError("n_subnets must be >= 1")
        if _require_int("wallets_per_subnet", self.wallets_per_subnet) < 2:
            raise ValidationError("wallets_per_subnet must be >= 2")
        if not 0.0 < _require_real("validator_fraction", self.validator_fraction) < 1.0:
            raise ValidationError("validator_fraction must lie in (0, 1)")
        if not -1.0 <= _require_real("stake_perf_coupling", self.stake_perf_coupling) <= 1.0:
            raise ValidationError("stake_perf_coupling must lie in [-1, 1]")
        if self.reward_rule not in REWARD_RULES:
            raise ValidationError(f"unknown reward_rule {self.reward_rule!r}")
        if not 0 <= _require_int("seed", self.seed) < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if _require_int("span_days", self.span_days) < 1:
            raise ValidationError("span_days must be >= 1")
        # Fail fast on malformed law strings and start timestamps.
        _stake_sampler(_require_id("stake_law", self.stake_law))
        _perf_sampler(_require_id("perf_law", self.perf_law))
        try:
            start = parse_timestamp(_require_id("start", self.start))
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        try:
            start + timedelta(days=self.span_days - 1)
        except OverflowError:
            raise ValidationError(f"a span of {self.span_days} days from {self.start!r} "
                                  "ends after year 9999") from None


def _stake_sampler(law: str) -> Callable[[np.random.Generator, int], np.ndarray]:
    name, args = name_args(law, "stake law")
    if name == "pareto":
        if len(args) != 1 or args[0] <= 0.0:
            raise ValidationError(f"pareto law needs one positive shape parameter, got {law!r}")
        shape = args[0]
        return lambda rng, n: 1.0 + rng.pareto(shape, n)
    if name == "lognormal":
        if len(args) != 2 or args[1] < 0.0:
            raise ValidationError(f"lognormal law needs mu and sigma >= 0, got {law!r}")
        mu, sigma = args
        return lambda rng, n: rng.lognormal(mu, sigma, n)
    if name == "uniform":
        if args:
            raise ValidationError(f"uniform stake law takes no parameters, got {law!r}")
        return lambda rng, n: rng.uniform(0.5, 1.5, n)
    raise ValidationError(f"unknown stake law {law!r} (expected one of {STAKE_LAWS})")


def _perf_sampler(law: str) -> Callable[[np.random.Generator, int], np.ndarray]:
    name, args = name_args(law, "perf law")
    if name == "beta":
        if len(args) != 2 or args[0] <= 0.0 or args[1] <= 0.0:
            raise ValidationError(f"beta law needs two positive parameters, got {law!r}")
        a, b = args
        return lambda rng, n: rng.beta(a, b, n)
    if name == "uniform":
        if args:
            raise ValidationError(f"uniform perf law takes no parameters, got {law!r}")
        return lambda rng, n: rng.random(n)
    raise ValidationError(f"unknown perf law {law!r} (expected one of {PERF_LAWS})")


def _couple_to_stake(
    perf: np.ndarray, stakes: np.ndarray, rho: float, rng: np.random.Generator
) -> np.ndarray:
    """Impose rank coupling between perf and stake with strength |rho|.

    Sorted perf values are assigned along a blend of the (signed) stake
    rank and an independent random rank; |rho| = 1 makes perf comonotone
    (or antitone) with stake, 0 leaves the pairing random.
    """
    n = perf.shape[0]
    if rho == 0.0 or n < 2:
        return perf
    stake_rank = np.empty(n, dtype=np.float64)
    stake_rank[np.argsort(stakes, kind="stable")] = np.arange(n, dtype=np.float64)
    if rho < 0.0:
        stake_rank = (n - 1.0) - stake_rank
    noise_rank = rng.permutation(n).astype(np.float64)
    blend = abs(rho) * stake_rank + (1.0 - abs(rho)) * noise_rank
    out = np.empty(n, dtype=np.float64)
    out[np.argsort(blend, kind="stable")] = np.sort(perf)
    return out


def _replay_rewards(
    validator_stakes: np.ndarray,
    validator_perf: np.ndarray,
    miner_perf: np.ndarray,
    rng: np.random.Generator,
    days: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Daily (validator, miner) reward matrices from a consensus replay.

    Weights follow miner performance with independent per-pair noise, so
    clipping and bond smoothing shape the realized rewards.
    """
    from yumalab.consensus import BondState, run_tempos

    n_validators = validator_stakes.shape[0]
    n_miners = miner_perf.shape[0]
    raw = miner_perf[np.newaxis, :] + 0.2 * (rng.random((n_validators, n_miners)) - 0.5)
    weights = _freeze(np.clip(raw, 0.0, 1.0))
    wm = WeightMatrix(
        validators=tuple((f"v{i}", float(s)) for i, s in enumerate(validator_stakes)),
        miners=tuple(f"m{j}" for j in range(n_miners)),
        weights=weights,
    )
    chain = run_tempos(wm, BondState.initial(n_validators, n_miners), REPLAY_PARAMS, DAILY_EMISSION)
    validator_days = np.zeros((days, n_validators))
    miner_days = np.zeros((days, n_miners))
    for day, outcome in zip(range(days), chain):
        miner_days[day, :] = outcome.miner_tao_vec
        validator_days[day, :] = outcome.validator_tao_vec
    return validator_days, miner_days


def generate(cfg: SynthConfig) -> Dataset:
    """Generate a deterministic synthetic Dataset from the config, as
    columns built from each subnet's draws and validated once."""
    stake_sampler = _stake_sampler(cfg.stake_law)
    perf_sampler = _perf_sampler(cfg.perf_law)
    n = cfg.wallets_per_subnet
    n_validators = min(max(1, round(cfg.validator_fraction * n)), n - 1)
    n_miners = n - n_validators
    names: list[str] = []
    stakes, perfs, rewards = [], [], []
    for netuid in range(cfg.n_subnets):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, netuid]))
        validator_stakes = stake_sampler(rng, n_validators)
        miner_stakes = stake_sampler(rng, n_miners)
        validator_perf = _couple_to_stake(
            perf_sampler(rng, n_validators), validator_stakes, cfg.stake_perf_coupling, rng
        )
        miner_perf = _couple_to_stake(
            perf_sampler(rng, n_miners), miner_stakes, cfg.stake_perf_coupling, rng
        )
        stakes.append(np.concatenate((validator_stakes, miner_stakes)))
        perfs.append(np.concatenate((validator_perf, miner_perf)))
        if cfg.reward_rule == "stake_proportional":
            total_stake = float(np.sum(validator_stakes) + np.sum(miner_stakes))
            rewards.append(np.tile(DAILY_EMISSION * stakes[-1] / total_stake, (cfg.span_days, 1)))
        else:
            rewards.append(np.hstack(
                _replay_rewards(validator_stakes, validator_perf, miner_perf, rng, cfg.span_days)
            ))
        names += [f"sn{netuid:03d}-v{i:04d}" for i in range(n_validators)]
        names += [f"sn{netuid:03d}-m{j:04d}" for j in range(n_miners)]

    # Rows run by subnet, day, then wallet in the order of `names`.
    shape = (cfg.n_subnets, cfg.span_days, n)
    netuid, day, position = (axis.ravel() for axis in np.indices(shape, dtype=np.int64))
    miner = position >= n_validators
    perf = np.broadcast_to(np.array(perfs)[:, np.newaxis, :], shape).ravel()
    # Wallet codes follow name order, as Dataset requires.
    order = sorted(range(len(names)), key=names.__getitem__)
    code = np.empty(len(names), dtype=np.int64)
    code[order] = np.arange(len(names))
    columns = {
        "timestamp": to_epoch_us(parse_timestamp(cfg.start)) + day * _DAY_US,
        "block_number": day * BLOCKS_PER_DAY,
        "netuid": netuid,
        "wallet": code[netuid * n + position],
        "miner": miner,
        "stake": np.broadcast_to(np.array(stakes)[:, np.newaxis, :], shape).ravel(),
        "reward": np.array(rewards).ravel(),
        "trust": np.where(miner, perf, np.nan),
        "validator_trust": np.where(miner, np.nan, perf),
    }
    return _sorted_dataset(columns, [names[k] for k in order])
