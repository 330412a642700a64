"""Reward-scheme and stake-reshaping interventions.

Three reward schemes rescale or re-allocate observed rewards as a function
of performance scores, and three stake transforms (percentile cap, power,
log) reshape stake distributions to blunt whales. All are pure transforms
over snapshot vectors; nothing here mutates consensus state.

Note that the performance-weighted split rescales each wallet's reward
independently, so it does not conserve the original pool total; the
composite scheme, by contrast, re-allocates a fixed miner pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from yumalab.model import ValidationError, _require_unit

__all__ = [
    "SchemeParams",
    "TransformSpec",
    "perf_weighted_rewards",
    "composite_ranks",
    "bonus_rewards",
    "apply_stake_transform",
    "whale_penalty",
    "unit_rescale",
    "nearest_rank_percentile",
]


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of the three reward schemes.

    base_validator_share: baseline fraction of a validator's reward kept
    under the performance-weighted split (miners keep the complement);
    perf_sensitivity: slope of the split's performance term;
    rank_weight: weight on the baseline rank in the composite score
    (1 = pure baseline, 0 = pure performance);
    trust_bonus: multiplicative bonus slope per unit of performance.
    """

    base_validator_share: float = 0.25
    perf_sensitivity: float = 0.0
    rank_weight: float = 1.0
    trust_bonus: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "base_validator_share",
            _require_unit("base_validator_share", self.base_validator_share),
        )
        object.__setattr__(self, "rank_weight", _require_unit("rank_weight", self.rank_weight))
        for name in ("perf_sensitivity", "trust_bonus"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)


TRANSFORM_KINDS = ("cap", "power", "log")


@dataclass(frozen=True)
class TransformSpec:
    """One stake-reshaping transform.

    kind "cap" truncates stakes at the subnet's cap_percentile (nearest
    rank); "power" raises stakes to power_exponent; "log" maps each stake
    to ln(1 + s).
    """

    kind: str
    cap_percentile: Optional[float] = None
    power_exponent: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        if self.kind == "cap":
            if self.cap_percentile is None:
                raise ValidationError("cap transform requires cap_percentile")
            pct = float(self.cap_percentile)
            if not 0.0 < pct <= 100.0:
                raise ValidationError(f"cap_percentile must lie in (0, 100], got {pct}")
            object.__setattr__(self, "cap_percentile", pct)
        elif self.cap_percentile is not None:
            raise ValidationError(f"cap_percentile is not valid for kind {self.kind!r}")
        if self.kind == "power":
            if self.power_exponent is None:
                raise ValidationError("power transform requires power_exponent")
            exponent = float(self.power_exponent)
            if not 0.0 < exponent <= 1.0:
                raise ValidationError(f"power_exponent must lie in (0, 1], got {exponent}")
            object.__setattr__(self, "power_exponent", exponent)
        elif self.power_exponent is not None:
            raise ValidationError(f"power_exponent is not valid for kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "cap":
            return f"cap:{self.cap_percentile:g}"
        if self.kind == "power":
            return f"power:{self.power_exponent:g}"
        return "log"

    @property
    def param(self) -> Optional[float]:
        if self.kind == "cap":
            return self.cap_percentile
        if self.kind == "power":
            return self.power_exponent
        return None


def _as_vector(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} must be finite")
    return x


def _reward_perf_vectors(rewards, perfs) -> tuple[np.ndarray, np.ndarray]:
    """Rewards (>= 0) and perf scores (in [0, 1]) as vectors of equal length."""
    reward_vec = _as_vector(rewards, "rewards")
    perf_vec = _as_vector(perfs, "perfs")
    if reward_vec.shape != perf_vec.shape:
        raise ValidationError("rewards and perfs must have equal length")
    if np.any(reward_vec < 0.0):
        raise ValidationError("rewards must be nonnegative")
    if np.any(perf_vec < 0.0) or np.any(perf_vec > 1.0):
        raise ValidationError("perfs must lie in [0, 1]")
    return reward_vec, perf_vec


def perf_weighted_rewards(
    rewards,
    perfs,
    miners,
    base_validator_share: float = 0.25,
    sensitivity: float = 0.0,
) -> np.ndarray:
    """Performance-weighted split of each wallet's reward.

    `miners` flags the miner wallets. A validator's reward is scaled by
    (base + sensitivity * perf), a miner's by ((1 - base) + sensitivity *
    perf). At sensitivity 0 this is a uniform within-role rescaling,
    leaving correlations unchanged.
    """
    base = _require_unit("base_validator_share", base_validator_share)
    sensitivity = float(sensitivity)
    if not math.isfinite(sensitivity) or sensitivity < 0.0:
        raise ValidationError(f"sensitivity must be >= 0, got {sensitivity}")
    reward_vec, perf_vec = _reward_perf_vectors(rewards, perfs)
    miner_vec = np.asarray(miners, dtype=bool)
    if miner_vec.shape != reward_vec.shape:
        raise ValidationError("rewards and miners must have equal length")
    return reward_vec * (np.where(miner_vec, 1.0 - base, base) + sensitivity * perf_vec)


def composite_ranks(base_ranks, perfs, rank_weight: float) -> np.ndarray:
    """Convex mix of baseline ranks and performance scores.

    Both inputs must already be on the [0, 1] scale (use unit_rescale for
    raw rankings). rank_weight 1 returns the ranks unchanged, 0 returns
    the performance scores.
    """
    weight = _require_unit("rank_weight", rank_weight)
    ranks = _as_vector(base_ranks, "base_ranks")
    perf = _as_vector(perfs, "perfs")
    if ranks.shape != perf.shape:
        raise ValidationError("base_ranks and perfs must have equal length")
    for name, vec in (("base_ranks", ranks), ("perfs", perf)):
        if np.any(vec < 0.0) or np.any(vec > 1.0):
            raise ValidationError(f"{name} must lie in [0, 1]")
    if weight == 1.0:
        return ranks.copy()
    if weight == 0.0:
        return perf.copy()
    return weight * ranks + (1.0 - weight) * perf


def bonus_rewards(rewards, perfs, bonus_rate: float) -> np.ndarray:
    """Multiplicative trust bonus: reward * (1 + rate * perf)."""
    rate = float(bonus_rate)
    if not math.isfinite(rate) or rate < 0.0:
        raise ValidationError(f"bonus_rate must be >= 0, got {rate}")
    reward_vec, perf_vec = _reward_perf_vectors(rewards, perfs)
    if rate == 0.0:
        return reward_vec.copy()
    return reward_vec * (1.0 + rate * perf_vec)


def unit_rescale(values) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant vector maps to all 0.5."""
    x = _as_vector(values, "values")
    if x.shape[0] == 0:
        return x.copy()
    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _nearest_rank(ascending: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of a non-empty ascending vector."""
    rank = math.ceil(percentile / 100.0 * ascending.shape[0])
    return float(ascending[max(rank, 1) - 1])


def nearest_rank_percentile(values, percentile: float) -> float:
    """Nearest-rank percentile: element ceil(p/100 * n) of the ascending sort."""
    x = _as_vector(values, "values")
    if x.shape[0] == 0:
        raise ValidationError("percentile of an empty vector is undefined")
    pct = float(percentile)
    if not 0.0 < pct <= 100.0:
        raise ValidationError(f"percentile must lie in (0, 100], got {pct}")
    return _nearest_rank(np.sort(x), pct)


def _transform(x: np.ndarray, spec: TransformSpec, cap: Optional[float]) -> np.ndarray:
    """`spec` applied to a checked stake vector; `cap`, the nearest-rank cap
    of the stakes, is read by the cap kind only."""
    if spec.kind == "cap":
        return np.minimum(x, cap)
    if spec.kind == "power":
        return np.power(x, spec.power_exponent)
    return np.log1p(x)


def apply_stake_transform(stakes, spec: TransformSpec) -> np.ndarray:
    """Reshape a stake vector according to the transform spec."""
    x = _as_vector(stakes, "stakes")
    if np.any(x < 0.0):
        raise ValidationError("stakes must be nonnegative")
    cap = nearest_rank_percentile(x, spec.cap_percentile) if spec.kind == "cap" else None
    return _transform(x, spec, cap)


def _whale_top(before: np.ndarray) -> tuple[np.ndarray, float]:
    """The indices of the top 1% of `before` (ceil rule, stable sort) and
    their combined stake."""
    k = math.ceil(0.01 * before.shape[0])
    top_idx = np.argsort(-before, kind="stable")[:k]
    return top_idx, float(np.sum(before[top_idx]))


def _penalty(top_before: float, top_after: np.ndarray) -> float:
    """Relative reduction from `top_before` > 0 to the sum of `top_after`."""
    return (top_before - float(np.sum(top_after))) / top_before


def whale_penalty(original, transformed) -> float:
    """Fraction of the top-1% wallets' stake removed by a transform.

    The top 1% (ceil rule, by original stake) is fixed before the
    transform; the penalty is the relative reduction of their combined
    stake. Boundary ties resolve by position (stable sort); for transforms
    that are functions of the stake value alone the choice is irrelevant.
    """
    before = _as_vector(original, "original")
    after = _as_vector(transformed, "transformed")
    if before.shape != after.shape:
        raise ValidationError("original and transformed must have equal length")
    top_idx, top_before = _whale_top(before)
    if top_before <= 0.0:
        raise ValidationError("whale_penalty is undefined: top-1% stake mass is zero")
    return _penalty(top_before, after[top_idx])
