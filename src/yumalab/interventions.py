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

from yumalab._util import name_args
from yumalab.model import ValidationError, _require_array, _require_nonneg, _require_unit, _require_upto, _require_vector

__all__ = [
    "TransformSpec",
    "perf_weighted_rewards",
    "composite_ranks",
    "bonus_rewards",
    "apply_stake_transform",
    "whale_penalty",
    "unit_rescale",
    "nearest_rank_percentile",
]


# Each transform kind's param lies in (0, high]; None: the kind takes no param.
_PARAM_HIGHS = {"cap": 100.0, "power": 1.0, "log": None}

# The validator share of the performance-weighted split (see
# perf_weighted_rewards); a miner's is 1 minus it.
BASE_VALIDATOR_SHARE = 0.25


@dataclass(frozen=True)
class TransformSpec:
    """One stake-reshaping transform.

    kind "cap" truncates stakes at the subnet's `param`-th percentile
    (nearest rank); "power" raises stakes to the exponent `param`; "log"
    maps each stake to ln(1 + s) and takes no param.
    """

    kind: str
    param: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_HIGHS:
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        high = _PARAM_HIGHS[self.kind]
        if high is None:
            if self.param is not None:
                raise ValidationError(f"{self.kind} transform takes no param, got {self.param}")
        elif self.param is None:
            raise ValidationError(f"{self.kind} transform requires a param")
        else:
            object.__setattr__(self, "param", _require_upto(f"{self.kind} param", self.param, high))

    @classmethod
    def parse(cls, text: str) -> TransformSpec:
        """The spec written `KIND[:PARAM]`, as `label` writes it."""
        kind, args = name_args(text, "transform")
        if len(args) > 1:
            raise ValidationError(f"a transform takes at most one param, got {text!r}")
        return cls(kind, *args)

    @property
    def label(self) -> str:
        """`KIND[:PARAM]`, with the param in `:g` form where that reads back
        as the same float, and in its shortest round-trip form otherwise."""
        if self.param is None:
            return self.kind
        text = f"{self.param:g}"
        return f"{self.kind}:{text if float(text) == self.param else repr(self.param)}"


def perf_weighted_rewards(rewards, perfs, miners, sensitivity: float = 0.0) -> np.ndarray:
    """Performance-weighted split of each wallet's reward.

    `miners` flags the miner wallets. A validator's reward is scaled by
    (base + sensitivity * perf), a miner's by ((1 - base) + sensitivity *
    perf), where base is BASE_VALIDATOR_SHARE. At sensitivity 0 this is a
    uniform within-role rescaling, leaving correlations unchanged.
    """
    sensitivity = _require_nonneg("sensitivity", sensitivity)
    reward_vec, perf_vec = _require_vector("rewards", rewards, math.inf), _require_vector("perfs", perfs, 1.0)
    if reward_vec.shape != perf_vec.shape:
        raise ValidationError("rewards and perfs must have equal length")
    miner_vec = _require_array("miners", miners, 1, np.bool_)
    if miner_vec.shape != reward_vec.shape:
        raise ValidationError("rewards and miners must have equal length")
    return _split(reward_vec, perf_vec, miner_vec, sensitivity)


# The scheme kernels below take checked vectors and a parameter that is a
# number, or a column of numbers for one row of results each; each element
# gets the same arithmetic either way.


def _split(rewards: np.ndarray, perfs: np.ndarray, miners: np.ndarray, sensitivity) -> np.ndarray:
    base = np.where(miners, 1.0 - BASE_VALIDATOR_SHARE, BASE_VALIDATOR_SHARE)
    return rewards * (base + sensitivity * perfs)


def _mix(ranks: np.ndarray, perfs: np.ndarray, weight) -> np.ndarray:
    """The ranks where the weight is 1, the perfs where it is 0, else their
    convex mix."""
    mixed = weight * ranks + (1.0 - weight) * perfs
    return np.where(weight == 1.0, ranks, np.where(weight == 0.0, perfs, mixed))


def _bonus(rewards: np.ndarray, perfs: np.ndarray, rate) -> np.ndarray:
    return rewards * (1.0 + rate * perfs)


def composite_ranks(base_ranks, perfs, rank_weight: float) -> np.ndarray:
    """Convex mix of baseline ranks and performance scores.

    Both inputs must already be on the [0, 1] scale (use unit_rescale for
    raw rankings). rank_weight 1 returns the ranks unchanged, 0 returns
    the performance scores.
    """
    weight = _require_unit("rank_weight", rank_weight)
    ranks = _require_vector("base_ranks", base_ranks, 1.0)
    perf = _require_vector("perfs", perfs, 1.0)
    if ranks.shape != perf.shape:
        raise ValidationError("base_ranks and perfs must have equal length")
    return _mix(ranks, perf, weight)


def bonus_rewards(rewards, perfs, bonus_rate: float) -> np.ndarray:
    """Multiplicative trust bonus: reward * (1 + rate * perf)."""
    rate = _require_nonneg("bonus_rate", bonus_rate)
    reward_vec, perf_vec = _require_vector("rewards", rewards, math.inf), _require_vector("perfs", perfs, 1.0)
    if reward_vec.shape != perf_vec.shape:
        raise ValidationError("rewards and perfs must have equal length")
    return _bonus(reward_vec, perf_vec, rate)


def unit_rescale(values) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant vector maps to all 0.5."""
    x = _require_vector("values", values)
    if x.shape[0] == 0:
        return x.copy()
    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _nearest_rank(ascending: np.ndarray, percentile: float) -> np.ndarray:
    """Nearest-rank percentile of each non-empty ascending row of a block,
    or of an ascending vector."""
    rank = math.ceil(percentile / 100.0 * ascending.shape[-1])
    return ascending[..., max(rank, 1) - 1]


def nearest_rank_percentile(values, percentile: float) -> float:
    """Nearest-rank percentile: element ceil(p/100 * n) of the ascending sort."""
    x = _require_vector("values", values)
    if x.shape[0] == 0:
        raise ValidationError("percentile of an empty vector is undefined")
    return float(_nearest_rank(np.sort(x), _require_upto("percentile", percentile, 100.0)))


def _transform(x: np.ndarray, spec: TransformSpec, cap: Optional[float | np.ndarray]) -> np.ndarray:
    """`spec` applied to a checked stake vector or block; `cap`, the
    nearest-rank cap of the stakes (a column for a block), is read by the
    cap kind only."""
    if spec.kind == "cap":
        return np.minimum(x, cap)
    if spec.kind == "power":
        return np.power(x, spec.param)
    return np.log1p(x)


def apply_stake_transform(stakes, spec: TransformSpec) -> np.ndarray:
    """Reshape a stake vector according to the transform spec."""
    x = _require_vector("stakes", stakes, math.inf)
    cap = nearest_rank_percentile(x, spec.param) if spec.kind == "cap" else None
    return _transform(x, spec, cap)


def _whale_top(before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the top 1% of each row of a (k, n) block of stakes
    (ceil rule, stable sort) and each row's combined stake there."""
    k = math.ceil(0.01 * before.shape[1])
    top_idx = np.argsort(-before, axis=1, kind="stable")[:, :k]
    return top_idx, np.sum(np.take_along_axis(before, top_idx, axis=1), axis=1)


def _penalty(top_before: np.ndarray, after: np.ndarray, top_idx: np.ndarray) -> np.ndarray:
    """Relative reduction of each row's top-1% stake from `top_before` > 0
    to the sum of the row of `after` at `top_idx`. A quotient beyond the
    float range is -inf, as in float arithmetic, not an error; the frontier
    rejects it."""
    top_after = np.sum(np.take_along_axis(after, top_idx, axis=1), axis=1)
    with np.errstate(over="ignore", under="ignore"):
        return (top_before - top_after) / top_before


def whale_penalty(original, transformed) -> float:
    """Fraction of the top-1% wallets' stake removed by a transform.

    The top 1% (ceil rule, by original stake) is fixed before the
    transform; the penalty is the relative reduction of their combined
    stake. Boundary ties resolve by position (stable sort); for transforms
    that are functions of the stake value alone the choice is irrelevant.
    The penalty is at most 1, but a transform can also raise stakes: a
    power below 1 lifts stakes below 1, and their penalty is negative.
    """
    before = _require_vector("original", original)
    after = _require_vector("transformed", transformed)
    if before.shape != after.shape:
        raise ValidationError("original and transformed must have equal length")
    top_idx, top_before = _whale_top(before[None, :])
    if top_before[0] <= 0.0:
        raise ValidationError("whale_penalty is undefined: top-1% stake mass is zero")
    return float(_penalty(top_before, after[None, :], top_idx)[0])
