"""Concentration, correlation, and attack-resilience metrics.

Validating NumPy metric functions, plus snapshot-level report builders.
Both call the same private kernels: the functions after checking their
arguments, the reports directly on snapshot columns, which the snapshot
checked when it was built. Degenerate inputs split two ways:
concentration metrics on zero-mass vectors raise ValidationError, while a
Pearson coefficient with a zero-variance input is a legitimate "undefined"
outcome and comes back as None so callers can render gaps instead of
crashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from yumalab.model import Role, SubnetSnapshot, ValidationError

__all__ = [
    "ROLE_FILTERS",
    "ConcentrationReport",
    "CorrelationProfile",
    "gini",
    "hhi",
    "top_share",
    "coalition_fraction",
    "pearson",
    "correlation_profile",
    "concentration_report",
]

ROLE_FILTERS = ("all", "miner", "validator")


def _as_nonneg_vector(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} must be finite")
    if np.any(x < 0.0):
        raise ValidationError(f"{name} must be nonnegative")
    return x


# The kernels below hold each formula once. They take float64 vectors that
# are already known to be finite and nonnegative (the public functions check
# their arguments; snapshot columns are checked on construction). Callers
# that share a sort or a sum between kernels must pass exactly the array or
# the value the public function would compute, so that a report stays bit
# for bit what the public functions return on the same columns.


def _gini_sorted(ascending: np.ndarray, total: float) -> float:
    """Gini of an ascending vector whose own np.sum is `total` > 0."""
    n = ascending.shape[0]
    ranks = np.arange(1.0, n + 1.0)
    return (2.0 * float(np.dot(ranks, ascending)) - (n + 1.0) * total) / (n * total)


def _hhi(x: np.ndarray, total: float) -> float:
    """HHI of a vector whose np.sum is `total` > 0."""
    shares = x / total
    return float(np.dot(shares, shares))


def _top_sum(x: np.ndarray, k: int) -> float:
    """Sum of the k largest values of x."""
    n = x.shape[0]
    if k >= n:
        return float(np.sum(x))
    if k == 1:
        return float(np.max(x))  # the one value np.partition would keep
    return float(np.sum(np.partition(x, n - k)[n - k:]))


def _coalition_sorted(ascending: np.ndarray, threshold: float) -> float:
    """Coalition fraction of an ascending vector with positive mass."""
    cumulative = np.cumsum(ascending[::-1])
    target = threshold * float(cumulative[-1])
    m = int(np.searchsorted(cumulative, target, side="left")) + 1
    n = ascending.shape[0]
    return min(m, n) / n


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Deviations of x from its mean, and their sum of squares."""
    deviation = x - float(np.mean(x))
    return deviation, float(np.dot(deviation, deviation))


def _pearson_centred(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> Optional[float]:
    """Pearson correlation of two `_centred` vectors; None on zero variance."""
    (dx, sxx), (dy, syy) = x, y
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _check_threshold(threshold: float) -> float:
    threshold = float(threshold)
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    return threshold


def gini(values) -> float:
    """Discrete Gini coefficient (mean absolute pairwise difference form),
    computed via the sorted-rank identity in O(n log n)."""
    x = np.sort(_as_nonneg_vector(values, "values"))
    total = float(np.sum(x))
    if total <= 0.0:
        raise ValidationError("gini is undefined for an all-zero vector")
    return _gini_sorted(x, total)


def hhi(values) -> float:
    """Herfindahl-Hirschman index: sum of squared shares."""
    x = _as_nonneg_vector(values, "values")
    total = float(np.sum(x))
    if total <= 0.0:
        raise ValidationError("hhi is undefined for a zero-sum vector")
    return _hhi(x, total)


def top_share(values, fraction: float = 0.01) -> float:
    """Share of the total held by the top ceil(fraction * n) holders."""
    x = _as_nonneg_vector(values, "values")
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    total = float(np.sum(x))
    if total <= 0.0:
        raise ValidationError("top_share is undefined for a zero-sum vector")
    return _top_sum(x, math.ceil(fraction * x.shape[0])) / total


def coalition_fraction(stakes, threshold: float = 0.51) -> float:
    """Fraction of wallets needed to control `threshold` of total stake.

    Sorts stakes descending and returns m/n for the smallest m whose
    cumulative stake reaches threshold * total. Tie order among equal
    stakes cannot change m.
    """
    x = _as_nonneg_vector(stakes, "stakes")
    threshold = _check_threshold(threshold)
    if float(np.sum(x)) <= 0.0:
        raise ValidationError("coalition_fraction is undefined for a zero-sum vector")
    return _coalition_sorted(np.sort(x), threshold)


def pearson(x, y) -> Optional[float]:
    """Sample Pearson correlation; None when either variance is zero."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise ValidationError("pearson requires two vectors of equal length")
    if xa.shape[0] < 2:
        raise ValidationError("pearson requires at least 2 observations")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValidationError("pearson inputs must be finite")
    return _pearson_centred(_centred(xa), _centred(ya))


@dataclass(frozen=True)
class CorrelationProfile:
    """The three pairwise correlations for one (netuid, role).

    r_sr: stake vs reward; r_sp: stake vs perf; r_pr: perf vs reward.
    Any of them may be None (undefined on zero-variance columns).
    """

    netuid: int
    role: Role
    n_wallets: int
    r_sr: Optional[float]
    r_sp: Optional[float]
    r_pr: Optional[float]


def correlation_profile(snap: SubnetSnapshot, role: Role) -> CorrelationProfile:
    """Stake/reward/perf correlations for one role within a snapshot."""
    stakes = snap.stakes(role)
    if stakes.shape[0] < 2:
        raise ValidationError(
            f"need at least 2 wallets with role {role.value} in netuid {snap.netuid}, "
            f"got {stakes.shape[0]}"
        )
    stake, reward, perf = map(_centred, (stakes, snap.rewards(role), snap.perfs(role)))
    return CorrelationProfile(
        netuid=snap.netuid,
        role=role,
        n_wallets=stakes.shape[0],
        r_sr=_pearson_centred(stake, reward),
        r_sp=_pearson_centred(stake, perf),
        r_pr=_pearson_centred(perf, reward),
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Stake and reward concentration for one (netuid, role filter).

    Metrics are None when undefined for the underlying vector (zero mass,
    or no wallets under the filter).
    """

    netuid: int
    role_filter: str
    n_wallets: int
    gini_stake: Optional[float]
    gini_reward: Optional[float]
    hhi_stake: Optional[float]
    hhi_reward: Optional[float]
    top1_stake_share: Optional[float]
    top1_reward_share: Optional[float]


def _column_metrics(x: np.ndarray) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(gini, hhi, top-1% share) of a snapshot column; all None when it is
    empty or holds no mass. One sum of x serves the guard, hhi and the top
    share; gini takes the sum of the sorted copy, as `gini` does."""
    total = float(np.sum(x))
    if total <= 0.0:
        return None, None, None
    ascending = np.sort(x)
    return (
        _gini_sorted(ascending, float(np.sum(ascending))),
        _hhi(x, total),
        _top_sum(x, math.ceil(0.01 * x.shape[0])) / total,
    )


def concentration_report(snap: SubnetSnapshot, role_filter: str = "all") -> ConcentrationReport:
    """Table-style concentration metrics for one snapshot and role filter."""
    if role_filter not in ROLE_FILTERS:
        raise ValidationError(f"unknown role filter {role_filter!r}")
    role = None if role_filter == "all" else Role(role_filter)
    stakes = snap.stakes(role)
    gini_stake, hhi_stake, top_stake = _column_metrics(stakes)
    gini_reward, hhi_reward, top_reward = _column_metrics(snap.rewards(role))
    return ConcentrationReport(
        netuid=snap.netuid,
        role_filter=role_filter,
        n_wallets=stakes.shape[0],
        gini_stake=gini_stake,
        gini_reward=gini_reward,
        hhi_stake=hhi_stake,
        hhi_reward=hhi_reward,
        top1_stake_share=top_stake,
        top1_reward_share=top_reward,
    )
