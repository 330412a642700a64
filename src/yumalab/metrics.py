"""Concentration, correlation, and attack-resilience metrics.

Validating NumPy metric functions, plus snapshot-level report builders.
Both call the same private kernels, which compute a batch of equal-length
rows at once: the functions pass their checked argument as a batch of one,
and the reports pass snapshot or aggregation-table columns, which were
checked when they were built. Degenerate inputs split two ways:
concentration metrics on zero-mass vectors raise ValidationError, while a
Pearson coefficient with a zero-variance input is a legitimate "undefined"
outcome and comes back as None so callers can render gaps instead of
crashing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from yumalab._util import DEFAULT_THRESHOLD
from yumalab.model import Role, SubnetSnapshot, ValidationError, _require_array, _require_upto, _require_vector

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


# The kernels below hold each formula once. Each takes a C-contiguous
# (k, n) block of float64 rows that are already known to be finite, and
# nonnegative but for Pearson's (the public functions check their
# arguments; snapshot and table columns are checked when they are built),
# and returns one value per row. The public functions and the per-snapshot reports pass a batch of
# one row; the table paths pass every segment of one length at once (see
# _blocks). On such a block, NumPy gives each row of these axis=1
# operations, and each batch of the vector-vector np.matmul, the bits it
# gives that row alone, so a value never depends on its batch; in another
# memory order it may sum in another order. Callers that share a sort or a
# sum between kernels must pass exactly the array the public function
# would compute.


def _blocks(values: np.ndarray, offsets: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(segments, block) for each distinct positive length n among the
    segments `values[offsets[s]:offsets[s + 1]]`: the indices of the
    segments of length n, and their values as a (k, n) block, one row per
    segment in row order."""
    lengths = np.diff(offsets)
    for n in sorted(set(lengths.tolist()) - {0}):
        segments = np.flatnonzero(lengths == n)
        yield segments, values[offsets[segments, None] + np.arange(n)]


def _mass_blocks(values: np.ndarray, offsets: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """(segments, block, ascending) for each block of the segments of
    `values` (see _blocks) that hold positive mass: their indices, their
    values and their ascending row sorts. The columns are checked, so the
    mass is positive exactly when the largest value is."""
    for segments, block in _blocks(values, offsets):
        ascending = np.sort(block, axis=1)
        mass = ascending[:, -1] > 0.0
        yield segments[mass], block[mass], ascending[mass]


def _role_segments(offsets: np.ndarray, miner: np.ndarray, role: Role, *columns: np.ndarray) -> tuple:
    """The offsets and `columns` of the segments of the wallet columns
    `miner` and `columns` (see _blocks), kept to the wallets holding `role`."""
    rows = miner == (role is Role.MINER)
    return (np.append(0, np.cumsum(rows))[offsets], *(column[rows] for column in columns))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row of `a` with the same row of `b`, or with `b` when
    it is one vector. np.einsum and a matrix-vector np.matmul sum in
    another order; a batch of vector-vector products does not."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _gini_rows(ascending: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini of each ascending row whose own np.sum is `total` > 0."""
    n = ascending.shape[1]
    return (2.0 * _dot_rows(ascending, np.arange(1.0, n + 1.0)) - (n + 1.0) * total) / (n * total)


def _hhi_rows(x: np.ndarray, total: np.ndarray) -> np.ndarray:
    """HHI of each row whose np.sum is `total` > 0."""
    shares = x / total[:, None]
    return _dot_rows(shares, shares)


def _top_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k largest values of each row."""
    n = x.shape[1]
    if k >= n:
        return np.sum(x, axis=1)
    if k == 1:
        return np.max(x, axis=1)  # the one value np.partition would keep
    return np.sum(np.partition(x, n - k, axis=1)[:, n - k:], axis=1)


def _coalition_rows(ascending: np.ndarray, threshold: float) -> np.ndarray:
    """Coalition fraction of each ascending row with positive mass. The
    cumulative sums of a row never decrease, so the number of them below
    the target is the index np.searchsorted(side="left") gives."""
    cumulative = np.cumsum(ascending[:, ::-1], axis=1)
    target = threshold * cumulative[:, -1]
    n = ascending.shape[1]
    return np.minimum(np.count_nonzero(cumulative < target[:, None], axis=1) + 1, n) / n


def _coalition_column(stake: np.ndarray, offsets: np.ndarray, threshold: float) -> np.ndarray:
    """Coalition fraction of each segment of the column `stake` (see
    _blocks) at a checked `threshold`; NaN where a segment holds no stake
    mass."""
    fractions = np.full(len(offsets) - 1, np.nan)
    for segments, _, ascending in _mass_blocks(stake, offsets):
        fractions[segments] = _coalition_rows(ascending, threshold)
    return fractions


def _centred_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of each row from its mean, and their sums of squares."""
    deviation = x - np.mean(x, axis=1)[:, None]
    return deviation, _dot_rows(deviation, deviation)


def _pearson_rows(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pearson correlation of each row pair of two `_centred_rows` blocks;
    NaN where either variance is zero, or where sums of squares beyond the
    float range leave no number."""
    (dx, sxx), (dy, syy) = x, y
    r = np.full(sxx.shape, np.nan)
    rows = (sxx != 0.0) & (syy != 0.0)
    sxx, syy = sxx[rows], syy[rows]
    with np.errstate(over="ignore", under="ignore"):
        product = sxx * syy
    # Where the product left the normal float range, the roots of the two
    # sums of squares stay in it.
    normal = (product >= sys.float_info.min) & (product < math.inf)
    scale = np.where(normal, np.sqrt(product), np.sqrt(sxx) * np.sqrt(syy))
    r[rows] = np.clip(_dot_rows(dx[rows], dy[rows]) / scale, -1.0, 1.0)
    return r


# np.median and np.percentile import numpy.ma on first use, which no other
# step of a run needs. These two give their values bit for bit; `values`
# must be non-empty and hold no NaN.


def _median(values) -> float:
    """np.median(values): np.mean of the middle value, or of the middle two.
    A sort gives the order statistics np.median's partition gives; among
    zeros of both signs it may pick another zero, but np.mean of zeros is
    0.0 either way."""
    ascending = np.sort(np.asarray(values, dtype=np.float64))
    n = ascending.shape[0]
    return float(np.mean(ascending[(n - 1) // 2:n // 2 + 1]))


def _percentiles(values, percentiles: Sequence[float]) -> list[float]:
    """np.percentile(values, percentiles) by its default linear method:
    virtual index (n - 1) * q, and NumPy's interpolation between the values
    a and b around it, b - (b - a) * (1 - t) where t >= 0.5. An index at or
    past the last value reads the last value, and NumPy takes its t from the
    stand-in index -1. The values come from the np.partition np.percentile
    makes: a sort gives the same order statistics, but not always the same
    sign of a zero among zeros of both signs, which b keeps."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[0]
    virtual = (n - 1) * np.true_divide(percentiles, 100)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1
    lo, hi = below.astype(np.intp), above.astype(np.intp)
    part = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = part[lo], part[hi]
    t = virtual - lo
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out.tolist()


def _check_threshold(threshold: float) -> float:
    return _require_upto("threshold", threshold)


def _optional(value: float) -> Optional[float]:
    """A kernel value as a float, or None for NaN."""
    return None if value != value else float(value)


def gini(values) -> float:
    """Discrete Gini coefficient (mean absolute pairwise difference form),
    computed via the sorted-rank identity in O(n log n)."""
    x = np.sort(_require_vector("values", values, math.inf, nonempty=True))[None, :]
    total = np.sum(x, axis=1)
    if total[0] <= 0.0:
        raise ValidationError("gini is undefined for an all-zero vector")
    return float(_gini_rows(x, total)[0])


def hhi(values) -> float:
    """Herfindahl-Hirschman index: sum of squared shares."""
    x = _require_vector("values", values, math.inf, nonempty=True)[None, :]
    total = np.sum(x, axis=1)
    if total[0] <= 0.0:
        raise ValidationError("hhi is undefined for a zero-sum vector")
    return float(_hhi_rows(x, total)[0])


def top_share(values, fraction: float = 0.01) -> float:
    """Share of the total held by the top ceil(fraction * n) holders."""
    x = _require_vector("values", values, math.inf, nonempty=True)[None, :]
    fraction = _require_upto("fraction", fraction)
    total = np.sum(x, axis=1)
    if total[0] <= 0.0:
        raise ValidationError("top_share is undefined for a zero-sum vector")
    return float(_top_rows(x, math.ceil(fraction * x.shape[1]))[0] / total[0])


def coalition_fraction(stakes, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Fraction of wallets needed to control `threshold` of total stake.

    Sorts stakes descending and returns m/n for the smallest m whose
    cumulative stake reaches threshold * total. Tie order among equal
    stakes cannot change m.
    """
    x = _require_vector("stakes", stakes, math.inf, nonempty=True)
    fraction = _coalition_column(x, np.array([0, len(x)]), _check_threshold(threshold))[0]
    if fraction != fraction:
        raise ValidationError("coalition_fraction is undefined for a zero-sum vector")
    return float(fraction)


def pearson(x, y) -> Optional[float]:
    """Sample Pearson correlation; None when either variance is zero, or
    when sums of squares beyond the float range leave no number."""
    xa = _require_array("x", x, 1)
    ya = _require_array("y", y, 1)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise ValidationError("pearson requires two vectors of equal length")
    if xa.shape[0] < 2:
        raise ValidationError("pearson requires at least 2 observations")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValidationError("pearson inputs must be finite")
    return _optional(_pearson_rows(_centred_rows(xa[None, :]), _centred_rows(ya[None, :]))[0])


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


def _correlation_rows(netuids: Sequence[int], offsets: np.ndarray, miner: np.ndarray, stake: np.ndarray,
                      reward: np.ndarray, perf: np.ndarray) -> Iterator[tuple]:
    """The CorrelationProfile field values of each role with at least 2
    wallets in each segment of the wallet columns (see _blocks), segment s
    being of netuid netuids[s], in (segment, role) order, miners first;
    None stands where a correlation is undefined. The segments of one role
    and length are one batch."""
    tables = {}
    for role in (Role.MINER, Role.VALIDATOR):
        role_offsets, *columns = _role_segments(offsets, miner, role, stake, reward, perf)
        table = np.full((3, len(netuids)), np.nan)
        for (segments, x), (_, y), (_, z) in zip(*(_blocks(column, role_offsets) for column in columns)):
            x, y, z = map(_centred_rows, (x, y, z))  # stake, reward, perf
            table[:, segments] = (_pearson_rows(x, y), _pearson_rows(x, z), _pearson_rows(z, y))
        tables[role] = (np.diff(role_offsets).tolist(), table)
    for s, netuid in enumerate(netuids):
        for role, (counts, table) in tables.items():
            if counts[s] >= 2:
                yield (netuid, role, counts[s], *map(_optional, table[:, s].tolist()))


def correlation_profile(snap: SubnetSnapshot, role: Role) -> CorrelationProfile:
    """Stake/reward/perf correlations for one role within a snapshot."""
    role = Role.parse(role)
    count = snap.count(role)
    if count < 2:
        raise ValidationError(f"need at least 2 wallets with role {role.value} in netuid {snap.netuid}, got {count}")
    offsets = np.array([0, len(snap.wallet)])
    rows = _correlation_rows([snap.netuid], offsets, snap.miner, snap.stake, snap.reward, snap.perf)
    return CorrelationProfile(*next(row for row in rows if row[1] == role))


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


def _concentration(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(gini, hhi, top-1% share) of each segment of `values` (see _blocks)
    as the rows of a (3, segments) array; NaN where a segment is empty or
    holds no mass. One sum of a row serves hhi and the top share; gini
    takes the sum of the sorted row, as `gini` does."""
    out = np.full((3, len(offsets) - 1), np.nan)
    for segments, x, ascending in _mass_blocks(values, offsets):
        total = np.sum(x, axis=1)
        out[:, segments] = (
            _gini_rows(ascending, np.sum(ascending, axis=1)),
            _hhi_rows(x, total),
            _top_rows(x, math.ceil(0.01 * x.shape[1])) / total,
        )
    return out


def _concentration_table(
    offsets: np.ndarray, miner: np.ndarray, stake: np.ndarray, reward: np.ndarray, role_filter: str
) -> tuple[np.ndarray, np.ndarray]:
    """The wallet count of each segment of the wallet columns `miner`,
    `stake` and `reward` under `role_filter`, where segment s holds rows
    offsets[s]:offsets[s + 1], and its six metrics as the columns of a
    (6, segments) array in ConcentrationReport field order, NaN where a
    metric is undefined; the segments are computed as one batch."""
    if role_filter not in ROLE_FILTERS:
        raise ValidationError(f"unknown role filter {role_filter!r}")
    if role_filter != "all":
        offsets, stake, reward = _role_segments(offsets, miner, Role(role_filter), stake, reward)
    # Rows (gini, hhi, top) of stake and of reward, interleaved.
    metrics = np.stack((_concentration(stake, offsets), _concentration(reward, offsets)), axis=1)
    return np.diff(offsets), metrics.reshape(6, -1)


def _concentration_rows(netuids: Sequence[int], tables: dict) -> Iterator[tuple]:
    """The ConcentrationReport field values of each segment under each role
    filter, in (segment, role filter) order, from the _concentration_table
    of each role filter in `tables`; segment s is of netuid netuids[s], and
    None stands where a metric is undefined."""
    for s, netuid in enumerate(netuids):
        for role_filter, (counts, metrics) in tables.items():
            yield (netuid, role_filter, int(counts[s]), *map(_optional, metrics[:, s].tolist()))


def concentration_report(snap: SubnetSnapshot, role_filter: str = "all") -> ConcentrationReport:
    """Table-style concentration metrics for one snapshot and role filter."""
    offsets = np.array([0, len(snap.wallet)])
    table = _concentration_table(offsets, snap.miner, snap.stake, snap.reward, role_filter)
    return ConcentrationReport(*next(_concentration_rows([snap.netuid], {role_filter: table})))
