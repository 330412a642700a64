"""Parameter sweeps, trade-off frontiers, and temporal robustness.

sweep_scheme replays a reward scheme over a parameter grid and tracks how
the per-(netuid, role) stake/reward and perf/reward correlations move
against the scheme's null parameter. tradeoff_frontier scores stake
transforms by median coalition fraction versus median whale penalty, and
temporal_robustness tracks a transform's coalition fractions across
resampling windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from yumalab._util import DEFAULT_THRESHOLD, FREQUENCIES, SCHEMES
from yumalab.ingest import Dataset, _history_table, _window_table
from yumalab.interventions import (
    TransformSpec,
    _bonus,
    _mix,
    _nearest_rank,
    _penalty,
    _split,
    _transform,
    _whale_top,
    unit_rescale,
)
from yumalab.metrics import (
    _centred_rows,
    _check_threshold,
    _coalition_rows,
    _median,
    _optional,
    _pearson_rows,
    _percentiles,
    _stake_blocks,
)
from yumalab.model import Role, ValidationError, _require_upto

__all__ = [
    "SCHEMES",
    "NULL_PARAMS",
    "SweepPoint",
    "SweepAggregate",
    "SweepResult",
    "FrontierPoint",
    "RobustnessWindow",
    "RobustnessSeries",
    "default_grid",
    "default_frontier_specs",
    "sweep_scheme",
    "tradeoff_frontier",
    "temporal_robustness",
]

# Parameter value at which each scheme is the identity (baseline) case.
NULL_PARAMS = {"split": 0.0, "composite": 1.0, "bonus": 0.0}

DEFAULT_CAP_PERCENTILES = (50, 55, 60, 65, 70, 75, 80, 85, 88, 90, 95, 96, 97, 98, 99)
DEFAULT_POWER_EXPONENTS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)


def default_grid(scheme: str) -> tuple[float, ...]:
    """Default parameter grid for a reward scheme, null value included."""
    if scheme == "split":
        return tuple(i / 10 for i in range(21))
    if scheme == "composite":
        return tuple(i / 10 for i in range(11))
    if scheme == "bonus":
        return tuple(i / 100 for i in range(21))
    raise ValidationError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")


def default_frontier_specs() -> tuple[TransformSpec, ...]:
    """Identity cap, the cap percentile ladder, power ladder, and log."""
    specs = [TransformSpec("cap", 100.0)]
    specs.extend(TransformSpec("cap", p) for p in DEFAULT_CAP_PERCENTILES)
    specs.extend(TransformSpec("power", a) for a in DEFAULT_POWER_EXPONENTS)
    specs.append(TransformSpec("log"))
    return tuple(specs)


@dataclass(frozen=True)
class SweepPoint:
    """Correlations at one grid value for one (netuid, role)."""

    scheme: str
    param: float
    netuid: int
    role: Role
    r_sr: Optional[float]
    r_pr: Optional[float]
    d_r_sr: Optional[float]
    d_r_pr: Optional[float]


@dataclass(frozen=True)
class SweepAggregate:
    """Across-subnet delta statistics at one grid value for one role.

    n_subnets counts subnets with fully defined deltas; excluded counts
    subnets present at this point whose correlations (here or at the
    baseline) are undefined. Statistics are None when nothing is defined.
    """

    param: float
    role: Role
    n_subnets: int
    excluded: int
    mean_d_r_sr: Optional[float]
    median_d_r_sr: Optional[float]
    mean_d_r_pr: Optional[float]
    median_d_r_pr: Optional[float]


@dataclass(frozen=True)
class SweepResult:
    scheme: str
    grid: tuple[float, ...]
    per_point: tuple[SweepPoint, ...]
    aggregates: tuple[SweepAggregate, ...]


@dataclass(frozen=True)
class FrontierPoint:
    """Security/penalty summary of one transform across subnets."""

    label: str
    kind: str
    param: Optional[float]
    n_subnets: int
    median_coalition_fraction: float
    median_whale_penalty: float
    pareto: bool = False

    def __post_init__(self) -> None:
        _require_upto("median coalition fraction", self.median_coalition_fraction)
        # A transform that raises stakes gives a negative penalty.
        if not (math.isfinite(self.median_whale_penalty) and self.median_whale_penalty <= 1.0):
            raise ValidationError(
                f"median whale penalty must be finite and at most 1, got {self.median_whale_penalty}"
            )


@dataclass(frozen=True)
class RobustnessWindow:
    window_start: datetime
    n_subnets: int
    median: Optional[float]
    p10: Optional[float]
    p90: Optional[float]
    baseline_median: Optional[float]
    baseline_p10: Optional[float]
    baseline_p90: Optional[float]


@dataclass(frozen=True)
class RobustnessSeries:
    freq: str
    windows: tuple[RobustnessWindow, ...]


# ---------------------------------------------------------------------------
# Scheme sweeps
# ---------------------------------------------------------------------------


def _scheme_rewards(
    miner: np.ndarray, reward: np.ndarray, perf: np.ndarray, scheme: str, grid: Sequence[float]
) -> np.ndarray:
    """One subnet's rewards under `scheme` at each checked grid value, one
    row per value, as the scheme's public functions give them."""
    values = np.array(grid)[:, None]
    if scheme == "split":
        return _split(reward, perf, miner, values)
    if scheme == "bonus":
        return _bonus(reward, perf, values)
    # composite: re-allocate the miner reward pool along mixed ranks;
    # validator rewards stay untouched.
    adjusted = np.tile(reward, (len(grid), 1))
    if miner.any():
        miner_rewards = reward[miner]
        pool = float(np.sum(miner_rewards))
        mixed = _mix(unit_rescale(miner_rewards), perf[miner], values)
        mass = np.sum(mixed, axis=1)
        positive = mass > 0.0
        shares = np.zeros_like(mixed)
        shares[positive] = pool * (mixed[positive] / mass[positive, None])
        adjusted[:, miner] = shares
    return adjusted


def _role_correlations(
    miner: np.ndarray, stake: np.ndarray, perf: np.ndarray, adjusted: np.ndarray
) -> dict[Role, tuple[np.ndarray, np.ndarray]]:
    """The stake/reward and perf/reward correlations of each role with at
    least 2 wallets of one subnet, one per row of `adjusted`, its rewards at
    each grid value; NaN where a correlation is undefined."""
    out = {}
    for role, rows in ((Role.MINER, miner), (Role.VALIDATOR, ~miner)):
        if np.count_nonzero(rows) < 2:
            continue
        # The kernels take C-contiguous blocks; adjusted[:, rows] is not one.
        rewards = np.ascontiguousarray(adjusted[:, rows])
        if not np.all(np.isfinite(rewards)):
            raise ValidationError("pearson inputs must be finite")
        reward = _centred_rows(rewards)
        centred = [_centred_rows(np.tile(column[rows], (len(rewards), 1))) for column in (stake, perf)]
        out[role] = tuple(_pearson_rows(x, reward) for x in centred)
    return out


def _check_grid(scheme: str, grid: Optional[Sequence[float]]) -> tuple[float, ...]:
    """The checked grid of a `scheme` sweep as floats; None gives the default grid."""
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    grid_values = tuple(float(g) for g in (default_grid(scheme) if grid is None else grid))
    if not grid_values:
        raise ValidationError("grid must be nonempty")
    null_param = NULL_PARAMS[scheme]
    if null_param not in grid_values:
        raise ValidationError(
            f"grid for scheme {scheme!r} must include the null parameter {null_param}"
        )
    distinct: set[float] = set()
    for value in grid_values:
        if not math.isfinite(value):
            raise ValidationError(f"grid values must be finite, got {value}")
        if scheme == "composite" and not 0.0 <= value <= 1.0:
            raise ValidationError(f"composite grid values must lie in [0, 1], got {value}")
        if scheme in ("split", "bonus") and value < 0.0:
            raise ValidationError(f"{scheme} grid values must be >= 0, got {value}")
        # -0.0 == 0.0, so the two count as one value.
        if value in distinct:
            raise ValidationError(f"grid values must be distinct; {value} appears more than once")
        distinct.add(value)
    return grid_values


def sweep_scheme(dataset: Dataset, scheme: str, grid: Optional[Sequence[float]] = None) -> SweepResult:
    """Sweep one reward scheme over a parameter grid, on each subnet of
    `dataset` as history_snapshots aggregates it.

    The grid must hold distinct values, the scheme's null parameter among
    them; deltas are taken against the correlations computed at that grid
    point, so the baseline rows are exactly zero. Roles with fewer than 2
    wallets in a subnet are skipped.
    """
    grid_values = _check_grid(scheme, grid)
    netuids, _, offsets, _, miner, stake, reward, perf = _history_table(dataset)
    base = grid_values.index(NULL_PARAMS[scheme])
    # Per subnet, a segment of the table, and role: (r_sr, r_pr, d_r_sr,
    # d_r_pr) at each grid value, None where undefined. Each role's grid
    # values are one batch.
    columns = []
    for first, stop in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        subnet = slice(first, stop)
        adjusted = _scheme_rewards(miner[subnet], reward[subnet], perf[subnet], scheme, grid_values)
        roles = {}
        for role, (r_sr, r_pr) in _role_correlations(miner[subnet], stake[subnet], perf[subnet], adjusted).items():
            values = (r_sr, r_pr, r_sr - r_sr[base], r_pr - r_pr[base])
            roles[role] = list(zip(*(map(_optional, column.tolist()) for column in values)))
        columns.append(roles)

    # One pass in (grid order, netuid, role) order. Each role's deltas,
    # in netuid order, feed its aggregate at the grid value.
    points: list[SweepPoint] = []
    aggregates: list[SweepAggregate] = []
    for i, value in enumerate(grid_values):
        deltas: dict[Role, list[tuple]] = {Role.MINER: [], Role.VALIDATOR: []}
        for netuid, roles in zip(netuids.tolist(), columns):
            for role, rows in roles.items():
                r_sr, r_pr, d_sr, d_pr = rows[i]
                points.append(SweepPoint(scheme=scheme, param=value, netuid=netuid, role=role,
                                         r_sr=r_sr, r_pr=r_pr, d_r_sr=d_sr, d_r_pr=d_pr))
                deltas[role].append((d_sr, d_pr))
        for role, pairs in deltas.items():
            defined = [pair for pair in pairs if None not in pair]
            deltas_sr = [d_sr for d_sr, _ in defined]
            deltas_pr = [d_pr for _, d_pr in defined]
            stats = (None,) * 4
            if defined:
                stats = (float(np.mean(deltas_sr)), _median(deltas_sr), float(np.mean(deltas_pr)), _median(deltas_pr))
            aggregates.append(SweepAggregate(value, role, len(defined), len(pairs) - len(defined), *stats))
    return SweepResult(
        scheme=scheme,
        grid=grid_values,
        per_point=tuple(points),
        aggregates=tuple(aggregates),
    )


# ---------------------------------------------------------------------------
# Frontier and robustness
# ---------------------------------------------------------------------------


def _sorted_transform(
    stakes: np.ndarray, ascending: np.ndarray, spec: TransformSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The transformed rows of a (k, n) block of stakes, as
    `apply_stake_transform` gives each, and their ascending sorts, given the
    sorts of the stakes. A cap keeps the order of the stakes, so capping
    their sort gives the sort of the capped stakes, value for value."""
    cap = _nearest_rank(ascending, spec.param)[:, None] if spec.kind == "cap" else None
    transformed = _transform(stakes, spec, cap)
    if cap is None:
        return transformed, np.sort(transformed, axis=1)
    return transformed, _transform(ascending, spec, cap)


def tradeoff_frontier(
    dataset: Dataset, interventions: Sequence[TransformSpec], threshold: float = DEFAULT_THRESHOLD
) -> tuple[FrontierPoint, ...]:
    """Median security vs whale-penalty for each transform, over the
    subnets of `dataset` as history_snapshots aggregates them.

    Subnets with zero stake mass (before or after the transform) are
    skipped. Points come back sorted by penalty ascending (label breaking
    ties) with Pareto-dominant points flagged: a point is dominated when
    another has strictly higher coalition fraction and strictly lower
    penalty.
    """
    if not interventions:
        raise ValidationError("at least one transform spec is required")
    threshold = _check_threshold(threshold)
    # Each block's sorts and top-1% wallets serve every transform. A median
    # does not depend on the order of its values, so the subnets may come
    # block by block.
    _, _, offsets, _, _, stake, _, _ = _history_table(dataset)
    blocks = [
        (stakes, ascending, *_whale_top(stakes)) for _, stakes, ascending in _stake_blocks(stake, offsets)
    ]
    points: list[FrontierPoint] = []
    for spec in interventions:
        fractions: list[float] = []
        penalties: list[float] = []
        for stakes, ascending, top_idx, top_before in blocks:
            transformed, ordered = _sorted_transform(stakes, ascending, spec)
            kept = ordered[:, -1] > 0.0  # the transform left some stake mass
            fractions.extend(_coalition_rows(ordered[kept], threshold).tolist())
            penalties.extend(_penalty(top_before[kept], transformed[kept], top_idx[kept]).tolist())
        if not fractions:
            raise ValidationError(
                f"no subnet with positive stake mass for transform {spec.label}"
            )
        points.append(
            FrontierPoint(
                label=spec.label,
                kind=spec.kind,
                param=spec.param,
                median_coalition_fraction=_median(fractions),
                median_whale_penalty=_median(penalties),
                n_subnets=len(fractions),
            )
        )
    points.sort(key=lambda p: (p.median_whale_penalty, p.label))

    def dominated(p: FrontierPoint) -> bool:
        return any(
            q.median_coalition_fraction > p.median_coalition_fraction
            and q.median_whale_penalty < p.median_whale_penalty
            for q in points
        )

    return tuple(replace(p, pareto=not dominated(p)) for p in points)


def temporal_robustness(
    dataset: Dataset,
    spec: TransformSpec,
    freqs: Sequence[str] = FREQUENCIES,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[RobustnessSeries, ...]:
    """Coalition-fraction time series for a transform at each frequency.

    For every window: resample, apply the transform per subnet, and record
    the median and 10th/90th percentiles of the coalition fraction across
    subnets, alongside the untransformed baseline. Subnets with zero stake
    mass (before or after the transform) are skipped. Requires at least two
    windows per frequency.
    """
    threshold = _check_threshold(threshold)
    series: list[RobustnessSeries] = []
    for freq in freqs:
        # The subnets of a window are segments of the resample table, so
        # no snapshot is built.
        (_, keys, offsets, _, _, stake, _, _), start_of = _window_table(dataset, freq)
        windows = sorted(set(keys.tolist()))
        if len(windows) < 2:
            raise ValidationError(
                f"dataset spans {len(windows)} {freq} window(s); need at least 2"
            )
        # Each segment's coalition fraction after and before the transform;
        # NaN where either leaves no stake mass.
        fractions = np.full((2, len(keys)), np.nan)
        for segments, _, ascending in _stake_blocks(stake, offsets):
            ordered = _sorted_transform(ascending, ascending, spec)[1]
            kept = ordered[:, -1] > 0.0
            fractions[:, segments[kept]] = (
                _coalition_rows(ordered[kept], threshold),
                _coalition_rows(ascending[kept], threshold),
            )
        rows: list[RobustnessWindow] = []
        for key in windows:
            transformed, baseline = fractions[:, (keys == key) & ~np.isnan(fractions[0])]
            stats = (None,) * 6
            if transformed.shape[0]:
                p10, p50, p90 = _percentiles(transformed, (10.0, 50.0, 90.0))
                b10, b50, b90 = _percentiles(baseline, (10.0, 50.0, 90.0))
                stats = (p50, p10, p90, b50, b10, b90)
            rows.append(RobustnessWindow(start_of(key), transformed.shape[0], *stats))
        series.append(RobustnessSeries(freq=freq, windows=tuple(rows)))
    return tuple(series)
