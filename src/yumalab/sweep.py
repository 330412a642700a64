"""Parameter sweeps, trade-off frontiers, and temporal robustness.

sweep_scheme replays a reward scheme over a parameter grid and tracks how
the per-(netuid, role) stake/reward and perf/reward correlations move
against the scheme's null parameter. tradeoff_frontier scores stake
transforms by median coalition fraction versus median whale penalty, and
temporal_robustness tracks a transform's coalition fractions across
resampling windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from yumalab.ingest import FREQUENCIES, Dataset, resample
from yumalab.interventions import (
    SchemeParams,
    TransformSpec,
    _nearest_rank,
    _penalty,
    _transform,
    _whale_top,
    bonus_rewards,
    composite_ranks,
    perf_weighted_rewards,
    unit_rescale,
)
from yumalab.metrics import _centred, _check_threshold, _coalition_sorted, _pearson_centred
from yumalab.model import Role, SubnetSnapshot, ValidationError

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

SCHEMES = ("split", "composite", "bonus")

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
    specs = [TransformSpec(kind="cap", cap_percentile=100.0)]
    specs.extend(TransformSpec(kind="cap", cap_percentile=float(p)) for p in DEFAULT_CAP_PERCENTILES)
    specs.extend(TransformSpec(kind="power", power_exponent=a) for a in DEFAULT_POWER_EXPONENTS)
    specs.append(TransformSpec(kind="log"))
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

    scheme: str
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
    median_coalition_fraction: float
    median_whale_penalty: float
    n_subnets: int
    pareto: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.median_coalition_fraction <= 1.0:
            raise ValidationError(
                f"median coalition fraction must lie in (0, 1], got {self.median_coalition_fraction}"
            )
        if not 0.0 <= self.median_whale_penalty <= 1.0:
            raise ValidationError(
                f"median whale penalty must lie in [0, 1], got {self.median_whale_penalty}"
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
    transform: str
    threshold: float
    windows: tuple[RobustnessWindow, ...]


# ---------------------------------------------------------------------------
# Scheme sweeps
# ---------------------------------------------------------------------------


def _scheme_rewards(
    snap: SubnetSnapshot, scheme: str, value: float, params: SchemeParams
) -> np.ndarray:
    if scheme == "split":
        return perf_weighted_rewards(
            snap.reward,
            snap.perf,
            snap.miner,
            base_validator_share=params.base_validator_share,
            sensitivity=value,
        )
    if scheme == "bonus":
        return bonus_rewards(snap.reward, snap.perf, value)
    # composite: re-allocate the miner reward pool along mixed ranks;
    # validator rewards stay untouched.
    adjusted = snap.reward.copy()
    miners = snap.miner
    if miners.any():
        miner_rewards = snap.reward[miners]
        pool = float(np.sum(miner_rewards))
        mixed = composite_ranks(unit_rescale(miner_rewards), snap.perf[miners], value)
        mass = float(np.sum(mixed))
        if mass > 0.0:
            adjusted[miners] = pool * (mixed / mass)
        else:
            adjusted[miners] = 0.0
    return adjusted


# (role, row mask, centred stakes, centred perfs) of each role of a snapshot.
_RoleColumns = list[tuple[Role, np.ndarray, tuple[np.ndarray, float], tuple[np.ndarray, float]]]


def _role_columns(snap: SubnetSnapshot) -> _RoleColumns:
    """(role, row mask, centred stakes, centred perfs) of each role with at
    least 2 wallets; these columns are the same at every grid point."""
    columns = []
    for role, rows in ((Role.MINER, snap.miner), (Role.VALIDATOR, ~snap.miner)):
        if np.count_nonzero(rows) >= 2:
            columns.append((role, rows, _centred(snap.stake[rows]), _centred(snap.perf[rows])))
    return columns


def _point_correlations(
    role_columns: _RoleColumns, adjusted: np.ndarray
) -> dict[Role, tuple[Optional[float], Optional[float]]]:
    out = {}
    for role, rows, stake, perf in role_columns:
        rewards = adjusted[rows]
        if not np.all(np.isfinite(rewards)):
            raise ValidationError("pearson inputs must be finite")
        reward = _centred(rewards)
        out[role] = (_pearson_centred(stake, reward), _pearson_centred(perf, reward))
    return out


def _delta(value: Optional[float], base: Optional[float]) -> Optional[float]:
    if value is None or base is None:
        return None
    return value - base


def sweep_scheme(
    snapshots: Sequence[SubnetSnapshot],
    scheme: str,
    grid: Optional[Sequence[float]] = None,
    params: Optional[SchemeParams] = None,
) -> SweepResult:
    """Sweep one reward scheme over a parameter grid.

    Expects one snapshot per netuid. The grid must contain the scheme's
    null parameter; deltas are taken against the correlations computed at
    that grid point, so the baseline rows are exactly zero. Roles with
    fewer than 2 wallets in a subnet are skipped.
    """
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
    for value in grid_values:
        if scheme == "composite" and not 0.0 <= value <= 1.0:
            raise ValidationError(f"composite grid values must lie in [0, 1], got {value}")
        if scheme in ("split", "bonus") and value < 0.0:
            raise ValidationError(f"{scheme} grid values must be >= 0, got {value}")
    seen: set[int] = set()
    for snap in snapshots:
        if snap.netuid in seen:
            raise ValidationError(
                f"multiple snapshots for netuid {snap.netuid}; pass one snapshot per subnet"
            )
        seen.add(snap.netuid)
    if params is None:
        params = SchemeParams()

    ordered = sorted(snapshots, key=lambda s: s.netuid)
    role_columns = [_role_columns(snap) for snap in ordered]
    by_value = [
        [_point_correlations(columns, _scheme_rewards(snap, scheme, value, params))
         for snap, columns in zip(ordered, role_columns)]
        for value in grid_values
    ]
    baseline = by_value[grid_values.index(null_param)]

    points: list[SweepPoint] = []
    aggregates: list[SweepAggregate] = []
    for value, per_snap in zip(grid_values, by_value):
        for role in (Role.MINER, Role.VALIDATOR):
            deltas_sr: list[float] = []
            deltas_pr: list[float] = []
            excluded = 0
            for snap, corr, base in zip(ordered, per_snap, baseline):
                if role not in corr:
                    continue
                r_sr, r_pr = corr[role]
                d_sr = _delta(r_sr, base[role][0])
                d_pr = _delta(r_pr, base[role][1])
                points.append(
                    SweepPoint(
                        scheme=scheme,
                        param=value,
                        netuid=snap.netuid,
                        role=role,
                        r_sr=r_sr,
                        r_pr=r_pr,
                        d_r_sr=d_sr,
                        d_r_pr=d_pr,
                    )
                )
                if d_sr is None or d_pr is None:
                    excluded += 1
                else:
                    deltas_sr.append(d_sr)
                    deltas_pr.append(d_pr)
            aggregates.append(
                SweepAggregate(
                    scheme=scheme,
                    param=value,
                    role=role,
                    n_subnets=len(deltas_sr),
                    excluded=excluded,
                    mean_d_r_sr=float(np.mean(deltas_sr)) if deltas_sr else None,
                    median_d_r_sr=float(np.median(deltas_sr)) if deltas_sr else None,
                    mean_d_r_pr=float(np.mean(deltas_pr)) if deltas_pr else None,
                    median_d_r_pr=float(np.median(deltas_pr)) if deltas_pr else None,
                )
            )

    # Points are appended value-major, then netuid within each role; re-sort
    # into (grid order, netuid, role) for a stable, documented layout.
    grid_index = {value: i for i, value in enumerate(grid_values)}
    points.sort(key=lambda p: (grid_index[p.param], p.netuid, p.role.value))
    return SweepResult(
        scheme=scheme,
        grid=grid_values,
        per_point=tuple(points),
        aggregates=tuple(aggregates),
    )


# ---------------------------------------------------------------------------
# Frontier and robustness
# ---------------------------------------------------------------------------


def _sorted_stakes(snapshots: Sequence[SubnetSnapshot]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(stakes, their ascending sort) of each snapshot with positive stake
    mass. The columns are checked, so the mass is positive exactly when the
    largest stake is."""
    pairs = []
    for snap in snapshots:
        ascending = np.sort(snap.stake)
        if ascending.shape[0] and ascending[-1] > 0.0:
            pairs.append((snap.stake, ascending))
    return pairs


def _sorted_transform(
    stakes: np.ndarray, ascending: np.ndarray, spec: TransformSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The transformed stakes, as `apply_stake_transform` gives them, and
    their ascending sort. A cap keeps the order of the stakes, so capping
    their sort gives the sort of the capped stakes, value for value."""
    cap = _nearest_rank(ascending, spec.cap_percentile) if spec.kind == "cap" else None
    transformed = _transform(stakes, spec, cap)
    if cap is None:
        return transformed, np.sort(transformed)
    return transformed, _transform(ascending, spec, cap)


def tradeoff_frontier(
    snapshots: Sequence[SubnetSnapshot],
    interventions: Sequence[TransformSpec],
    threshold: float = 0.51,
) -> tuple[FrontierPoint, ...]:
    """Median security vs whale-penalty for each transform.

    Subnets with zero stake mass (before or after the transform) are
    skipped. Points come back sorted by penalty ascending (label breaking
    ties) with Pareto-dominant points flagged: a point is dominated when
    another has strictly higher coalition fraction and strictly lower
    penalty.
    """
    if not interventions:
        raise ValidationError("at least one transform spec is required")
    threshold = _check_threshold(threshold)
    # Each snapshot's sort and top-1% wallets serve every transform.
    subnets = [
        (stakes, ascending, *_whale_top(stakes)) for stakes, ascending in _sorted_stakes(snapshots)
    ]
    points: list[FrontierPoint] = []
    for spec in interventions:
        fractions: list[float] = []
        penalties: list[float] = []
        for stakes, ascending, top_idx, top_before in subnets:
            transformed, ordered = _sorted_transform(stakes, ascending, spec)
            if ordered[-1] > 0.0:  # the transform left some stake mass
                fractions.append(_coalition_sorted(ordered, threshold))
                penalties.append(_penalty(top_before, transformed[top_idx]))
        if not fractions:
            raise ValidationError(
                f"no subnet with positive stake mass for transform {spec.label}"
            )
        points.append(
            FrontierPoint(
                label=spec.label,
                kind=spec.kind,
                param=spec.param,
                median_coalition_fraction=float(np.median(fractions)),
                median_whale_penalty=float(np.median(penalties)),
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


def _percentiles(values: list[float]) -> tuple[float, float, float]:
    p10, p50, p90 = np.percentile(np.asarray(values, dtype=np.float64), [10.0, 50.0, 90.0])
    return float(p10), float(p50), float(p90)


def temporal_robustness(
    dataset: Dataset,
    spec: TransformSpec,
    freqs: Sequence[str] = FREQUENCIES,
    threshold: float = 0.51,
) -> tuple[RobustnessSeries, ...]:
    """Coalition-fraction time series for a transform at each frequency.

    For every window: resample, apply the transform per subnet, and record
    the median and 10th/90th percentiles of the coalition fraction across
    subnets, alongside the untransformed baseline. Requires at least two
    windows per frequency.
    """
    threshold = _check_threshold(threshold)
    series: list[RobustnessSeries] = []
    for freq in freqs:
        snapshots = resample(dataset, freq)
        windows: dict[datetime, list[SubnetSnapshot]] = {}
        for snap in snapshots:
            windows.setdefault(snap.window_start, []).append(snap)
        if len(windows) < 2:
            raise ValidationError(
                f"dataset spans {len(windows)} {freq} window(s); need at least 2"
            )
        rows: list[RobustnessWindow] = []
        for start in sorted(windows):
            pairs = []
            for stakes, ascending in _sorted_stakes(windows[start]):
                _, ordered = _sorted_transform(stakes, ascending, spec)
                if ordered[-1] > 0.0:
                    pairs.append((ascending, ordered))
            stats = (None,) * 6
            if pairs:
                p10, p50, p90 = _percentiles([_coalition_sorted(t, threshold) for _, t in pairs])
                b10, b50, b90 = _percentiles([_coalition_sorted(s, threshold) for s, _ in pairs])
                stats = (p50, p10, p90, b50, b10, b90)
            rows.append(RobustnessWindow(start, len(pairs), *stats))
        series.append(
            RobustnessSeries(
                freq=freq,
                transform=spec.label,
                threshold=float(threshold),
                windows=tuple(rows),
            )
        )
    return tuple(series)
