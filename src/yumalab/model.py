"""Domain types shared across the package.

Every class here is an immutable value object: construction validates the
invariants and raises ValidationError on the first violation, so downstream
code can assume instances are well formed. Timestamps are normalized to
aware UTC datetimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from itertools import compress
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "Role",
    "SnapshotEvent",
    "SnapshotEntry",
    "SubnetSnapshot",
    "WeightMatrix",
    "BondState",
    "EmissionParams",
    "EmissionOutcome",
]


class ValidationError(ValueError):
    """A value violated one of the domain invariants."""


class Role(str, Enum):
    """Wallet role on a subnet."""

    MINER = "miner"
    VALIDATOR = "validator"

    @classmethod
    def parse(cls, text: str) -> "Role":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown role {text!r}") from None


_ROLES = (Role.VALIDATOR, Role.MINER)  # indexed by a miner flag


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _require_nonneg(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def _require_unit(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def _require_utc(name: str, value: datetime) -> datetime:
    if not isinstance(value, datetime) or value.tzinfo is None:
        raise ValidationError(f"{name} must be a timezone-aware datetime")
    return value.astimezone(timezone.utc)


def _require_text(name: str, value: str) -> None:
    """Reject a string that UTF-8 cannot encode: one holding a lone
    surrogate, which a JSON escape such as \\ud800 yields."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{name} must be valid Unicode text, got {value!r}") from None


def _frozen(array: np.ndarray, source) -> np.ndarray:
    """`array`, the conversion of the caller's `source`, made read-only.

    A read-only array is shared as it is. A writable one that is `source`
    itself or a view of other memory is copied first, so that freezing it
    neither freezes the caller's array nor lets the caller change it later;
    one that the conversion made afresh is frozen in place.
    """
    if array.flags.writeable:
        if array is source or array.base is not None:
            array = array.copy()
        array.setflags(write=False)
    return array


def _readonly(array) -> np.ndarray:
    return _frozen(np.ascontiguousarray(array, dtype=np.float64), array)


def _freeze(array: np.ndarray) -> np.ndarray:
    """Make a fresh array that no caller holds read-only, so that the value
    objects built from it share it instead of copying it."""
    array.setflags(write=False)
    return array


def _reject(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ValidationError(message(i)) for the first row i flagged in `bad`."""
    if bad.any():
        raise ValidationError(message(int(np.argmax(bad))))


def _set_columns(obj, dtypes: Mapping[str, type]) -> None:
    """Replace each named field of the frozen dataclass `obj` by a
    read-only one-dimensional array of its dtype, all of equal length.
    A writable array of the caller's is copied, a read-only one shared."""
    for name, dtype in dtypes.items():
        source = getattr(obj, name)
        column = np.asarray(source, dtype=dtype)
        if column.ndim != 1:
            raise ValidationError(f"{name} must be a one-dimensional column")
        object.__setattr__(obj, name, _frozen(column, source))
    if len({len(getattr(obj, name)) for name in dtypes}) != 1:
        raise ValidationError("columns must have equal lengths")


def _check_wallet_columns(wallet_names: Sequence[str], stake: np.ndarray, reward: np.ndarray) -> None:
    """The wallet, stake and reward rules of SnapshotEvent and SnapshotEntry,
    checked on whole columns."""
    if not all(type(name) is str and name for name in wallet_names):
        raise ValidationError("wallet must be a non-empty string")
    # One encode covers every name; the loop only finds the one to name.
    try:
        "".join(wallet_names).encode("utf-8")
    except UnicodeEncodeError:
        for name in wallet_names:
            _require_text("wallet", name)
    for name, column in (("stake", stake), ("reward", reward)):
        _reject(~np.isfinite(column), lambda i: f"{name} must be finite, got {column[i].item()!r}")
        _reject(column < 0.0, lambda i: f"{name} must be >= 0, got {column[i].item()}")


@dataclass(frozen=True, slots=True)
class SnapshotEvent:
    """One observed wallet state on one subnet at one block.

    `trust` is the miner performance score and `validator_trust` the
    validator one; each is only meaningful for the matching role and must
    be absent (None) for the other. `reward` is the emission received
    since the previous event for the same wallet and subnet.
    """

    timestamp: datetime
    block_number: int
    netuid: int
    wallet: str
    role: Role
    stake: float
    reward: float
    trust: Optional[float] = None
    validator_trust: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamp", _require_utc("timestamp", self.timestamp))
        if int(self.block_number) < 0:
            raise ValidationError(f"block_number must be >= 0, got {self.block_number}")
        object.__setattr__(self, "block_number", int(self.block_number))
        if int(self.netuid) < 0:
            raise ValidationError(f"netuid must be >= 0, got {self.netuid}")
        object.__setattr__(self, "netuid", int(self.netuid))
        if not self.wallet:
            raise ValidationError("wallet must be a non-empty string")
        _require_text("wallet", self.wallet)
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role.parse(str(self.role)))
        object.__setattr__(self, "stake", _require_nonneg("stake", self.stake))
        object.__setattr__(self, "reward", _require_nonneg("reward", self.reward))
        if self.trust is not None:
            if self.role is not Role.MINER:
                raise ValidationError(f"trust set on non-miner wallet {self.wallet!r}")
            object.__setattr__(self, "trust", _require_unit("trust", self.trust))
        if self.validator_trust is not None:
            if self.role is not Role.VALIDATOR:
                raise ValidationError(
                    f"validator_trust set on non-validator wallet {self.wallet!r}"
                )
            object.__setattr__(
                self, "validator_trust", _require_unit("validator_trust", self.validator_trust)
            )

    @property
    def perf(self) -> float:
        """Performance score for the wallet's role, 0.0 when unreported."""
        score = self.trust if self.role is Role.MINER else self.validator_trust
        return 0.0 if score is None else score


@dataclass(frozen=True, slots=True)
class SnapshotEntry:
    """Aggregated per-wallet state inside one snapshot window."""

    wallet: str
    role: Role
    stake: float
    reward: float
    perf: float

    def __post_init__(self) -> None:
        if not self.wallet:
            raise ValidationError("wallet must be a non-empty string")
        _require_text("wallet", self.wallet)
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role.parse(str(self.role)))
        object.__setattr__(self, "stake", _require_nonneg("stake", self.stake))
        object.__setattr__(self, "reward", _require_nonneg("reward", self.reward))
        object.__setattr__(self, "perf", _require_unit("perf", self.perf))


_SNAPSHOT_COLUMNS = {"miner": np.bool_, "stake": np.float64, "reward": np.float64, "perf": np.float64}


@dataclass(frozen=True, eq=False)
class SubnetSnapshot:
    """All wallets of one subnet aggregated over one time window, as columns.

    Row i is the wallet `wallet_names[i]`: `miner[i]` is True where its
    role is miner, and `stake`, `reward` and `perf` hold its aggregated
    values. Construction makes the arrays read-only.
    """

    netuid: int
    window_start: datetime
    window_end: datetime
    wallet_names: tuple[str, ...]
    miner: np.ndarray
    stake: np.ndarray
    reward: np.ndarray
    perf: np.ndarray

    def __post_init__(self) -> None:
        if int(self.netuid) < 0:
            raise ValidationError(f"netuid must be >= 0, got {self.netuid}")
        object.__setattr__(self, "netuid", int(self.netuid))
        start = _require_utc("window_start", self.window_start)
        end = _require_utc("window_end", self.window_end)
        if start >= end:
            raise ValidationError("window_start must precede window_end")
        object.__setattr__(self, "window_start", start)
        object.__setattr__(self, "window_end", end)
        names = tuple(self.wallet_names)
        object.__setattr__(self, "wallet_names", names)
        _set_columns(self, _SNAPSHOT_COLUMNS)
        if len(names) != len(self.miner):
            raise ValidationError("columns must have equal lengths")
        _check_wallet_columns(names, self.stake, self.reward)
        perf = self.perf
        _reject(~np.isfinite(perf), lambda i: f"perf must be finite, got {perf[i].item()!r}")
        _reject((perf < 0.0) | (perf > 1.0), lambda i: f"perf must lie in [0, 1], got {perf[i].item()}")
        if len(set(names)) != len(names):
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValidationError(f"duplicate wallet {duplicate!r} in snapshot for netuid {self.netuid}")

    @property
    def entries(self) -> tuple[SnapshotEntry, ...]:
        """The rows as SnapshotEntry objects, built anew on each access."""
        roles = [_ROLES[miner] for miner in self.miner.tolist()]
        values = (self.stake.tolist(), self.reward.tolist(), self.perf.tolist())
        return tuple(map(SnapshotEntry, self.wallet_names, roles, *values))

    def _rows(self, role: Optional[Role]) -> np.ndarray:
        """Mask of the wallets holding `role`; every wallet when None."""
        if role is None:
            return np.ones(len(self.wallet_names), dtype=bool)
        return self.miner == (Role(role) is Role.MINER)

    def wallets(self, role: Optional[Role] = None) -> list[str]:
        return list(compress(self.wallet_names, self._rows(role)))

    def stakes(self, role: Optional[Role] = None) -> np.ndarray:
        return self.stake[self._rows(role)]

    def rewards(self, role: Optional[Role] = None) -> np.ndarray:
        return self.reward[self._rows(role)]

    def perfs(self, role: Optional[Role] = None) -> np.ndarray:
        return self.perf[self._rows(role)]

    def count(self, role: Optional[Role] = None) -> int:
        return int(np.count_nonzero(self._rows(role)))


@dataclass(frozen=True)
class WeightMatrix:
    """Validator-to-miner weight assignments for one subnet.

    `validators` pairs each validator id with its stake; `weights[i, j]`
    is validator i's weight on miner j, each in [0, 1]. Rows are not
    required to sum to one.
    """

    validators: tuple[tuple[str, float], ...]
    miners: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        validators = tuple((str(v), _require_nonneg(f"stake of {v!r}", s)) for v, s in self.validators)
        miners = tuple(str(m) for m in self.miners)
        if not validators:
            raise ValidationError("at least one validator is required")
        if not miners:
            raise ValidationError("at least one miner is required")
        if len({v for v, _ in validators}) != len(validators):
            raise ValidationError("validator ids must be unique")
        if len(set(miners)) != len(miners):
            raise ValidationError("miner ids must be unique")
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (len(validators), len(miners)):
            raise ValidationError(
                f"weights shape {weights.shape} does not match "
                f"{len(validators)} validators x {len(miners)} miners"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0) or np.any(weights > 1.0):
            raise ValidationError("weights must lie in [0, 1]")
        object.__setattr__(self, "validators", validators)
        object.__setattr__(self, "miners", miners)
        object.__setattr__(self, "weights", _frozen(np.ascontiguousarray(weights), self.weights))
        object.__setattr__(self, "_stakes", _readonly([s for _, s in validators]))

    @property
    def stakes(self) -> np.ndarray:
        return self._stakes  # type: ignore[attr-defined]

    @property
    def validator_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.validators)

    @property
    def n_validators(self) -> int:
        return len(self.validators)

    @property
    def n_miners(self) -> int:
        return len(self.miners)


# Emission split used on Bittensor before dTAO: 18% of each block's issuance
# to the subnet owner and 41% each to miners and validators.
OWNER_SHARE = 0.18
MINER_SHARE = 0.41
VALIDATOR_SHARE = 0.41


@dataclass(frozen=True)
class EmissionParams:
    """Protocol parameters of one emission round (a tempo).

    alpha is the EMA smoothing factor for bonds, beta the weight the bond
    calculation places on clipped instead of raw weights, and kappa the
    consensus clipping threshold. The three pool shares must sum to 1
    exactly.
    """

    alpha: float
    beta: float
    kappa: float = 0.5
    owner_share: float = OWNER_SHARE
    miner_share: float = MINER_SHARE
    validator_share: float = VALIDATOR_SHARE
    tempo_blocks: int = 360

    def __post_init__(self) -> None:
        kappa = _require_finite("kappa", self.kappa)
        if not 0.0 < kappa <= 1.0:
            raise ValidationError(f"kappa must lie in (0, 1], got {kappa}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "alpha", _require_unit("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_unit("beta", self.beta))
        for name in ("owner_share", "miner_share", "validator_share"):
            object.__setattr__(self, name, _require_unit(name, getattr(self, name)))
        total = self.owner_share + self.miner_share + self.validator_share
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"pool shares must sum to 1, got {total!r}")
        if int(self.tempo_blocks) <= 0:
            raise ValidationError(f"tempo_blocks must be positive, got {self.tempo_blocks}")
        object.__setattr__(self, "tempo_blocks", int(self.tempo_blocks))


@dataclass(frozen=True)
class BondState:
    """EMA bond matrix (validator x miner) with its tempo counter."""

    bonds: np.ndarray
    tempo_index: int = 0

    def __post_init__(self) -> None:
        bonds = np.asarray(self.bonds, dtype=np.float64)
        if bonds.ndim != 2:
            raise ValidationError("bonds must be a 2-d matrix")
        # One pass: NaN and +-inf fail a comparison too.
        if not ((bonds >= 0.0) & (bonds <= 1.0)).all():
            raise ValidationError("bond entries must lie in [0, 1]")
        object.__setattr__(self, "bonds", _frozen(np.ascontiguousarray(bonds), self.bonds))
        if int(self.tempo_index) < 0:
            raise ValidationError("tempo_index must be >= 0")
        object.__setattr__(self, "tempo_index", int(self.tempo_index))

    @classmethod
    def initial(cls, n_validators: int, n_miners: int) -> "BondState":
        """Zero bonds: the protocol's start state (nothing accrued yet)."""
        return cls(bonds=_freeze(np.zeros((n_validators, n_miners))), tempo_index=0)


class _MappingView:
    """An outcome attribute mapping the ids of `ids` to the floats of the
    array `values`, built on first read and then cached on the outcome."""

    def __init__(self, ids: str, values: str) -> None:
        self.ids, self.values = ids, values

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, outcome, owner=None):
        if outcome is None:
            return self
        view = dict(zip(getattr(outcome, self.ids), getattr(outcome, self.values).tolist()))
        outcome.__dict__[self.name] = view
        return view


@dataclass(frozen=True, eq=False)
class EmissionOutcome:
    """Result of one emission round, as columns.

    Each value array holds one float per id of its id tuple. Shares are
    fractions of the respective pools and the TAO arrays the resulting
    amounts. `bond_state` holds the bonds after the round's EMA update and
    the tempo counter. When no miner received any stake-backed weight,
    `no_ranking_mass` is set and all miner shares are zero. Construction
    makes the arrays read-only. Each mapping attribute (`miner_shares`,
    ...) maps ids to Python floats in id order; it is built on first read
    and cached.
    """

    block_emission: float
    owner_amount: float
    miners: tuple[str, ...]
    validators: tuple[str, ...]
    delegators: tuple[str, ...]
    miner_share_vec: np.ndarray
    validator_share_vec: np.ndarray
    miner_tao_vec: np.ndarray
    validator_tao_vec: np.ndarray
    delegator_reward_vec: np.ndarray
    bond_state: BondState
    no_ranking_mass: bool = False

    miner_shares = _MappingView("miners", "miner_share_vec")
    validator_shares = _MappingView("validators", "validator_share_vec")
    miner_tao = _MappingView("miners", "miner_tao_vec")
    validator_tao = _MappingView("validators", "validator_tao_vec")
    delegator_rewards = _MappingView("delegators", "delegator_reward_vec")
    _views = (miner_shares, validator_shares, miner_tao, validator_tao, delegator_rewards)

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_emission", _require_nonneg("block_emission", self.block_emission))
        object.__setattr__(self, "owner_amount", _require_nonneg("owner_amount", self.owner_amount))
        for name in ("miners", "validators", "delegators"):
            ids = tuple(getattr(self, name))
            if len(set(ids)) != len(ids):
                raise ValidationError(f"ids in {name} must be unique")
            object.__setattr__(self, name, ids)
        columns = []
        for view in self._views:
            values = _readonly(getattr(self, view.values))
            if values.shape != (len(getattr(self, view.ids)),):
                raise ValidationError(f"{view.values} must hold one value per id of {view.ids}")
            object.__setattr__(self, view.values, values)
            columns.append(values)
        # One test over all five arrays; a failure names the first bad value.
        joined = np.concatenate(columns)
        ok = np.isfinite(joined) & (joined >= 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            for view, values in zip(self._views, columns):
                if i < len(values):
                    _require_nonneg(f"{view.name}[{getattr(self, view.ids)[i]!r}]", values[i])
                i -= len(values)
        if not isinstance(self.bond_state, BondState):
            raise ValidationError("bond_state must be a BondState")
        if self.bonds.shape != (len(self.validators), len(self.miners)):
            raise ValidationError(f"bonds shape {self.bonds.shape} does not match the ids")
        miner_total = math.fsum(self.miner_share_vec.tolist())
        if self.no_ranking_mass:
            if miner_total != 0.0:
                raise ValidationError("no_ranking_mass set but miner shares are non-zero")
        elif abs(miner_total - 1.0) > 1e-9:
            raise ValidationError(f"miner shares must sum to 1, got {miner_total!r}")

    @property
    def bonds(self) -> np.ndarray:
        return self.bond_state.bonds

    @property
    def tempo_index(self) -> int:
        return self.bond_state.tempo_index
