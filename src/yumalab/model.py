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
from itertools import chain
from typing import Callable, Mapping, Optional

import numpy as np

from yumalab._util import ValidationError

__all__ = [
    "ValidationError",
    "Role",
    "SnapshotEvent",
    "SnapshotEntry",
    "SubnetSnapshot",
    "WalletNames",
    "WeightMatrix",
    "BondState",
    "EmissionParams",
    "EmissionOutcome",
]


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


def _require_real(name: str, value) -> float:
    """`value` as a float if it is an int, a float or a NumPy real scalar but
    not a bool (np.bool_ is no np.integer); float() would read True and "1_0"."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be within float64 range, got {value!r}") from None


def _require_finite(name: str, value: float) -> float:
    value = _require_real(name, value)
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


def _require_upto(name: str, value: float, high: float = 1.0) -> float:
    value = _require_real(name, value)
    if not 0.0 < value <= high:  # NaN fails too
        raise ValidationError(f"{name} must lie in (0, {high:g}], got {value}")
    return value


def _require_int(name: str, value: int) -> int:
    if type(value) is bool or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    return value


def _require_id(name: str, value: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _require_bool(name: str, value: bool) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return value


# The array kind rule, per dtype: the NumPy array kinds it takes, what they
# hold, the cell types that need no further test, and the rule of the others.
_ARRAY_KINDS = {
    np.float64: ("iuf", "real numbers", {int, float}, _require_real),
    np.int64: ("iu", "ints", {int}, _require_int),
    np.bool_: ("b", "bools", {bool}, _require_bool),
}


def _require_array(name: str, value, ndim: int, dtype: type = np.float64) -> np.ndarray:
    """`value` as an array of `dtype`, where np.asarray would also read True,
    "0.5" and None: a NumPy array of a fitting kind, or `ndim` levels of lists
    or tuples whose cells pass the dtype's scalar rule. A level that is not a
    list, a tuple or an array is a shape fault, a TypeError. The caller
    checks the shape."""
    kinds, held, plain, require = _ARRAY_KINDS[dtype]
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in kinds:
            raise ValidationError(f"{name} must hold {held}, got dtype {value.dtype}")
        if value.dtype == np.uint64 and dtype is np.int64:  # the one kind that can exceed its target
            _reject(value.ravel() > np.iinfo(dtype).max, lambda i: f"{name} must be within int64 range, got {value.flat[i]}")
        return np.asarray(value, dtype=dtype)
    cells = [value]
    for level in range(ndim):
        for row in cells:
            if not isinstance(row, (list, tuple, np.ndarray)):
                raise TypeError(f"{name}{' row' if level else ''} must be a list, a tuple or an array, got {row!r}")
        cells = list(chain.from_iterable(cells))
    # One set test passes the common case; the loop names the first bad cell.
    if not set(map(type, cells)) <= plain:
        for cell in cells:
            if isinstance(cell, (list, tuple, np.ndarray)):
                _require_array(name, cell, 1, dtype)  # a level too many: the caller's shape check names it
            else:
                require(name, cell)
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:  # a Python int beyond the dtype's range
        info = np.iinfo(dtype) if dtype is np.int64 else np.finfo(dtype)
        cell = next(cell for cell in cells if type(cell) is int and not int(info.min) <= cell <= int(info.max))
        raise ValidationError(f"{name} must be within {info.dtype} range, got {cell!r}") from None


def _require_vector(name: str, values, high: Optional[float] = None, nonempty: bool = False) -> np.ndarray:
    """`values` as a finite float64 vector by the kind rule of
    `_require_array`, non-empty if `nonempty`; with `high` (inf or 1), each
    value must lie in [0, high]."""
    x = _require_array(name, values, 1)
    if x.ndim != 1 or nonempty and x.shape[0] == 0:
        raise ValidationError(f"{name} must be a {'non-empty ' if nonempty else ''}1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} must be finite")
    if high is not None and (np.any(x < 0.0) or np.any(x > high)):
        raise ValidationError(f"{name} must be nonnegative" if high == math.inf else f"{name} must lie in [0, 1]")
    return x


def _require_utc(name: str, value: datetime) -> datetime:
    if not isinstance(value, datetime) or value.tzinfo is None:
        raise ValidationError(f"{name} must be a timezone-aware datetime")
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:
        raise ValidationError(f"{name} is out of range in UTC") from None


class WalletNames(tuple):
    """A table of wallet names, indexed by wallet code: each a non-empty str
    that UTF-8 can encode, none twice. Only this constructor, which checks
    the rule, makes one, and it returns a WalletNames unchanged."""

    __slots__ = ()

    def __new__(cls, names):
        if type(names) is cls:
            return names
        names = super().__new__(cls, names)
        for name in names:
            try:
                _require_id("wallet", name).encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which a JSON escape such as \ud800 yields
                raise ValidationError(f"wallet must be valid Unicode text, got {name!r}") from None
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate wallet {_first_repeat(names)!r} in wallet_names")
        return names


def _first_repeat(values):
    """The first of `values` that an earlier one equals; None when none does."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)


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
        column = _require_array(name, source, 1, dtype)
        if column.ndim != 1:
            raise ValidationError(f"{name} must be a one-dimensional column")
        object.__setattr__(obj, name, _frozen(column, source))
    if len({len(getattr(obj, name)) for name in dtypes}) != 1:
        raise ValidationError("columns must have equal lengths")


def _check_amounts(stake: np.ndarray, reward: np.ndarray) -> None:
    """The stake and reward rules of SnapshotEvent and SnapshotEntry,
    checked on whole columns."""
    for name, column in (("stake", stake), ("reward", reward)):
        _reject(~np.isfinite(column), lambda i: f"{name} must be finite, got {column[i].item()!r}")
        _reject(column < 0.0, lambda i: f"{name} must be >= 0, got {column[i].item()}")


def _check_codes(wallet: np.ndarray, wallet_names: WalletNames) -> None:
    """Each wallet code must index `wallet_names`."""
    _reject((wallet < 0) | (wallet >= len(wallet_names)), lambda i: f"wallet code {wallet[i]} is not in wallet_names")


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
        WalletNames((self.wallet,))
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
        WalletNames((self.wallet,))
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role.parse(str(self.role)))
        object.__setattr__(self, "stake", _require_nonneg("stake", self.stake))
        object.__setattr__(self, "reward", _require_nonneg("reward", self.reward))
        object.__setattr__(self, "perf", _require_unit("perf", self.perf))


_SNAPSHOT_COLUMNS = {"wallet": np.int64, "miner": np.bool_, "stake": np.float64, "reward": np.float64, "perf": np.float64}


@dataclass(frozen=True, eq=False)
class SubnetSnapshot:
    """All wallets of one subnet aggregated over one time window, as columns.

    Row i is the wallet `wallet_names[wallet[i]]`, where a snapshot cut
    from a Dataset shares the Dataset's name table. `miner[i]` is True
    where the row's role is miner, and `stake`, `reward` and `perf` hold
    its aggregated values. Construction makes the arrays read-only.
    """

    netuid: int
    window_start: datetime
    window_end: datetime
    wallet: np.ndarray
    miner: np.ndarray
    stake: np.ndarray
    reward: np.ndarray
    perf: np.ndarray
    wallet_names: WalletNames

    def __post_init__(self) -> None:
        if _require_int("netuid", self.netuid) < 0:
            raise ValidationError(f"netuid must be >= 0, got {self.netuid}")
        start = _require_utc("window_start", self.window_start)
        end = _require_utc("window_end", self.window_end)
        if start >= end:
            raise ValidationError("window_start must precede window_end")
        object.__setattr__(self, "window_start", start)
        object.__setattr__(self, "window_end", end)
        _set_columns(self, _SNAPSHOT_COLUMNS)
        wallet, names = self.wallet, WalletNames(self.wallet_names)
        object.__setattr__(self, "wallet_names", names)
        _check_codes(wallet, names)
        _check_amounts(self.stake, self.reward)
        perf = self.perf
        _reject(~np.isfinite(perf), lambda i: f"perf must be finite, got {perf[i].item()!r}")
        _reject((perf < 0.0) | (perf > 1.0), lambda i: f"perf must lie in [0, 1], got {perf[i].item()}")
        if (np.diff(np.sort(wallet)) == 0).any():
            raise ValidationError(f"duplicate wallet {names[_first_repeat(wallet.tolist())]!r} in snapshot for netuid {self.netuid}")

    @property
    def entries(self) -> tuple[SnapshotEntry, ...]:
        """The rows as SnapshotEntry objects, built anew on each access."""
        roles = [_ROLES[miner] for miner in self.miner.tolist()]
        values = (self.stake.tolist(), self.reward.tolist(), self.perf.tolist())
        return tuple(map(SnapshotEntry, self.wallets(), roles, *values))

    def _rows(self, role: Optional[Role]) -> np.ndarray:
        """Mask of the wallets holding `role`; every wallet when None."""
        if role is None:
            return np.ones(len(self.wallet), dtype=bool)
        return self.miner == (Role(role) is Role.MINER)

    def wallets(self, role: Optional[Role] = None) -> list[str]:
        return list(map(self.wallet_names.__getitem__, self.wallet[self._rows(role)].tolist()))

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
        validators = tuple((_require_id("validator id", v), _require_nonneg(f"stake of {v!r}", s))
                           for v, s in self.validators)
        miners = tuple(_require_id("miner id", m) for m in self.miners)
        if not validators:
            raise ValidationError("at least one validator is required")
        if not miners:
            raise ValidationError("at least one miner is required")
        if len({v for v, _ in validators}) != len(validators):
            raise ValidationError("validator ids must be unique")
        if len(set(miners)) != len(miners):
            raise ValidationError("miner ids must be unique")
        weights = _require_array("weights", self.weights, 2)
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
        object.__setattr__(self, "_stakes", _freeze(np.array([s for _, s in validators])))

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
    consensus clipping threshold.
    """

    alpha: float
    beta: float
    kappa: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _require_upto("kappa", self.kappa))
        object.__setattr__(self, "alpha", _require_unit("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_unit("beta", self.beta))


@dataclass(frozen=True)
class BondState:
    """EMA bond matrix (validator x miner) with its tempo counter."""

    bonds: np.ndarray
    tempo_index: int = 0

    def __post_init__(self) -> None:
        bonds = _require_array("bonds", self.bonds, 2)
        if bonds.ndim != 2:
            raise ValidationError("bonds must be a 2-d matrix")
        # One pass: NaN and +-inf fail a comparison too.
        if not ((bonds >= 0.0) & (bonds <= 1.0)).all():
            raise ValidationError("bond entries must lie in [0, 1]")
        object.__setattr__(self, "bonds", _frozen(np.ascontiguousarray(bonds), self.bonds))
        if _require_int("tempo_index", self.tempo_index) < 0:
            raise ValidationError("tempo_index must be >= 0")

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
        for view in self._views:
            source = getattr(self, view.values)
            values = _frozen(np.ascontiguousarray(_require_array(view.values, source, 1)), source)
            if values.shape != (len(getattr(self, view.ids)),):
                raise ValidationError(f"{view.values} must hold one value per id of {view.ids}")
            object.__setattr__(self, view.values, values)
        # After every shape check, each array's first bad value, in view order.
        for view in self._views:
            values = getattr(self, view.values)
            ok = np.isfinite(values) & (values >= 0.0)
            if not ok.all():
                i = int(np.argmin(ok))
                _require_nonneg(f"{view.name}[{getattr(self, view.ids)[i]!r}]", values[i])
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
