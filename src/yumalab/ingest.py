"""Snapshot-event ingestion: parsing, validation, cutoff, resampling.

Event files are JSON Lines (one object per line) or CSV with a fixed
header, in UTF-8 with an optional byte-order mark. A Dataset is a table of
NumPy columns with one row per event, sorted by (timestamp, netuid,
wallet), holding at most one row per such key, and it enforces that every
(wallet, netuid) pair holds a single role across the whole table.
Resampling aggregates rows into calendar-aligned UTC windows where stake
and perf are the last observation in the window and reward is the sum
over the window.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from yumalab._util import EPOCH, format_timestamp, from_epoch_us, parse_timestamp, to_epoch_us
from yumalab.model import (
    _ROLES,
    Role,
    SnapshotEvent,
    SubnetSnapshot,
    ValidationError,
    _check_wallet_columns,
    _freeze,
    _reject,
    _set_columns,
)

__all__ = [
    "EVENT_COLUMNS",
    "DTAO_CUTOFF",
    "FREQUENCIES",
    "ParseError",
    "RoleConsistencyError",
    "Dataset",
    "parse_events",
    "load_events",
    "write_events",
    "save_events",
    "apply_cutoff",
    "resample",
    "history_snapshots",
]

# Fixed CSV column order; empty string means an absent score.
EVENT_COLUMNS = (
    "timestamp",
    "block_number",
    "netuid",
    "wallet",
    "role",
    "stake",
    "reward",
    "trust",
    "validator_trust",
)

# The dTAO upgrade instant; analyses default to data strictly before it.
DTAO_CUTOFF = datetime(2025, 2, 13, tzinfo=timezone.utc)

FREQUENCIES = ("daily", "weekly", "monthly")

# Row columns of a Dataset and their dtypes, in EVENT_COLUMNS order; the
# `miner` column stands for `role`.
_COLUMN_TYPES = {
    "timestamp": np.int64,
    "block_number": np.int64,
    "netuid": np.int64,
    "wallet": np.int64,
    "miner": np.bool_,
    "stake": np.float64,
    "reward": np.float64,
    "trust": np.float64,
    "validator_trust": np.float64,
}

_DAY_US = 86_400_000_000
_CHUNK_ROWS = 4096
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ParseError(ValidationError):
    """A malformed input line, carrying its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RoleConsistencyError(ValidationError):
    """Same (wallet, netuid) pair observed under two different roles."""

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        self.pairs = tuple(sorted(pairs))
        listing = ", ".join(f"({wallet!r}, netuid={netuid})" for wallet, netuid in self.pairs)
        super().__init__(f"role conflicts for {len(self.pairs)} (wallet, netuid) pair(s): {listing}")


class _Memo(dict):
    """A dict that fills a missing key with `func(key)`, computed once."""

    def __init__(self, func: Callable):
        super().__init__()
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable, validated table of snapshot events, one row per event.

    Rows are sorted by (timestamp, netuid, wallet), with at most one row
    per key. `timestamp` holds int64 microseconds since the Unix epoch
    (UTC). `wallet` holds int64 codes into `wallet_names`, a strictly
    increasing tuple of names, so code order is name order. `miner` is
    True where the role is miner. An absent score is NaN. Construction
    makes the column arrays read-only. `cutoff` records the exclusion
    bound applied to the data; None means no cutoff has been applied yet.
    """

    timestamp: np.ndarray
    block_number: np.ndarray
    netuid: np.ndarray
    wallet: np.ndarray
    miner: np.ndarray
    stake: np.ndarray
    reward: np.ndarray
    trust: np.ndarray
    validator_trust: np.ndarray
    wallet_names: tuple[str, ...]
    cutoff: Optional[datetime] = None

    def __post_init__(self) -> None:
        _set_columns(self, _COLUMN_TYPES)
        object.__setattr__(self, "wallet_names", tuple(self.wallet_names))
        _check_fields(self)
        ts, netuid, wallet = self.timestamp, self.netuid, self.wallet
        same_ts, same_netuid = ts[1:] == ts[:-1], netuid[1:] == netuid[:-1]
        backwards = (ts[1:] < ts[:-1]) | same_ts & (
            (netuid[1:] < netuid[:-1]) | same_netuid & (wallet[1:] < wallet[:-1])
        )
        _reject(
            backwards,
            lambda i: "events must be sorted by (timestamp, netuid, wallet); "
            f"{self._key(i + 1)} follows {self._key(i)}",
        )
        _reject(
            same_ts & same_netuid & (wallet[1:] == wallet[:-1]),
            lambda i: f"duplicate events for (timestamp, netuid, wallet) {self._key(i)}",
        )
        if self.cutoff is not None:
            if self.cutoff.tzinfo is None:
                raise ValidationError("cutoff must be timezone-aware")
            cutoff = self.cutoff.astimezone(timezone.utc)
            object.__setattr__(self, "cutoff", cutoff)
            _reject(
                ts >= to_epoch_us(cutoff),
                lambda i: f"event at {format_timestamp(from_epoch_us(ts[i]))} is not before "
                f"the cutoff {format_timestamp(cutoff)}",
            )
        _check_role_consistency(self)

    @classmethod
    def from_events(cls, events: Iterable[SnapshotEvent], cutoff: Optional[datetime] = None) -> "Dataset":
        """Sort events into canonical order and validate."""
        events = list(events)
        if not all(isinstance(event, SnapshotEvent) for event in events):
            raise ValidationError("events must be SnapshotEvent instances")
        names = sorted({event.wallet for event in events})
        code = {name: i for i, name in enumerate(names)}
        micros = _Memo(to_epoch_us)
        # np.fromiter fills each column without an intermediate list, so
        # the events and the columns are the only copies alive at once.
        values = {
            "timestamp": lambda e: micros[e.timestamp],
            "block_number": lambda e: e.block_number,
            "netuid": lambda e: e.netuid,
            "wallet": lambda e: code[e.wallet],
            "miner": lambda e: e.role is Role.MINER,
            "stake": lambda e: e.stake,
            "reward": lambda e: e.reward,
            "trust": lambda e: math.nan if e.trust is None else e.trust,
            "validator_trust": lambda e: math.nan if e.validator_trust is None else e.validator_trust,
        }
        try:
            columns = {
                name: np.fromiter(map(value, events), dtype=_COLUMN_TYPES[name], count=len(events))
                for name, value in values.items()
            }
        except OverflowError:
            raise ValidationError("block_number and netuid must fit in int64") from None
        return _sorted_dataset(columns, names, cutoff)

    @classmethod
    def concat(cls, datasets: Sequence["Dataset"], cutoff: Optional[datetime] = None) -> "Dataset":
        """Merge one or more datasets into one, keeping only rows strictly
        before `cutoff` when it is given.

        The wallet tables are merged and the rows sorted again, so rows
        from different datasets may interleave; a key present in two of
        them is a duplicate and rejected.
        """
        names = sorted(set().union(*(dataset.wallet_names for dataset in datasets)))
        code = {name: i for i, name in enumerate(names)}
        columns = {
            name: np.concatenate([getattr(dataset, name) for dataset in datasets])
            for name in _COLUMN_TYPES
            if name != "wallet"
        }
        columns["wallet"] = np.concatenate([
            np.array([code[name] for name in dataset.wallet_names], dtype=np.int64)[dataset.wallet]
            for dataset in datasets
        ])
        if cutoff is not None:
            if cutoff.tzinfo is None:
                raise ValidationError("cutoff must be timezone-aware")
            cutoff = cutoff.astimezone(timezone.utc)
            keep = columns["timestamp"] < to_epoch_us(cutoff)
            columns = {name: column[keep] for name, column in columns.items()}
        return _sorted_dataset(columns, names, cutoff)

    def __len__(self) -> int:
        return len(self.timestamp)

    def netuids(self) -> list[int]:
        return np.unique(self.netuid).tolist()

    @property
    def events(self) -> tuple[SnapshotEvent, ...]:
        """The rows as SnapshotEvent objects, built anew on each access."""
        return tuple(SnapshotEvent(*record) for record in self._records())

    def _records(self) -> Iterator[tuple]:
        """Row tuples in EVENT_COLUMNS order, with the timestamp as a
        datetime, the role as a Role and None for an absent score."""
        stamps = _Memo(from_epoch_us)
        names = self.wallet_names
        # Python values for one chunk of rows at a time bound the memory.
        for first in range(0, len(self), _CHUNK_ROWS):
            chunk = (getattr(self, name)[first:first + _CHUNK_ROWS].tolist() for name in _COLUMN_TYPES)
            for ts, block, netuid, wallet, miner, stake, reward, trust, vtrust in zip(*chunk):
                yield (
                    stamps[ts],
                    block,
                    netuid,
                    names[wallet],
                    _ROLES[miner],
                    stake,
                    reward,
                    None if trust != trust else trust,
                    None if vtrust != vtrust else vtrust,
                )

    def _key(self, row: int) -> tuple[str, int, str]:
        return (
            format_timestamp(from_epoch_us(self.timestamp[row])),
            int(self.netuid[row]),
            self.wallet_names[self.wallet[row]],
        )


def _check_fields(dataset: Dataset) -> None:
    """The per-event rules of SnapshotEvent, checked on whole columns."""
    names = dataset.wallet_names
    _check_wallet_columns(names, dataset.stake, dataset.reward)
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ValidationError("wallet_names must be strictly increasing")
    wallet = dataset.wallet
    _reject((wallet < 0) | (wallet >= len(names)), lambda i: f"wallet code {wallet[i]} is not in wallet_names")
    for name in ("block_number", "netuid"):
        column = getattr(dataset, name)
        _reject(column < 0, lambda i: f"{name} must be >= 0, got {column[i]}")
    for name, holder, other in (
        ("trust", dataset.miner, "non-miner"),
        ("validator_trust", ~dataset.miner, "non-validator"),
    ):
        score = getattr(dataset, name)
        _reject(~np.isnan(score) & ~holder, lambda i: f"{name} set on {other} wallet {names[wallet[i]]!r}")
        _reject(np.isinf(score), lambda i: f"{name} must be finite, got {score[i].item()!r}")
        _reject((score < 0.0) | (score > 1.0), lambda i: f"{name} must lie in [0, 1], got {score[i].item()}")


def _check_role_consistency(dataset: Dataset) -> None:
    order = np.lexsort((dataset.netuid, dataset.wallet))
    wallet, netuid, miner = dataset.wallet[order], dataset.netuid[order], dataset.miner[order]
    flips = (wallet[1:] == wallet[:-1]) & (netuid[1:] == netuid[:-1]) & (miner[1:] != miner[:-1])
    if flips.any():
        names = dataset.wallet_names
        raise RoleConsistencyError(
            {(names[w], n) for w, n in zip(wallet[1:][flips].tolist(), netuid[1:][flips].tolist())}
        )


def _sorted_dataset(columns: dict[str, np.ndarray], wallet_names: Sequence[str],
                    cutoff: Optional[datetime] = None) -> Dataset:
    """A validated Dataset of `columns` in canonical row order.

    Empties `columns`: each unsorted column is released once its sorted
    copy exists, so at most one extra column is alive at a time.
    """
    order = np.lexsort((columns["wallet"], columns["netuid"], columns["timestamp"]))
    return Dataset(
        **{name: _freeze(columns.pop(name)[order]) for name in _COLUMN_TYPES},
        wallet_names=tuple(wallet_names),
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# Parsing
#
# Files are read twice only when they are malformed: the columnar readers
# stream rows into one list per column and leave every check they do not
# make themselves to Dataset validation. When either fails, the per-line
# readers below read the file again and raise the ParseError that names
# the line.
# ---------------------------------------------------------------------------


# Every error the columnar readers raise for malformed input; json.loads
# raises RecursionError on nesting deeper than the interpreter allows.
_COLUMNAR_FAILURES = (ValueError, TypeError, LookupError, ArithmeticError, RecursionError, csv.Error)
_NUMBER = {int, float}
_SCORE = {int, float, type(None)}


def _timestamp_us(raw) -> int:
    if type(raw) is not str:
        raise TypeError("timestamp must be a string")
    return to_epoch_us(parse_timestamp(raw))


def _is_miner(raw) -> bool:
    if type(raw) is not str:
        raise TypeError("role must be a string")
    return Role.parse(raw) is Role.MINER


def _read_jsonl_columns(text: io.TextIOWrapper) -> Dataset:
    columns = {name: [] for name in _COLUMN_TYPES}
    add_ts, add_block, add_netuid, add_wallet, add_miner, add_stake, add_reward, add_trust, add_vtrust = (
        column.append for column in columns.values()
    )
    times, roles, codes = _Memo(_timestamp_us), _Memo(_is_miner), {}
    loads = json.loads
    for line in text:
        if line.isspace():
            continue
        try:
            record = loads(line)
        except ValueError:
            # Padding such as a form feed, which JSON rejects and the
            # per-line rules strip.
            record = loads(line.strip())
        add_ts(times[record["timestamp"]])
        add_block(record["block_number"])
        add_netuid(record["netuid"])
        add_wallet(codes.setdefault(record["wallet"], len(codes)))
        add_miner(roles[record["role"]])
        add_stake(record["stake"])
        add_reward(record["reward"])
        add_trust(record.get("trust"))
        add_vtrust(record.get("validator_trust"))
    return _pack(columns, codes)


def _read_csv_columns(text: io.TextIOWrapper) -> Dataset:
    columns = {name: [] for name in _COLUMN_TYPES}
    add_ts, add_block, add_netuid, add_wallet, add_miner, add_stake, add_reward, add_trust, add_vtrust = (
        column.append for column in columns.values()
    )
    times, roles, codes = _Memo(_timestamp_us), _Memo(_is_miner), {}
    reader = csv.reader(text)
    header = next(reader, None)
    if header is not None and tuple(header) != EVENT_COLUMNS:
        raise ValueError("unexpected CSV header")
    for row in reader:
        if not row:
            continue
        stamp, block, netuid, wallet, role, stake, reward, trust, vtrust = row
        add_ts(times[stamp])
        add_block(int(block))
        add_netuid(int(netuid))
        add_wallet(codes.setdefault(wallet, len(codes)))
        add_miner(roles[role])
        add_stake(float(stake))
        add_reward(float(reward))
        add_trust(float(trust) if trust else None)
        add_vtrust(float(vtrust) if vtrust else None)
    return _pack(columns, codes)


def _pack(columns: dict[str, list], codes: dict) -> Dataset:
    """Check the value types the JSONL rules require, then build the Dataset.

    `codes` maps each wallet to its code in order of first appearance.
    None marks an absent score; a score that is NaN itself is rejected.
    """
    def kinds(*names: str) -> set[type]:
        return set().union(*(map(type, columns[name]) for name in names))

    scores = kinds("trust", "validator_trust")
    if not scores <= _SCORE:
        # "" is an absent score too, as in CSV.
        for name in ("trust", "validator_trust"):
            columns[name] = [None if score == "" else score for score in columns[name]]
        scores = kinds("trust", "validator_trust")
    if not (
        kinds("block_number", "netuid") <= {int}
        and kinds("stake", "reward") <= _NUMBER
        and scores <= _SCORE
        and all(type(name) is str and name for name in codes)
    ):
        raise TypeError("a value has the wrong type")
    for name in ("trust", "validator_trust"):
        if any(score != score for score in columns[name]):
            raise ValueError(f"{name} is NaN")
    names = sorted(codes)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[codes[name] for name in names]] = np.arange(len(names))
    # Each list is released as soon as its array exists.
    arrays = {name: np.array(columns.pop(name), dtype=dtype) for name, dtype in _COLUMN_TYPES.items()}
    arrays["wallet"] = rank[arrays["wallet"]]
    return _sorted_dataset(arrays, names)


def _optional_score(raw, field: str, line: int) -> Optional[float]:
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(line, f"invalid {field}: {raw!r}") from None


def _required_float(raw, field: str, line: int) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(line, f"invalid {field}: {raw!r}") from None


def _required_int(raw, field: str, line: int) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ParseError(line, f"invalid {field}: {raw!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ParseError(line, f"{field} does not fit in 64 bits: {raw!r}")
    return value


def _event_from_fields(fields: dict, line: int) -> SnapshotEvent:
    missing = [c for c in EVENT_COLUMNS[:7] if fields.get(c) in (None, "")]
    if missing:
        raise ParseError(line, f"missing required field(s): {', '.join(missing)}")
    try:
        timestamp = parse_timestamp(str(fields["timestamp"]))
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None
    try:
        return SnapshotEvent(
            timestamp=timestamp,
            block_number=_required_int(fields["block_number"], "block_number", line),
            netuid=_required_int(fields["netuid"], "netuid", line),
            wallet=str(fields["wallet"]),
            role=Role.parse(str(fields["role"])),
            stake=_required_float(fields["stake"], "stake", line),
            reward=_required_float(fields["reward"], "reward", line),
            trust=_optional_score(fields.get("trust"), "trust", line),
            validator_trust=_optional_score(fields.get("validator_trust"), "validator_trust", line),
        )
    except ParseError:
        raise
    except ValidationError as exc:
        raise ParseError(line, str(exc)) from None


# The JSON type each JSONL field must have; a bool is not a JSON integer
# or number here.
_JSON_TYPES = {
    "timestamp": ((str,), "string"),
    "block_number": ((int,), "integer"),
    "netuid": ((int,), "integer"),
    "wallet": ((str,), "string"),
    "role": ((str,), "string"),
    "stake": ((int, float), "number"),
    "reward": ((int, float), "number"),
    "trust": ((int, float), "number"),
    "validator_trust": ((int, float), "number"),
}


def _check_json_types(record: dict, line: int) -> None:
    """Reject a JSONL value of the wrong JSON type. null and "" are left
    to the missing-field and absent-score rules, as in CSV."""
    for field, (types, kind) in _JSON_TYPES.items():
        value = record.get(field)
        if value is not None and value != "" and type(value) not in types:
            raise ParseError(line, f"{field} must be a JSON {kind}, got {value!r}")


def _read_jsonl_events(text: io.TextIOWrapper) -> list[SnapshotEvent]:
    events: list[SnapshotEvent] = []
    for line_number, line in enumerate(text, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(line_number, f"invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            # An integer with more digits than int() converts, or nesting
            # deeper than the recursion limit.
            raise ParseError(line_number, f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(line_number, "expected a JSON object")
        _check_json_types(obj, line_number)
        events.append(_event_from_fields(obj, line_number))
    return events


def _read_csv_events(text: io.TextIOWrapper) -> list[SnapshotEvent]:
    reader = csv.reader(text)
    events: list[SnapshotEvent] = []
    # A record is named by its first physical line; a quoted field may
    # span lines, which the reader counts after each LF, CR or CR LF.
    line_number = 1
    try:
        header = next(reader, None)
        if header is None:
            return []
        if tuple(header) != EVENT_COLUMNS:
            raise ParseError(1, f"unexpected CSV header {header!r}")
        line_number = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(EVENT_COLUMNS):
                    raise ParseError(line_number, f"expected {len(EVENT_COLUMNS)} columns, got {len(row)}")
                events.append(_event_from_fields(dict(zip(EVENT_COLUMNS, row)), line_number))
            line_number = reader.line_num + 1
    except csv.Error as exc:
        # Such as a field longer than csv.field_size_limit().
        raise ParseError(line_number, f"invalid CSV: {exc}") from None
    return events


_READERS = {
    "jsonl": (_read_jsonl_columns, _read_jsonl_events),
    "csv": (_read_csv_columns, _read_csv_events),
}


def _read_text(source: BinaryIO, reader: Callable):
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        return reader(text)
    finally:
        text.detach()


def parse_events(source: BinaryIO, format: str = "jsonl") -> Dataset:
    """Parse a seekable event stream into a validated Dataset.

    Raises ParseError (with the offending 1-based line number) on malformed
    input, RoleConsistencyError when a (wallet, netuid) pair appears under
    both roles and ValidationError when a (timestamp, netuid, wallet) key
    appears twice.
    """
    if format not in _READERS:
        raise ValidationError(f"unknown format {format!r} (expected jsonl or csv)")
    columnar, per_line = _READERS[format]
    start = source.tell()
    try:
        return _read_text(source, columnar)
    except _COLUMNAR_FAILURES:
        source.seek(start)
    try:
        return Dataset.from_events(_read_text(source, per_line))
    except UnicodeDecodeError:
        source.seek(start)
    raise _utf8_error(source.read())


def _utf8_error(data: bytes) -> ParseError:
    """The ParseError for the first byte of `data` that is not UTF-8, on
    its line as the readers split lines: after each LF, CR or CR LF."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return ParseError(line, f"invalid UTF-8 byte {data[exc.start]:#04x}")
    raise AssertionError("a reader failed to decode valid UTF-8")


def _path_format(path) -> Optional[str]:
    """The format a path's suffix names, in any letter case, or None."""
    name = str(path).lower()
    return "csv" if name.endswith(".csv") else "jsonl" if name.endswith(".jsonl") else None


def load_events(path, format: Optional[str] = None) -> Dataset:
    """Parse a file path, inferring the format from the suffix by default."""
    with open(path, "rb") as handle:
        return parse_events(handle, format=format or _path_format(path) or "jsonl")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _format_epoch_us(us: int) -> str:
    return format_timestamp(from_epoch_us(us))


def _csv_field(text: str) -> str:
    """`text` as a CSV field, quoted when it holds a comma, a quote, a CR or
    an LF. With "\n" as its line terminator csv.writer would leave a CR
    bare, and the readers would split the row there."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow((text,))
    return buffer.getvalue()[:-2]


def _float_texts(column: np.ndarray) -> list[str]:
    """The repr of each value, worked out once per distinct bit pattern,
    so -0.0 and 0.0 keep their own texts."""
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    return list(map(list(map(repr, bits.view(np.float64).tolist())).__getitem__, index.tolist()))


# Row templates indexed by 2 * miner + (score present). Each holds its role
# and takes the other fields in EVENT_COLUMNS order, then the role's score.
# JSONL lines are the bytes json.dump(..., separators=(",", ":")) writes.
_JSONL_HEAD = '{{"timestamp":{},"block_number":{},"netuid":{},"wallet":{},"role":"%s","stake":{},"reward":{}'
_JSONL_LINES = (
    _JSONL_HEAD % "validator" + "}}\n",
    _JSONL_HEAD % "validator" + ',"validator_trust":{}}}\n',
    _JSONL_HEAD % "miner" + "}}\n",
    _JSONL_HEAD % "miner" + ',"trust":{}}}\n',
)
_CSV_LINES = (
    "{},{},{},{},validator,{},{},,\n",
    "{},{},{},{},validator,{},{},,{}\n",
    "{},{},{},{},miner,{},{},,\n",
    "{},{},{},{},miner,{},{},{},\n",
)


def write_events(dataset: Dataset, sink: BinaryIO, format: str = "jsonl") -> None:
    """Serialize a Dataset's rows in a form parse_events reads back losslessly.

    Floats are written with full round-trip precision (repr), so a
    write/parse cycle reproduces the exact same values.
    """
    if format not in _READERS:
        raise ValidationError(f"unknown format {format!r} (expected jsonl or csv)")
    if format == "jsonl":
        templates, quote = _JSONL_LINES, json.dumps
    else:
        templates, quote = _CSV_LINES, _csv_field
        sink.write((",".join(EVENT_COLUMNS) + "\n").encode("utf-8"))
    # Each wallet name and timestamp is quoted once, and each distinct float
    # of a chunk formatted once; no other field can need CSV quoting.
    wallets = [quote(name) for name in dataset.wallet_names]
    stamps = _Memo(lambda us: quote(_format_epoch_us(us)))
    for first in range(0, len(dataset), _CHUNK_ROWS):
        rows = slice(first, first + _CHUNK_ROWS)
        miner = dataset.miner[rows]
        score = np.where(miner, dataset.trust[rows], dataset.validator_trust[rows])
        kind = 2 * miner.astype(np.intp) + ~np.isnan(score)
        lines = map(
            str.format,
            map(templates.__getitem__, kind.tolist()),
            map(stamps.__getitem__, dataset.timestamp[rows].tolist()),
            dataset.block_number[rows].tolist(),
            dataset.netuid[rows].tolist(),
            map(wallets.__getitem__, dataset.wallet[rows].tolist()),
            _float_texts(dataset.stake[rows]),
            _float_texts(dataset.reward[rows]),
            _float_texts(score),
        )
        sink.write("".join(lines).encode("utf-8"))


def save_events(dataset: Dataset, path, format: Optional[str] = None) -> None:
    """Write a Dataset to a file path, inferring the format from the suffix
    by default."""
    with open(path, "wb") as handle:
        write_events(dataset, handle, format=format or _path_format(path) or "jsonl")


# ---------------------------------------------------------------------------
# Cutoff and resampling
# ---------------------------------------------------------------------------


def apply_cutoff(dataset: Dataset, cutoff: datetime = DTAO_CUTOFF) -> Dataset:
    """Keep exactly the events with timestamp strictly before the cutoff."""
    return Dataset.concat((dataset,), cutoff=cutoff)


def _window_keys(timestamp: np.ndarray, freq: str) -> tuple[np.ndarray, Callable[[int], datetime]]:
    """Each row's window as an int64 key, and the window start of a key."""
    if freq == "monthly":
        months = timestamp.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        return months, lambda key: datetime(1970 + key // 12, key % 12 + 1, 1, tzinfo=timezone.utc)
    days = timestamp // _DAY_US
    if freq == "weekly":
        days = days - (days + 3) % 7  # back to Monday; 1970-01-01 was a Thursday
    return days, lambda key: EPOCH + timedelta(days=key)


def _window_end(start: datetime, freq: str) -> datetime:
    if freq == "daily":
        return start + timedelta(days=1)
    if freq == "weekly":
        return start + timedelta(days=7)
    if start.month == 12:
        return datetime(start.year + 1, 1, 1, tzinfo=timezone.utc)
    return datetime(start.year, start.month + 1, 1, tzinfo=timezone.utc)


def _overflows(values: list[float]) -> bool:
    try:
        math.fsum(values)
    except OverflowError:
        return True
    return False


def _aggregate(
    dataset: Dataset,
    window: np.ndarray,
    bounds: Callable[[int], tuple[datetime, datetime]],
) -> list[SubnetSnapshot]:
    """One snapshot per (netuid, window) with one row per wallet.

    A stable lexsort groups rows by (netuid, window, wallet) and keeps each
    group's rows in time order, so a group's last row gives stake and perf.
    `bounds(key)` is the (start, end) of window `key`.
    """
    order = np.lexsort((dataset.wallet, window, dataset.netuid))
    netuid, window, wallet = dataset.netuid[order], window[order], dataset.wallet[order]
    new_snapshot = np.ones(len(order), dtype=bool)
    new_snapshot[1:] = (netuid[1:] != netuid[:-1]) | (window[1:] != window[:-1])
    new_entry = new_snapshot.copy()
    new_entry[1:] |= wallet[1:] != wallet[:-1]
    starts = np.flatnonzero(new_entry)
    ends = np.append(starts[1:], len(order))
    last = order[ends - 1]
    miner = dataset.miner[last]
    stake = dataset.stake[last]
    perf = np.where(miner, dataset.trust[last], dataset.validator_trust[last])
    perf[np.isnan(perf)] = 0.0
    rewards = dataset.reward[order].tolist()
    spans = list(zip(starts.tolist(), ends.tolist()))
    try:
        reward = np.array([math.fsum(rewards[start:end]) for start, end in spans], dtype=np.float64)
    except OverflowError:
        start = next(start for start, end in spans if _overflows(rewards[start:end]))
        row = int(order[start])
        raise ValidationError(
            f"rewards of wallet {dataset.wallet_names[dataset.wallet[row]]!r} in netuid "
            f"{dataset.netuid[row]} sum beyond the float64 range"
        ) from None
    names = dataset.wallet_names
    wallet_names = [names[code] for code in dataset.wallet[last].tolist()]
    # Frozen, the columns are shared by the snapshots' slices, not copied.
    for column in (miner, stake, reward, perf):
        _freeze(column)
    firsts = np.flatnonzero(new_snapshot[starts]).tolist()
    snapshots = []
    for first, stop in zip(firsts, firsts[1:] + [len(starts)]):
        row = starts[first]
        window_start, window_end = bounds(int(window[row]))
        snapshots.append(
            SubnetSnapshot(
                netuid=int(netuid[row]),
                window_start=window_start,
                window_end=window_end,
                wallet_names=tuple(wallet_names[first:stop]),
                miner=miner[first:stop],
                stake=stake[first:stop],
                reward=reward[first:stop],
                perf=perf[first:stop],
            )
        )
    return snapshots


def resample(dataset: Dataset, freq: str = "daily") -> list[SubnetSnapshot]:
    """Aggregate events into per-(netuid, window) snapshots.

    Windows are calendar-aligned UTC: days at 00:00, weeks starting Monday,
    months at the 1st. Within a window, stake and perf come from the
    wallet's last event and reward is the sum of its rewards.
    """
    if freq not in FREQUENCIES:
        raise ValidationError(f"unknown frequency {freq!r} (expected one of {FREQUENCIES})")
    if not len(dataset):
        raise ValidationError("cannot resample an empty dataset")
    window, start_of = _window_keys(dataset.timestamp, freq)

    def bounds(key: int) -> tuple[datetime, datetime]:
        start = start_of(key)
        return start, _window_end(start, freq)

    return _aggregate(dataset, window, bounds)


def history_snapshots(dataset: Dataset) -> list[SubnetSnapshot]:
    """Collapse the whole dataset into one snapshot per netuid.

    The window spans from the first event's day to the day after the last
    event's day, shared by all subnets; aggregation follows the resample
    rules (last stake/perf, summed reward).
    """
    if not len(dataset):
        raise ValidationError("cannot aggregate an empty dataset")
    first, last = int(dataset.timestamp[0]), int(dataset.timestamp[-1])
    span = (from_epoch_us(first - first % _DAY_US), from_epoch_us(last - last % _DAY_US + _DAY_US))
    return _aggregate(dataset, np.zeros(len(dataset), dtype=np.int64), lambda _: span)
