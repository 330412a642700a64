"""Snapshot-event ingestion: parsing, validation, cutoff, resampling.

Event files are JSON Lines (one object per line) or CSV with a fixed
header, in UTF-8 with an optional byte-order mark. Each is read once, front
to back, and a byte that is not UTF-8 is a fault of its line. A Dataset is
a table of NumPy columns with one row per event, sorted by (timestamp,
netuid, wallet), holding at most one row per such key, and it enforces that
every (wallet, netuid) pair holds a single role across the whole table.
Resampling aggregates rows into calendar-aligned UTC windows where stake
and perf are the last observation in the window and reward is the sum
over the window.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from yumalab._util import (DTAO_CUTOFF, EPOCH, EVENT_FORMATS, FREQUENCIES, format_timestamp, from_epoch_us,
                           is_ascii_decimal, json_value, parse_timestamp, to_epoch_us)
from yumalab.model import (
    _ROLES,
    Role,
    SnapshotEvent,
    SubnetSnapshot,
    ValidationError,
    WalletNames,
    _check_amounts,
    _check_codes,
    _freeze,
    _reject,
    _require_utc,
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
_BLOCK_BYTES = 1 << 16


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
    (UTC). `wallet` holds int64 codes into `wallet_names`, a WalletNames
    in strictly increasing order, so code order is name order. `miner` is
    True where the role is miner. An absent score is NaN. Construction
    makes the column arrays read-only.
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
    wallet_names: WalletNames

    def __post_init__(self) -> None:
        _set_columns(self, _COLUMN_TYPES)
        object.__setattr__(self, "wallet_names", WalletNames(self.wallet_names))
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
        _check_role_consistency(self)

    @classmethod
    def from_events(cls, events: Iterable[SnapshotEvent]) -> "Dataset":
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
        return _sorted_dataset(columns, names)

    @classmethod
    def concat(cls, datasets: Sequence["Dataset"], cutoff: Optional[datetime] = None) -> "Dataset":
        """Merge one or more datasets into one, keeping only rows strictly
        before `cutoff`, a timezone-aware datetime, when it is given.

        The wallet tables are merged and the rows sorted again, so rows
        from different datasets may interleave; a key present in two of
        them is a duplicate and rejected.
        """
        if not datasets:
            raise ValidationError("at least one dataset is required")
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
            keep = columns["timestamp"] < to_epoch_us(_require_utc("cutoff", cutoff))
            columns = {name: column[keep] for name, column in columns.items()}
        return _sorted_dataset(columns, names)

    def __len__(self) -> int:
        return len(self.timestamp)

    def netuids(self) -> list[int]:
        # Not np.unique, which would import numpy.ma.
        return sorted(set(self.netuid.tolist()))

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
    names, wallet = dataset.wallet_names, dataset.wallet
    _check_amounts(dataset.stake, dataset.reward)
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ValidationError("wallet_names must be strictly increasing")
    _check_codes(wallet, names)
    _check_rows(vars(dataset), lambda i: names[wallet[i]])


def _check_rows(columns: Mapping[str, np.ndarray], wallet_of: Callable[[int], str],
                held: Optional[Mapping[str, np.ndarray]] = None) -> None:
    """The block, netuid and score rules of SnapshotEvent, checked on whole
    columns; `wallet_of(i)` names row i's wallet. `held` marks the rows
    that hold each score, where a NaN is a score that is not finite; by
    default a score is held where it is not NaN."""
    miner = columns["miner"]
    for name in ("block_number", "netuid"):
        column = columns[name]
        _reject(column < 0, lambda i: f"{name} must be >= 0, got {column[i]}")
    for name, holder, other in (
        ("trust", miner, "non-miner"),
        ("validator_trust", ~miner, "non-validator"),
    ):
        score = columns[name]
        scored = ~np.isnan(score) if held is None else held[name]
        _reject(scored & ~holder, lambda i: f"{name} set on {other} wallet {wallet_of(i)!r}")
        _reject(scored & ~np.isfinite(score), lambda i: f"{name} must be finite, got {score[i].item()!r}")
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


def _sorted_dataset(columns: dict[str, np.ndarray], wallet_names: Sequence[str]) -> Dataset:
    """A validated Dataset of `columns` in canonical row order.

    Empties `columns`: each unsorted column is released once its sorted
    copy exists, so at most one extra column is alive at a time.
    """
    order = np.lexsort((columns["wallet"], columns["netuid"], columns["timestamp"]))
    return Dataset(
        **{name: _freeze(columns.pop(name)[order]) for name in _COLUMN_TYPES},
        wallet_names=wallet_names,
    )


# ---------------------------------------------------------------------------
# Parsing
#
# Each format has one reader of the lines that _lines cuts. Each chunk of
# rows is converted one whole column at a time, and the value rules are
# checked on the chunk's columns as soon as it is converted. Every rule holds
# row by row, so the first faulty line of a chunk that fails is the first
# whose prefix fails. A bisection finds it, converting only the rows between
# the longest clean prefix and the shortest failing one, and that line alone
# is converted again to name its fault. The ParseError thus names the first
# faulty line in file order, and the read ends with its chunk. The Dataset
# built from a clean file can then fail only on a duplicate key or a role
# conflict.
#
# orjson decodes a JSONL line, and json.loads each line that orjson rejects
# or that may nest. orjson reads a line as json does, except an integer
# beyond 64 bits, which it reads as the float nearest to it: the columns are
# the same and the same rows fail, but a message could name the float. So
# the faulty line, not its chunk, is decoded again by json before its fault
# is named.
# ---------------------------------------------------------------------------


_INTEGERS = ("block_number", "netuid")
_TEXTS = ("timestamp", "wallet", "role")
_SCORES = ("trust", "validator_trust")


def _read_jsonl(text: Iterable[str], table: "_Table") -> None:
    # orjson loads zoneinfo, a few milliseconds that only a JSONL read pays.
    import orjson

    add_ts, add_block, add_netuid, add_wallet, add_role, add_stake, add_reward, add_trust, add_vtrust, add_line = (
        column.append for column in table.cells.values()
    )
    add_text, loads, lines = table.texts.append, orjson.loads, table.cells["line"]
    for number, line in enumerate(text, start=1):
        if line.isspace():
            continue
        record = None
        # A line that may nest, one with a "[" or a "{" after its first
        # character, goes to json, which stops at the recursion limit where
        # orjson has no depth limit.
        if "[" not in line and "{" not in line[1:]:
            try:
                record = loads(line)
            except orjson.JSONDecodeError:
                pass
        if type(record) is not dict:
            record = _json_object(line, number)
        get = record.get
        add_ts(get("timestamp"))
        add_block(get("block_number"))
        add_netuid(get("netuid"))
        add_wallet(get("wallet"))
        add_role(get("role"))
        add_stake(get("stake"))
        add_reward(get("reward"))
        add_trust(get("trust"))
        add_vtrust(get("validator_trust"))
        add_line(number)
        add_text(line)
        if len(lines) == _CHUNK_ROWS:
            table.flush()


def _json_object(line: str, number: int) -> dict:
    """The JSON object on `line`, as json.loads reads it without the line's
    leading and trailing whitespace; raises the line's ParseError when it
    holds no object. strip() also removes padding that JSON rejects, such
    as a form feed."""
    try:
        record = json.loads(line.strip())
    except json.JSONDecodeError as exc:
        raise ParseError(number, f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # An integer with more digits than int() converts, or nesting
        # deeper than the recursion limit.
        raise ParseError(number, f"invalid JSON: {exc}") from None
    if type(record) is not dict:
        raise ParseError(number, "expected a JSON object")
    return record


def _read_csv(text: Iterable[str], table: "_Table") -> None:
    add_ts, add_block, add_netuid, add_wallet, add_role, add_stake, add_reward, add_trust, add_vtrust, add_line = (
        column.append for column in table.cells.values()
    )
    lines, reader = table.cells["line"], csv.reader(text)
    # A record is named by its first physical line; a quoted field may
    # span lines, which the reader counts after each LF, CR or CR LF.
    line = 1
    try:
        header = next(reader, None)
        if header is not None and tuple(header) != EVENT_COLUMNS:
            raise ParseError(1, f"unexpected CSV header {header!r}")
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(EVENT_COLUMNS):
                    raise ParseError(line, f"expected {len(EVENT_COLUMNS)} columns, got {len(row)}")
                stamp, block, netuid, wallet, role, stake, reward, trust, vtrust = row
                add_ts(stamp)
                add_block(block)
                add_netuid(netuid)
                add_wallet(wallet)
                add_role(role)
                add_stake(stake)
                add_reward(reward)
                add_trust(trust)
                add_vtrust(vtrust)
                add_line(line)
                if len(lines) == _CHUNK_ROWS:
                    table.flush()
            line = reader.line_num + 1
    except csv.Error as exc:
        # Such as a field longer than csv.field_size_limit().
        raise ParseError(line, f"invalid CSV: {exc}") from None


class _Table:
    """The columns of one event file, converted and checked a chunk of rows
    at a time.

    A reader appends each row's cells and its line to `cells`, and the
    JSONL reader each row's text to `texts`; it calls `flush` after each
    chunk. `columns` collects the converted chunks under the Dataset's
    column names. `flush` raises the ParseError of the first faulty line,
    so no chunk after its own is read.
    """

    def __init__(self, json: bool):
        self.json = json
        self.cells = {name: [] for name in (*EVENT_COLUMNS, "line")}
        self.texts = []
        self.columns = {name: [] for name in _COLUMN_TYPES}
        # Each distinct timestamp and role is converted once, and wallets
        # are coded in order of first appearance.
        self.times = _Memo(lambda raw: to_epoch_us(parse_timestamp(raw)))
        self.roles = _Memo(lambda raw: Role.parse(raw) is Role.MINER)
        self.codes = _Memo(lambda name: len(self.codes))

    def read(self, reader: Callable, text: Iterable[str]) -> Dataset:
        """The Dataset of the rows that `reader` reads from `text`. A
        ParseError that the reader raises ends the read; a faulty line
        before the one it names is reported in its place."""
        try:
            reader(text, self)
        except ParseError:
            self.flush()
            raise
        self.flush()
        arrays = {name: np.concatenate(self.columns.pop(name)) for name in _COLUMN_TYPES}
        names = sorted(self.codes)
        # The inverse of that order takes each code to its name's rank.
        arrays["wallet"] = np.argsort([self.codes[name] for name in names])[arrays["wallet"]]
        return _sorted_dataset(arrays, names)

    def flush(self) -> None:
        """Convert the pending rows and check their value rules, then clear
        them; raises the ParseError of the first faulty line among them."""
        try:
            arrays = self._convert(self.cells)
        except ValidationError:
            raise self._first_fault() from None
        finally:
            for pending in (*self.cells.values(), self.texts):
                del pending[:]
        for name, array in arrays.items():
            self.columns[name].append(array)

    def _first_fault(self) -> ParseError:
        """The ParseError of the first faulty pending line (see Parsing
        above)."""
        cells, lines = self.cells, self.cells["line"]
        # The rows before `good` are clean, and the rows before `bad` are not.
        good, bad = 0, len(lines)
        while bad - good > 1:
            middle = (good + bad) // 2
            try:
                self._convert({name: cells[name][good:middle] for name in EVENT_COLUMNS})
                good = middle
            except ValidationError:
                bad = middle
        row, line = bad - 1, lines[bad - 1]
        if self.json:
            record = _json_object(self.texts[row], line)
            alone = {name: [record.get(name)] for name in EVENT_COLUMNS}
        else:
            alone = {name: cells[name][row:bad] for name in EVENT_COLUMNS}
        try:
            self._convert(alone)
        except ValidationError as exc:
            return ParseError(line, str(exc))
        raise AssertionError(f"line {line} converts alone")

    def _convert(self, cells: Mapping[str, list]) -> dict[str, np.ndarray]:
        """The columns of the rows in `cells`; raises a ValidationError with
        the message of the first failing column or, failing none, of the
        first failing rule."""
        arrays = {}
        for name, column in zip(EVENT_COLUMNS, _COLUMN_TYPES):
            try:
                arrays[column] = self._array(name, cells[name])
            except (TypeError, ValueError, OverflowError, AttributeError):
                raise ValidationError(self._first_bad(name, cells)) from None
        held = {name: ~np.isnan(arrays[name]) for name in _SCORES}
        for name in _SCORES:
            values = cells[name]
            if np.count_nonzero(held[name]) != len(values) - values.count(None) - values.count(""):
                # The file holds a NaN as a score.
                held[name] = np.array([value is not None and value != "" for value in values], dtype=bool)
        _check_amounts(arrays["stake"], arrays["reward"])
        _check_rows(arrays, cells["wallet"].__getitem__, held)
        return arrays

    def _array(self, name: str, values: Sequence) -> np.ndarray:
        """One column of a chunk as an array; raises for a faulty cell."""
        count = len(values)
        if name == "timestamp":
            return np.fromiter(map(self.times.__getitem__, values), np.int64, count)
        if name == "role":
            return np.fromiter(map(self.roles.__getitem__, values), np.bool_, count)
        if name == "wallet":
            WalletNames(set(values).difference(self.codes))
            return np.fromiter(map(self.codes.__getitem__, values), np.int64, count)
        dtype = np.int64 if name in _INTEGERS else np.float64
        if self.json:
            kinds = set(map(type, values))
            if name in _SCORES:
                if str in kinds:
                    # "" is an absent score, as in CSV.
                    values = [None if value == "" else value for value in values]
                    kinds = set(map(type, values))
                kinds.discard(type(None))
            if not kinds <= ({int} if name in _INTEGERS else {int, float}):
                raise TypeError(f"a {name} cell has the wrong JSON type")
            return np.array(values, dtype=dtype)
        text = "".join(values)
        if not is_ascii_decimal(text):
            raise ValueError(f"a {name} is not ASCII decimal")
        if name in _SCORES:
            values = [value or "nan" for value in values]
        if name in _INTEGERS:
            return np.fromiter(map(int, values), dtype, count)
        # NumPy converts each str with float().
        return np.array(values, dtype)

    def _first_bad(self, name: str, cells: Mapping[str, Sequence]) -> str:
        """The message of the first faulty cell of column `name` of a chunk.
        A missing field is named with the others its row lacks."""
        kind = "string" if name in _TEXTS else "integer" if name in _INTEGERS else "number"
        for row, value in enumerate(cells[name]):
            if value is None or value == "":
                if name not in _SCORES:
                    missing = [key for key in EVENT_COLUMNS[:7] if cells[key][row] in (None, "")]
                    return f"missing required field(s): {', '.join(missing)}"
                continue
            try:
                if self.json:
                    json_value(name, value, kind)
                self._array(name, (value,))
            except TypeError as exc:
                return str(exc)
            except OverflowError:
                if kind == "integer":
                    return f"{name} does not fit in 64 bits: {value!r}"
                return f"invalid {name}: {value!r}"
            except ValueError as exc:
                return str(exc) if kind == "string" else f"invalid {name}: {value!r}"
        raise AssertionError(f"no faulty {name} cell")


def parse_events(source: BinaryIO, format: str = "jsonl") -> Dataset:
    """Parse a binary event stream, read once front to back, into a Dataset.

    Raises ParseError (with the 1-based number of the first faulty line)
    on malformed input, RoleConsistencyError when a (wallet, netuid) pair
    appears under both roles and ValidationError when a (timestamp,
    netuid, wallet) key appears twice.
    """
    _check_format(format)
    table = _Table(json=format == "jsonl")
    return table.read(_read_jsonl if table.json else _read_csv, _lines(source))


def _lines(source: BinaryIO) -> Iterator[str]:
    """The lines of `source`, read once in blocks, each decoded as strict
    UTF-8 with its line ending and without a leading byte-order mark. A line
    ends after each LF, CR or CR LF, as in universal newlines mode. The first
    line that holds a byte that is not UTF-8 raises a ParseError that names
    the byte, after every line before it."""
    parts, number, head = [], 0, True
    while True:
        block = source.read(_BLOCK_BYTES)
        parts.append(block)
        # Lines are cut only at a line break or at the end, so a line that
        # spans many blocks is joined once.
        if block and b"\n" not in block and b"\r" not in block:
            continue
        data = b"".join(parts)
        if head:
            data, head = data.removeprefix(b"\xef\xbb\xbf"), False
        lines = data.splitlines(keepends=True)
        # The last line goes on unless it ends in LF or the file ends: one
        # that ends in CR may end in CR LF.
        parts = [lines.pop()] if block and not lines[-1].endswith(b"\n") else []
        try:
            yield from map(bytes.decode, lines)
        except UnicodeDecodeError as exc:
            # An equal line before the failing one would have failed first.
            number += lines.index(exc.object)
            raise ParseError(number + 1, f"invalid UTF-8 byte {exc.object[exc.start]:#04x}") from None
        number += len(lines)
        if not block:
            return


def _check_format(format: str) -> None:
    if format not in EVENT_FORMATS:
        raise ValidationError(f"unknown format {format!r} (expected {' or '.join(EVENT_FORMATS)})")


def _path_format(path) -> str:
    """CSV for a path (str, bytes or os.PathLike) whose suffix is `.csv`, in
    any letter case; JSONL for any other."""
    return "csv" if os.fsdecode(path).lower().endswith(".csv") else "jsonl"


def load_events(path) -> Dataset:
    """Parse an event file, in the format its path names (see _path_format)."""
    with open(path, "rb") as handle:
        return parse_events(handle, _path_format(path))


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


def _float_texts(column: np.ndarray) -> Iterator[list[str]]:
    """The repr of each value, chunk by chunk, worked out once per distinct
    bit pattern, so -0.0 and 0.0 keep their own texts. A column with at most
    _CHUNK_ROWS distinct values formats each once for the whole column, any
    other once per chunk, so at most _CHUNK_ROWS texts are alive at once."""
    bits = column.view(np.int64)
    # Sorted, the bits change value one time fewer than there are distinct
    # values (a wrapped difference is 0 only between equal ones).
    few = np.count_nonzero(np.diff(np.sort(bits))) < _CHUNK_ROWS
    span = max(len(bits), 1) if few else _CHUNK_ROWS
    for start in range(0, len(bits), span):
        distinct, index = np.unique(bits[start:start + span], return_inverse=True)
        texts = list(map(repr, distinct.view(np.float64).tolist()))
        # A span has at most _CHUNK_ROWS distinct values; 2 bytes a row
        # keep a whole column's inverse small.
        index = index.astype(np.uint16)
        for first in range(0, len(index), _CHUNK_ROWS):
            yield list(map(texts.__getitem__, index[first:first + _CHUNK_ROWS].tolist()))


# Row templates indexed by 2 * miner + (score present). Each holds its role
# and takes the other fields in EVENT_COLUMNS order, then the role's score,
# which a template without one reads and drops (%.0s). JSONL lines are the
# bytes json.dump(..., separators=(",", ":")) writes.
_JSONL_HEAD = '{"timestamp":%%s,"block_number":%%s,"netuid":%%s,"wallet":%%s,"role":"%s","stake":%%s,"reward":%%s'
_JSONL_LINES = (
    _JSONL_HEAD % "validator" + "}%.0s\n",
    _JSONL_HEAD % "validator" + ',"validator_trust":%s}\n',
    _JSONL_HEAD % "miner" + "}%.0s\n",
    _JSONL_HEAD % "miner" + ',"trust":%s}\n',
)
_CSV_LINES = (
    "%s,%s,%s,%s,validator,%s,%s,,%.0s\n",
    "%s,%s,%s,%s,validator,%s,%s,,%s\n",
    "%s,%s,%s,%s,miner,%s,%s,,%.0s\n",
    "%s,%s,%s,%s,miner,%s,%s,%s,\n",
)


def write_events(dataset: Dataset, sink: BinaryIO, format: str = "jsonl") -> None:
    """Serialize a Dataset's rows in a form parse_events reads back losslessly.

    Floats are written with full round-trip precision (repr), so a
    write/parse cycle reproduces the exact same values.
    """
    _check_format(format)
    if format == "jsonl":
        templates, quote = _JSONL_LINES, json.dumps
    else:
        templates, quote = _CSV_LINES, _csv_field
        sink.write((",".join(EVENT_COLUMNS) + "\n").encode("utf-8"))
    # Each wallet name and timestamp is quoted once, and each float
    # formatted as _float_texts says; no other field can need CSV quoting.
    wallets = [quote(name) for name in dataset.wallet_names]
    stamps = _Memo(lambda us: quote(_format_epoch_us(us)))
    score = np.where(dataset.miner, dataset.trust, dataset.validator_trust)
    floats = zip(_float_texts(dataset.stake), _float_texts(dataset.reward), _float_texts(score))
    for first, (stakes, rewards, scores) in zip(range(0, len(dataset), _CHUNK_ROWS), floats):
        rows = slice(first, first + _CHUNK_ROWS)
        kind = 2 * dataset.miner[rows].astype(np.intp) + ~np.isnan(score[rows])
        fields = zip(
            map(stamps.__getitem__, dataset.timestamp[rows].tolist()),
            dataset.block_number[rows].tolist(),
            dataset.netuid[rows].tolist(),
            map(wallets.__getitem__, dataset.wallet[rows].tolist()),
            stakes,
            rewards,
            scores,
        )
        lines = map(str.__mod__, map(templates.__getitem__, kind.tolist()), fields)
        sink.write("".join(lines).encode("utf-8"))


def save_events(dataset: Dataset, path) -> None:
    """Write a Dataset to an event file, in the format its path names (see
    _path_format)."""
    with open(path, "wb") as handle:
        write_events(dataset, handle, _path_format(path))


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


def _aggregate(dataset: Dataset, window: np.ndarray) -> tuple[np.ndarray, ...]:
    """The aggregation table of `dataset` under the row window keys `window`:
    (netuid, key, offsets, wallet, miner, stake, reward, perf).

    A stable lexsort groups rows by (netuid, window, wallet) and keeps each
    group's rows in time order, so a group's last row gives stake and perf,
    and its rewards sum to its reward. The last five columns hold one entry
    per group. Segment s, one (netuid, window), holds entries
    offsets[s]:offsets[s + 1], in wallet-code order; netuid[s] and key[s]
    name it.
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
    reward = _group_sums(dataset.reward[order], starts, ends)
    overflowed = np.isinf(reward)
    if overflowed.any():
        row = int(order[starts[np.argmax(overflowed)]])
        raise ValidationError(
            f"rewards of wallet {dataset.wallet_names[dataset.wallet[row]]!r} in netuid "
            f"{dataset.netuid[row]} sum beyond the float64 range"
        )
    firsts = np.flatnonzero(new_snapshot[starts])
    segment_rows = starts[firsts]
    offsets = np.append(firsts, len(starts))
    return netuid[segment_rows], window[segment_rows], offsets, dataset.wallet[last], miner, stake, reward, perf


def _group_sums(rewards: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """math.fsum of each group rewards[starts[g]:ends[g]] of finite values,
    and inf for a group whose sum overflows. For one or two values fsum is
    the float sum, except that it turns -0.0 into 0.0, as adding 0.0 does;
    a pair overflows in both. Larger groups go through fsum itself."""
    sizes = ends - starts
    second = np.zeros(len(starts))
    pairs = sizes == 2
    second[pairs] = rewards[starts[pairs] + 1]
    with np.errstate(over="ignore"):
        sums = rewards[starts] + second + 0.0
    for group in np.flatnonzero(sizes > 2).tolist():
        try:
            sums[group] = math.fsum(rewards[starts[group]:ends[group]].tolist())
        except OverflowError:
            sums[group] = math.inf
    return sums


def _snapshots(
    dataset: Dataset,
    table: tuple[np.ndarray, ...],
    bounds: Callable[[int], tuple[datetime, datetime]],
) -> list[SubnetSnapshot]:
    """One snapshot per segment of an aggregation table of `dataset`;
    `bounds(key)` is the (start, end) of window `key`."""
    netuid, key, offsets, codes, miner, stake, reward, perf = table
    # Frozen, the columns are shared by the snapshots' slices, not copied.
    for column in (codes, miner, stake, reward, perf):
        _freeze(column)
    snapshots = []
    for segment, (first, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        window_start, window_end = bounds(int(key[segment]))
        snapshots.append(
            SubnetSnapshot(
                netuid=int(netuid[segment]),
                window_start=window_start,
                window_end=window_end,
                wallet=codes[first:stop],
                miner=miner[first:stop],
                stake=stake[first:stop],
                reward=reward[first:stop],
                perf=perf[first:stop],
                wallet_names=dataset.wallet_names,
            )
        )
    return snapshots


def _window_table(dataset: Dataset, freq: str) -> tuple[tuple[np.ndarray, ...], Callable[[int], datetime]]:
    """The aggregation table of resample(dataset, freq) (see _aggregate),
    and the start of the window of a key."""
    if freq not in FREQUENCIES:
        raise ValidationError(f"unknown frequency {freq!r} (expected one of {FREQUENCIES})")
    if not len(dataset):
        raise ValidationError("cannot resample an empty dataset")
    window, start_of = _window_keys(dataset.timestamp, freq)
    return _aggregate(dataset, window), start_of


def resample(dataset: Dataset, freq: str = "daily") -> list[SubnetSnapshot]:
    """Aggregate events into per-(netuid, window) snapshots.

    Windows are calendar-aligned UTC: days at 00:00, weeks starting Monday,
    months at the 1st. Within a window, stake and perf come from the
    wallet's last event and reward is the sum of its rewards.
    """
    table, start_of = _window_table(dataset, freq)
    # A window ends where the next one starts: keys count days, Mondays'
    # days or months.
    step = 7 if freq == "weekly" else 1
    return _snapshots(dataset, table, lambda key: (start_of(key), start_of(key + step)))


def _history_table(dataset: Dataset) -> tuple[np.ndarray, ...]:
    """The aggregation table of history_snapshots(dataset) (see _aggregate):
    the whole dataset as one window, so one segment per netuid."""
    if not len(dataset):
        raise ValidationError("cannot aggregate an empty dataset")
    return _aggregate(dataset, np.zeros(len(dataset), dtype=np.int64))


def history_snapshots(dataset: Dataset) -> list[SubnetSnapshot]:
    """Collapse the whole dataset into one snapshot per netuid.

    The window spans from the first event's day to the day after the last
    event's day, shared by all subnets; aggregation follows the resample
    rules (last stake/perf, summed reward).
    """
    table = _history_table(dataset)
    first, last = int(dataset.timestamp[0]), int(dataset.timestamp[-1])
    span = (from_epoch_us(first - first % _DAY_US), from_epoch_us(last - last % _DAY_US + _DAY_US))
    return _snapshots(dataset, table, lambda _: span)
