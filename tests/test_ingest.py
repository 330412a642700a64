"""Event parsing, serialization round-trips, cutoff, and resampling."""

import csv
import io
import itertools
import json
import math
import os
import struct
import tempfile
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from yumalab import ingest
from yumalab._util import format_timestamp, parse_timestamp
from yumalab.cli import run as run_cli
from yumalab.ingest import (
    DTAO_CUTOFF,
    Dataset,
    ParseError,
    RoleConsistencyError,
    apply_cutoff,
    history_snapshots,
    load_events,
    parse_events,
    resample,
    save_events,
    write_events,
)
from yumalab.model import Role, SnapshotEvent, ValidationError

UTC = timezone.utc


def ts(day, hour=0):
    return datetime(2024, 1, day, hour, tzinfo=UTC)


def event(day=1, hour=0, netuid=1, wallet="w1", role=Role.MINER, stake=10.0,
          reward=1.0, score=0.5):
    return SnapshotEvent(
        timestamp=ts(day, hour),
        block_number=day * 7200 + hour,
        netuid=netuid,
        wallet=wallet,
        role=role,
        stake=stake,
        reward=reward,
        trust=score if role is Role.MINER else None,
        validator_trust=score if role is Role.VALIDATOR else None,
    )


JSONL_SAMPLE = b"""\
{"timestamp": "2024-01-01T00:00:00Z", "block_number": 7200, "netuid": 1, "wallet": "w1", "role": "miner", "stake": 10.0, "reward": 1.5, "trust": 0.9}

{"timestamp": "2024-01-01T00:00:00+00:00", "block_number": 7200, "netuid": 1, "wallet": "w2", "role": "validator", "stake": 50.0, "reward": 4.0, "validator_trust": 0.8}
"""


class TestParsing:
    def test_jsonl_happy_path(self):
        ds = parse_events(io.BytesIO(JSONL_SAMPLE))
        assert len(ds) == 2
        assert ds.events[0].wallet == "w1"
        assert ds.events[0].trust == 0.9
        assert ds.events[1].role is Role.VALIDATOR

    def test_blank_lines_are_skipped(self):
        ds = parse_events(io.BytesIO(JSONL_SAMPLE))
        assert len(ds) == 2

    def test_invalid_json_reports_line(self):
        good = (
            b'{"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1,'
            b' "wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0}\n'
        )
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(good + b"{not json}\n"))
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("line", [b"[1, 2]", b'"text"', b"null", b"7"])
    def test_non_object_line_reports_line(self, line):
        buffer = io.BytesIO()
        write_events(Dataset.from_events([event()]), buffer)
        with pytest.raises(ParseError, match="line 2: expected a JSON object"):
            parse_events(io.BytesIO(buffer.getvalue() + line + b"\n"))

    def test_missing_field_reports_line(self):
        record = {"timestamp": "2024-01-01T00:00:00Z", "netuid": 1}
        data = (json.dumps(record) + "\n").encode()
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data))
        assert exc_info.value.line == 1

    def test_bad_timestamp_rejected(self):
        record = {
            "timestamp": "not-a-date", "block_number": 1, "netuid": 1,
            "wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0,
        }
        with pytest.raises(ParseError):
            parse_events(io.BytesIO((json.dumps(record) + "\n").encode()))

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"])
    def test_timestamp_out_of_range_in_utc_is_parse_error(self, stamp):
        record = {
            "timestamp": stamp, "block_number": 1, "netuid": 1,
            "wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0,
        }
        with pytest.raises(ParseError, match="line 1: timestamp .* is out of range in UTC"):
            parse_events(io.BytesIO((json.dumps(record) + "\n").encode()))

    def test_csv_requires_exact_header(self):
        data = b"timestamp,netuid\n"
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data), format="csv")
        assert exc_info.value.line == 1

    def test_csv_rejects_short_rows(self):
        header = "timestamp,block_number,netuid,wallet,role,stake,reward,trust,validator_trust"
        data = (header + "\n2024-01-01T00:00:00Z,1,1\n").encode()
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data), format="csv")
        assert exc_info.value.line == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            parse_events(io.BytesIO(b""), format="xml")

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_utf8_byte_order_mark_is_accepted(self, format):
        buffer = io.BytesIO()
        write_events(Dataset.from_events([event(wallet="a"), event(wallet="b")]), buffer, format=format)
        with_bom = parse_events(io.BytesIO(b"\xef\xbb\xbf" + buffer.getvalue()), format=format)
        assert [e.wallet for e in with_bom.events] == ["a", "b"]

    @pytest.mark.parametrize("field, value, kind", [
        ("block_number", 1.7, "integer"),
        ("netuid", True, "integer"),
        ("wallet", 123, "string"),
        ("stake", "1", "number"),
    ])
    def test_jsonl_values_need_their_json_type(self, field, value, kind):
        record = {
            "timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1,
            "wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0,
        }
        good = json.dumps(record) + "\n"
        record[field] = value
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO((good + json.dumps(record) + "\n").encode()))
        assert exc_info.value.line == 2
        assert f"{field} must be a JSON {kind}, got {value!r}" in str(exc_info.value)

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_integer_beyond_int64_is_parse_error(self, format):
        buffer = io.BytesIO()
        write_events(Dataset.from_events([event()]), buffer, format=format)
        data = buffer.getvalue().replace(b"7200", str(2**63).encode())
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data), format=format)
        assert exc_info.value.line == (1 if format == "jsonl" else 2)
        assert "block_number does not fit in 64 bits" in str(exc_info.value)

    def test_integer_beyond_the_json_digit_limit_is_parse_error(self):
        good = ('{"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1, '
                '"wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0}\n')
        bad = good.replace('"stake": 1.0', '"stake": ' + "1" * 5001)
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO((good + bad).encode()))
        assert exc_info.value.line == 2
        assert "invalid JSON" in str(exc_info.value)

    def test_wallet_with_a_lone_surrogate_is_parse_error(self):
        data = ('{"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1, '
                '"wallet": "a\\ud800", "role": "miner", "stake": 1.0, "reward": 0.0}\n').encode()
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data))
        assert exc_info.value.line == 1
        assert str(exc_info.value) == "line 1: wallet must be valid Unicode text, got 'a\\ud800'"

    # A CSV record is named by its first physical line, with line ends
    # counted after each LF, CR or CR LF.
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("first, second, line", [
        ("a{}b", "c", 4),
        ("a", "c{}d", 3),
    ], ids=["after-a-multi-line-record", "multi-line-record"])
    def test_csv_record_is_named_by_its_first_line(self, brk, first, second, line):
        row = '2024-01-01T00:00:00Z,1,1,"{}",miner,{},1.0,,\n'
        data = (",".join(ingest.EVENT_COLUMNS) + "\n" + row.format(first.format(brk), "1.0")
                + row.format(second.format(brk), "-1.0")).encode()
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO(data), format="csv")
        assert str(exc_info.value) == f"line {line}: stake must be >= 0, got -1.0"

    def test_csv_numbers_must_be_ascii_decimal(self):
        # int() and float() read Unicode digits and PEP 515 underscores.
        header = ",".join(ingest.EVENT_COLUMNS) + "\n"
        good = "2024-01-01T00:00:00Z,12,1,w,miner,1.5,10.5,0.15,\n"
        bad = "2024-01-01T00:00:00Z,\u0661\u0662,1,w,miner,\uff11.\uff15,1_0.5,0.1_5,\n"
        assert parse_events(io.BytesIO((header + good).encode()), format="csv").events[0].block_number == 12
        with pytest.raises(ParseError) as exc_info:
            parse_events(io.BytesIO((header + bad).encode()), format="csv")
        assert str(exc_info.value) == "line 2: invalid block_number: '\u0661\u0662'"
        for field, cell in (("stake", "\uff11.\uff15"), ("reward", "1_0.5"), ("trust", "0.1_5")):
            row = good.replace({"stake": "1.5", "reward": "10.5", "trust": "0.15"}[field], cell)
            with pytest.raises(ParseError, match=f"^line 3: invalid {field}: '{cell}'$"):
                parse_events(io.BytesIO((header + good.replace(",w,", ",v,") + row).encode()), format="csv")


class TestTimestampGrammar:
    """A timestamp follows the grammar of datetime.fromisoformat on Python
    3.10 on every supported Python, with a trailing Z for +00:00 and `T`,
    `t` or a space between the date and the time."""

    # Spellings that fromisoformat reads on Python 3.11 and later but not
    # on 3.10: the basic format, a week date, a decimal comma, hours and
    # minutes without a colon, and fractions of other than 3 or 6 digits.
    @pytest.mark.parametrize("text", [
        "20240101T000000Z",
        "2024-W01-1T00:00Z",
        "2024-01-01T00:00:00,5Z",
        "2024-01-01T0000Z",
        "2024-01-01T00:00:00.1Z",
        "2024-01-01T00:00:00.12Z",
        "2024-01-01T00:00:00.1234Z",
        "2024-01-01T00:00:00.12345Z",
        "2024-01-01T00:00:00.1234567Z",
        "2024-01-01T00:00:00.123456789+00:00",
        "2024-01-01T00:00:00+05:30:15.123",
        # 3.10 reads any one character as the date-time separator, so the
        # offset would be read as the time of day.
        "2024-01-01+05:00",
        "2024-01-01-05:00",
    ])
    def test_spellings_outside_the_grammar_are_rejected(self, text):
        with pytest.raises(ValueError) as raised:
            parse_timestamp(text)
        assert str(raised.value) == f"invalid timestamp {text!r}"
        record = {"timestamp": text, "block_number": 1, "netuid": 1, "wallet": "w", "role": "miner",
                  "stake": 1.0, "reward": 0.0}
        with pytest.raises(ParseError) as raised:
            parse_events(io.BytesIO((json.dumps(record) + "\n").encode()))
        assert str(raised.value) == f"line 1: invalid timestamp {text!r}"

    @pytest.mark.parametrize("text, expected", [
        ("2024-01-01", datetime(2024, 1, 1, tzinfo=UTC)),
        ("2024-01-01T12", datetime(2024, 1, 1, 12, tzinfo=UTC)),
        ("2024-01-01 12:30", datetime(2024, 1, 1, 12, 30, tzinfo=UTC)),
        (" 2024-01-01T12:30:15z ", datetime(2024, 1, 1, 12, 30, 15, tzinfo=UTC)),
        ("2024-01-01T12:30:15.123Z", datetime(2024, 1, 1, 12, 30, 15, 123000, tzinfo=UTC)),
        ("2024-01-01T12:30:15.123456-08:00", datetime(2024, 1, 1, 20, 30, 15, 123456, tzinfo=UTC)),
        ("2024-01-01T12+05:30", datetime(2024, 1, 1, 6, 30, tzinfo=UTC)),
        ("2024-01-01T12:30:15+05:30:15.000001", datetime(2024, 1, 1, 6, 59, 59, 999999, tzinfo=UTC)),
    ])
    def test_spellings_of_the_grammar_are_read(self, text, expected):
        assert parse_timestamp(text) == expected


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_write_read_identity(self, format):
        events = [
            event(day=1, wallet="a", stake=1.2345678901234567, reward=0.1),
            event(day=1, wallet="b", role=Role.VALIDATOR, stake=math.pi, reward=1e-17),
            event(day=2, wallet="c", netuid=3, score=0.0),
        ]
        buffer = io.BytesIO()
        write_events(Dataset.from_events(events), buffer, format=format)
        buffer.seek(0)
        parsed = parse_events(buffer, format=format)
        assert list(parsed.events) == sorted(
            events, key=lambda e: (e.timestamp, e.netuid, e.wallet)
        )

    def test_save_and_load_infer_format(self, tmp_path):
        events = [event(day=d, wallet=f"w{d}") for d in range(1, 6)]
        for name in ("events.jsonl", "events.csv"):
            path = tmp_path / name
            save_events(Dataset.from_events(events), path)
            assert load_events(path).events == tuple(events)

    @pytest.mark.parametrize("name", ["events.CSV", "events.Csv", "events.JSONL"])
    def test_suffix_is_read_in_any_case(self, tmp_path, name):
        dataset = Dataset.from_events([event(day=d, wallet=f"w{d}") for d in range(1, 4)])
        path = tmp_path / name
        save_events(dataset, path)
        assert path.read_bytes().startswith(b"timestamp," if name.lower().endswith(".csv") else b"{")
        assert load_events(path).events == dataset.events

    # A `.csv` suffix means CSV in a str, bytes or PathLike path; any other means JSONL.
    @pytest.mark.parametrize("name, head", [("events.csv", b"timestamp,"), ("events.txt", b"{")])
    @pytest.mark.parametrize("kind", [os.fspath, os.fsencode], ids=["str", "bytes"])
    def test_path_names_the_format(self, tmp_path, name, head, kind):
        dataset = Dataset.from_events([event(day=d, wallet=f"w{d}") for d in range(1, 4)])
        path = tmp_path / name
        save_events(dataset, kind(path))
        assert path.read_bytes().startswith(head)
        assert load_events(kind(path)).events == dataset.events

    def test_output_ends_with_newline(self):
        for format in ("jsonl", "csv"):
            buffer = io.BytesIO()
            write_events(Dataset.from_events([event()]), buffer, format=format)
            assert buffer.getvalue().endswith(b"\n")

    def test_none_scores_serialize_as_absent(self):
        ev = SnapshotEvent(
            timestamp=ts(1), block_number=0, netuid=1, wallet="w",
            role=Role.MINER, stake=1.0, reward=0.0, trust=None, validator_trust=None,
        )
        buffer = io.BytesIO()
        write_events(Dataset.from_events([ev]), buffer, format="jsonl")
        record = json.loads(buffer.getvalue())
        assert "trust" not in record and "validator_trust" not in record


class TestDataset:
    def test_events_sorted_on_construction(self):
        events = [event(day=3, wallet="c"), event(day=1, wallet="a"), event(day=2, wallet="b")]
        ds = Dataset.from_events(events)
        assert [e.wallet for e in ds.events] == ["a", "b", "c"]

    def test_role_flip_in_same_subnet_rejected(self):
        events = [
            event(day=1, wallet="w", role=Role.MINER),
            event(day=2, wallet="w", role=Role.VALIDATOR),
        ]
        with pytest.raises(RoleConsistencyError) as exc_info:
            Dataset.from_events(events)
        assert ("w", 1) in exc_info.value.pairs

    def test_same_wallet_may_differ_across_subnets(self):
        events = [
            event(day=1, wallet="w", netuid=1, role=Role.MINER),
            event(day=1, wallet="w", netuid=2, role=Role.VALIDATOR),
        ]
        ds = Dataset.from_events(events)
        assert len(ds) == 2

    def test_duplicate_key_rejected(self):
        events = [event(wallet="w", reward=1.0), event(wallet="w", reward=2.0)]
        with pytest.raises(ValidationError, match="duplicate events .*'2024-01-01T00:00:00Z', 1, 'w'"):
            Dataset.from_events(events)

    def test_concat_merges_wallet_tables_and_applies_cutoff(self):
        first = Dataset.from_events([event(day=2, wallet="b"), event(day=20, wallet="c")])
        second = Dataset.from_events([event(day=1, wallet="a"), event(day=3, wallet="c")])
        merged = Dataset.concat([first, second], cutoff=ts(10))
        assert [(e.timestamp.day, e.wallet) for e in merged.events] == [(1, "a"), (2, "b"), (3, "c")]
        # The cutoff is applied, not stored: a Dataset is its columns and names.
        assert list(vars(merged)) == [*ingest._COLUMN_TYPES, "wallet_names"]

    def test_concat_needs_a_dataset(self):
        with pytest.raises(ValidationError, match="^at least one dataset is required$"):
            Dataset.concat([])

    def test_netuids_sorted_unique(self):
        events = [event(netuid=5, wallet="a"), event(netuid=2, wallet="b"), event(netuid=5, wallet="c")]
        assert Dataset.from_events(events).netuids() == [2, 5]


class TestCutoff:
    def test_cutoff_is_strict(self):
        boundary = datetime(2025, 2, 13, tzinfo=UTC)
        events = [
            SnapshotEvent(timestamp=boundary - timedelta(seconds=1), block_number=0,
                          netuid=1, wallet="before", role=Role.MINER, stake=1.0,
                          reward=0.0, trust=None, validator_trust=None),
            SnapshotEvent(timestamp=boundary, block_number=1, netuid=1, wallet="at",
                          role=Role.MINER, stake=1.0, reward=0.0, trust=None,
                          validator_trust=None),
        ]
        ds = apply_cutoff(Dataset.from_events(events))
        assert [e.wallet for e in ds.events] == ["before"]

    @pytest.mark.parametrize("cutoff, message", [
        ("2024-01-01", "cutoff must be a timezone-aware datetime"),
        (datetime(2024, 1, 1), "cutoff must be a timezone-aware datetime"),
        (1_704_067_200, "cutoff must be a timezone-aware datetime"),
        (datetime.min.replace(tzinfo=timezone(timedelta(hours=1))), "cutoff is out of range in UTC"),
    ], ids=["text", "naive", "number", "before-year-1-in-utc"])
    def test_cutoff_must_be_an_aware_datetime(self, cutoff, message):
        ds = Dataset.from_events([event()])
        message = f"^{message}$"
        with pytest.raises(ValidationError, match=message):
            Dataset.concat([ds], cutoff=cutoff)
        with pytest.raises(ValidationError, match=message):
            apply_cutoff(ds, cutoff)

    def test_cutoff_with_an_offset_is_its_instant(self):
        ds = Dataset.from_events([event(day=1, hour=23, wallet="a"), event(day=2, wallet="b")])
        kept = apply_cutoff(ds, datetime(2024, 1, 2, 1, tzinfo=timezone(timedelta(hours=1))))
        assert [e.wallet for e in kept.events] == ["a"]

    def test_default_cutoff_constant(self):
        assert DTAO_CUTOFF == datetime(2025, 2, 13, tzinfo=UTC)


class TestResample:
    def test_daily_windows(self):
        events = [
            event(day=1, hour=3, wallet="w", stake=5.0, reward=1.0),
            event(day=1, hour=20, wallet="w", stake=7.0, reward=2.0),
            event(day=2, hour=1, wallet="w", stake=9.0, reward=4.0),
        ]
        snaps = resample(Dataset.from_events(events), "daily")
        assert len(snaps) == 2
        first, second = snaps
        assert first.window_start == ts(1)
        assert first.window_end == ts(2)
        # stake comes from the last event in the window, rewards accumulate
        entry = first.entries[0]
        assert entry.stake == 7.0
        assert entry.reward == 3.0
        assert second.entries[0].stake == 9.0

    def test_weekly_windows_start_monday(self):
        # 2024-01-03 was a Wednesday; its weekly window starts Monday 01-01.
        snaps = resample(Dataset.from_events([event(day=3)]), "weekly")
        assert snaps[0].window_start == ts(1)
        assert snaps[0].window_end == ts(8)

    def test_monthly_window_rollover(self):
        events = [
            SnapshotEvent(timestamp=datetime(2024, 12, 30, tzinfo=UTC), block_number=0,
                          netuid=1, wallet="w", role=Role.MINER, stake=1.0, reward=0.5,
                          trust=None, validator_trust=None),
        ]
        snaps = resample(Dataset.from_events(events), "monthly")
        assert snaps[0].window_start == datetime(2024, 12, 1, tzinfo=UTC)
        assert snaps[0].window_end == datetime(2025, 1, 1, tzinfo=UTC)

    def test_windows_sorted_and_grouped_by_netuid(self):
        events = [
            event(day=2, netuid=2, wallet="a"),
            event(day=1, netuid=1, wallet="b"),
            event(day=1, netuid=2, wallet="c"),
        ]
        snaps = resample(Dataset.from_events(events), "daily")
        keys = [(s.netuid, s.window_start) for s in snaps]
        assert keys == sorted(keys)

    def test_brute_force_grouping_oracle(self):
        events = []
        for day in range(1, 25):
            for wallet in ("a", "b", "c"):
                events.append(event(day=day, hour=(day * 7) % 24, wallet=wallet,
                                    stake=float(day), reward=0.1 * day))
        assert_matches_grouping_oracle(Dataset.from_events(events))


class TestHistory:
    def test_single_window_spans_dataset(self):
        events = [event(day=1, wallet="a"), event(day=9, hour=13, wallet="b")]
        snaps = history_snapshots(Dataset.from_events(events))
        assert len(snaps) == 1
        snap = snaps[0]
        assert snap.window_start == ts(1)
        assert snap.window_end == ts(10)
        assert snap.count() == 2

    def test_rewards_accumulate_across_whole_history(self):
        events = [event(day=d, wallet="w", reward=1.0, stake=float(d)) for d in range(1, 8)]
        snap = history_snapshots(Dataset.from_events(events))[0]
        assert snap.entries[0].reward == 7.0
        assert snap.entries[0].stake == 7.0


# ---------------------------------------------------------------------------
# Oracles and property tests
# ---------------------------------------------------------------------------


def oracle_window(stamp, freq):
    """Calendar window of an instant, by datetime arithmetic alone."""
    day = datetime(stamp.year, stamp.month, stamp.day, tzinfo=UTC)
    if freq == "daily":
        return day, day + timedelta(days=1)
    if freq == "weekly":
        monday = day - timedelta(days=day.weekday())
        return monday, monday + timedelta(days=7)
    start = datetime(stamp.year, stamp.month, 1, tzinfo=UTC)
    following = start + timedelta(days=32)
    return start, datetime(following.year, following.month, 1, tzinfo=UTC)


def grouped(events, window_of):
    """Snapshots by brute force: bucket events per (netuid, window) and
    wallet, keep the last stake, role and perf, and fsum the rewards."""
    buckets = {}
    for ev in events:
        key = (ev.netuid, window_of(ev.timestamp))
        buckets.setdefault(key, {}).setdefault(ev.wallet, []).append(ev)
    return [
        (netuid, start, end, [
            (wallet, history[-1].role, history[-1].stake,
             math.fsum(e.reward for e in history), history[-1].perf)
            for wallet, history in sorted(buckets[(netuid, (start, end))].items())
        ])
        for netuid, (start, end) in sorted(buckets)
    ]


def as_tuples(snapshots):
    return [
        (snap.netuid, snap.window_start, snap.window_end,
         [(e.wallet, e.role, e.stake, e.reward, e.perf) for e in snap.entries])
        for snap in snapshots
    ]


def assert_matches_grouping_oracle(ds):
    events = ds.events
    for freq in ("daily", "weekly", "monthly"):
        expected = grouped(events, lambda stamp: oracle_window(stamp, freq))
        assert as_tuples(resample(ds, freq)) == expected
    first = oracle_window(events[0].timestamp, "daily")[0]
    end = oracle_window(max(e.timestamp for e in events), "daily")[1]
    assert as_tuples(history_snapshots(ds)) == grouped(events, lambda stamp: (first, end))


WALLETS = ("a", "b", "sn01-m001", "w,1", 'q"x', "\u00e9t\u00e9", "back\\slash", "t\tab",
           "c\rr", "l\u2028s")
ZONES = ("Z", "naive", timezone.utc, timezone(timedelta(hours=5, minutes=30)),
         timezone(timedelta(hours=-8)))
INSTANTS = st.datetimes(min_value=datetime(1950, 1, 1), max_value=datetime(2030, 12, 31),
                        timezones=st.just(UTC))
AMOUNTS = st.floats(min_value=0.0, max_value=1e12) | st.integers(0, 10**6) | st.just(-0.0)
# "" is an absent score, in JSONL as in CSV.
ABSENT = st.sampled_from([None, ""])
SCORES = ABSENT | st.floats(min_value=0.0, max_value=1.0) | st.just(-0.0)
# Line padding that str.strip() removes and JSON rejects, or accepts.
PADS = st.text(alphabet="\f\v\x1c\x1f\x85\u2028\u3000 \t", max_size=2)


def render_timestamp(instant, zone):
    if zone == "Z":
        return instant.isoformat().replace("+00:00", "Z")
    if zone == "naive":
        return instant.replace(tzinfo=None).isoformat()
    return instant.astimezone(zone).isoformat()


@st.composite
def event_records(draw, min_size=1, max_size=30):
    """Valid event records with shared, sub-second, pre-1970 and non-UTC
    timestamps, absent scores, and one role per (wallet, netuid)."""
    instants = draw(st.lists(INSTANTS, min_size=1, max_size=6, unique=True))
    keys = draw(st.lists(
        st.tuples(st.integers(0, len(instants) - 1), st.integers(0, 3), st.sampled_from(WALLETS)),
        min_size=min_size, max_size=max_size, unique=True,
    ))
    roles = {}
    records = []
    for instant, netuid, wallet in keys:
        if (wallet, netuid) not in roles:
            roles[(wallet, netuid)] = draw(st.booleans())
        is_miner = roles[(wallet, netuid)]
        score = draw(SCORES)
        records.append({
            "timestamp": render_timestamp(instants[instant], draw(st.sampled_from(ZONES))),
            "block_number": draw(st.integers(0, 2**62)),
            "netuid": netuid,
            "wallet": wallet,
            "role": draw(st.sampled_from(["miner", "Miner", " MINER "] if is_miner
                                         else ["validator", "VALIDATOR"])),
            "stake": draw(AMOUNTS),
            "reward": draw(AMOUNTS),
            "trust": score if is_miner else draw(ABSENT),
            "validator_trust": draw(ABSENT) if is_miner else score,
        })
    return records


class Raw(str):
    """JSON text, with a short repr. JSONL lines hold it as it is, CSV rows
    as a cell."""

    def __new__(cls, text, name):
        raw = super().__new__(cls, text)
        raw.name = name
        return raw

    def __repr__(self):
        return self.name


# A JSON array nested deeper than json.loads decodes.
DEEP = Raw("[" * 100_000 + "]" * 100_000, "DEEP")


def jsonl_line(record):
    """The record as one JSON object, its Raw values as they are."""
    line = json.dumps({k: v for k, v in record.items() if v is not None})
    for value in record.values():
        if isinstance(value, Raw):
            line = line.replace(json.dumps(value), value)
    return line


def event_file(records, format, bom=False, pads=None):
    """The records as a file; for JSONL, `pads` gives (before, after)
    padding for each line."""
    if format == "jsonl":
        pads = pads or [("", "")] * len(records)
        text = "".join(
            before + jsonl_line(record) + after + "\n" for record, (before, after) in zip(records, pads)
        )
    else:
        buffer = io.StringIO()
        # CRLF rows, so that a wallet holding a CR is quoted.
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(ingest.EVENT_COLUMNS)
        for record in records:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                             for v in record.values()])
        text = buffer.getvalue()
    return ("\ufeff" if bom else "") + text


def oracle_number(raw, field, line, convert):
    """`raw` converted by `convert`; a CSV cell must be ASCII decimal text."""
    try:
        if isinstance(raw, str) and (not raw.isascii() or "_" in raw):
            raise ValueError(raw)
        return convert(raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(line, f"invalid {field}: {raw!r}") from None


def oracle_event(fields, line):
    missing = [c for c in ingest.EVENT_COLUMNS[:7] if fields.get(c) in (None, "")]
    if missing:
        raise ParseError(line, f"missing required field(s): {', '.join(missing)}")
    try:
        timestamp = parse_timestamp(str(fields["timestamp"]))
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None

    def integer(field):
        value = oracle_number(fields[field], field, line, int)
        if not -(2**63) <= value < 2**63:
            raise ParseError(line, f"{field} does not fit in 64 bits: {fields[field]!r}")
        return value

    def score(field):
        raw = fields.get(field)
        return None if raw is None or raw == "" else oracle_number(raw, field, line, float)

    try:
        return SnapshotEvent(
            timestamp=timestamp,
            block_number=integer("block_number"),
            netuid=integer("netuid"),
            wallet=str(fields["wallet"]),
            role=Role.parse(str(fields["role"])),
            stake=oracle_number(fields["stake"], "stake", line, float),
            reward=oracle_number(fields["reward"], "reward", line, float),
            trust=score("trust"),
            validator_trust=score("validator_trust"),
        )
    except ParseError:
        raise
    except ValidationError as exc:
        raise ParseError(line, str(exc)) from None


# The JSON type each JSONL field must have; a bool is not a JSON integer or
# number here.
ORACLE_JSON_TYPES = {
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


def oracle_jsonl_events(text):
    for line_number, line in enumerate(text, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(line_number, f"invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ParseError(line_number, f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(line_number, "expected a JSON object")
        # null and "" are left to the missing-field and absent-score rules.
        for field, (types, kind) in ORACLE_JSON_TYPES.items():
            value = obj.get(field)
            if value is not None and value != "" and type(value) not in types:
                raise ParseError(line_number, f"{field} must be a JSON {kind}, got {value!r}")
        yield oracle_event(obj, line_number)


def oracle_csv_events(text):
    reader = csv.reader(text)
    # A record is named by its first physical line.
    line_number = 1
    try:
        header = next(reader, None)
        if header is None:
            return
        if tuple(header) != ingest.EVENT_COLUMNS:
            raise ParseError(1, f"unexpected CSV header {header!r}")
        line_number = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(ingest.EVENT_COLUMNS):
                    raise ParseError(line_number, f"expected {len(ingest.EVENT_COLUMNS)} columns, got {len(row)}")
                yield oracle_event(dict(zip(ingest.EVENT_COLUMNS, row)), line_number)
            line_number = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(line_number, f"invalid CSV: {exc}") from None


def oracle_parse(data, format):
    """Line by line, as parse_events once read a file it found malformed:
    each line becomes a SnapshotEvent, the first line that fails raises
    its ParseError, and the events then go through Dataset.from_events.
    Unlike that reader, a CSV number must be ASCII decimal text."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    events = oracle_jsonl_events(text) if format == "jsonl" else oracle_csv_events(text)
    return Dataset.from_events(list(events))


def parse_errors(data, format):
    """The errors that parse_events and the oracle raise on `data`."""
    errors = []
    for parse in (parse_events, lambda source, format: oracle_parse(source.read(), format)):
        with pytest.raises(ValidationError) as raised:
            parse(io.BytesIO(data), format)
        errors.append(raised.value)
    return errors


FORMATS = st.sampled_from(["jsonl", "csv"])

CORRUPTIONS = (
    {"block_number": -1},
    {"block_number": 2**64},
    {"netuid": -3},
    {"netuid": True},
    {"wallet": ""},
    {"role": "owner"},
    {"timestamp": "yesterday"},
    {"stake": -1.5},
    {"stake": math.inf},
    {"reward": "abc"},
    {"trust": 1.5},
    {"validator_trust": math.nan},
    {"trust": math.nan},
    # Integers beyond the float range.
    {"stake": 10**400},
    {"trust": 10**400},
    {"stake": DEEP},
    # Integers beyond 64 bits, which orjson reads as floats, and at 2**63.
    {"timestamp": 2**63},
    {"block_number": 2**63},
    {"block_number": -2**63 - 1},
    {"netuid": 2**64},
    {"netuid": -2**63 - 1},
    {"role": -2**63 - 1},
    {"stake": -2**63 - 1},
    {"reward": -2**63 - 1},
    {"trust": 2**64},
    {"validator_trust": 2**63},
    # Values that json reads and orjson rejects.
    {"reward": math.nan},
    {"validator_trust": -math.inf},
    {"stake": Raw("1e400", "1e400")},
    {"role": Raw('"\\ud800"', "lone-surrogate")},
    # Numbers that int() and float() read but a CSV cell may not hold:
    # Unicode digits and PEP 515 underscores.
    {"block_number": "\u0661\u0662"},
    {"stake": "\uff11.\uff15"},
    {"reward": "1_0.5"},
    {"trust": "0.1_5"},
)


def corruption_id(corruption):
    return "{}={!r}".format(*next(iter(corruption.items())))[:40]


def line_of(records, row, format):
    """The line of records[row] in event_file(records, format); a CSV
    wallet holding a CR spans two physical lines."""
    if format == "jsonl":
        return row + 1
    return row + 2 + sum(record["wallet"].count("\r") for record in records[:row])


class TestColumnarAgainstPerLineOracle:
    @settings(max_examples=60, deadline=None)
    @given(records=event_records(), format=FORMATS, bom=st.booleans(), draws=st.data())
    def test_valid_files_give_equal_events(self, records, format, bom, draws):
        pads = draws.draw(st.lists(st.tuples(PADS, PADS), min_size=len(records), max_size=len(records)))
        data = event_file(records, format, bom, pads).encode()
        assert parse_events(io.BytesIO(data), format).events == oracle_parse(data, format).events

    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=corruption_id)
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    @settings(max_examples=8, deadline=None)
    @given(records=event_records(), data=st.data())
    def test_corrupted_line_gives_the_oracle_parse_error(self, corruption, format, records, data):
        row = data.draw(st.integers(0, len(records) - 1))
        records[row].update(corruption)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert expected.line == line_of(records, row, format)
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))

    @settings(max_examples=60, deadline=None)
    @given(records=event_records(min_size=2), format=FORMATS, data=st.data())
    def test_two_corrupted_lines_give_the_first(self, records, format, data):
        rows = data.draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2, unique=True))
        for row in rows:
            records[row].update(data.draw(st.sampled_from(CORRUPTIONS)))
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert expected.line == line_of(records, min(rows), format)
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))

    # DEEP stops the read: JSON nesting beyond the decoder, or a CSV field
    # beyond the csv module's size limit.
    @pytest.mark.parametrize("corruption", [c for c in CORRUPTIONS if DEEP not in c.values()], ids=corruption_id)
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    @settings(max_examples=4, deadline=None)
    @given(records=event_records(min_size=2))
    def test_a_fault_before_a_line_that_stops_the_read(self, corruption, format, records):
        records[0].update(corruption)
        records[-1].update(stake=DEEP)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert expected.line == 1 + (format == "csv")
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))

    @settings(max_examples=80, deadline=None)
    @given(records=event_records(), format=FORMATS, data=st.data())
    def test_two_faults_on_one_line_give_one_of_their_messages(self, records, format, data):
        first, second = data.draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=2, max_size=2,
                                           unique_by=lambda corruption: next(iter(corruption))))
        row = data.draw(st.integers(0, len(records) - 1))
        messages = set()
        for corruption in (first, second):
            alone = [dict(record) for record in records]
            alone[row].update(corruption)
            messages.add(str(parse_errors(event_file(alone, format).encode(), format)[1]))
        records[row].update(first)
        records[row].update(second)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert parsed.line == expected.line
        assert str(parsed) in messages

    @pytest.mark.parametrize("fault", [{"stake": -1.5}, {"stake": DEEP}], ids=corruption_id)
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    @pytest.mark.parametrize("fault_first", [True, False], ids=["fault-first", "duplicate-first"])
    @settings(max_examples=6, deadline=None)
    @given(records=event_records(min_size=2))
    def test_a_malformed_line_comes_before_a_duplicate_key(self, fault, format, fault_first, records):
        duplicate = dict(records[0])
        if fault_first:
            records.append(duplicate)
            records[0].update(fault)
        else:
            records.insert(1, duplicate)
            records[-1].update(fault)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert isinstance(expected, ParseError)
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))

    # Rows are converted a chunk at a time: the first fault may lie in an
    # earlier chunk than the one whose conversion fails.
    @pytest.mark.parametrize("first, second", [
        ({"stake": -1.5}, {"netuid": True}),
        ({"trust": math.nan}, {"timestamp": "yesterday"}),
        ({"netuid": True}, {"stake": -1.5}),
        ({"wallet": ""}, {"stake": DEEP}),
        ({"stake": -1.5}, {"stake": DEEP}),
    ], ids=corruption_id)
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_first_fault_in_an_earlier_chunk(self, first, second, format):
        records = [{
            "timestamp": "2024-01-01T00:00:00Z", "block_number": row, "netuid": 1,
            "wallet": f"w{row}", "role": "miner", "stake": 1.0, "reward": 0.5,
            "trust": 0.25, "validator_trust": None,
        } for row in range(ingest._CHUNK_ROWS + 20)]
        records[10].update(first)
        records[ingest._CHUNK_ROWS + 7].update(second)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert expected.line == line_of(records, 10, format)
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))

    # A chunk that fails is bisected for its first faulty row: faults at the
    # edges of a chunk and of its halves, and in the next chunk. A stake of
    # 2**64 on the row before, which orjson reads as a float and json as an
    # int, is clean.
    @pytest.mark.parametrize("row", [0, 1, 2047, 2048, 4095, 4096])
    @pytest.mark.parametrize("fault", [{"netuid": 2**64}, {"stake": -1.5}], ids=corruption_id)
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_fault_at_a_bisection_edge(self, row, fault, format):
        assert ingest._CHUNK_ROWS == 4096
        records = [{
            "timestamp": "2024-01-01T00:00:00Z", "block_number": row, "netuid": 1,
            "wallet": f"w{row}", "role": "miner", "stake": 1.0, "reward": 0.5,
            "trust": 0.25, "validator_trust": None,
        } for row in range(ingest._CHUNK_ROWS + 10)]
        if row:
            records[row - 1]["stake"] = 2**64
        records[row].update(fault)
        parsed, expected = parse_errors(event_file(records, format).encode(), format)
        assert expected.line == line_of(records, row, format)
        assert (parsed.line, str(parsed)) == (expected.line, str(expected))


class TestColumnarReaderAloneReadsValidFiles:
    """Valid inputs that only the per-line reader once read: "" for a
    score, and padding that JSON rejects and strip() removes."""

    RECORD = {
        "timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1,
        "wallet": "w", "role": "miner", "stake": 1.0, "reward": 0.0,
    }

    @pytest.mark.parametrize("line", [
        json.dumps({**RECORD, "trust": ""}),
        json.dumps({**RECORD, "trust": 0.5, "validator_trust": ""}),
        "\f" + json.dumps(RECORD),
        json.dumps(RECORD) + "\x1c\u3000",
        "\v \f",
    ], ids=["empty-trust", "empty-validator-trust", "leading-form-feed", "trailing-padding",
            "padding-only"])
    def test_parses_as_the_per_line_oracle(self, line):
        data = (json.dumps(self.RECORD | {"wallet": "v"}) + "\n" + line + "\n").encode()
        assert parse_events(io.BytesIO(data)).events == oracle_parse(data, "jsonl").events


def parse_outcome(parse, data):
    """The events that `parse` reads from JSONL `data`, or its ParseError."""
    try:
        return parse(data).events
    except ParseError as exc:
        return exc.line, str(exc)


def nested_under_unknown_key(record, depth):
    """The record as a JSON object that also holds an array nested `depth`
    deep under a key the reader does not read."""
    return '{"x": ' + "[" * depth + "]" * depth + ", " + json.dumps(record)[1:]


class TestLinesTheScannerDoesNotTakeWhole:
    """The reader decodes each line with orjson, and hands a line that
    orjson rejects or that may nest to json.loads. Either way a line gives
    the per-line oracle's record or error."""

    RECORD = TestColumnarReaderAloneReadsValidFiles.RECORD

    @pytest.mark.parametrize("line", [
        " " + json.dumps(RECORD),
        "\f" + json.dumps(RECORD) + "\f",
        json.dumps(RECORD) + "\x1c\u3000",
        json.dumps(RECORD) + " \t\r",
        "\ufeff" + json.dumps(RECORD),
        '{"a":1} x',
        json.dumps(RECORD) + "{}",
        DEEP,
        '{"block_number": ' + "1" * 5000 + "}",
        nested_under_unknown_key(RECORD, 900),
        nested_under_unknown_key(RECORD, 1_100),
        nested_under_unknown_key(RECORD, 100_000),
        '{"stake": -1.0, ' + json.dumps(RECORD)[1:],
        json.dumps(RECORD)[:-1] + ', "stake": -1.0}',
        json.dumps(RECORD | {"stake": 2**64, "reward": 10**308}),
        json.dumps(RECORD | {"block_number": 2**63 - 1, "netuid": 2**63}),
        json.dumps(RECORD | {"block_number": 2**64}),
        # A CSV cell of digits is a valid wallet name.
        json.dumps(RECORD | {"wallet": 2**64}),
        json.dumps(RECORD | {"x": 2**64, "y": -2**63 - 1}),
    ], ids=["leading-space", "form-feed-padding", "trailing-padding", "trailing-json-whitespace",
            "mid-file-bom", "text-after-value", "two-values", "deep-nesting", "5000-digit-integer",
            "nested-900-deep", "nested-1100-deep", "nested-100000-deep", "duplicate-key-last-valid",
            "duplicate-key-last-negative", "amounts-beyond-64-bits", "integers-at-the-int64-edge",
            "block-number-2**64", "wallet-2**64", "unknown-keys-beyond-64-bits"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", ""], ids=["lf", "crlf", "cr", "eof"])
    def test_gives_the_oracle_outcome(self, line, ending):
        data = (json.dumps(self.RECORD | {"wallet": "v"}) + "\n" + line + ending).encode()
        expected = parse_outcome(lambda data: oracle_parse(data, "jsonl"), data)
        assert parse_outcome(lambda data: parse_events(io.BytesIO(data)), data) == expected


# Every finite float64, drawn by its bit pattern.
FINITE_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(math.isfinite)


def float_bits(values):
    return [struct.unpack("<q", struct.pack("<d", value))[0] for value in values]


def column_bits(dataset):
    """Each column of `dataset` as a list of its values' bit patterns, and
    its wallet names."""
    return {name: column.view(np.int64 if column.dtype == np.float64 else column.dtype).tolist()
            for name, column in vars(dataset).items() if name != "wallet_names"}, list(dataset.wallet_names)


@st.composite
def flat_records(draw):
    """Valid records of one flat JSON object each: stake and reward of
    every finite non-negative float bit pattern or integers up to 10**308,
    and, under keys the reader does not read, every finite float and
    integers in [-2**63, 2**64)."""
    records = []
    for row in range(draw(st.integers(1, 6))):
        miner = draw(st.booleans())
        score = draw(SCORES)
        records.append({
            "timestamp": "2024-01-01T00:00:00Z",
            "block_number": draw(st.integers(0, 2**63 - 1)),
            "netuid": draw(st.integers(0, 2**63 - 1)),
            "wallet": f"w{row}",
            "role": "miner" if miner else "validator",
            "stake": draw(FINITE_FLOATS.map(abs) | st.integers(0, 10**308)),
            "reward": draw(FINITE_FLOATS.map(abs) | st.integers(0, 10**308)),
            "trust": score if miner else None,
            "validator_trust": None if miner else score,
            "float": draw(FINITE_FLOATS),
            "integer": draw(st.integers(-2**63, 2**64 - 1)),
        })
    return records


def stdlib_parse(data):
    """parse_events on JSONL `data` with every line left to json.loads."""
    def reject(line):
        raise orjson.JSONDecodeError("rejected", line, 0)

    with mock.patch.object(orjson, "loads", reject):
        return parse_events(io.BytesIO(data))


class TestJsonlDecodesAsJson:
    """Whichever decoder reads a flat JSONL line, parse_events gives the
    columns of a stdlib-only decode, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(records=flat_records())
    @example(records=[{**TestColumnarReaderAloneReadsValidFiles.RECORD, "stake": 2**64, "reward": 10**308}])
    @example(records=[{**TestColumnarReaderAloneReadsValidFiles.RECORD, "stake": 4.9e-324, "reward": -0.0}])
    def test_columns_match_a_stdlib_decode(self, records):
        data = event_file(records, "jsonl").encode()
        assert column_bits(parse_events(io.BytesIO(data))) == column_bits(stdlib_parse(data))


class TestOnlyTheFaultyLineIsDecodedAgain:
    def test_one_json_decode_names_the_fault(self):
        records = [{
            "timestamp": "2024-01-01T00:00:00Z", "block_number": row, "netuid": 1,
            "wallet": f"w{row}", "role": "miner", "stake": 1.0, "reward": 0.5,
        } for row in range(ingest._CHUNK_ROWS)]
        records[-1]["netuid"] = 2**64
        data = event_file(records, "jsonl").encode()
        with mock.patch.object(ingest.json, "loads", wraps=json.loads) as loads:
            with pytest.raises(ParseError) as raised:
                parse_events(io.BytesIO(data))
        assert str(raised.value) == "line 4096: netuid does not fit in 64 bits: 18446744073709551616"
        assert loads.call_count == 1


class TestCsvNumbersReadAsFloat:
    """A CSV stake or reward cell holds the bits float() reads from it,
    and an absent score the bits of float("nan")."""

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(FINITE_FLOATS.map(abs).map(repr), min_size=1, max_size=20))
    @example(texts=["1e5", ".5", "5.", "-0.0", "1E-400", "4.9e-324"])
    def test_cells_read_as_float(self, texts):
        rows = "".join(f"2024-01-01T00:00:00Z,1,1,w{row:03},miner,{text},{text},,\n"
                       for row, text in enumerate(texts))
        dataset = parse_events(io.BytesIO((",".join(ingest.EVENT_COLUMNS) + "\n" + rows).encode()), "csv")
        expected = float_bits(map(float, texts))
        assert dataset.stake.view(np.int64).tolist() == dataset.reward.view(np.int64).tolist() == expected
        assert dataset.trust.view(np.int64).tolist() == float_bits([float("nan")] * len(texts))


class CountingSource(io.BytesIO):
    """A byte stream that counts the bytes read from it and its seeks."""

    def __init__(self, data):
        super().__init__(data)
        self.bytes_read = self.seeks = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data

    def read1(self, size=-1):
        data = super().read1(size)
        self.bytes_read += len(data)
        return data

    def readinto(self, buffer):
        count = super().readinto(buffer)
        self.bytes_read += count
        return count

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)


class TestReadOnce:
    GOOD = [
        '{"timestamp": "2024-01-01T00:00:00Z", "block_number": 1, "netuid": 1, "wallet": "a",'
        ' "role": "miner", "stake": 1.0, "reward": 0.0}',
        '{"timestamp": "2024-01-02T00:00:00Z", "block_number": 2, "netuid": 1, "wallet": "a",'
        ' "role": "miner", "stake": 2.0, "reward": 0.5}',
    ]

    @pytest.mark.parametrize("last, error, match", [
        (None, None, None),
        ("{not json}", ParseError, "invalid JSON"),
        (GOOD[1].replace("0.5", "0.7"), ValidationError, "duplicate events"),
        (GOOD[1].replace("01-02", "01-03").replace("miner", "validator"), RoleConsistencyError, "role conflicts"),
    ], ids=["valid", "malformed-line", "duplicate-key", "role-conflict"])
    @pytest.mark.parametrize("rows", [2, 3 * ingest._CHUNK_ROWS])
    def test_each_byte_is_read_once(self, last, error, match, rows):
        lines = [self.GOOD[0].replace('"a"', f'"w{i}"') for i in range(rows - 2)] + self.GOOD
        data = "\n".join(lines + ([last] if last else [])).encode()
        source = CountingSource(data)
        if error is None:
            assert len(parse_events(source)) == rows
        else:
            with pytest.raises(error, match=match):
                parse_events(source)
        assert source.seeks == 0
        assert source.bytes_read == len(data)

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_rule_fault_ends_the_read_at_its_chunk(self, format):
        records = [{
            "timestamp": "2024-01-01T00:00:00Z", "block_number": row, "netuid": 1,
            "wallet": f"w{row}", "role": "miner", "stake": 1.0, "reward": 0.5,
            "trust": 0.25, "validator_trust": None,
        } for row in range(3 * ingest._CHUNK_ROWS + 100)]
        # Line 5; a CSV file's line 1 is its header.
        records[4 if format == "jsonl" else 3]["stake"] = -1.0
        data = event_file(records, format).encode()
        source = io.BytesIO(data)
        with pytest.raises(ParseError, match="^line 5: stake must be >= 0, got -1.0$"):
            parse_events(source, format)
        # The read ends within the blocks that hold the first chunk.
        assert source.tell() < len(data) // 2

    def test_a_byte_that_is_not_utf8_ends_the_read(self):
        data = ("\n".join(self.GOOD) + "\n").encode().replace(b'"a"', b'"a\xff"', 1)
        source = CountingSource(data)
        with pytest.raises(ParseError, match="^line 1: invalid UTF-8 byte 0xff$"):
            parse_events(source)
        assert source.seeks == 0
        assert source.bytes_read == len(data)

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_byte_that_is_not_utf8_on_the_last_line_is_named(self, format):
        records = [{
            "timestamp": "2024-01-01T00:00:00Z", "block_number": row, "netuid": 1,
            "wallet": f"w{row}", "role": "miner", "stake": 1.0, "reward": 0.5,
            "trust": 0.25, "validator_trust": None,
        } for row in range(3 * ingest._CHUNK_ROWS)]
        records[-1]["wallet"] = "bad"
        data = event_file(records, format).encode().replace(b"bad", b"b\xff")
        source = CountingSource(data)
        with pytest.raises(ParseError) as excinfo:
            parse_events(source, format)
        assert str(excinfo.value) == f"line {line_of(records, len(records) - 1, format)}: invalid UTF-8 byte 0xff"
        assert source.seeks == 0
        assert source.bytes_read == len(data)

    HEADER = ",".join(ingest.EVENT_COLUMNS)
    CSV_ROW = "2024-01-0{}T00:00:00Z,1,1,a,miner,{},0.0,,"

    # The lines before the bad byte's line reach the reader before its fault.
    @pytest.mark.parametrize("format, data, message", [
        ("jsonl", "\n".join([GOOD[0], GOOD[1].replace("2.0", "-1.0"), GOOD[1].replace("01-02", "01-03"),
                             '{"wallet": "\udcff"}']),
         "line 2: stake must be >= 0, got -1.0"),
        ("csv", "\n".join([HEADER, CSV_ROW.format(1, "1.0"), CSV_ROW.format(2, "-1.0"),
                           CSV_ROW.format(3, "1.0").replace(",a,", ",a\udcff,")]),
         "line 3: stake must be >= 0, got -1.0"),
        # Cut before the bad byte, this record would have 4 columns.
        ("csv", "\n".join([HEADER, CSV_ROW.format(1, "1.0"),
                           CSV_ROW.format(2, "1.0").replace(",a,", ',"a\n\udcff",')]),
         "line 4: invalid UTF-8 byte 0xff"),
        # A duplicate key or a role conflict before the bad byte is not named.
        ("jsonl", "\n".join([*GOOD, GOOD[1], "\udcff"]), "line 4: invalid UTF-8 byte 0xff"),
        ("jsonl", "\n".join([*GOOD, GOOD[1].replace("01-02", "01-03").replace("miner", "validator"),
                             "\udcff"]),
         "line 4: invalid UTF-8 byte 0xff"),
    ], ids=["jsonl-fault", "csv-fault", "csv-record-holds-the-byte", "duplicate-key", "role-conflict"])
    def test_a_fault_before_a_byte_that_is_not_utf8_is_named(self, format, data, message):
        data = (data + "\n").encode("utf-8", "surrogateescape")
        source = CountingSource(data)
        with pytest.raises(ParseError) as excinfo:
            parse_events(source, format)
        assert str(excinfo.value) == message
        assert source.seeks == 0
        assert source.bytes_read == len(data)


class Unseekable(io.BytesIO):
    """A byte stream that, like a pipe, can be read but not sought."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


class ShortReads(io.BytesIO):
    """A byte stream whose i-th read returns at most sizes[i] bytes,
    cycling through `sizes`, as a raw stream may."""

    def __init__(self, data, sizes):
        super().__init__(data)
        self.sizes = itertools.cycle(sizes)

    def read(self, size=-1):
        return super().read(min(size, next(self.sizes)))


def oracle_lines(data):
    """The lines of `data` as a text stream in universal newlines mode
    reads them, and the ParseError of its first byte that is not UTF-8, or
    None. With such a byte, the lines are those before its line."""
    message = None
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        message = f"invalid UTF-8 byte {data[exc.start]:#04x}"
        before = data[:exc.start]
        data = data[:1 + max(before.rfind(b"\n"), before.rfind(b"\r"))]
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    return lines, message and (len(lines) + 1, message)


def line_source_outcome(source):
    """The lines that ingest._lines reads from `source`, and the line and
    message of its ParseError, or None."""
    lines = []
    try:
        for line in ingest._lines(source):
            lines.append(line)
    except ParseError as exc:
        return lines, (exc.line, str(exc).partition(": ")[2])
    return lines, None


BOM = "\ufeff".encode()
LINE_PIECES = st.sampled_from([b"a", b" ", b"\r", b"\n", b"\r\n", BOM, "\u00e9".encode(),
                               "\u2028".encode(), b"\x85", b"\xff", b"\xc3"])


class TestLineSource:
    """parse_events reads its source in blocks and cuts its own lines."""

    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(LINE_PIECES, max_size=40), sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5))
    def test_lines_are_those_of_universal_newlines(self, pieces, sizes):
        data = b"".join(pieces)
        assert line_source_outcome(ShortReads(data, sizes)) == oracle_lines(data)

    def test_a_stream_that_cannot_seek_is_read(self, fixture_path):
        with open(fixture_path, "rb") as handle:
            data = handle.read()
        assert written(parse_events(Unseekable(data)), "jsonl") == written(load_events(fixture_path), "jsonl")

    def test_a_pipe_is_read(self, fixture_path, python_child):
        with open(fixture_path, "rb") as handle:
            data = handle.read()
        # `input` reaches the child's stdin through a pipe.
        child = python_child(
            "-c", "import sys; from yumalab.ingest import parse_events; print(len(parse_events(sys.stdin.buffer)))",
            input=data, capture_output=True,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, b"4200\n", b"")

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_file_holding_only_a_byte_order_mark_is_empty(self, format):
        assert len(parse_events(io.BytesIO(BOM), format)) == 0

    # The first line ends in CR LF, with the CR the last byte of the first
    # block, so the faulty line is line 3 of a JSONL file and line 4 of a
    # CSV file, not one line further.
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_cr_lf_across_blocks_is_one_line_ending(self, format):
        head = "" if format == "jsonl" else TestReadOnce.HEADER + "\r\n"
        first = TestReadOnce.GOOD[0] if format == "jsonl" else TestReadOnce.CSV_ROW.format(1, "1.0")
        second = TestReadOnce.GOOD[1] if format == "jsonl" else TestReadOnce.CSV_ROW.format(2, "1.0")
        # JSONL pads the first record with JSON whitespace, CSV its wallet.
        pad = ingest._BLOCK_BYTES - 1 - len(head) - len(first)
        first = first + " " * pad if format == "jsonl" else first.replace(",a,", "," + "a" * (1 + pad) + ",")
        data = (head + first + "\r\n" + second + "\r\n").encode()
        assert data[ingest._BLOCK_BYTES - 1:ingest._BLOCK_BYTES + 1] == b"\r\n"
        assert len(parse_events(io.BytesIO(data), format)) == 2
        bad, message = ("{not json}", "line 3: invalid JSON") if format == "jsonl" else (
            TestReadOnce.CSV_ROW.format(3, "-1.0"), "line 4: stake must be >= 0, got -1.0")
        with pytest.raises(ParseError) as excinfo:
            parse_events(io.BytesIO(data + (bad + "\r\n").encode()), format)
        assert str(excinfo.value).startswith(message)

    def test_a_line_of_many_blocks(self):
        record, other = TestReadOnce.GOOD
        long_line = record[:-1] + " " * (32 << 20) + "}"
        data = (long_line + "\n" + other + "\n").encode()
        expected = written(parse_events(io.BytesIO((record + "\n" + other + "\n").encode())), "jsonl")
        assert written(parse_events(io.BytesIO(data)), "jsonl") == expected


def oracle_write(dataset, format) -> bytes:
    """Row by row, as write_events once wrote a list of events: one tuple
    per event, each line formatted on its own, CSV rows through csv.writer.
    Unlike that writer, the CSV rows quote a field holding a CR."""
    def jsonl_line(record, quote):
        stamp, block, netuid, wallet, role, stake, reward, trust, vtrust = record
        line = (
            f'{{"timestamp":{quote[stamp]},"block_number":{block!r},"netuid":{netuid!r},'
            f'"wallet":{quote[wallet]},"role":{quote[role.value]},"stake":{stake!r},"reward":{reward!r}'
        )
        if trust is not None:
            line += f',"trust":{trust!r}'
        if vtrust is not None:
            line += f',"validator_trust":{vtrust!r}'
        return line + "}\n"

    def csv_row(record):
        stamp, block, netuid, wallet, role, stake, reward, trust, vtrust = record
        return (
            stamp, block, netuid, wallet, role.value, repr(stake), repr(reward),
            "" if trust is None else repr(trust),
            "" if vtrust is None else repr(vtrust),
        )

    records = ((format_timestamp(e.timestamp), e.block_number, e.netuid, e.wallet, e.role,
                e.stake, e.reward, e.trust, e.validator_trust) for e in dataset.events)
    text = io.StringIO(newline="")
    if format == "jsonl":
        quote = ingest._Memo(json.dumps)
        text.writelines(jsonl_line(record, quote) for record in records)
    else:
        row_text = io.StringIO()
        writer = csv.writer(row_text, lineterminator="\r\n")
        for row in itertools.chain([ingest.EVENT_COLUMNS], map(csv_row, records)):
            row_text.seek(0)
            row_text.truncate()
            writer.writerow(row)
            text.write(row_text.getvalue()[:-2] + "\n")
    return text.getvalue().encode("utf-8")


def written(dataset, format) -> bytes:
    buffer = io.BytesIO()
    write_events(dataset, buffer, format=format)
    return buffer.getvalue()


class TestWriterAgainstRowOracle:
    @settings(max_examples=80, deadline=None)
    @given(records=event_records(max_size=40))
    def test_writes_the_oracle_bytes(self, records):
        dataset = parse_events(io.BytesIO(event_file(records, "jsonl").encode()))
        for format in ("jsonl", "csv"):
            data = written(dataset, format)
            assert data == oracle_write(dataset, format)
            assert parse_events(io.BytesIO(data), format).events == dataset.events

    # Each float column holds `distinct` bit patterns, 0.0 and -0.0 among
    # them (and NaN, an absent score, in the score column), spread over
    # three chunks and more. A column with at most _CHUNK_ROWS formats each
    # once per file, and one with more, once per chunk. Wallet names that
    # hold `%` are written as they are.
    @pytest.mark.parametrize("distinct", [ingest._CHUNK_ROWS, ingest._CHUNK_ROWS + 1])
    def test_more_rows_than_one_chunk(self, distinct, monkeypatch):
        rows = 3 * ingest._CHUNK_ROWS + 123
        rng = np.random.default_rng(7)
        names = sorted(WALLETS + ("100%", "%s", "%(x)s"))
        wallet = np.arange(rows) % len(names)
        miner = wallet % 3 != 0

        def column(*values, draw):
            pool = np.concatenate((values, draw(distinct - len(values))))
            assert len(np.unique(pool.view(np.int64))) == distinct
            return pool[rng.permutation(np.arange(rows) % distinct)]

        stake = column(0.0, -0.0, draw=lambda n: rng.pareto(1.2, n) * 1e3)
        reward = column(0.0, -0.0, draw=lambda n: rng.random(n) * 10.0 ** rng.integers(-20, 20, n))
        score = column(0.0, -0.0, np.nan, draw=rng.random)
        dataset = Dataset(
            timestamp=-86_400_000_000 + 1_000_003 * (np.arange(rows) // len(names)),
            block_number=np.arange(rows) * 3, netuid=np.full(rows, 2), wallet=wallet, miner=miner,
            stake=stake, reward=reward,
            trust=np.where(miner, score, np.nan), validator_trust=np.where(miner, np.nan, score),
            wallet_names=names,
        )
        for format in ("jsonl", "csv"):
            formatted = []
            monkeypatch.setattr(ingest, "repr", lambda value: formatted.append(value) or repr(value), raising=False)
            data = written(dataset, format)
            monkeypatch.undo()
            if distinct <= ingest._CHUNK_ROWS:
                assert len(formatted) == 3 * distinct
            else:
                assert len(formatted) > 3 * distinct
            assert data == oracle_write(dataset, format)
            assert parse_events(io.BytesIO(data), format).events == dataset.events


class TestAggregationAgainstGroupingOracle:
    @settings(max_examples=60, deadline=None)
    @given(records=event_records(max_size=40))
    def test_resample_and_history(self, records):
        data = event_file(records, "jsonl").encode()
        assert_matches_grouping_oracle(parse_events(io.BytesIO(data)))


# Reward sums: groups of one or two rows are summed in NumPy and larger ones
# by math.fsum. Each must give the bits of fsum, which turns -0.0 into 0.0,
# and the first group, in (netuid, window, wallet) order, whose sum
# overflows must be named by its wallet and netuid.
MAX = 1.7976931348623157e308
REWARDS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308, MAX]) | st.floats(0.0, 1e300)


@st.composite
def reward_events(draw):
    """Events of three wallets in two subnets over nine days, up to three a
    day each: daily groups of one to three rows, larger weekly ones."""
    keys = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 2), st.integers(0, 1), st.sampled_from("abc")),
                         min_size=1, max_size=40, unique=True))
    return [event(day=day, hour=hour, netuid=netuid, wallet=wallet, reward=draw(REWARDS))
            for day, hour, netuid, wallet in keys]


def oracle_reward_sums(events, window_of):
    """((netuid, window, wallet), fsum of the group's rewards or None where
    it overflows) per group, in (netuid, window, wallet) order."""
    groups = {}
    for ev in events:
        groups.setdefault((ev.netuid, window_of(ev.timestamp), ev.wallet), []).append(ev.reward)
    sums = []
    for key in sorted(groups):
        try:
            sums.append((key, math.fsum(groups[key])))
        except OverflowError:
            sums.append((key, None))
    return sums


class TestGroupedRewardSums:
    @settings(max_examples=150, deadline=None)
    @given(events=reward_events())
    @example(events=[event(hour=0, wallet="b", reward=1e308), event(hour=1, wallet="b", reward=1e308),
                     event(hour=0, wallet="a", reward=MAX), event(day=2, wallet="a", reward=MAX)])
    @example(events=[event(hour=0, reward=-0.0), event(hour=1, reward=-0.0), event(day=2, reward=-0.0)])
    @example(events=[event(hour=0, reward=5e-324), event(hour=1, reward=1e-310), event(hour=2, reward=-0.0)])
    def test_table_rewards_are_fsums(self, events):
        ds = Dataset.from_events(events)
        first = oracle_window(min(e.timestamp for e in events), "daily")[0]
        cases = [(lambda freq=freq: ingest._window_table(ds, freq)[0],
                  lambda stamp, freq=freq: oracle_window(stamp, freq)[0]) for freq in ingest.FREQUENCIES]
        cases.append((lambda: ingest._aggregate(ds, np.zeros(len(ds), dtype=np.int64)), lambda stamp: first))
        for table, window_of in cases:
            expected = oracle_reward_sums(events, window_of)
            overflowing = [key for key, total in expected if total is None]
            if overflowing:
                netuid, _, wallet = overflowing[0]
                with pytest.raises(ValidationError) as info:
                    table()
                assert str(info.value) == f"rewards of wallet {wallet!r} in netuid {netuid} sum beyond the float64 range"
            else:
                reward = table()[6]
                assert [total.hex() for total in reward.tolist()] == [total.hex() for _, total in expected]


def assert_snapshots_share_the_table(ds):
    """Every snapshot of `ds` holds the Dataset's own name table, and names
    its rows as the grouping oracle does: each window's wallets in name
    order."""
    events = ds.events
    first = oracle_window(events[0].timestamp, "daily")[0]
    end = oracle_window(max(e.timestamp for e in events), "daily")[1]
    cases = [(resample(ds, freq), lambda stamp, freq=freq: oracle_window(stamp, freq)) for freq in ingest.FREQUENCIES]
    cases.append((history_snapshots(ds), lambda stamp: (first, end)))
    for snapshots, window_of in cases:
        expected = [[row[0] for row in rows] for _, _, _, rows in grouped(events, window_of)]
        assert [snap.wallets() for snap in snapshots] == expected
        assert [[entry.wallet for entry in snap.entries] for snap in snapshots] == expected
        assert all(snap.wallet_names is ds.wallet_names for snap in snapshots)


class TestSnapshotsShareTheWalletTable:
    def test_fixture(self, fixture_path):
        assert_snapshots_share_the_table(load_events(fixture_path))

    @settings(max_examples=40, deadline=None)
    @given(records=event_records(max_size=40))
    def test_drawn_corpus(self, records):
        assert_snapshots_share_the_table(parse_events(io.BytesIO(event_file(records, "jsonl").encode())))


class TestInputOrder:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=event_records(min_size=2), data=st.data())
    def test_reports_do_not_depend_on_input_order(self, records, data):
        in_a = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
        with tempfile.TemporaryDirectory() as root:
            a, b = os.path.join(root, "a.jsonl"), os.path.join(root, "b.csv")
            with open(a, "w", encoding="utf-8") as handle:
                handle.write(event_file([r for r, x in zip(records, in_a) if x], "jsonl"))
            with open(b, "w", encoding="utf-8") as handle:
                handle.write(event_file([r for r, x in zip(records, in_a) if not x], "csv"))
            for command in ("attack", "metrics"):
                outputs = []
                for order in ((a, b), (b, a)):
                    out = os.path.join(root, f"{command}-{os.path.basename(order[0])}")
                    code = run_cli([command, "--input", *order, "--cutoff", "none", "--out", out])
                    files = {}
                    # A failing run makes no output directory.
                    for name in sorted(os.listdir(out) if os.path.exists(out) else ()):
                        with open(os.path.join(out, name), "rb") as handle:
                            files[name] = handle.read()
                    outputs.append((code, files))
                assert outputs[0] == outputs[1]
