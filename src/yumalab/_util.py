"""Small shared helpers: the ValidationError class, the dTAO instant, the
vocabularies of the CLI's choices and the coalition threshold default,
timestamp parsing, formatting, epoch microseconds, the ASCII number rule,
the JSON kind rule and the `NAME[:ARGS]` splitter of law and transform
specs. The module loads no NumPy, so the CLI can parse its command line
with it alone."""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

# The dTAO upgrade instant; analyses default to data strictly before it.
DTAO_CUTOFF = datetime(2025, 2, 13, tzinfo=timezone.utc)

# Resampling frequencies, reward schemes, event file formats and synth
# reward rules; the library modules check their arguments against these.
FREQUENCIES = ("daily", "weekly", "monthly")
SCHEMES = ("split", "composite", "bonus")
EVENT_FORMATS = ("jsonl", "csv")
REWARD_RULES = ("stake_proportional", "yuma_replay")

# The share of stake that a coalition must control.
DEFAULT_THRESHOLD = 0.51


class ValidationError(ValueError):
    """A value violated one of the domain invariants."""


# The grammar of datetime.fromisoformat on Python 3.10:
# YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], where * is `T`,
# `t` or a space. 3.10 takes any one character there, so it reads the
# offset of `2024-01-01+05:00` as a time of day. Later versions read more
# spellings, such as `20240101T00Z` or a fraction of any length, which a
# timestamp may not hold.
_ISO_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\d([Tt ]\d\d(:\d\d(:\d\d(\.\d{3}(\d{3})?)?)?)?([+-]\d\d:\d\d(:\d\d(\.\d{6})?)?)?)?",
    re.ASCII,
)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts the grammar of datetime.fromisoformat on Python 3.10 (see
    _ISO_TIMESTAMP) on every Python version, with a trailing 'Z' (which
    3.10 rejects) for +00:00; naive timestamps are taken as UTC.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        if not _ISO_TIMESTAMP.fullmatch(raw):
            raise ValueError
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"invalid timestamp {text!r}") from None
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_timestamp(dt: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with a 'Z' suffix."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def to_epoch_us(dt: datetime) -> int:
    """Exact microseconds from the Unix epoch to an aware datetime."""
    return (dt - EPOCH) // _MICROSECOND


def from_epoch_us(us: int) -> datetime:
    """The aware UTC datetime `us` microseconds after the Unix epoch."""
    return EPOCH + timedelta(microseconds=int(us))


def is_ascii_decimal(text: str) -> bool:
    """Whether `text` may hold numbers: ASCII with no `_`. int() and float()
    also read PEP 515 underscores (`1_0`) and the digits of other scripts
    (`\\u0663`); a CSV cell or a CLI number may hold neither."""
    return text.isascii() and "_" not in text


def number(text: str, kind: type = float):
    """`kind(text)`, for `kind` float or int, of text that is_ascii_decimal
    admits; ValueError otherwise. argparse names it in a usage error."""
    if not is_ascii_decimal(text):
        raise ValueError(f"{text!r} is not ASCII decimal")
    return kind(text)


def integer(text: str) -> int:
    """number(text, int), under its own name for argparse."""
    return number(text, int)


# The Python types of each JSON kind; a bool is not a JSON integer or number.
_JSON_KINDS = {"string": (str,), "integer": (int,), "number": (int, float)}


def json_value(name: str, value, kind: str):
    """`value`, as json.load gave it, if it is of JSON kind `kind`;
    TypeError naming `name` otherwise."""
    if type(value) not in _JSON_KINDS[kind]:
        raise TypeError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


def name_args(text: str, what: str) -> tuple[str, list[float]]:
    """Split a `NAME[:ARG,...]` spec into its lower-cased name and its args
    as floats; `what` names the spec in the error for a non-numeric arg."""
    name, _, arg_text = text.partition(":")
    args: list[float] = []
    if arg_text:
        try:
            args = [number(a) for a in arg_text.split(",")]
        except ValueError:
            raise ValidationError(f"invalid {what} parameters in {text!r}") from None
    return name.strip().lower(), args
