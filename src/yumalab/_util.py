"""Small shared helpers: timestamp parsing and formatting."""

from __future__ import annotations

from datetime import datetime, timezone


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts a trailing 'Z' (which datetime.fromisoformat rejects on
    Python 3.10) and any explicit offset; naive timestamps are taken
    as UTC.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"invalid timestamp {text!r}") from None
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with a 'Z' suffix."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
