"""RFC 3339 timestamp helpers.

All timestamps in the system are timezone-aware UTC datetimes; the canonical
text form is ``YYYY-MM-DDTHH:MM:SSZ`` (the year always four digits,
fractional seconds kept only when nonzero, with trailing zeros trimmed).
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

from .errors import ParseError

UTC = timezone.utc

_FRACTION = re.compile(r"\.(\d+)")


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    if not isinstance(text, str):
        raise ParseError(f"timestamp must be a string, got {type(text).__name__}")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    if "." in raw:
        # datetime.fromisoformat (3.10) wants exactly 3 or 6 fractional digits.
        raw = _FRACTION.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), raw, count=1)
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        raise ParseError(f"timestamp {text!r} lacks a UTC offset")
    try:
        return dt.astimezone(UTC)
    except OverflowError:  # an offset that takes it past year 1 or 9999
        raise ParseError(f"timestamp {text!r} is out of range in UTC") from None


def format_rfc3339(dt: datetime) -> str:
    """Render an aware datetime in the canonical UTC form."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime cannot be serialized")
    dt = dt.astimezone(UTC)
    text = dt.isoformat()[:-6]  # without its "+00:00"
    return (text.rstrip("0") if dt.microsecond else text) + "Z"
