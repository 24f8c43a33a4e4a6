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

# RFC 3339's date-time: seconds required, an optional "." fraction, then "Z"
# or a numeric offset; "T" and "Z" may be lower case.
_DATE_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?([Zz]|[+-][0-9]{2}:[0-9]{2})")


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 date-time into an aware UTC datetime.

    Only that form is accepted, whatever ``datetime.fromisoformat`` of the
    running Python would take: no spaces around it, no ISO 8601 basic or
    week forms, no missing seconds, no "," fraction. Digits past the
    microsecond are dropped.
    """
    if not isinstance(text, str):
        raise ParseError(f"timestamp must be a string, got {type(text).__name__}")
    if _DATE_TIME.fullmatch(text) is None:
        raise ParseError(f"bad timestamp {text!r}: not an RFC 3339 date-time")
    try:
        dt = datetime.fromisoformat(text.upper())  # it takes "Z" and any fraction, but not "t" or "z"
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    try:
        return dt.astimezone(UTC)
    except OverflowError:  # an offset that takes it past year 1 or 9999
        raise ParseError(f"timestamp {text!r} is out of range in UTC") from None


def format_rfc3339(dt: datetime) -> str:
    """Render an aware datetime in the canonical UTC form."""
    if dt.tzinfo is not UTC:
        if dt.tzinfo is None:
            raise ValueError("naive datetime cannot be serialized")
        dt = dt.astimezone(UTC)
    text = dt.isoformat()[:-6]  # without its "+00:00"
    return (text.rstrip("0") if dt.microsecond else text) + "Z"
