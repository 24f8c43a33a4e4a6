"""RFC 3339 timestamp helpers.

All timestamps in the system are timezone-aware UTC datetimes; the canonical
text form is ``YYYY-MM-DDTHH:MM:SSZ`` (the year always four digits,
fractional seconds kept only when nonzero, with trailing zeros trimmed).

Consecutive timestamps mostly share their minute (a simulated CONTEXT stream
ticks once a second), so each function keeps the last minute it handled in
one tuple.

``_last_formatted`` is ``(low, high, prefix)``: the first instant of the
last minute in which the formatter rendered a whole-second datetime the long
way, the first instant of the minute after it, and that minute's
``YYYY-MM-DDTHH:MM:`` text. A whole-second UTC datetime with
``low <= dt < high`` is the prefix plus its seconds' text from a table of
60. The range's last minute, 9999-12-31T23:59, has no minute after it and is
never stored; the initial bounds are equal, so no datetime lies between
them.

``_last_parsed`` is ``(prefix, minute)``: the first 17 characters of the
last 20-character ``...Z`` stamp the full parser accepted, and that minute
as a datetime. A whole-second ``...Z`` stamp with that prefix is the minute
plus its seconds.

Anything else takes the full path. A whole-second datetime or a ``...Z``
stamp then replaces its function's tuple; a fraction leaves the formatter's
as it is. Each cache is read with one unpack and replaced whole, so a thread
never pairs one minute's bounds with another minute's text, nor one prefix
with another minute's value; a race costs at most a full-path call. Results
and refusals do not depend on what is cached.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

from .errors import ParseError

UTC = timezone.utc

# RFC 3339's date-time: seconds required, an optional "." fraction, then "Z"
# or a numeric offset; "T" and "Z" may be lower case.
_DATE_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?([Zz]|[+-][0-9]{2}:[0-9]{2})")
_SECONDS = {"%02d" % s: timedelta(seconds=s) for s in range(60)}  # no "60": datetime has no leap second

_SECOND_TEXT = tuple("%02dZ" % s for s in range(60))
_MINUTE = timedelta(minutes=1)
_LAST_MINUTE = datetime.max.replace(second=0, microsecond=0, tzinfo=UTC)  # no next minute to bound it

_last_formatted: tuple[datetime, datetime, str] = (_LAST_MINUTE, _LAST_MINUTE, "")
_last_parsed: tuple[str, datetime] = ("", datetime.min)


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 date-time into an aware UTC datetime.

    Only that form is accepted, whatever ``datetime.fromisoformat`` of the
    running Python would take: no spaces around it, no ISO 8601 basic or
    week forms, no missing seconds, no "," fraction. Digits past the
    microsecond are dropped.
    """
    global _last_parsed
    prefix, minute = _last_parsed
    if type(text) is str and len(text) == 20 and text[19] == "Z" and text[:17] == prefix:
        seconds = _SECONDS.get(text[17:19])
        if seconds is not None:
            return minute + seconds
    if not isinstance(text, str):
        raise ParseError(f"timestamp must be a string, got {type(text).__name__}")
    if _DATE_TIME.fullmatch(text) is None:
        raise ParseError(f"bad timestamp {text!r}: not an RFC 3339 date-time")
    try:
        dt = datetime.fromisoformat(text.upper())  # it takes "Z" and any fraction, but not "t" or "z"
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    try:
        dt = dt.astimezone(UTC)
    except OverflowError:  # an offset that takes it past year 1 or 9999
        raise ParseError(f"timestamp {text!r} is out of range in UTC") from None
    if len(text) == 20 and text[19] == "Z":
        _last_parsed = (text[:17], dt - timedelta(0, dt.second))  # whole seconds: as dt.replace(second=0), cheaper
    return dt


def format_rfc3339(dt: datetime) -> str:
    """Render an aware datetime in the canonical UTC form."""
    global _last_formatted
    if dt.tzinfo is not UTC:
        if dt.utcoffset() is None:  # no tzinfo, or one that gives no offset: astimezone would read local time
            raise ValueError("naive datetime cannot be serialized")
        dt = dt.astimezone(UTC)
    if dt.microsecond:
        return dt.isoformat()[:-6].rstrip("0") + "Z"  # without its "+00:00" and the fraction's trailing zeros
    low, high, prefix = _last_formatted
    if low <= dt < high:
        return prefix + _SECOND_TEXT[dt.second]
    text = dt.isoformat()[:-6]
    low = dt - timedelta(0, dt.second)  # half the cost of dt.replace(second=0)
    if low != _LAST_MINUTE:
        _last_formatted = (low, low + _MINUTE, text[:17])
    return text + "Z"
