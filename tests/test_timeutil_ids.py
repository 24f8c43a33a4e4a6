from __future__ import annotations

import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay.errors import ParseError
from wandrelay.ids import IdFactory
from wandrelay.timeutil import UTC, format_rfc3339, parse_rfc3339


def strftime_format(dt: datetime) -> str:
    """The formatter the codec had before ``isoformat``, kept as an oracle (it leaves years below 1000 unpadded)."""
    dt = dt.astimezone(UTC)
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        base += f".{dt.microsecond:06d}".rstrip("0")
    return base + "Z"


CANONICAL = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d*[1-9])?Z$")
# Any offset datetime allows: strictly inside a day, down to the microsecond.
OFFSETS = st.timedeltas(
    min_value=timedelta(hours=-24) + timedelta(microseconds=1),
    max_value=timedelta(hours=24) - timedelta(microseconds=1),
).map(timezone)


def in_utc_range(dt: datetime) -> bool:
    try:
        dt.astimezone(UTC)
    except OverflowError:
        return False
    return True


class TestRfc3339:
    def test_canonical_form(self):
        dt = datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)
        assert format_rfc3339(dt) == "2021-06-05T09:00:00Z"

    def test_fraction_trimmed(self):
        dt = datetime(2021, 6, 5, 9, 0, 0, 120000, tzinfo=UTC)
        assert format_rfc3339(dt) == "2021-06-05T09:00:00.12Z"

    def test_parse_accepts_offsets(self):
        assert parse_rfc3339("2021-06-05T11:00:00+02:00") == datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)

    @pytest.mark.parametrize(
        "text, micros",
        [
            ("2021-06-05T09:00:00Z", 0),
            ("2021-06-05t09:00:00z", 0),
            ("2021-06-05T09:00:00.5Z", 500_000),
            ("2021-06-05T09:00:00.1234567Z", 123_456),  # past the microsecond: dropped
            ("2021-06-05T09:00:00-00:00", 0),
        ],
    )
    def test_parse_accepts_every_rfc3339_form(self, text, micros):
        assert parse_rfc3339(text) == datetime(2021, 6, 5, 9, 0, 0, micros, tzinfo=UTC)

    def test_year_below_1000_is_padded(self):
        dt = datetime(999, 6, 5, 9, 0, 0, tzinfo=UTC)
        assert format_rfc3339(dt) == "0999-06-05T09:00:00Z"
        assert parse_rfc3339(format_rfc3339(dt)) == dt

    @pytest.mark.parametrize(
        "bad",
        [
            "yesterday",
            "2021-06-05T09:00:00",
            "",
            42,
            # past the datetime range once shifted to UTC
            "0001-01-01T00:00:00+01:00",
            "9999-12-31T23:59:59-01:00",
            # ISO 8601 forms that are not RFC 3339, which fromisoformat takes from Python 3.11 on
            "20240101T000000Z",
            "2024-W01-1T00:00:00Z",
            "2024-01-01T00Z",
            "2024-01-01T00:00:00,5Z",
            " 2024-01-01T00:00:00Z ",
            "2024-01-01T00:00:00Z\n",
            "2024-01-01 00:00:00Z",
            "2024-01-01T00:00:00+0000",
            "2024-01-01T00:00:00.Z",
            "２０２４-01-01T00:00:00Z",  # full-width digits
            "2024-13-01T00:00:00Z",
            "2016-12-31T23:59:60Z",  # an RFC 3339 leap second, which datetime cannot hold
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rfc3339(bad)

    @settings(max_examples=500, deadline=None)
    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999),
                        timezones=OFFSETS).filter(in_utc_range))
    def test_codec_round_trips_any_aware_datetime(self, dt):
        text = format_rfc3339(dt)
        assert parse_rfc3339(text) == dt
        assert CANONICAL.match(text), text
        if dt.astimezone(UTC).year >= 1000:
            assert text == strftime_format(dt)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=999_999))
    def test_round_trip_to_microseconds(self, seconds, micros):
        dt = datetime(2000, 1, 1, tzinfo=UTC) + timedelta(seconds=seconds, microseconds=micros)
        assert parse_rfc3339(format_rfc3339(dt)) == dt


class TestIds:
    def test_sorted_by_time(self):
        ids = IdFactory(seed=1)
        t0 = datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)
        values = [ids(t0 + timedelta(seconds=i)) for i in range(50)]
        assert values == sorted(values)
        assert len(set(values)) == 50

    def test_same_millisecond_stays_monotonic(self):
        ids = IdFactory(seed=1)
        t0 = datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)
        values = [ids(t0) for _ in range(200)]
        assert values == sorted(values)
        assert len(set(values)) == 200

    def test_deterministic_for_seed(self):
        t0 = datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)
        assert IdFactory(seed=7)(t0) == IdFactory(seed=7)(t0)
        assert IdFactory(seed=7)(t0) != IdFactory(seed=8)(t0)

    def test_shape(self):
        value = IdFactory(seed=3)(datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC))
        assert len(value) == 26
        assert value.isalnum() and value.upper() == value

    def test_unseeded_factory_unique(self):
        ids = IdFactory()
        t0 = datetime.now(UTC)
        assert ids(t0) != ids(t0)
