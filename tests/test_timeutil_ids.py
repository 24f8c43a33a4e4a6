from __future__ import annotations

import random
import re
import sys
import threading
from datetime import datetime, timedelta, timezone, tzinfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay import timeutil
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


_RFC3339 = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?([Zz]|[+-][0-9]{2}:[0-9]{2})")


def reference_parse(text):
    """The parser without its minute cache, kept as the oracle for the cached one."""
    if not isinstance(text, str):
        raise ParseError(f"timestamp must be a string, got {type(text).__name__}")
    if _RFC3339.fullmatch(text) is None:
        raise ParseError(f"bad timestamp {text!r}: not an RFC 3339 date-time")
    try:
        dt = datetime.fromisoformat(text.upper())
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    try:
        return dt.astimezone(UTC)
    except OverflowError:
        raise ParseError(f"timestamp {text!r} is out of range in UTC") from None


def reference_format(dt: datetime) -> str:
    """The formatter without its minute cache, kept as the oracle for the cached one."""
    if dt.utcoffset() is None:
        raise ValueError("naive datetime cannot be serialized")
    dt = dt.astimezone(UTC)
    text = dt.isoformat()[:-6]
    return (text.rstrip("0") if dt.microsecond else text) + "Z"


def outcome(function, value):
    """What a call returns, with its tzinfo, or the type and text of what it raises."""
    try:
        result = function(value)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return result, getattr(result, "tzinfo", None)


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


class _NoOffset(tzinfo):
    """A tzinfo that gives no offset, so Python treats its datetimes as naive."""

    def utcoffset(self, dt):
        return None


# Minutes whose stamps share a 17-character prefix; years below 1000 included.
MINUTES = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59)).map(
    lambda dt: dt.replace(second=0, microsecond=0, tzinfo=UTC))
# The first and the last minute of the datetime range; the last has no next minute to bound a cache.
RANGE_END_MINUTES = [datetime(1, 1, 1, tzinfo=UTC), datetime(9999, 12, 31, 23, 59, tzinfo=UTC)]
# Forms outside the RFC 3339 grammar, refused whatever the cache holds.
REFUSED = [
    "20240101T000000Z", "2024-W01-1T00:00:00Z", "2024-01-01T00Z", "2024-01-01T00:00:00,5Z",
    " 2024-01-01T00:00:00Z ", "2024-01-01 00:00:00Z", "2024-01-01T00:00:00+0000", "2024-01-01T00:00:00.Z",
    "２０２４-01-01T00:00:00Z", "2024-13-01T00:00:00Z",
]


@st.composite
def stamp_sequences(draw):
    """Stamps over a few shared minutes (some with a lower-case "t"), half of them near misses."""
    prefixes = st.sampled_from([
        dt.isoformat()[:10] + draw(st.sampled_from("Tt")) + dt.isoformat()[11:17]
        for dt in draw(st.lists(MINUTES, min_size=1, max_size=3))
    ])
    seconds = st.integers(0, 59).map("{:02d}".format)
    offset = st.sampled_from(["+00:00", "-00:00", "+01:00", "-23:59", "+14:00"])
    fraction = st.from_regex(r"\.[0-9]{1,9}", fullmatch=True)
    odd_seconds = st.sampled_from(["60", "٠٥", "０５", "5", "005", "6O", "  "])  # "٠٥" and "０５": non-ASCII digits
    near_miss = st.one_of(
        st.tuples(prefixes, odd_seconds).map(lambda p: p[0] + p[1] + "Z"),
        st.tuples(prefixes, seconds).map(lambda p: p[0] + p[1] + "z"),
        st.tuples(prefixes, seconds, offset).map("".join),
        st.tuples(prefixes, seconds, fraction).map(lambda p: "".join(p) + "Z"),
        st.tuples(prefixes, seconds).map(lambda p: p[0] + p[1] + "Z\n"),
        st.tuples(prefixes, seconds).map(lambda p: (p[0] + p[1] + "Z").encode()),
        st.sampled_from(REFUSED + [None, 42]),
    )
    valid = st.tuples(prefixes, seconds).map(lambda p: p[0] + p[1] + "Z")
    return draw(st.lists(st.one_of(valid, near_miss), min_size=1, max_size=40))


@st.composite
def datetime_sequences(draw):
    """Aware datetimes over a few shared minutes: whole seconds, fractions, offsets, years below 1000."""
    minutes = draw(st.lists(MINUTES.filter(lambda dt: 1 < dt.year < 9999), min_size=1, max_size=3))
    element = st.tuples(
        st.sampled_from(minutes),
        st.integers(0, 59),
        st.one_of(st.just(0), st.integers(0, 999_999)),
        st.one_of(st.just(UTC), OFFSETS),
    ).map(lambda p: (p[0] + timedelta(seconds=p[1], microseconds=p[2])).astimezone(p[3]))
    return draw(st.lists(element, min_size=1, max_size=40))


class TestMinuteCache:
    @settings(max_examples=300, deadline=None)
    @given(stamp_sequences())
    def test_parse_equals_the_uncached_parser_in_any_order(self, texts):
        for text in texts:
            assert outcome(parse_rfc3339, text) == outcome(reference_parse, text), text

    @settings(max_examples=300, deadline=None)
    @given(datetime_sequences())
    def test_format_equals_the_uncached_formatter_in_any_order(self, dts):
        for dt in dts:
            assert format_rfc3339(dt) == reference_format(dt), dt

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(RANGE_END_MINUTES + [datetime(2021, 6, 5, 9, 0, tzinfo=UTC)]),
                              st.integers(0, 59), st.one_of(st.just(0), st.integers(0, 999_999))),
                    min_size=1, max_size=30))
    def test_both_ends_of_the_datetime_range_equal_the_references(self, items):
        """The first and the last minute datetime holds, interleaved with another and repeated: no bound overflows."""
        for minute, second, micros in items + items:
            dt = minute + timedelta(seconds=second, microseconds=micros)
            text = reference_format(dt)
            assert format_rfc3339(dt) == text, dt
            assert outcome(parse_rfc3339, text) == outcome(reference_parse, text), text

    def test_every_second_at_both_ends_of_the_datetime_range(self):
        other = datetime(2021, 6, 5, 9, 0, tzinfo=UTC)
        for _ in range(2):
            for minute in RANGE_END_MINUTES:
                for s in range(60):
                    for dt in (minute + timedelta(seconds=s), minute + timedelta(seconds=s, microseconds=250_000),
                               other + timedelta(seconds=s)):
                        text = reference_format(dt)
                        assert format_rfc3339(dt) == text
                        assert parse_rfc3339(text) == dt == reference_parse(text)

    def test_a_minute_parsed_once_is_not_matched_again(self, monkeypatch):
        matched = []

        class Counting:
            def fullmatch(self, text):
                matched.append(text)
                return real.fullmatch(text)

        real = timeutil._DATE_TIME
        monkeypatch.setattr(timeutil, "_DATE_TIME", Counting())
        stamps = [f"2031-02-03T04:05:{s:02d}Z" for s in range(60)]
        assert [parse_rfc3339(text) for text in stamps] == [datetime(2031, 2, 3, 4, 5, s, tzinfo=UTC) for s in range(60)]
        assert matched == stamps[:1]

    def test_a_minute_formatted_once_is_not_rendered_again(self):
        rendered = []

        class Counting(datetime):
            def isoformat(self, *args):
                rendered.append(self)
                return super().isoformat(*args)

        dts = [Counting(2031, 2, 3, 4, 5, s, tzinfo=UTC) for s in range(60)]
        assert [format_rfc3339(dt) for dt in dts] == [f"2031-02-03T04:05:{s:02d}Z" for s in range(60)]
        assert rendered == dts[:1]
        fraction = Counting(2031, 2, 3, 4, 6, 0, 500_000, tzinfo=UTC)  # rendered, but the cached minute stays
        assert format_rfc3339(fraction) == "2031-02-03T04:06:00.5Z"
        assert [format_rfc3339(dt) for dt in dts] == [f"2031-02-03T04:05:{s:02d}Z" for s in range(60)]
        assert rendered == [dts[0], fraction]

    def test_two_threads_never_mix_their_minutes(self):
        """Each thread parses and formats its own minute; a cache read half from the other's would show."""
        calls = 20_000
        wrong: list[tuple[str, object]] = []

        def work(minute: datetime) -> None:
            dts = [minute + timedelta(seconds=s) for s in range(60)]
            texts = [reference_format(dt) for dt in dts]
            for i in range(calls):
                dt, text = dts[i % 60], texts[i % 60]
                if parse_rfc3339(text) != dt:
                    wrong.append(("parse", text))
                if format_rfc3339(dt) != text:
                    wrong.append(("format", dt))

        threads = [threading.Thread(target=work, args=(datetime(2021, 6, 5, 9, m, tzinfo=UTC),)) for m in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestNaive:
    def test_format_refuses_a_tzinfo_without_an_offset(self):
        """Python treats such a datetime as naive: astimezone would read it as the host's local time."""
        for dt in (datetime(2021, 6, 5, 9, 0), datetime(2021, 6, 5, 9, 0, tzinfo=_NoOffset())):
            with pytest.raises(ValueError, match="naive datetime"):
                format_rfc3339(dt)


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

    def test_the_epoch_is_the_first_time_with_an_id(self):
        epoch = datetime(1970, 1, 1, tzinfo=UTC)
        assert IdFactory(seed=1)(epoch).startswith("0000000000")
        for before in (epoch - timedelta(seconds=1), epoch - timedelta(microseconds=500), datetime(1, 1, 1, tzinfo=UTC)):
            with pytest.raises(ValueError, match="before the Unix epoch"):
                IdFactory(seed=1)(before)
