"""The service's trigger index against a full scan of the pending set.

A random run submits direct, single-condition, AND and OR messages and
sends monotone samples, worn and not, near ordinary places, the poles and
the antimeridian, some exactly on a fence's radius, with windows that open
and lapse while the run goes on. After every sample the service must
deliver and expire exactly what ``expire_messages`` and ``evaluate_sample``
give over every pending message. Some samples repeat the previous one's
position, with messages submitted and delivered in between, and a scenario
end now and then empties the index before submissions refill it. Crash
restarts and refused out-of-order samples are mixed in.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from datetime import timedelta
from itertools import count

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wandrelay import protocol, service as service_module, sim
from wandrelay.engine import (
    EARTH_RADIUS_M,
    HEAP_BOUND,
    ContextSample,
    TriggerIndex,
    evaluate_sample,
    expire_messages,
    grid_cell,
    grid_neighbours,
    haversine_distance,
)
from wandrelay.ids import IdFactory
from wandrelay.model import (
    MAX_GEOFENCE_RADIUS_M,
    MIN_GEOFENCE_RADIUS_M,
    Geofence,
    MarkerCondition,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    compose,
)
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore

from client import error_code, ids_of, push, request, submit
from conftest import FIXTURE_PATHS, at

M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0
PLACES = (
    (40.0, -100.0),
    (89.95, 30.0),
    (90.0, 0.0),
    (-89.9, -120.0),
    (0.0, 179.99995),
    (-33.0, -179.99995),
)
MARKERS = ("m1", "m2", "m3")
offsets = st.floats(-25.0, 25.0)


def near(lat0: float, lon0: float, north: float, east: float) -> tuple[float, float]:
    """A point about (north, east) meters from (lat0, lon0), clamped at the poles, lon wrapped."""
    lat = min(90.0, max(-90.0, lat0 + north / M_PER_DEG))
    lon = lon0 + east / (M_PER_DEG * max(math.cos(math.radians(lat0)), 1e-3))
    return lat, (lon + 180.0) % 360.0 - 180.0


positions = st.builds(lambda place, n, e: near(*place, n, e), st.sampled_from(PLACES), offsets, offsets)


class JournalSpy(FileStore):
    """A FileStore that also lists every event it makes durable."""

    def __init__(self, root, events):
        super().__init__(root)
        self.events = events

    def record_event(self, recipient_id, event):
        super().record_event(recipient_id, event)
        self.events.append((event["ev"], event.get("message_id")))


def draw_fence(data, spots):
    """A geofence; half of them get a radius that puts a point of ``spots`` exactly on it."""
    lat, lon = data.draw(positions)
    spots.append((lat, lon))
    radius = data.draw(st.floats(MIN_GEOFENCE_RADIUS_M, MAX_GEOFENCE_RADIUS_M))
    if data.draw(st.booleans()):
        bearing = data.draw(st.floats(0.0, 2 * math.pi))
        edge = near(lat, lon, 10.0 * math.cos(bearing), 10.0 * math.sin(bearing))
        distance = haversine_distance(lat, lon, *edge)
        if MIN_GEOFENCE_RADIUS_M <= distance <= MAX_GEOFENCE_RADIUS_M:
            radius = distance
            spots.append(edge)
    return Geofence(lat=lat, lon=lon, radius=radius)


def draw_position(data, spots):
    """Anywhere near a place, or on or near a fence's centre or edge."""
    if spots and data.draw(st.booleans()):
        spot = data.draw(st.sampled_from(spots))
        return spot if data.draw(st.booleans()) else near(*spot, data.draw(offsets), data.draw(offsets))
    return data.draw(positions)


def draw_message(data, ids, clock, spots):
    kind = data.draw(st.sampled_from(["direct", "single", "and", "or"]))
    schedule = None
    if kind != "direct":
        size = 1 if kind == "single" else data.draw(st.integers(2, 3))
        names = data.draw(st.permutations(["geofence", "window", "marker"]))[:size]
        window = None
        if "window" in names:
            start = clock + timedelta(seconds=data.draw(st.integers(-10, 30)))
            window = TimeWindow(start, start + timedelta(seconds=data.draw(st.integers(1, 30))))
        schedule = TriggerSchedule(
            geofence=draw_fence(data, spots) if "geofence" in names else None,
            window=window,
            marker=MarkerCondition(data.draw(st.sampled_from(MARKERS))) if "marker" in names else None,
            specificity=Specificity.FLEXIBLE if kind == "or" else Specificity.SPECIFIC,
        )
    created = clock - timedelta(seconds=data.draw(st.integers(0, 300)))
    return compose("s1", "r1", "dog", 1.0, VoiceNote(1.0, "hi"), schedule, now=created, id_factory=ids)


def assert_heaps_bounded(service, recipient_id="r1"):
    index = service._pending[recipient_id]
    for heap in (index._starts, index._ends, index._expiry):
        assert len(heap) <= HEAP_BOUND * len(index.messages)


def open_service(data_dir, events):
    service = DeliveryService(JournalSpy(data_dir, events))
    request(service, protocol.HELLO, {"role": "recipient", "principal": "r1"}, "r1")
    return service


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_index_delivers_and_expires_what_a_full_scan_does(data):
    data_dir = tempfile.mkdtemp(prefix="wandrelay-index-")
    try:
        events: list[tuple[str, str]] = []
        service = open_service(data_dir, events)
        ids, spots = IdFactory(7), []
        pending = []  # the full pending set, in enqueue order
        clock = at("09:00:00")
        durable_t = None  # the last sample that stored an event: what a restart keeps of the guard
        guard_t = None  # the service's out-of-order guard
        position = None  # the last sample's, which a "still" sample repeats
        kinds = st.sampled_from(["submit", "submit", "sample", "sample", "still", "crash", "stale", "drain"])
        steps = data.draw(st.lists(kinds, min_size=20, max_size=60))
        for step in steps:
            if step == "submit":
                message = draw_message(data, ids, clock, spots)
                assert error_code(submit(service, message)) is None
                pending.append(message)
            elif step in ("sample", "still"):
                clock += timedelta(seconds=data.draw(st.integers(1, 5)))
                if step == "sample" or position is None:
                    position = draw_position(data, spots)
                lat, lon = position
                markers = data.draw(st.frozensets(st.sampled_from(MARKERS)))
                sample = ContextSample("r1", clock, lat, lon, data.draw(st.booleans()), markers)
                expired, pending = expire_messages(clock, pending)
                delivered, pending = evaluate_sample(sample, pending)
                before = len(events)
                frames = push(service, sample)
                want = [m.message_id for m in delivered]
                assert ids_of(frames, protocol.PLAYBACK) == want
                assert events[before:] == [("expired", m.message_id) for m in expired] + [
                    ("delivered", i) for i in want
                ]
                guard_t = clock
                if expired or delivered:
                    durable_t = clock
            elif step == "crash":
                service = open_service(data_dir, events)  # the old one is dropped without close()
                guard_t = durable_t
            elif step == "drain":  # a scenario end mid-run empties the index; submits refill it
                clock += timedelta(seconds=1)
                before = len(events)
                service.end_of_run(clock)
                assert [i for ev, i in events[before:] if ev == "expired"] == [m.message_id for m in pending]
                assert not service._pending["r1"]._buckets
                if pending:
                    guard_t = durable_t = clock
                pending = []
            elif guard_t is not None:  # stale: refused, and nothing moves
                t = guard_t - timedelta(seconds=data.draw(st.integers(0, 5)))
                lat, lon = draw_position(data, spots)
                before = len(events)
                stale = ContextSample("r1", t, lat, lon, True, frozenset(MARKERS))
                assert error_code(push(service, stale)) == "OutOfOrderSample"
                assert len(events) == before
            assert_heaps_bounded(service)
        # Scenario end retires the rest, in enqueue order.
        before = len(events)
        service.end_of_run(clock + timedelta(seconds=1))
        assert [i for ev, i in events[before:] if ev == "expired"] == [m.message_id for m in pending]
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def fenced(seed, lat, lon):
    schedule = TriggerSchedule(geofence=Geofence(lat=lat, lon=lon, radius=10.0))
    return compose("s1", "r1", "dog", 1.0, VoiceNote(1.0, "hi"), schedule, now=at("08:00:00"), id_factory=IdFactory(seed))


def test_cells_follow_the_position_while_the_buckets_empty_and_refill():
    here, there = near(40.0, -100.0, 0.0, 0.0), near(40.0, -100.0, 500.0, 0.0)
    index = TriggerIndex()
    first = fenced(1, *here)
    index.add(first)

    def sample(k, position):
        return ContextSample("r1", at("09:00:00") + timedelta(seconds=k), *position, True)

    assert index.candidates(sample(0, here)) == [first]
    assert index.candidates(sample(1, here)) == [first]  # the same position again
    index.remove(first.message_id)
    assert index.candidates(sample(2, here)) == []
    assert index.candidates(sample(3, there)) == []  # moved while nothing was filed
    second = fenced(2, *there)
    index.add(second)
    assert index.candidates(sample(4, there)) == [second]
    assert index.candidates(sample(5, here)) == []
    third = fenced(3, *here)
    index.add(third)
    assert index.candidates(sample(6, here)) == [third]


def test_a_standing_recipient_sees_fences_filed_into_and_removed_from_its_cells():
    """The cached buckets of a position that holds still follow every add and remove."""
    here, there = near(40.0, -100.0, 0.0, 0.0), near(40.0, -100.0, 5.0, 0.0)
    assert grid_cell(*there) != grid_cell(*here) and grid_cell(*there) in grid_neighbours(*here)
    index = TriggerIndex()
    ticks = count()

    def standing():
        return index.candidates(ContextSample("r1", at("09:00:00") + timedelta(seconds=next(ticks)), *here, True))

    first = fenced(1, *here)
    index.add(first)
    assert standing() == [first]
    second = fenced(2, *here)  # into the bucket the cache holds
    index.add(second)
    assert standing() == [first, second]
    third = fenced(3, *there)  # into a new bucket, in a cell the last probe found empty
    index.add(third)
    assert standing() == [first, second, third]
    index.remove(first.message_id)  # its bucket keeps the second
    assert standing() == [second, third]
    index.remove(third.message_id)  # the last message leaves its bucket
    assert standing() == [second]
    index.remove(second.message_id)
    assert standing() == []
    fourth = fenced(4, *there)  # the buckets refill while the recipient stands
    index.add(fourth)
    assert standing() == [fourth]


class CellCount(dict):
    """A bucket map that counts its lookups of cells (marker ids are strings)."""

    cells = 0

    def get(self, key, default=None):
        if isinstance(key, tuple):
            self.cells += 1
        return super().get(key, default)


class CountedIndex(TriggerIndex):
    """A TriggerIndex that tallies, for each ``candidates`` call, the cells it probed and why it may have."""

    tally = {"calls": 0, "with buckets": 0, "moved or changed": 0, "probes": 0, "unexplained": 0}

    def __init__(self):
        super().__init__()
        self._buckets = CellCount()
        self.changed = False  # add or remove since the last probe
        self.probed_at = None  # the position of the last probe

    def add(self, message):
        super().add(message)
        self.changed = True

    def remove(self, message_id):
        super().remove(message_id)
        self.changed = True

    def candidates(self, sample):
        position = sample.lat, sample.lon
        before = self._buckets.cells
        due = bool(self._buckets) and (self.changed or position != self.probed_at)
        result = super().candidates(sample)
        probes = self._buckets.cells - before
        tally = self.tally
        tally["calls"] += 1
        tally["with buckets"] += bool(self._buckets)
        tally["probes"] += probes
        tally["moved or changed"] += due
        tally["unexplained"] += probes != (8 if due else 0)
        if probes:
            self.changed, self.probed_at = False, position
        return result


def test_in_a_twelve_pair_pass_cells_are_probed_only_after_a_move_or_a_change(monkeypatch):
    monkeypatch.setattr(service_module, "TriggerIndex", CountedIndex)
    monkeypatch.setattr(CountedIndex, "tally", dict.fromkeys(CountedIndex.tally, 0))
    for path in FIXTURE_PATHS:
        sim.run(sim.load_scenario(path))
    tally = CountedIndex.tally
    assert tally["unexplained"] == 0
    assert tally["probes"] == 8 * tally["moved or changed"]
    # The same pass every time: of the 18,744 worn samples that ask for candidates, 16,601 find
    # something filed, and only the 9,001 of those that moved or follow a change probe the cells.
    assert (tally["calls"], tally["with buckets"], tally["moved or changed"]) == (18_744, 16_601, 9_001)


def windowed(seed, start, end, marker=None):
    schedule = TriggerSchedule(window=TimeWindow(at(start), at(end)), marker=marker)
    return compose("s1", "r1", "dog", 1.0, VoiceNote(1.0, "hi"), schedule, now=at("08:00:00"), id_factory=IdFactory(seed))


def test_a_window_is_a_candidate_from_its_start_to_its_end_inclusive():
    message = windowed(1, "09:00:00", "09:00:10")
    index = TriggerIndex()
    index.add(message)
    seen = [
        index.candidates(ContextSample("r1", at(t), 0.0, 0.0, True))
        for t in ("08:59:59", "09:00:00", "09:00:10", "09:00:11")
    ]
    assert seen == [[], [message], [message], []]


def test_lapsed_messages_come_out_in_enqueue_order():
    first = windowed(1, "09:00:00", "09:00:20", MarkerCondition("m1"))
    second = windowed(2, "09:00:00", "09:00:10")
    index = TriggerIndex()
    index.add(first)
    index.add(second)
    assert index.lapsed(at("09:00:20")) == [second]
    index.remove(second.message_id)
    assert index.lapsed(at("09:00:21")) == [first]

    index = TriggerIndex()
    index.add(first)
    index.add(second)
    assert index.lapsed(at("09:00:21")) == [first, second]


def test_delivered_messages_leave_no_heap_behind():
    """Messages fired long before their windows open or close do not keep their heap entries."""
    service = DeliveryService()
    request(service, protocol.HELLO, {"role": "recipient", "principal": "r1"}, "r1")
    ids = IdFactory(3)
    now = at("09:00:00")
    month = TimeWindow(now + timedelta(days=30), now + timedelta(days=31))
    this_month = TimeWindow(now - timedelta(seconds=1), now + timedelta(days=30))
    schedules = [
        # OR: the marker fires it, its window opens 30 days out (start heap).
        TriggerSchedule(window=month, marker=MarkerCondition("m1"), specificity=Specificity.FLEXIBLE),
        # AND: fires inside its window, which ends 30 days out (expiry heap).
        TriggerSchedule(window=this_month, marker=MarkerCondition("m1"), specificity=Specificity.SPECIFIC),
        # OR, window open: moves to the end heap at the sample, which fires it.
        TriggerSchedule(window=this_month, marker=MarkerCondition("m2"), specificity=Specificity.FLEXIBLE),
    ]
    kept = compose("s1", "r1", "dog", 1.0, VoiceNote(1.0, "hi"), TriggerSchedule(window=month), now=now, id_factory=ids)
    assert error_code(submit(service, kept)) is None
    for k in range(1000):
        message = compose("s1", "r1", "dog", 1.0, VoiceNote(1.0, "hi"), schedules[k % 3], now=now, id_factory=ids)
        assert error_code(submit(service, message)) is None
    index = service._pending["r1"]
    assert len(index._starts) == 1 + 334 + 333  # the kept message and both OR kinds
    frames = push(service, ContextSample("r1", now, 0.0, 0.0, True, frozenset({"m1"})))
    assert len(ids_of(frames, protocol.PLAYBACK)) == 1000
    assert list(index.messages) == [kept.message_id]
    assert_heaps_bounded(service)
