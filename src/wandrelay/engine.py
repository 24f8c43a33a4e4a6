"""Trigger evaluation core.

Pure functions that read their inputs and change none of them: given one
context sample and a recipient's pending messages, decide which messages
fire and which have become undeliverable. The caller owns per-recipient
sample ordering: it runs ``check_order`` before it hands a sample over, and
it stamps each fired message with the sample's time.

``TriggerIndex`` keeps one recipient's pending messages by the conditions
that can fire them, so the caller hands ``expire_messages`` and
``evaluate_sample`` only the candidates, in enqueue order, instead of every
pending message. Both functions return the same deliveries and expiries for
the candidates as for the full set, because no other message can fire or
lapse at that sample. Geofences sit in a grid of ``GRID_CELL_M`` cells over
Earth-centred x/y/z, which has no edge at the poles or the antimeridian. A
cell is twice the longest reach, so every point within that reach of a
sample lies in one of the sample's 8 ``grid_neighbours``: on each axis it is
at most half a cell away, so in the cell half a cell below the sample or the
one half a cell above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Iterable, Mapping, Sequence

from .errors import OutOfOrderSample, ParseError
from .model import ArMessage, Geofence, Specificity, TimeWindow, TriggerSchedule, check_position
from .timeutil import format_rfc3339, parse_rfc3339

EARTH_RADIUS_M = 6_371_000.0
# Twice a reach of 16 m, which is at least the largest geofence radius (14 m)
# and the simulator's marker range (5 m): two points that close differ by at
# most half a cell on each axis (a chord is no longer than its arc), so a
# point's 8 neighbouring cells hold all of them. The 2 m over 14 m absorbs
# rounding.
GRID_CELL_M = 32.0
# No TriggerIndex heap holds more than this many entries per pending message.
HEAP_BOUND = 2
_NO_MARKERS: frozenset[str] = frozenset()  # every sample without markers shares it


@dataclass(slots=True)
class ContextSample:
    """One timestamped observation of a recipient.

    Not frozen, so building one does not set each field through
    ``object.__setattr__``; nothing mutates or hashes a sample.
    """

    recipient_id: str
    t: datetime
    lat: float
    lon: float
    wearing: bool
    visible_markers: frozenset[str] = _NO_MARKERS


def haversine_distance(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of radius 6 371 000 m."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    d_phi = math.radians(lat2 - lat1)
    d_lambda = math.radians(lon2 - lon1)
    a = math.sin(d_phi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(d_lambda / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def geofence_contains(fence: Geofence, lat: float, lon: float) -> bool:
    """Boundary-inclusive: a point exactly on the radius counts as inside."""
    return haversine_distance(fence.lat, fence.lon, lat, lon) <= fence.radius


def _cell_units(lat: float, lon: float) -> tuple[float, float, float]:
    """A point's Earth-centred x/y/z on the haversine sphere, in cells."""
    phi, lam = math.radians(lat), math.radians(lon)
    scale = EARTH_RADIUS_M / GRID_CELL_M
    r = scale * math.cos(phi)
    return r * math.cos(lam), r * math.sin(lam), scale * math.sin(phi)


def grid_cell(lat: float, lon: float) -> tuple[int, int, int]:
    """The grid cell holding a point."""
    x, y, z = _cell_units(lat, lon)
    return math.floor(x), math.floor(y), math.floor(z)


def grid_neighbours(lat: float, lon: float) -> list[tuple[int, int, int]]:
    """The 8 cells that hold every point within half a ``GRID_CELL_M`` of this one.

    On each axis ``u``, the cell half a cell below the point,
    ``floor(u - 0.5)``, and the next one up, which holds the point half a
    cell above (``floor(u + 0.5)``, unless that sum rounds up to an integer);
    in ``itertools.product`` order.
    """
    ux, uy, uz = _cell_units(lat, lon)
    x, y, z = math.floor(ux - 0.5), math.floor(uy - 0.5), math.floor(uz - 0.5)
    x1, y1, z1 = x + 1, y + 1, z + 1
    return [(x, y, z), (x, y, z1), (x, y1, z), (x, y1, z1), (x1, y, z), (x1, y, z1), (x1, y1, z), (x1, y1, z1)]


def window_contains(window: TimeWindow, t: datetime) -> bool:
    """Closed interval: both boundaries count."""
    return window.start <= t <= window.end


def evaluate_schedule(schedule: TriggerSchedule, sample: ContextSample) -> bool:
    """Whether the schedule fires at this sample: its declared conditions, combined."""
    hits = []
    if schedule.geofence is not None:
        hits.append(geofence_contains(schedule.geofence, sample.lat, sample.lon))
    if schedule.window is not None:
        hits.append(window_contains(schedule.window, sample.t))
    if schedule.marker is not None:
        hits.append(schedule.marker.marker_id in sample.visible_markers)
    return all(hits) if schedule.specificity is Specificity.SPECIFIC else any(hits)


def check_order(t: datetime, last_t: datetime | None) -> None:
    """The out-of-order guard: a sample must come after the last one processed."""
    if last_t is not None and t <= last_t:
        raise OutOfOrderSample(f"sample at {format_rfc3339(t)} not after {format_rfc3339(last_t)}")


def evaluate_sample(sample: ContextSample, pending: Sequence[ArMessage]) -> tuple[list[ArMessage], list[ArMessage]]:
    """Process one sample: returns (fired, still-pending messages).

    Nothing fires while the glasses are off; a scheduleless message fires at
    the first worn sample, a scheduled one when its combinator holds with
    every condition tested against this same sample. Fired messages come out
    ordered by (created_at, message_id) and leave the pending set for good.
    """
    for message in pending:
        if message.recipient_id != sample.recipient_id:
            raise ValueError(f"{message.message_id} is not addressed to {sample.recipient_id}")

    if not sample.wearing:
        return [], list(pending)

    fired: list[ArMessage] = []
    still_pending: list[ArMessage] = []
    for message in pending:
        if message.schedule is None or evaluate_schedule(message.schedule, sample):
            fired.append(message)
        else:
            still_pending.append(message)
    if len(fired) > 1:
        fired.sort(key=lambda m: (m.created_at, m.message_id))
    return fired, still_pending


def schedule_unsatisfiable(schedule: TriggerSchedule | None, now: datetime) -> bool:
    """True when no future sample can ever fire the schedule.

    Under AND, a lapsed window kills the whole schedule (all conditions must
    hold at one sample). An OR schedule has at least two conditions
    (``TriggerSchedule`` makes a single condition AND), at most one of them a
    window, so it always keeps a geofence or marker, and those never lapse
    here; scenario end retires them.
    """
    return (
        schedule is not None
        and schedule.specificity is Specificity.SPECIFIC
        and schedule.window is not None
        and schedule.window.end < now
    )


def expire_messages(
    now: datetime,
    pending: Sequence[ArMessage],
) -> tuple[list[ArMessage], list[ArMessage]]:
    """Split pending messages into (expired, still-pending) as of ``now``."""
    expired: list[ArMessage] = []
    still_pending: list[ArMessage] = []
    for message in pending:
        if schedule_unsatisfiable(message.schedule, now):
            expired.append(message)
        else:
            still_pending.append(message)
    return expired, still_pending


class TriggerIndex:
    """One recipient's pending messages, by id in enqueue order, indexed by what can fire them.

    A direct message is a candidate at every sample. An OR message is
    indexed under each of its conditions; an AND message under one (its
    marker, else its geofence, else its window) and checked in full by
    ``evaluate_sample``. Markers and geofence cells share one bucket map
    (marker ids are strings, cells tuples). Windows open from a start-ordered
    heap and close from an end-ordered one, and AND schedules with a window,
    the only ones ``schedule_unsatisfiable`` retires, wait in an end-ordered
    expiry heap. The heaps are consumed as sample time advances, so
    ``candidates`` and ``lapsed`` must see non-decreasing times. Entries of
    removed messages are dropped when popped, or all at once when a heap
    grows past ``HEAP_BOUND`` entries per pending message.

    ``candidates`` probes a sample's markers and its 8 ``grid_neighbours``
    only while the bucket map holds something. It keeps the last probed
    position with its cells and the buckets found there, and probes the
    cells again only when a sample moves or ``add`` or ``remove`` has
    changed the map since: a recipient standing still pays for its cells
    once.
    """

    def __init__(self) -> None:
        self.messages: dict[str, ArMessage] = {}
        self._seq: dict[str, int] = {}
        self._counter = count()
        self._direct: set[str] = set()
        self._buckets: dict[str | tuple[int, int, int], set[str]] = {}
        self._starts: list[tuple[datetime, int, str]] = []
        self._ends: list[tuple[datetime, int, str]] = []
        self._open: set[str] = set()
        self._expiry: list[tuple[datetime, int, str]] = []
        self._position: tuple[float, float] | None = None  # the last probed sample's, its cells
        self._cells: list[tuple[int, int, int]] = []
        self._cell_hits: list[set[str]] | None = None  # and their buckets; None once the map changed

    @staticmethod
    def _indexed(schedule: TriggerSchedule) -> list[Any]:
        conditions = [c for c in (schedule.marker, schedule.geofence, schedule.window) if c is not None]
        return conditions if schedule.specificity is Specificity.FLEXIBLE else conditions[:1]

    @staticmethod
    def _key(condition: Any) -> str | tuple[int, int, int]:
        """A marker's id, or a geofence centre's grid cell."""
        if isinstance(condition, Geofence):
            return grid_cell(condition.lat, condition.lon)
        return condition.marker_id

    def add(self, message: ArMessage) -> None:
        message_id, schedule = message.message_id, message.schedule
        seq = self._seq[message_id] = next(self._counter)
        self.messages[message_id] = message
        self._cell_hits = None
        if schedule is None:
            self._direct.add(message_id)
            return
        for condition in self._indexed(schedule):
            if isinstance(condition, TimeWindow):
                heappush(self._starts, (condition.start, seq, message_id))
            else:
                self._buckets.setdefault(self._key(condition), set()).add(message_id)
        if schedule.window is not None and schedule.specificity is Specificity.SPECIFIC:
            heappush(self._expiry, (schedule.window.end, seq, message_id))

    def remove(self, message_id: str) -> None:
        schedule = self.messages.pop(message_id).schedule
        del self._seq[message_id]
        self._cell_hits = None
        self._direct.discard(message_id)
        self._open.discard(message_id)
        for condition in self._indexed(schedule) if schedule is not None else ():
            if not isinstance(condition, TimeWindow):
                key = self._key(condition)
                self._buckets[key].discard(message_id)
                if not self._buckets[key]:
                    del self._buckets[key]
        self._compact()

    def _compact(self) -> None:
        """Drop the stale entries of any heap past ``HEAP_BOUND`` per pending message.

        A heap holds at most one live entry per pending message, so past the
        bound over half its entries are stale, and each is dropped once.
        """
        for heap in (self._starts, self._ends, self._expiry):
            if len(heap) > HEAP_BOUND * len(self.messages):
                heap[:] = [entry for entry in heap if entry[2] in self.messages]
                heapify(heap)

    def _in_order(self, ids: Iterable[str]) -> list[ArMessage]:
        return [self.messages[i] for i in sorted(ids, key=self._seq.__getitem__)]

    def lapsed(self, t: datetime) -> list[ArMessage]:
        """The messages whose window ended before ``t``: what ``expire_messages`` retires now."""
        if not self._expiry or self._expiry[0][0] >= t:
            return []
        ids = []
        while self._expiry and self._expiry[0][0] < t:
            message_id = heappop(self._expiry)[2]
            if message_id in self.messages:
                ids.append(message_id)
        return self._in_order(ids)

    def candidates(self, sample: ContextSample) -> list[ArMessage]:
        """Every pending message that may fire at this sample, and few others."""
        t = sample.t
        while self._starts and self._starts[0][0] <= t:
            _, seq, message_id = heappop(self._starts)
            if message_id in self.messages:
                self._open.add(message_id)
                heappush(self._ends, (self.messages[message_id].schedule.window.end, seq, message_id))
                self._compact()  # the one push here that can grow a heap
        while self._ends and self._ends[0][0] < t:
            self._open.discard(heappop(self._ends)[2])
        hits = []
        buckets = self._buckets
        if buckets:
            position = sample.lat, sample.lon
            if position != self._position:
                self._position, self._cells, self._cell_hits = position, grid_neighbours(*position), None
            if self._cell_hits is None:
                self._cell_hits = [bucket for cell in self._cells if (bucket := buckets.get(cell))]
            hits = self._cell_hits
            if sample.visible_markers:
                hits = [bucket for key in sample.visible_markers if (bucket := buckets.get(key))] + hits
        if not (self._direct or self._open or hits):
            return []
        return self._in_order(self._direct.union(self._open, *hits))


# -- canonical encoding -----------------------------------------------------------

def sample_payload(
    recipient_id: str, t: datetime, position: dict[str, float], wearing: bool, markers: list[str]
) -> dict[str, Any]:
    """A CONTEXT sample's canonical document: every one is built here.

    ``position`` is the ``{"lat": lat, "lon": lon}`` document and ``markers``
    the sorted list of visible marker ids. The document holds both objects
    themselves, so a caller may share one position and one list between
    documents at one position; nothing mutates a recorded frame.
    """
    return {
        "recipient_id": recipient_id,
        "t": format_rfc3339(t),
        "position": position,
        "wearing": wearing,
        "visible_markers": markers,
    }


def sample_to_dict(sample: ContextSample) -> dict[str, Any]:
    position = {"lat": sample.lat, "lon": sample.lon}
    return sample_payload(sample.recipient_id, sample.t, position, sample.wearing, sorted(sample.visible_markers))


def _wrong_type(name: str, value: Any, kind: str) -> ParseError:
    return ParseError(f"bad context sample: {name} must be {kind}, got {type(value).__name__}")


def sample_from_dict(d: Mapping[str, Any]) -> ContextSample:
    """A sample from its canonical form; a field of the wrong JSON type or a position off the globe is refused.

    ``recipient_id`` is a string, ``wearing`` a boolean, ``lat`` and ``lon``
    numbers (a boolean is not one), and ``visible_markers``, when present, a
    list of strings. NaN is a number but fails the position check.
    """
    try:
        recipient_id, position, wearing = d["recipient_id"], d["position"], d["wearing"]
        lat, lon = position["lat"], position["lon"]
        markers = d.get("visible_markers", _NO_MARKERS)
        t = parse_rfc3339(d["t"])
        if not isinstance(recipient_id, str):
            raise _wrong_type("recipient_id", recipient_id, "a string")
        if not isinstance(wearing, bool):
            raise _wrong_type("wearing", wearing, "a boolean")
        if type(lat) is not float:  # a JSON number is usually a float; the other kinds are checked here
            if isinstance(lat, bool) or not isinstance(lat, (int, float)):
                raise _wrong_type("lat", lat, "a number")
            lat = float(lat)
        if type(lon) is not float:
            if isinstance(lon, bool) or not isinstance(lon, (int, float)):
                raise _wrong_type("lon", lon, "a number")
            lon = float(lon)
        if markers is not _NO_MARKERS:  # absent: no markers
            if not isinstance(markers, list) or (markers and not all(isinstance(m, str) for m in markers)):
                raise _wrong_type("visible_markers", markers, "a list of strings")
            markers = frozenset(markers) if markers else _NO_MARKERS
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the largest float
        raise ParseError(f"bad context sample: {exc}") from None
    check_position(lat, lon)
    return ContextSample(recipient_id, t, lat, lon, wearing, markers)
