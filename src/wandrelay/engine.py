"""Trigger evaluation core.

Pure functions over immutable inputs: given one context sample and the
recipient's pending messages, decide what fires and what has become
undeliverable. The caller owns per-recipient sample ordering and passes the
last processed timestamp for the out-of-order guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Mapping, Sequence

from .errors import OutOfOrderSample, ParseError
from .model import ArMessage, Geofence, MessageState, Specificity, TimeWindow, TriggerSchedule
from .timeutil import format_rfc3339, parse_rfc3339

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class ContextSample:
    """One timestamped observation of a recipient."""

    recipient_id: str
    t: datetime
    lat: float
    lon: float
    wearing: bool
    visible_markers: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class ConditionResult:
    """Per-condition outcome; a field is set iff the schedule declares it."""

    geofence_hit: bool | None = None
    window_hit: bool | None = None
    marker_hit: bool | None = None

    def present(self) -> tuple[bool, ...]:
        return tuple(h for h in (self.geofence_hit, self.window_hit, self.marker_hit) if h is not None)


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    message_id: str
    delivered_at: datetime
    triggering_sample: ContextSample
    satisfied: ConditionResult


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


def window_contains(window: TimeWindow, t: datetime) -> bool:
    """Closed interval: both boundaries count."""
    return window.start <= t <= window.end


def evaluate_schedule(schedule: TriggerSchedule, sample: ContextSample) -> tuple[bool, ConditionResult]:
    """Test every declared condition against one sample and combine."""
    geofence_hit = window_hit = marker_hit = None
    if schedule.geofence is not None:
        geofence_hit = geofence_contains(schedule.geofence, sample.lat, sample.lon)
    if schedule.window is not None:
        window_hit = window_contains(schedule.window, sample.t)
    if schedule.marker is not None:
        marker_hit = schedule.marker.marker_id in sample.visible_markers
    result = ConditionResult(geofence_hit=geofence_hit, window_hit=window_hit, marker_hit=marker_hit)
    hits = result.present()
    fires = all(hits) if schedule.specificity is Specificity.SPECIFIC else any(hits)
    return fires, result


def evaluate_sample(
    sample: ContextSample,
    pending: Sequence[ArMessage],
    last_t: datetime | None = None,
) -> tuple[list[DeliveryRecord], list[ArMessage]]:
    """Process one sample: returns (deliveries, still-pending messages).

    No delivery can happen while the glasses are off; a scheduleless message
    fires at the first worn sample, a scheduled one when its combinator holds
    with every condition tested against this same sample. Deliveries come out
    ordered by (created_at, message_id) and leave the pending set for good.
    """
    if last_t is not None and sample.t <= last_t:
        raise OutOfOrderSample(
            f"sample at {format_rfc3339(sample.t)} not after {format_rfc3339(last_t)}"
        )
    for message in pending:
        if message.state is not MessageState.PENDING:
            raise ValueError(f"{message.message_id} is {message.state.value}, not Pending")
        if message.recipient_id != sample.recipient_id:
            raise ValueError(f"{message.message_id} is not addressed to {sample.recipient_id}")

    if not sample.wearing:
        return [], list(pending)

    deliveries: list[DeliveryRecord] = []
    still_pending: list[ArMessage] = []
    for message in pending:
        if message.schedule is None:
            fires, satisfied = True, ConditionResult()
        else:
            fires, satisfied = evaluate_schedule(message.schedule, sample)
        if fires:
            deliveries.append(
                DeliveryRecord(
                    message_id=message.message_id,
                    delivered_at=sample.t,
                    triggering_sample=sample,
                    satisfied=satisfied,
                )
            )
        else:
            still_pending.append(message)
    order = {m.message_id: (m.created_at, m.message_id) for m in pending}
    deliveries.sort(key=lambda d: order[d.message_id])
    return deliveries, still_pending


def schedule_unsatisfiable(schedule: TriggerSchedule | None, now: datetime) -> bool:
    """True when no future sample can ever fire the schedule.

    Under AND, a lapsed window kills the whole schedule (all conditions must
    hold at one sample). Under OR, only a schedule whose every condition is a
    lapsed window is dead. Geofence and marker conditions never lapse here;
    scenario end retires them.
    """
    if schedule is None:
        return False
    window_lapsed = schedule.window is not None and schedule.window.end < now
    if schedule.specificity is Specificity.SPECIFIC:
        return window_lapsed
    only_windows = schedule.geofence is None and schedule.marker is None
    return only_windows and window_lapsed


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


# -- canonical encoding -----------------------------------------------------------

def sample_to_dict(sample: ContextSample) -> dict[str, Any]:
    return {
        "recipient_id": sample.recipient_id,
        "t": format_rfc3339(sample.t),
        "position": {"lat": sample.lat, "lon": sample.lon},
        "wearing": sample.wearing,
        "visible_markers": sorted(sample.visible_markers),
    }


def sample_from_dict(d: Mapping[str, Any]) -> ContextSample:
    try:
        position = d["position"]
        return ContextSample(
            recipient_id=str(d["recipient_id"]),
            t=parse_rfc3339(d["t"]),
            lat=float(position["lat"]),
            lon=float(position["lon"]),
            wearing=bool(d["wearing"]),
            visible_markers=frozenset(str(m) for m in d.get("visible_markers", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad context sample: {exc}") from None

