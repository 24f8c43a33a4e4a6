"""Seeded random generators for streams, schedules, messages, and scenarios."""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta

from wandrelay.engine import ContextSample
from wandrelay.ids import IdFactory
from wandrelay.model import (
    ArMessage,
    Geofence,
    MarkerCondition,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    catalog,
)
from wandrelay.timeutil import UTC, format_rfc3339

BASE_LAT, BASE_LON = 40.0, -100.0
T0 = datetime(2021, 6, 5, 9, 0, 0, tzinfo=UTC)
MARKER_IDS = ("mk-red", "mk-green", "mk-blue")

_M_PER_DEG = 6_371_000.0 * math.pi / 180.0


def lat_off(meters: float) -> float:
    return BASE_LAT + meters / _M_PER_DEG


def lon_off(meters: float) -> float:
    return BASE_LON + meters / (_M_PER_DEG * math.cos(math.radians(BASE_LAT)))


def destination(lat: float, lon: float, bearing: float, meters: float) -> tuple[float, float]:
    """The point ``meters`` along a great circle from (lat, lon), with longitude wrapped into [-180, 180)."""
    phi, lam, delta = math.radians(lat), math.radians(lon), meters / 6_371_000.0
    phi2 = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi), math.cos(delta) - math.sin(phi) * math.sin(phi2)
    )
    return math.degrees(phi2), (math.degrees(lam2) + 180.0) % 360.0 - 180.0


def random_stream(rng: random.Random, max_samples: int = 200, recipient: str = "r1") -> list[ContextSample]:
    n = rng.randint(1, max_samples)
    samples = []
    t = T0
    for _ in range(n):
        t = t + timedelta(seconds=rng.randint(1, 20))
        samples.append(
            ContextSample(
                recipient_id=recipient,
                t=t,
                lat=lat_off(rng.uniform(-40.0, 40.0)),
                lon=lon_off(rng.uniform(-40.0, 40.0)),
                wearing=rng.random() < 0.7,
                visible_markers=frozenset(m for m in MARKER_IDS if rng.random() < 0.15),
            )
        )
    return samples


def random_schedule(
    rng: random.Random,
    span_end: datetime,
    *,
    min_conditions: int = 1,
    specificity: Specificity | None = None,
) -> TriggerSchedule:
    kinds = rng.sample(("geofence", "window", "marker"), k=rng.randint(min_conditions, 3))
    geofence = window = marker = None
    if "geofence" in kinds:
        geofence = Geofence(
            lat=lat_off(rng.uniform(-45.0, 45.0)),
            lon=lon_off(rng.uniform(-45.0, 45.0)),
            radius=rng.uniform(7.0, 14.0),
        )
    if "window" in kinds:
        span = (span_end - T0).total_seconds()
        a, b = sorted((rng.uniform(0, span), rng.uniform(0, span)))
        window = TimeWindow(
            start=T0 + timedelta(seconds=a), end=T0 + timedelta(seconds=max(b, a + 1.0))
        )
    if "marker" in kinds:
        marker = MarkerCondition(marker_id=rng.choice(MARKER_IDS))
    if specificity is None:
        specificity = rng.choice((Specificity.SPECIFIC, Specificity.FLEXIBLE))
    return TriggerSchedule(geofence=geofence, window=window, marker=marker, specificity=specificity)


def random_messages(
    rng: random.Random,
    span_end: datetime,
    *,
    max_messages: int = 20,
    recipient: str = "r1",
) -> list[ArMessage]:
    ids = IdFactory(rng.randrange(2**31))
    content_ids = [item.content_id for item in catalog()]
    messages = []
    for i in range(rng.randint(1, max_messages)):
        roll = rng.randrange(6)
        if roll == 0:
            schedule = None
        elif roll == 1:
            schedule = TriggerSchedule(geofence=random_schedule(rng, span_end, min_conditions=3).geofence)
        elif roll == 2:
            schedule = TriggerSchedule(window=random_schedule(rng, span_end, min_conditions=3).window)
        elif roll == 3:
            schedule = TriggerSchedule(marker=MarkerCondition(rng.choice(MARKER_IDS)))
        else:
            schedule = random_schedule(rng, span_end, min_conditions=2)
        created_at = T0 - timedelta(seconds=rng.randint(1, 600))
        messages.append(
            ArMessage(
                message_id=ids(created_at),
                sender_id="s1",
                recipient_id=recipient,
                content_id=rng.choice(content_ids),
                scale=round(rng.uniform(0.1, 10.0), 2),
                voice_note=VoiceNote(duration=rng.uniform(0.5, 10.0), transcript=f"note {i}"),
                schedule=schedule,
                created_at=created_at,
            )
        )
    return messages


def random_scenario_dict(rng: random.Random, name: str) -> dict:
    """A small but fully valid scenario exercising the whole service."""
    end_s = rng.randint(120, 480)
    tick = rng.choice((1.0, 2.0, 5.0))
    end = T0 + timedelta(seconds=end_s)

    markers = [
        {
            "marker_id": mk,
            "position": {"lat": lat_off(rng.uniform(-60, 60)), "lon": lon_off(rng.uniform(-60, 60))},
        }
        for mk in rng.sample(MARKER_IDS, k=rng.randint(1, 3))
    ]
    marker_ids = [m["marker_id"] for m in markers]

    n_waypoints = rng.randint(2, 5)
    times = sorted(rng.sample(range(1, end_s), k=n_waypoints - 1))
    waypoint_times = [0] + times
    trajectory = [
        {
            "t": format_rfc3339(T0 + timedelta(seconds=s)),
            "lat": lat_off(rng.uniform(-80, 80)),
            "lon": lon_off(rng.uniform(-80, 80)),
        }
        for s in waypoint_times
    ]
    trajectory.append(
        {"t": format_rfc3339(end), "lat": trajectory[-1]["lat"], "lon": trajectory[-1]["lon"]}
    )

    sessions = []
    cursor = 0
    while cursor < end_s - 20 and len(sessions) < 3:
        start = cursor + rng.randint(0, 30)
        stop = start + rng.randint(10, 120)
        if start >= end_s:
            break
        stop = min(stop, end_s)
        if stop <= start:
            break
        sessions.append(
            {
                "start": format_rfc3339(T0 + timedelta(seconds=start)),
                "end": format_rfc3339(T0 + timedelta(seconds=stop)),
            }
        )
        cursor = stop + rng.randint(5, 40)

    content_ids = [item.content_id for item in catalog()]
    script = []
    for i in range(rng.randint(1, 8)):
        roll = rng.randrange(6)
        schedule = None
        if roll == 1:
            g = random_schedule(rng, end, min_conditions=3).geofence
            schedule = {"geofence": {"center": {"lat": g.lat, "lon": g.lon}, "radius": g.radius}}
        elif roll == 2:
            w = random_schedule(rng, end, min_conditions=3).window
            schedule = {"window": {"start": format_rfc3339(w.start), "end": format_rfc3339(w.end)}}
        elif roll == 3:
            schedule = {"marker": {"marker_id": rng.choice(marker_ids)}}
        elif roll >= 4:
            s = random_schedule(rng, end, min_conditions=2)
            schedule = {}
            if s.geofence:
                schedule["geofence"] = {
                    "center": {"lat": s.geofence.lat, "lon": s.geofence.lon},
                    "radius": s.geofence.radius,
                }
            if s.window:
                schedule["window"] = {
                    "start": format_rfc3339(s.window.start),
                    "end": format_rfc3339(s.window.end),
                }
            if s.marker:
                schedule["marker"] = {"marker_id": rng.choice(marker_ids)}
            if sum(k in schedule for k in ("geofence", "window", "marker")) >= 2:
                schedule["specificity"] = s.specificity.value
        script.append(
            {
                "at": format_rfc3339(T0 + timedelta(seconds=rng.randint(-60, end_s - 1))),
                "label": f"m{i}",
                "sender_id": "sx",
                "recipient_id": "r1",
                "content_id": rng.choice(content_ids),
                "scale": 1.0,
                "voice_note": {"duration": 2.0, "transcript": f"sentinel::{name}::{i}"},
                "schedule": schedule,
            }
        )

    by_label = {
        f"m{i}": rng.choice(("yes", "no")) for i in range(len(script)) if rng.random() < 0.5
    }
    return {
        "v": 1,
        "name": name,
        "seed": rng.randrange(2**31),
        "tick": tick,
        "end": format_rfc3339(end),
        "markers": markers,
        "recipients": [
            {"principal": "r1", "wear_sessions": sessions, "trajectory": trajectory}
        ],
        "sender_script": script,
        "consent_policy": {"default": rng.choice(("yes", "no")), "by_label": by_label},
    }
