"""Independent reference implementations used to cross-check the package.

Deliberately written from scratch: a different haversine formulation, a
per-(message, sample) brute-force delivery scan, sort-based median with
two-pass mean/sd, raw-dict log recounting, a standalone waypoint
interpolator, and the simulator's former bisecting position lookup. Nothing
here imports the code paths it verifies.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import datetime
from math import asin, cos, radians, sin, sqrt

from wandrelay.model import ArMessage, Specificity
from wandrelay.engine import ContextSample

ORACLE_EARTH_RADIUS_M = 6_371_000.0


def oracle_haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine via the asin form (the engine uses atan2)."""
    p1, p2 = radians(lat1), radians(lat2)
    h = sin(radians(lat2 - lat1) / 2) ** 2 + cos(p1) * cos(p2) * sin(radians(lon2 - lon1) / 2) ** 2
    return 2 * ORACLE_EARTH_RADIUS_M * asin(sqrt(h))


def oracle_condition_flags(message: ArMessage, sample: ContextSample) -> dict[str, bool]:
    """Recompute every declared condition for one (message, sample) pair."""
    schedule = message.schedule
    flags: dict[str, bool] = {}
    if schedule.geofence is not None:
        g = schedule.geofence
        flags["geofence"] = oracle_haversine(g.lat, g.lon, sample.lat, sample.lon) <= g.radius
    if schedule.window is not None:
        flags["window"] = schedule.window.start <= sample.t <= schedule.window.end
    if schedule.marker is not None:
        flags["marker"] = schedule.marker.marker_id in sample.visible_markers
    return flags


def brute_force_deliveries(messages: list[ArMessage], samples: list[ContextSample]) -> dict[str, datetime]:
    """First qualifying sample per message, every pair tested independently.

    Returns message_id -> delivered_at; undelivered messages are absent.
    """
    out: dict[str, datetime] = {}
    for message in messages:
        for sample in samples:
            if not sample.wearing:
                continue
            if message.schedule is None:
                out[message.message_id] = sample.t
                break
            values = list(oracle_condition_flags(message, sample).values())
            if message.schedule.specificity is Specificity.SPECIFIC:
                fired = all(values)
            else:
                fired = any(values)
            if fired:
                out[message.message_id] = sample.t
                break
    return out


def naive_median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def naive_mean(values: list[float]) -> float:
    return sum(values) / len(values)


def naive_sample_sd(values: list[float]) -> float:
    m = naive_mean(values)
    return sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def oracle_interpolate(waypoints: list[tuple[float, float, float]], t: float) -> tuple[float, float]:
    """Linear interpolation over (t_seconds, lat, lon) tuples, clamped."""
    if t <= waypoints[0][0]:
        return waypoints[0][1], waypoints[0][2]
    if t >= waypoints[-1][0]:
        return waypoints[-1][1], waypoints[-1][2]
    for (t0, lat0, lon0), (t1, lat1, lon1) in zip(waypoints, waypoints[1:]):
        if t0 <= t <= t1:
            f = (t - t0) / (t1 - t0)
            return lat0 + f * (lat1 - lat0), lon0 + f * (lon1 - lon0)
    raise AssertionError("unreachable")


def bisect_position(trajectory, t):
    """The position along waypoints (with ``t``, ``lat``, ``lon``), clamped at both ends.

    The simulator's lookup before its forward cursor: bisect a fresh list of
    the waypoint times on every call. The same arithmetic, so positions agree
    bit for bit.
    """
    if t <= trajectory[0].t:
        return trajectory[0].lat, trajectory[0].lon
    if t >= trajectory[-1].t:
        return trajectory[-1].lat, trajectory[-1].lon
    times = [wp.t for wp in trajectory]
    i = bisect_right(times, t) - 1
    a, b = trajectory[i], trajectory[i + 1]
    frac = (t - a.t).total_seconds() / (b.t - a.t).total_seconds()
    return a.lat + (b.lat - a.lat) * frac, a.lon + (b.lon - a.lon) * frac


def worn(sessions, t) -> bool:
    """Inside any wear session (with ``start``, ``end``), both bounds included."""
    return any(w.start <= t <= w.end for w in sessions)


def recount_pairs(frames_groups: list[list[dict]]) -> dict[str, dict[str, tuple[int, int]]]:
    """Recount sent/delivered per pair per category straight off raw frames.

    Works on plain dicts: categorization re-derived from the schedule JSON,
    delivery from PLAYBACK frames only.
    """
    sent_category: dict[str, str] = {}
    pair_of: dict[str, str] = {}
    playback: set[str] = set()
    for frames in frames_groups:
        for frame in frames:
            if frame["kind"] == "SUBMIT":
                msg = frame["payload"]["message"]
                schedule = msg["schedule"]
                if schedule is None:
                    cat = "direct"
                else:
                    conds = [k for k in ("geofence", "window", "marker") if schedule.get(k) is not None]
                    if len(conds) >= 2:
                        cat = "specific" if schedule["specificity"] == "Specific" else "flexible"
                    elif conds == ["geofence"]:
                        cat = "location"
                    elif conds == ["window"]:
                        cat = "time"
                    else:
                        cat = "marker"
                mid = msg["message_id"]
                sent_category[mid] = cat
                pair_of[mid] = f"{msg['sender_id']}/{msg['recipient_id']}"
            elif frame["kind"] == "PLAYBACK":
                playback.add(frame["payload"]["message_id"])
    out: dict[str, dict[str, tuple[int, int]]] = {}
    for mid, cat in sent_category.items():
        pair = out.setdefault(pair_of[mid], {})
        sent, delivered = pair.get(cat, (0, 0))
        pair[cat] = (sent + 1, delivered + (1 if mid in playback else 0))
    return out
