"""Deterministic scenario simulator.

A scenario file describes recipients (wear sessions + GPS trajectory),
markers, a scripted sender, and a consent policy. ``run`` boots an in-process
delivery service, sends it every request frame in global timestamp order as
a scripted client would, and returns the complete frame log. Two runs of the
same scenario produce byte-identical logs: ids derive from the scenario seed
and time never comes from the wall clock.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import count
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, Mapping

from . import protocol
from .engine import ContextSample, grid_cell, grid_neighbours, haversine_distance, sample_to_dict
from .errors import ParseError, WandRelayError
from .ids import IdFactory
from .model import (
    MessageState,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    catalog_item,
    compose,
    message_to_dict,
    schedule_from_dict,
    validate_parties_and_scale,
    validate_schedule,
    voice_note_from_dict,
)
from .service import DeliveryService
from .storage import check_principal
from .timeutil import format_rfc3339, parse_rfc3339

SCENARIO_VERSION = 1
MARKER_VISIBILITY_M = 5.0  # a marker is "in view" within this distance
UTTERANCE_DELAY_S = 2.0  # scripted recipients speak this long after a capture starts


@dataclass(frozen=True, slots=True)
class MarkerSpec:
    marker_id: str
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
class Waypoint:
    t: datetime
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
class RecipientSpec:
    principal: str
    wear_sessions: tuple[TimeWindow, ...]
    trajectory: tuple[Waypoint, ...]


@dataclass(frozen=True, slots=True)
class SenderAction:
    at: datetime
    label: str
    sender_id: str
    recipient_id: str
    content_id: str
    scale: float
    voice_note: VoiceNote
    schedule: TriggerSchedule | None


@dataclass(frozen=True, slots=True)
class ConsentPolicy:
    default_yes: bool = True
    by_label: Mapping[str, bool] = field(default_factory=dict)

    def answer_for(self, label: str) -> bool:
        return self.by_label.get(label, self.default_yes)


@dataclass(frozen=True, slots=True)
class Scenario:
    name: str
    seed: int
    tick: float
    end: datetime
    markers: tuple[MarkerSpec, ...]
    recipients: tuple[RecipientSpec, ...]
    sender_script: tuple[SenderAction, ...]
    consent_policy: ConsentPolicy

    @property
    def marker_ids(self) -> frozenset[str]:
        return frozenset(m.marker_id for m in self.markers)

    @property
    def sender_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for action in self.sender_script:
            seen.setdefault(action.sender_id)
        return tuple(seen)


@dataclass(slots=True)
class RunResult:
    """Output of one simulation: the ordered frame log plus bookkeeping."""

    frames: list[dict[str, Any]]
    final_states: dict[str, MessageState]  # message_id -> terminal state


# -- scenario parsing --------------------------------------------------------------


def _require(d: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in d:
        raise ParseError(f"{where}: missing field {key!r}")
    return d[key]


def _coord(obj: Mapping[str, Any], where: str) -> tuple[float, float]:
    try:
        lat, lon = float(obj["lat"]), float(obj["lon"])
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{where}: expected {{lat, lon}} numbers") from None
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise ParseError(f"{where}: ({lat}, {lon}) outside valid range")
    return lat, lon


def scenario_from_dict(doc: Mapping[str, Any], *, source: str = "<scenario>") -> Scenario:
    if doc.get("v") != SCENARIO_VERSION:
        raise ParseError(f"{source}: unsupported scenario version {doc.get('v')!r}")
    name = str(doc.get("name", Path(source).stem))
    try:
        seed = int(_require(doc, "seed", source))
        tick = float(doc.get("tick", 1.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{source}: {exc}") from None
    if not 1e-6 <= tick < math.inf:  # sample times resolve to the microsecond
        raise ParseError(f"{source}: tick must be a finite number of seconds, at least 1e-06, got {tick}")
    end = parse_rfc3339(_require(doc, "end", source))

    markers: list[MarkerSpec] = []
    seen_markers: set[str] = set()
    for i, m in enumerate(doc.get("markers", [])):
        where = f"{source}: markers[{i}]"
        marker_id = str(_require(m, "marker_id", where))
        if marker_id in seen_markers:
            raise ParseError(f"{where}: duplicate marker_id {marker_id!r}")
        seen_markers.add(marker_id)
        lat, lon = _coord(_require(m, "position", where), where)
        markers.append(MarkerSpec(marker_id=marker_id, lat=lat, lon=lon))

    recipients: list[RecipientSpec] = []
    recipient_ids: set[str] = set()
    for i, r in enumerate(_require(doc, "recipients", source)):
        where = f"{source}: recipients[{i}]"
        principal = str(_require(r, "principal", where))
        try:
            check_principal(principal)  # as the service's HELLO will
        except ParseError as exc:
            raise ParseError(f"{where}: {exc.detail}") from None
        if principal in recipient_ids:
            raise ParseError(f"{where}: duplicate principal {principal!r}")
        recipient_ids.add(principal)

        sessions: list[TimeWindow] = []
        for j, w in enumerate(_require(r, "wear_sessions", where)):
            try:
                window = TimeWindow(
                    start=parse_rfc3339(_require(w, "start", f"{where}.wear_sessions[{j}]")),
                    end=parse_rfc3339(_require(w, "end", f"{where}.wear_sessions[{j}]")),
                )
            except WandRelayError as exc:
                raise ParseError(f"{where}.wear_sessions[{j}]: {exc.detail}") from None
            if sessions and window.start <= sessions[-1].end:
                raise ParseError(f"{where}.wear_sessions[{j}]: sessions must be sorted and disjoint")
            sessions.append(window)

        waypoints: list[Waypoint] = []
        for j, wp in enumerate(_require(r, "trajectory", where)):
            wp_where = f"{where}.trajectory[{j}]"
            t = parse_rfc3339(_require(wp, "t", wp_where))
            lat, lon = _coord(wp, wp_where)
            if waypoints and t <= waypoints[-1].t:
                raise ParseError(f"{wp_where}: waypoint times must be strictly increasing")
            waypoints.append(Waypoint(t=t, lat=lat, lon=lon))
        if not waypoints:
            raise ParseError(f"{where}: trajectory must have at least one waypoint")
        if sessions and waypoints[0].t > sessions[0].start:
            raise ParseError(f"{where}: trajectory must start at or before the first wear session")
        if waypoints[-1].t < end:
            raise ParseError(f"{where}: trajectory must extend to the scenario end")
        recipients.append(
            RecipientSpec(principal=principal, wear_sessions=tuple(sessions), trajectory=tuple(waypoints))
        )
    if not recipients:
        raise ParseError(f"{source}: at least one recipient is required")

    actions: list[SenderAction] = []
    labels: set[str] = set()
    for i, a in enumerate(doc.get("sender_script", [])):
        where = f"{source}: sender_script[{i}]"
        label = str(a.get("label", f"msg{i}"))
        if label in labels:
            raise ParseError(f"{where}: duplicate label {label!r}")
        labels.add(label)
        at = parse_rfc3339(_require(a, "at", where))
        if at >= end:
            raise ParseError(f"{where}: submission at {format_rfc3339(at)} is not before the scenario end")
        sender_id = str(_require(a, "sender_id", where))
        recipient_id = str(_require(a, "recipient_id", where))
        if recipient_id not in recipient_ids:
            raise ParseError(f"{where}: recipient {recipient_id!r} is not declared")
        content_id = str(_require(a, "content_id", where))
        try:
            catalog_item(content_id)
        except WandRelayError:
            raise ParseError(f"{where}: unknown content {content_id!r}") from None
        try:
            scale = float(a.get("scale", 1.0))
        except (TypeError, ValueError):
            raise ParseError(f"{where}: scale must be a number, got {a.get('scale')!r}") from None
        try:
            check_principal(sender_id)
            validate_parties_and_scale(sender_id, recipient_id, scale)
            voice_note = voice_note_from_dict(_require(a, "voice_note", where))
            schedule = None
            if a.get("schedule") is not None:
                schedule = schedule_from_dict(a["schedule"])
                validate_schedule(schedule, seen_markers)
        except WandRelayError as exc:
            raise ParseError(f"{where}: {exc.code}: {exc.detail}") from None
        actions.append(
            SenderAction(
                at=at,
                label=label,
                sender_id=sender_id,
                recipient_id=recipient_id,
                content_id=content_id,
                scale=scale,
                voice_note=voice_note,
                schedule=schedule,
            )
        )

    policy_doc = doc.get("consent_policy", {})
    default = str(policy_doc.get("default", "yes")).lower()
    if default not in ("yes", "no"):
        raise ParseError(f"{source}: consent default must be yes or no")
    by_label: dict[str, bool] = {}
    for label, answer in policy_doc.get("by_label", {}).items():
        if label not in labels:
            raise ParseError(f"{source}: consent override for unknown label {label!r}")
        answer = str(answer).lower()
        if answer not in ("yes", "no"):
            raise ParseError(f"{source}: consent answer for {label!r} must be yes or no")
        by_label[label] = answer == "yes"

    return Scenario(
        name=name,
        seed=seed,
        tick=tick,
        end=end,
        markers=tuple(markers),
        recipients=tuple(recipients),
        sender_script=tuple(actions),
        consent_policy=ConsentPolicy(default_yes=default == "yes", by_label=by_label),
    )


def load_json_object(path: str | Path) -> dict[str, Any]:
    """Read a file holding one JSON object; any failure is a ParseError naming the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(load_json_object(path), source=str(path))


# -- context stream -------------------------------------------------------------------


def sample_stream(scenario: Scenario, recipient: RecipientSpec) -> Iterator[ContextSample]:
    """One sample per tick from the trajectory start to the scenario end.

    The position is piecewise linear between waypoints and clamped at both
    ends; the glasses are worn inside any wear session, both bounds
    included. Sample times only increase, so a cursor into the waypoints and
    one into the wear sessions (sorted and disjoint, as
    ``scenario_from_dict`` checks) only move forward. A sample at the
    previous sample's position sees the same markers, so it reuses that set.
    """
    trajectory, sessions = recipient.trajectory, recipient.wear_sessions
    start, last = trajectory[0].t, len(trajectory) - 1
    # Each marker under its 8 neighbouring cells: a sample within range of
    # it lies in one of them, so one probe of the sample's own cell finds it.
    markers: dict[tuple[int, int, int], list[MarkerSpec]] = {}
    for m in scenario.markers:
        for cell in grid_neighbours(m.lat, m.lon):
            markers.setdefault(cell, []).append(m)
    i = w = 0  # the waypoint at or before t, and the first session not over before t
    position, visible = None, frozenset()
    k = 0
    while True:
        t = start + timedelta(seconds=k * scenario.tick)
        if t > scenario.end:
            return
        while i < last and trajectory[i + 1].t <= t:
            i += 1
        a = trajectory[i]
        if t <= start or i == last:
            lat, lon = a.lat, a.lon
        else:
            b = trajectory[i + 1]
            frac = (t - a.t).total_seconds() / (b.t - a.t).total_seconds()
            lat, lon = a.lat + (b.lat - a.lat) * frac, a.lon + (b.lon - a.lon) * frac
        while w < len(sessions) and sessions[w].end < t:
            w += 1
        wearing = w < len(sessions) and sessions[w].start <= t
        if (lat, lon) != position:
            position = lat, lon
            visible = frozenset(
                m.marker_id
                for m in markers.get(grid_cell(lat, lon), ())
                if haversine_distance(m.lat, m.lon, lat, lon) <= MARKER_VISIBILITY_M
            )
        yield ContextSample(
            recipient_id=recipient.principal,
            t=t,
            lat=lat,
            lon=lon,
            wearing=wearing,
            visible_markers=visible,
        )
        k += 1


# -- the run loop ------------------------------------------------------------------------

# Frames due at the same instant go in this order: submissions, samples, utterances, answers.
_PRIORITY = {protocol.SUBMIT: 0, protocol.CONTEXT: 1, protocol.REACTION_FRAME: 2, protocol.CONSENT: 3}


def run(
    scenario: Scenario,
    *,
    store=None,
    log_path: str | Path | None = None,
) -> RunResult:
    """Execute a scenario end to end and return the complete frame log.

    The simulator is a scripted client: it queues every request frame by the
    time it is due and sends them in order, adding the recipient's utterance
    and answer whenever a response starts a reaction capture.
    """
    recorder = protocol.FrameRecorder(log_path)
    service = DeliveryService(store, declared_markers=scenario.marker_ids, recorder=recorder)
    for principal in sorted(set(scenario.sender_ids) | {r.principal for r in scenario.recipients}):
        service.register_principal(principal)

    def send(kind: str, payload: dict[str, Any], sender: str) -> list[dict[str, Any]]:
        responses = service.handle_frame(protocol.make_frame(kind, payload, sender=sender))
        for response in responses:
            if response["kind"] == protocol.ERROR:
                error = response["payload"]
                raise RuntimeError(
                    f"scenario {scenario.name}: {kind} from {sender} rejected: "
                    f"{error['code']}: {error['detail']}"
                )
        return responses

    heap: list[tuple[datetime, int, int, str, dict[str, Any], str]] = []
    seq = count()

    def push(t: datetime, kind: str, payload: dict[str, Any], sender: str) -> None:
        heapq.heappush(heap, (t, _PRIORITY[kind], next(seq), kind, payload, sender))

    ids = IdFactory(scenario.seed)
    answers: dict[str, str] = {}  # message_id -> the recipient's consent answer
    for action in sorted(scenario.sender_script, key=attrgetter("at")):
        message = compose(
            action.sender_id,
            action.recipient_id,
            action.content_id,
            action.scale,
            action.voice_note,
            action.schedule,
            declared_markers=scenario.marker_ids,
            now=action.at,
            id_factory=ids,
        )
        answers[message.message_id] = "yes" if scenario.consent_policy.answer_for(action.label) else "no"
        push(action.at, protocol.SUBMIT, {"message": message_to_dict(message)}, action.sender_id)
    for recipient in scenario.recipients:
        send(protocol.HELLO, {"role": "recipient", "principal": recipient.principal}, recipient.principal)
        for sample in sample_stream(scenario, recipient):
            push(sample.t, protocol.CONTEXT, {"sample": sample_to_dict(sample)}, recipient.principal)

    while heap:
        t, _priority, _seq, kind, payload, sender = heapq.heappop(heap)
        if t > scenario.end:
            break
        for response in send(kind, payload, sender):
            if response["kind"] != protocol.REACTION_START:
                continue
            start, recipient_id = response["payload"], response["to"]
            message_id, deadline = start["message_id"], parse_rfc3339(start["deadline"])
            utter_at = parse_rfc3339(start["started_at"]) + timedelta(seconds=UTTERANCE_DELAY_S)
            if utter_at <= deadline:
                utterance = {
                    "message_id": message_id,
                    "t": format_rfc3339(utter_at),
                    "transcript": f"utt::{message_id}",
                }
                push(utter_at, protocol.REACTION_FRAME, utterance, recipient_id)
            consent = {"message_id": message_id, "answer": answers[message_id], "t": start["deadline"]}
            push(deadline, protocol.CONSENT, consent, recipient_id)

    service.end_of_run(scenario.end)
    for sender_id in sorted(scenario.sender_ids):
        send(protocol.SENDER_VIEW_REQ, {"sender_id": sender_id}, sender_id)
    service.close()
    recorder.close()
    return RunResult(frames=recorder.frames, final_states=service.message_states())
