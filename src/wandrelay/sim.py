"""Deterministic scenario simulator.

A scenario file describes recipients (wear sessions + GPS trajectory),
markers, a scripted sender, and a consent policy. ``run`` boots an in-process
delivery service, sends it every request frame in global timestamp order as
a scripted client would, and returns the complete frame log. Two runs of the
same scenario produce byte-identical logs: ids derive from the scenario seed
and time never comes from the wall clock.

One walk of a recipient's trajectory, ``_track``, feeds both views of its
samples: ``run`` builds each CONTEXT document straight from it through
``engine.sample_payload``, and ``sample_stream`` yields the same samples as
``ContextSample`` values for callers that read their fields.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import count
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, Mapping

from . import protocol
from .engine import ContextSample, grid_cell, grid_neighbours, haversine_distance, sample_payload
from .engine import sample_to_dict  # unused here: the benchmark's tracer wraps it by this name
from .errors import ParseError, WandRelayError
from .ids import IdFactory
from .model import (
    MessageState,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    check_new_message,
    check_position,
    compose,
    message_to_dict,
    schedule_from_dict,
    voice_note_from_dict,
)
from .reaction import LAST_CAPTURE_START
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

    def __post_init__(self) -> None:
        check_position(self.lat, self.lon)


@dataclass(frozen=True, slots=True)
class Waypoint:
    t: datetime
    lat: float
    lon: float

    def __post_init__(self) -> None:
        check_position(self.lat, self.lon)


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


@contextmanager
def _at(where: str) -> Iterator[None]:
    """Read one scenario element: whatever it raises leaves as one ParseError naming ``where``.

    A ParseError keeps its detail and any other WandRelayError adds its code,
    so scopes nest: ``<source>: recipients[0]: trajectory[2]: <detail>``.
    """
    try:
        yield
    except ParseError as exc:
        raise ParseError(f"{where}: {exc.detail}") from None
    except WandRelayError as exc:
        raise ParseError(f"{where}: {exc.code}: {exc.detail}") from None
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _list(doc: Mapping[str, Any], key: str, default: list[Any] | None = None) -> list[Any]:
    """A field holding a JSON array; required when there is no default."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list, got {type(value).__name__}")
    return value


def scenario_from_dict(doc: Mapping[str, Any], *, source: str = "<scenario>") -> Scenario:
    """A scenario from its JSON document; any fault is one ParseError naming ``source`` and the element."""
    with _at(source):
        if doc.get("v") != SCENARIO_VERSION:
            raise ParseError(f"unsupported scenario version {doc.get('v')!r}")
        name = str(doc.get("name", Path(source).stem))
        seed = int(doc["seed"])
        tick = float(doc.get("tick", 1.0))
        if not 1e-6 <= tick < math.inf:  # sample times resolve to the microsecond
            raise ParseError(f"tick must be a finite number of seconds, at least 1e-06, got {tick}")
        end = parse_rfc3339(doc["end"])
        if end > LAST_CAPTURE_START:
            raise ParseError(f"end is after {format_rfc3339(LAST_CAPTURE_START)}, the last capture start")

        markers: dict[str, MarkerSpec] = {}
        for i, m in enumerate(_list(doc, "markers", [])):
            with _at(f"markers[{i}]"):
                marker_id = str(m["marker_id"])
                if marker_id in markers:
                    raise ParseError(f"duplicate marker_id {marker_id!r}")
                markers[marker_id] = MarkerSpec(marker_id, float(m["position"]["lat"]), float(m["position"]["lon"]))

        recipients: dict[str, RecipientSpec] = {}
        for i, r in enumerate(_list(doc, "recipients")):
            with _at(f"recipients[{i}]"):
                principal = str(r["principal"])
                check_principal(principal)  # as the service's HELLO will
                if principal in recipients:
                    raise ParseError(f"duplicate principal {principal!r}")
                sessions: list[TimeWindow] = []
                for j, w in enumerate(_list(r, "wear_sessions")):
                    with _at(f"wear_sessions[{j}]"):
                        sessions.append(TimeWindow(start=parse_rfc3339(w["start"]), end=parse_rfc3339(w["end"])))
                        if j and sessions[j].start <= sessions[j - 1].end:
                            raise ParseError("sessions must be sorted and disjoint")
                waypoints: list[Waypoint] = []
                for j, wp in enumerate(_list(r, "trajectory")):
                    with _at(f"trajectory[{j}]"):
                        waypoints.append(Waypoint(parse_rfc3339(wp["t"]), float(wp["lat"]), float(wp["lon"])))
                        if j and waypoints[j].t <= waypoints[j - 1].t:
                            raise ParseError("waypoint times must be strictly increasing")
                if not waypoints:
                    raise ParseError("trajectory must have at least one waypoint")
                if sessions and waypoints[0].t > sessions[0].start:
                    raise ParseError("trajectory must start at or before the first wear session")
                if waypoints[-1].t < end:
                    raise ParseError("trajectory must extend to the scenario end")
                recipients[principal] = RecipientSpec(principal, tuple(sessions), tuple(waypoints))
        if not recipients:
            raise ParseError("at least one recipient is required")

        actions: dict[str, SenderAction] = {}  # by label
        for i, a in enumerate(_list(doc, "sender_script", [])):
            with _at(f"sender_script[{i}]"):
                label = str(a.get("label", f"msg{i}"))
                if label in actions:
                    raise ParseError(f"duplicate label {label!r}")
                at = parse_rfc3339(a["at"])
                if at >= end:
                    raise ParseError(f"submission at {format_rfc3339(at)} is not before the scenario end")
                sender_id, recipient_id = str(a["sender_id"]), str(a["recipient_id"])
                if recipient_id not in recipients:
                    raise ParseError(f"recipient {recipient_id!r} is not declared")
                check_principal(sender_id)
                content_id, scale = str(a["content_id"]), float(a.get("scale", 1.0))
                schedule = schedule_from_dict(a["schedule"]) if a.get("schedule") is not None else None
                check_new_message(sender_id, recipient_id, content_id, scale, schedule, markers)
                note = voice_note_from_dict(a["voice_note"])
                actions[label] = SenderAction(at, label, sender_id, recipient_id, content_id, scale, note, schedule)

        with _at("consent_policy"):
            policy = doc.get("consent_policy", {})
            default = str(policy.get("default", "yes")).lower()
            if default not in ("yes", "no"):
                raise ParseError("consent default must be yes or no")
            by_label: dict[str, bool] = {}
            for label, answer in policy.get("by_label", {}).items():
                if label not in actions:
                    raise ParseError(f"consent override for unknown label {label!r}")
                answer = str(answer).lower()
                if answer not in ("yes", "no"):
                    raise ParseError(f"consent answer for {label!r} must be yes or no")
                by_label[label] = answer == "yes"

        return Scenario(
            name=name,
            seed=seed,
            tick=tick,
            end=end,
            markers=tuple(markers.values()),
            recipients=tuple(recipients.values()),
            sender_script=tuple(actions.values()),
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


def _track(
    scenario: Scenario, recipient: RecipientSpec
) -> Iterator[tuple[datetime, float, float, bool, frozenset[str], list[str]]]:
    """The trajectory walk: ``(t, lat, lon, wearing, visible, markers)`` per tick.

    One item per tick from the trajectory start to the scenario end. The
    position is piecewise linear between waypoints and clamped at both
    ends; the glasses are worn inside any wear session, both bounds
    included. Sample times only increase, so a cursor into the waypoints and
    one into the wear sessions (sorted and disjoint, as
    ``scenario_from_dict`` checks) only move forward. ``visible`` is the set
    of marker ids in view and ``markers`` the same ids sorted; both are
    computed when the position moves and reused, as the same objects, while
    it holds.
    """
    trajectory, sessions = recipient.trajectory, recipient.wear_sessions
    start, last = trajectory[0].t, len(trajectory) - 1
    # Each marker under its 8 neighbouring cells: a sample within range of
    # it lies in one of them, so one probe of the sample's own cell finds it.
    cells: dict[tuple[int, int, int], list[MarkerSpec]] = {}
    for m in scenario.markers:
        for cell in grid_neighbours(m.lat, m.lon):
            cells.setdefault(cell, []).append(m)
    i = w = 0  # the waypoint at or before t, and the first session not over before t
    position, visible, markers = None, frozenset(), []
    k = 0
    while True:
        try:
            t = start + timedelta(seconds=k * scenario.tick)
        except OverflowError:  # past the last datetime, so past the end
            return
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
                for m in cells.get(grid_cell(lat, lon), ())
                if haversine_distance(m.lat, m.lon, lat, lon) <= MARKER_VISIBILITY_M
            )
            markers = sorted(visible)
        yield t, lat, lon, wearing, visible, markers
        k += 1


def sample_stream(scenario: Scenario, recipient: RecipientSpec) -> Iterator[ContextSample]:
    """The recipient's samples, one per tick of ``_track``'s walk.

    ``run`` builds its CONTEXT documents from the same walk, so
    ``engine.sample_to_dict`` of each sample here equals the document
    ``run`` sends at that tick.
    """
    principal = recipient.principal
    for t, lat, lon, wearing, visible, _markers in _track(scenario, recipient):
        yield ContextSample(principal, t, lat, lon, wearing, visible)


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

    The simulator is a scripted client: it queues request frames by the time
    they are due and sends them in order, adding the recipient's utterance
    and answer whenever a response starts a reaction capture. Samples are
    merged lazily: the queue holds one sample per recipient, keyed by its
    time and the recipient's place in the scenario, and sending it queues
    that recipient's next one. Samples due at one instant therefore go in
    recipient order, and the queue never holds more samples than there are
    recipients. Each sample's CONTEXT document is built once, from
    ``_track``'s item, and consecutive documents at one position share
    one marker list; nothing mutates a recorded frame.

    A request the service refuses ends the run with a WandRelayError
    carrying the ERROR frame's code.

    Automatic garbage collection is paused for the run, in the whole
    process, and resumed as the caller had it. A run makes no reference
    cycles, so the collector would free nothing, yet every frame the log
    keeps holds tracked containers that full collections would walk again
    and again. On the way out one young collection pays for what the run
    allocated, so the caller's next allocation does not.
    """
    recorder = protocol.FrameRecorder(log_path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        service = DeliveryService(store, declared_markers=scenario.marker_ids, recorder=recorder)
        for principal in sorted(set(scenario.sender_ids) | {r.principal for r in scenario.recipients}):
            service.register_principal(principal)

        def send(kind: str, payload: dict[str, Any], sender: str) -> list[dict[str, Any]]:
            responses = service.handle_frame(protocol.make_frame(kind, payload, sender=sender))
            for response in responses:
                if response["kind"] == protocol.ERROR:
                    error = response["payload"]
                    detail = f"scenario {scenario.name}: {kind} from {sender} rejected: {error['detail']}"
                    raise WandRelayError(detail, code=error["code"])
            return responses

        # (due, priority, tie, kind, payload, sender): a sample's tie is its
        # recipient's index, any other frame's the order it was queued in.
        heap: list[tuple[datetime, int, int, str, dict[str, Any], str]] = []
        seq = count()

        def push(t: datetime, kind: str, payload: dict[str, Any], sender: str) -> None:
            heapq.heappush(heap, (t, _PRIORITY[kind], next(seq), kind, payload, sender))

        def pull(index: int) -> None:
            """Queue the next sample of the recipient at ``index``, if it has one."""
            item = next(tracks[index], None)
            if item is not None:
                t, lat, lon, wearing, _visible, markers = item
                principal = principals[index]
                payload = {"sample": sample_payload(principal, t, lat, lon, wearing, markers)}
                heapq.heappush(heap, (t, _PRIORITY[protocol.CONTEXT], index, protocol.CONTEXT, payload, principal))

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
        tracks = [_track(scenario, recipient) for recipient in scenario.recipients]
        principals = [recipient.principal for recipient in scenario.recipients]
        for index, recipient in enumerate(scenario.recipients):
            send(protocol.HELLO, {"role": "recipient", "principal": recipient.principal}, recipient.principal)
            pull(index)

        while heap:
            t, _priority, tie, kind, payload, sender = heapq.heappop(heap)
            if t > scenario.end:
                break
            if kind == protocol.CONTEXT:
                pull(tie)
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
        return RunResult(frames=recorder.frames, final_states=service.message_states())
    finally:
        recorder.close()
        if collecting:
            gc.enable()
            gc.collect(0)
