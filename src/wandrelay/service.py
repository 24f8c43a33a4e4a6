"""Store-and-forward delivery service.

Accepts submissions, ingests recipient context, drives the trigger engine,
runs the reaction-capture loop, and answers sender views. All mutations run
under one lock, which trivially satisfies the per-recipient serialization
contract at this scale; time comes exclusively from the frames themselves, so
the service is a deterministic function of its input frame sequence.

Privacy boundary: the only payloads ever addressed to a sender are ACK/ERROR,
REACTION_NOTIFY, and SENDER_VIEW_RESP, and those are built from
``SenderVisibleRecord`` / consented reaction records, which by construction
carry no coordinates, marker ids, or trigger-evaluation details.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime
from threading import RLock
from typing import Any

from . import protocol
from .engine import (
    ContextSample,
    evaluate_sample,
    expire_messages,
    sample_from_dict,
)
from .errors import (
    AlreadyReacted,
    DuplicateMessageId,
    NoSession,
    NotDelivered,
    OutOfOrderSample,
    ParseError,
    UnknownMessage,
    UnknownRecipient,
    WandRelayError,
)
from .model import (
    Anchor,
    ArMessage,
    MessageState,
    VoiceNote,
    catalog_item,
    message_from_dict,
    message_to_dict,
    validate_schedule,
    voice_note_to_dict,
)
from .reaction import (
    CaptureManager,
    CaptureSession,
    CaptureState,
    ReactionRecord,
    SceneFrame,
    Utterance,
    finalize,
    reaction_from_dict,
    reaction_to_dict,
)
from .storage import MemoryStore
from .timeutil import format_rfc3339, parse_rfc3339

FLASH_SECONDS = 0.5


@dataclass(frozen=True, slots=True)
class PlaybackEvent:
    """Recipient-bound playback: half-second flash, then the rendered content."""

    message_id: str
    delivered_at: datetime
    content_id: str
    anchor: Anchor
    scale: float
    voice_note: VoiceNote
    flash_seconds: float = FLASH_SECONDS

    def to_payload(self) -> dict[str, Any]:
        return {
            "message_id": self.message_id,
            "delivered_at": format_rfc3339(self.delivered_at),
            "events": [
                {"kind": "flash", "duration": self.flash_seconds},
                {
                    "kind": "render",
                    "content_id": self.content_id,
                    "anchor": self.anchor.value,
                    "scale": self.scale,
                },
            ],
            "voice_note": voice_note_to_dict(self.voice_note),
        }


@dataclass(frozen=True, slots=True)
class SenderVisibleRecord:
    """Everything a sender may learn about one of their messages."""

    message_id: str
    state: MessageState
    delivered_at: datetime | None = None
    reaction: ReactionRecord | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"message_id": self.message_id, "state": self.state.value}
        if self.delivered_at is not None:
            out["delivered_at"] = format_rfc3339(self.delivered_at)
        if self.reaction is not None:
            out["reaction"] = reaction_to_dict(self.reaction)
        return out


# Stored event kind -> the state that event moves its message to.
_TRANSITIONS = {
    "delivered": MessageState.DELIVERED,
    "expired": MessageState.EXPIRED,
    "reacted": MessageState.REACTED,
    "declined": MessageState.REACTION_DECLINED,
}


def _field(payload: dict[str, Any], name: str, kind: type) -> Any:
    """One request payload field, checked against its JSON type."""
    value = payload.get(name)
    if not isinstance(value, kind):
        raise ParseError(f"payload field {name!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _scene_frame(sample: ContextSample) -> SceneFrame:
    return SceneFrame(t=sample.t, lat=sample.lat, lon=sample.lon, visible_markers=sample.visible_markers)


def _reaction_start(session: CaptureSession, to: str) -> dict[str, Any]:
    return protocol.make_frame(
        protocol.REACTION_START,
        {
            "message_id": session.message_id,
            "started_at": format_rfc3339(session.started_at),
            "deadline": format_rfc3339(session.deadline),
        },
        to=to,
    )


class DeliveryService:
    def __init__(
        self,
        store=None,
        *,
        declared_markers=None,
        recorder: protocol.FrameRecorder | None = None,
    ):
        self._store = store if store is not None else MemoryStore()
        self._recorder = recorder
        self._markers = set(declared_markers) if declared_markers is not None else None
        self._lock = RLock()

        self._principals: set[str] = set()
        self._messages: dict[str, ArMessage] = {}
        self._delivered_at: dict[str, datetime] = {}
        self._reactions: dict[str, ReactionRecord] = {}
        self._by_sender: dict[str, list[str]] = {}
        self._pending: dict[str, list[ArMessage]] = {}
        self._last_t: dict[str, datetime] = {}
        self._sessions: dict[str, int] = {}  # principal -> live session generation
        self._journal: dict[str, list[dict[str, Any]]] = {}
        self._captures = CaptureManager()
        self._active_capture: dict[str, CaptureSession] = {}
        self._capture_queue: dict[str, deque[str]] = {}  # message ids awaiting a capture

        self._recover()

    # -- events ----------------------------------------------------------------

    def _apply(self, recipient_id: str, event: dict[str, Any]) -> None:
        """Fold one stored event into the message states, queues and journal.

        The only code that changes them: live operations call it once the
        store holds the event, and recovery calls it for every stored event,
        so both run the same transitions.
        """
        kind = event["ev"]
        if kind == "enqueued":
            message = message_from_dict(event["message"])
            self._messages[message.message_id] = message
            self._by_sender.setdefault(message.sender_id, []).append(message.message_id)
            self._pending.setdefault(recipient_id, []).append(message)
        elif kind in _TRANSITIONS:
            message_id = event["message_id"]
            message = self._messages.get(message_id)
            if message is None:
                raise UnknownMessage(message_id)
            self._messages[message_id] = message.with_state(_TRANSITIONS[kind])
            if message.state is MessageState.PENDING:
                queue = self._pending[recipient_id]
                self._pending[recipient_id] = [m for m in queue if m.message_id != message_id]
            if kind == "delivered":
                self._delivered_at[message_id] = parse_rfc3339(event["at"])
            elif kind == "reacted":
                self._reactions[message_id] = reaction_from_dict(event["reaction"])
        else:
            raise ParseError(f"unknown stored event kind {kind!r}")
        self._journal.setdefault(recipient_id, []).append(event)

    def _record(self, recipient_id: str, event: dict[str, Any]) -> None:
        """Make the event durable, then apply it."""
        self._store.record_event(recipient_id, event)
        self._apply(recipient_id, event)

    def _recover(self) -> None:
        principals, journal = self._store.recover()
        self._principals.update(principals)
        for recipient_id, events in journal.items():
            for event in events:
                self._apply(recipient_id, event)

    def close(self) -> None:
        """Flush a snapshot of every queue and release the store."""
        with self._lock:
            self._store.snapshot(self._journal)
            self._store.close()

    # -- principals & sessions --------------------------------------------------

    def register_principal(self, principal: str) -> None:
        with self._lock:
            if principal not in self._principals:
                self._principals.add(principal)
                self._store.record_principal(principal)

    def open_session(self, recipient_id: str) -> int:
        """Open the live session for a recipient, superseding any earlier one.

        Returns a generation token; close_session with a stale token is a
        no-op, so a superseded connection going away cannot kill the live
        session.
        """
        with self._lock:
            self.register_principal(recipient_id)
            generation = self._sessions.get(recipient_id, 0) + 1
            self._sessions[recipient_id] = generation
            return generation

    def close_session(self, recipient_id: str, generation: int | None = None) -> None:
        with self._lock:
            current = self._sessions.get(recipient_id)
            if current is None:
                return
            if generation is None or generation == current:
                del self._sessions[recipient_id]

    def session_generation(self, recipient_id: str) -> int | None:
        return self._sessions.get(recipient_id)

    # -- operations -------------------------------------------------------------------

    def submit(self, message: ArMessage) -> dict[str, Any]:
        """Enqueue a valid Pending message; durable once acknowledged."""
        with self._lock:
            if message.recipient_id not in self._principals:
                raise UnknownRecipient(message.recipient_id)
            if message.message_id in self._messages:
                raise DuplicateMessageId(message.message_id)
            if message.state is not MessageState.PENDING:
                raise ParseError(f"submitted message must be Pending, got {message.state.value}")
            catalog_item(message.content_id)
            if message.schedule is not None:
                validate_schedule(message.schedule, self._markers)
            self._record(message.recipient_id, {"ev": "enqueued", "message": message_to_dict(message)})
            return {"message_id": message.message_id, "state": message.state.value}

    def _activate_capture(self, message_id: str, at: datetime) -> CaptureSession:
        message = self._messages[message_id]
        session = self._captures.begin_capture(message_id, started_at=at, voice_note=message.voice_note)
        self._active_capture[message.recipient_id] = session
        return session

    def push_context(self, sample: ContextSample) -> tuple[list[PlaybackEvent], list[CaptureSession]]:
        """Ingest one sample; returns (playback events, newly started captures)."""
        with self._lock:
            recipient_id = sample.recipient_id
            if recipient_id not in self._sessions:
                raise NoSession(recipient_id)
            expired, pending = expire_messages(sample.t, self._pending.get(recipient_id, []))
            deliveries, _ = evaluate_sample(sample, pending, self._last_t.get(recipient_id))
            self._last_t[recipient_id] = sample.t
            for message in expired:
                self._record(
                    recipient_id,
                    {"ev": "expired", "message_id": message.message_id, "at": format_rfc3339(sample.t)},
                )

            # The active capture keeps recording the point of view until its
            # deadline; at or past the deadline it flips to awaiting-consent.
            active = self._active_capture.get(recipient_id)
            if active is not None and active.state == CaptureState.RECORDING:
                if active.started_at <= sample.t <= active.deadline:
                    active.append_frame(_scene_frame(sample))
                active.mark_awaiting(sample.t)

            events: list[PlaybackEvent] = []
            started: list[CaptureSession] = []
            for delivery in deliveries:
                message_id = delivery.message_id
                self._record(
                    recipient_id,
                    {"ev": "delivered", "message_id": message_id, "at": format_rfc3339(delivery.delivered_at)},
                )
                message = self._messages[message_id]
                events.append(
                    PlaybackEvent(
                        message_id=message_id,
                        delivered_at=delivery.delivered_at,
                        content_id=message.content_id,
                        anchor=catalog_item(message.content_id).anchor,
                        scale=message.scale,
                        voice_note=message.voice_note,
                    )
                )
                active = self._active_capture.get(recipient_id)
                if active is None or active.state in (CaptureState.FORWARDED, CaptureState.DISCARDED):
                    session = self._activate_capture(message_id, delivery.delivered_at)
                    session.append_frame(_scene_frame(sample))
                    started.append(session)
                else:
                    # A capture is already running for this recipient; this
                    # delivery's capture starts once that one finalizes.
                    self._capture_queue.setdefault(recipient_id, deque()).append(message_id)
            return events, started

    def append_reaction_item(self, message_id: str, utterance: Utterance) -> None:
        """Add a recipient utterance to the message's capture session."""
        with self._lock:
            session = self._captures.get(message_id)
            if session is None:
                raise UnknownMessage(f"no capture session for {message_id}")
            try:
                session.append_utterance(utterance)
            except ValueError as exc:  # before the capture start or the previous utterance
                raise OutOfOrderSample(str(exc)) from None

    def consent(self, message_id: str, answer_yes: bool, at: datetime) -> tuple[ReactionRecord | None, list[CaptureSession]]:
        """Apply the Yes/No voice command; may start the next queued capture."""
        with self._lock:
            session = self._captures.get(message_id)
            if session is None:
                raise UnknownMessage(f"no capture session for {message_id}")
            session.mark_awaiting(at)
            record = finalize(session, answer_yes)
            recipient_id = self._messages[message_id].recipient_id
            if record is not None:
                self.notify_reaction(record)
            else:
                self._record(
                    recipient_id, {"ev": "declined", "message_id": message_id, "at": format_rfc3339(at)}
                )
            started: list[CaptureSession] = []
            if self._active_capture.get(recipient_id) is session:
                queue = self._capture_queue.get(recipient_id)
                if queue:
                    started.append(self._activate_capture(queue.popleft(), at))
                else:
                    self._active_capture.pop(recipient_id, None)
            return record, started

    def notify_reaction(self, record: ReactionRecord) -> None:
        """Attach a consented reaction to its Delivered message."""
        with self._lock:
            message = self._messages.get(record.message_id)
            if message is None:
                raise UnknownMessage(record.message_id)
            if message.state in (MessageState.REACTED, MessageState.REACTION_DECLINED):
                raise AlreadyReacted(record.message_id)
            if message.state is not MessageState.DELIVERED:
                raise NotDelivered(f"{record.message_id} is {message.state.value}")
            if record.consent != "Yes":
                raise ValueError("only consented reactions can be forwarded")
            self._record(
                message.recipient_id,
                {"ev": "reacted", "message_id": record.message_id, "reaction": reaction_to_dict(record)},
            )

    def sender_view(self, sender_id: str) -> list[SenderVisibleRecord]:
        """One record per message this sender submitted, oldest first."""
        with self._lock:
            records = []
            for message_id in self._by_sender.get(sender_id, []):
                message = self._messages[message_id]
                records.append(
                    SenderVisibleRecord(
                        message_id=message_id,
                        state=message.state,
                        delivered_at=self._delivered_at.get(message_id),
                        reaction=self._reactions.get(message_id),
                    )
                )
            records.sort(key=lambda r: (self._messages[r.message_id].created_at, r.message_id))
            return records

    def end_of_run(self, at: datetime) -> list[str]:
        """Scenario end: expire whatever is still pending, discard open captures.

        The privacy-preserving default applies to any capture without an
        answer: it is discarded and the message marked ReactionDeclined.
        Returns the ids of messages expired here.
        """
        with self._lock:
            stamp = format_rfc3339(at)
            expired_ids: list[str] = []
            for recipient_id, queue in list(self._pending.items()):
                for message in list(queue):
                    self._record(recipient_id, {"ev": "expired", "message_id": message.message_id, "at": stamp})
                    expired_ids.append(message.message_id)
            for recipient_id, session in self._active_capture.items():
                if session.state in (CaptureState.RECORDING, CaptureState.AWAITING_CONSENT):
                    session.state = CaptureState.AWAITING_CONSENT
                    finalize(session, False)
                    self._record(recipient_id, {"ev": "declined", "message_id": session.message_id, "at": stamp})
            self._active_capture.clear()
            for recipient_id, queue in self._capture_queue.items():
                while queue:
                    self._record(recipient_id, {"ev": "declined", "message_id": queue.popleft(), "at": stamp})
            return expired_ids

    def message_states(self) -> dict[str, MessageState]:
        with self._lock:
            return {mid: m.state for mid, m in self._messages.items()}

    # -- frame dispatch ---------------------------------------------------------------

    def _log(self, frame: dict[str, Any]) -> None:
        if self._recorder is not None:
            self._recorder.record(frame)

    def handle_frame(self, frame: dict[str, Any]) -> list[dict[str, Any]]:
        """Process one inbound frame; returns the outbound frames it caused.

        Both the inbound frame and every response are appended to the
        recorder, so a recorded session is the complete wire history.
        """
        with self._lock:
            self._log(frame)
            kind = frame["kind"]
            payload = frame["payload"]
            origin = frame.get("from")
            try:
                responses = self._dispatch(kind, payload, origin)
            except WandRelayError as exc:
                responses = [
                    protocol.make_frame(
                        protocol.ERROR, {"code": exc.code, "detail": exc.detail}, to=origin
                    )
                ]
            for response in responses:
                self._log(response)
            return responses

    def _dispatch(self, kind: str, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        if kind == protocol.HELLO:
            role = payload.get("role")
            principal = payload.get("principal")
            if role not in ("sender", "recipient") or not principal or not isinstance(principal, str):
                raise ParseError("HELLO requires role in {sender, recipient} and a principal")
            if role == "recipient":
                self.open_session(principal)
            else:
                self.register_principal(principal)
            ack = {"of": protocol.HELLO, "role": role, "principal": principal}
            return [protocol.make_frame(protocol.ACK, ack, to=principal)]

        if kind == protocol.SUBMIT:
            message = message_from_dict(_field(payload, "message", dict))
            ack = self.submit(message)
            ack["of"] = protocol.SUBMIT
            return [protocol.make_frame(protocol.ACK, ack, to=message.sender_id)]

        if kind == protocol.CONTEXT:
            sample = sample_from_dict(_field(payload, "sample", dict))
            events, started = self.push_context(sample)
            frames = [
                protocol.make_frame(protocol.PLAYBACK, e.to_payload(), to=sample.recipient_id)
                for e in events
            ]
            return frames + [_reaction_start(s, sample.recipient_id) for s in started]

        if kind == protocol.REACTION_FRAME:
            message_id = _field(payload, "message_id", str)
            t = parse_rfc3339(_field(payload, "t", str))
            self.append_reaction_item(message_id, Utterance(t, _field(payload, "transcript", str)))
            return [
                protocol.make_frame(
                    protocol.ACK, {"of": protocol.REACTION_FRAME, "message_id": message_id}, to=origin
                )
            ]

        if kind == protocol.CONSENT:
            message_id = _field(payload, "message_id", str)
            answer = _field(payload, "answer", str).lower()
            if answer not in ("yes", "no"):
                raise ParseError(f"consent answer must be yes or no, got {payload['answer']!r}")
            at = parse_rfc3339(_field(payload, "t", str))
            record, started = self.consent(message_id, answer == "yes", at)
            message = self._messages[message_id]
            frames = [
                protocol.make_frame(
                    protocol.ACK,
                    {"of": protocol.CONSENT, "message_id": message_id, "answer": answer},
                    to=message.recipient_id,
                )
            ]
            if record is not None:
                frames.append(
                    protocol.make_frame(
                        protocol.REACTION_NOTIFY,
                        {"message_id": message_id, "reaction": reaction_to_dict(record)},
                        to=message.sender_id,
                    )
                )
            return frames + [_reaction_start(s, message.recipient_id) for s in started]

        if kind == protocol.SENDER_VIEW_REQ:
            sender_id = _field(payload, "sender_id", str)
            records = self.sender_view(sender_id)
            return [
                protocol.make_frame(
                    protocol.SENDER_VIEW_RESP,
                    {"sender_id": sender_id, "records": [r.to_dict() for r in records]},
                    to=sender_id,
                )
            ]

        raise ParseError(f"frame kind {kind} is not accepted from clients")
