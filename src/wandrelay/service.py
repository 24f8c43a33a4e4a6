"""Store-and-forward delivery service.

Accepts submissions, ingests recipient context, drives the trigger engine,
runs the reaction-capture loop, and answers sender views. Every request
arrives as a wire frame through ``handle_frame``, which hands it to one
handler per request kind. It takes one request at a time and holds no lock:
a caller with more than one thread (the TCP server) serializes its calls.
Time comes exclusively from the frames themselves, so the service is a
deterministic function of its input frame sequence.

Each recipient's pending messages live in a ``TriggerIndex``, which only
``_apply`` changes, so recovery rebuilds it from the journal by the same
path a live operation takes. A CONTEXT sample hands the engine only the
index's candidates, in enqueue order: what can lapse or fire at that
sample, not everything pending. A sample with no candidate of either kind
does not call the engine at all.

Privacy boundary: the only payloads ever addressed to a sender are ACK/ERROR,
REACTION_NOTIFY, and SENDER_VIEW_RESP, and those are built by
``_sender_record``, which reads one message's id, its state at the view's
request, and what that state shows of its delivery time and consented
reaction, and from consented reaction records, which by construction carry
no coordinates, marker ids, or trigger-evaluation details. A view builds
each record only as it is read or encoded.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import datetime
from typing import Any

from . import protocol
from .engine import TriggerIndex, check_order, evaluate_sample, expire_messages, sample_from_dict
from .errors import (
    DataDirUnwritable,
    DuplicateMessageId,
    NotAwaitingConsent,
    OutOfOrderSample,
    ParseError,
    PrincipalMismatch,
    SessionClosed,
    UnknownMessage,
    UnknownRecipient,
    WandRelayError,
)
from .model import (
    DELIVERED_STATES,
    EVENT_TRANSITIONS,
    ArMessage,
    MessageRecord,
    MessageState,
    catalog_item,
    check_new_message,
    message_from_dict,
    message_to_dict,
    oldest_first,
    validate_schedule,  # unused here: the benchmark's tracer wraps it by this name
    voice_note_to_dict,
)
from .reaction import (
    LAST_CAPTURE_START,
    CaptureManager,
    CaptureSession,
    Utterance,
    finalize,
    reaction_from_dict,
    reaction_to_dict,
)
from .storage import MemoryStore, check_principal
from .timeutil import format_rfc3339, parse_rfc3339

FLASH_SECONDS = 0.5


def _field(payload: dict[str, Any], name: str, kind: type) -> Any:
    """One request payload field, checked against its JSON type."""
    value = payload.get(name)
    if not isinstance(value, kind):
        raise ParseError(f"payload field {name!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _check_origin(origin: str | None, principal: str) -> None:
    """Refuse a request that acts for a principal other than the one that sent it.

    The detail names only the sender, so a refusal tells nobody whose ids
    they guessed.
    """
    if origin != principal:
        raise PrincipalMismatch(f"{origin} may act only for itself")


def _playback(message: ArMessage, delivered_at: datetime) -> dict[str, Any]:
    """Recipient-bound playback: half-second flash, then the rendered content."""
    return protocol.make_frame(
        protocol.PLAYBACK,
        {
            "message_id": message.message_id,
            "delivered_at": format_rfc3339(delivered_at),
            "events": [
                {"kind": "flash", "duration": FLASH_SECONDS},
                {
                    "kind": "render",
                    "content_id": message.content_id,
                    "anchor": catalog_item(message.content_id).anchor.value,
                    "scale": message.scale,
                },
            ],
            "voice_note": voice_note_to_dict(message.voice_note),
        },
        to=message.recipient_id,
    )


def _sender_record(record: MessageRecord, state: MessageState) -> dict[str, Any]:
    """Everything a sender may learn about one of their messages, as it stood in ``state``.

    The delivery time and the reaction are set once, with the state that
    shows them, so a record read after a later request still shows the
    message as it was in ``state``.
    """
    out: dict[str, Any] = {"message_id": record.message.message_id, "state": state.value}
    if state in DELIVERED_STATES:
        out["delivered_at"] = format_rfc3339(record.delivered_at)
    if state is MessageState.REACTED:
        out["reaction"] = reaction_to_dict(record.reaction)
    return out


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

        self._principals: set[str] = set()
        self.records: dict[str, MessageRecord] = {}
        self._pending: defaultdict[str, TriggerIndex] = defaultdict(TriggerIndex)
        self._last_t: dict[str, datetime] = {}
        self._captures = CaptureManager()

        self._recover()

    # -- events ----------------------------------------------------------------

    def _apply(self, recipient_id: str, event: dict[str, Any]) -> None:
        """Fold one stored event into the message records and queues.

        The only code that changes them: live operations call it once the
        store holds the event, and recovery calls it for every stored event,
        so both run the same transitions; ``report`` reads a data dir by
        recovering it. An event filed under a queue other than its message's
        recipient's is refused before anything changes.
        """
        kind = event["ev"]
        if kind == "enqueued":
            record = MessageRecord(message_from_dict(event["message"]))
        elif kind in EVENT_TRANSITIONS:
            record = self.records[event["message_id"]]
        else:
            raise ParseError(f"unknown stored event kind {kind!r}")
        if record.message.recipient_id != recipient_id:  # live operation files no event under another queue
            raise ParseError(f"{record.message.message_id} is addressed to {record.message.recipient_id}")
        if kind == "enqueued":
            if self.records.setdefault(record.message.message_id, record) is not record:
                raise DuplicateMessageId(record.message.message_id)
            self._pending[recipient_id].add(record.message)
        else:
            if record.advance(EVENT_TRANSITIONS[kind]) is MessageState.PENDING:
                self._pending[recipient_id].remove(record.message.message_id)
            if kind in ("delivered", "expired"):
                # A sample caused this event, so no later sample may be older, restart or not.
                at = parse_rfc3339(event["at"])
                self._last_t[recipient_id] = at
            if kind == "delivered":
                record.delivered_at = at
            elif kind == "reacted":
                record.reaction = reaction_from_dict(event["reaction"])

    def _record(self, recipient_id: str, event: dict[str, Any]) -> None:
        """Make the event durable, then apply it."""
        self._store.record_event(recipient_id, event)
        self._apply(recipient_id, event)

    def _recover(self) -> None:
        """Apply each stored event as the store reads it, so no queue's events are held.

        An event that cannot be applied is a ParseError naming its queue and
        the cause; the store's reader puts the data dir in front.
        """

        def apply(recipient_id: str, event: Any) -> None:
            try:
                self._apply(recipient_id, event)
            except ParseError as exc:  # the refusal's own code, named once
                raise ParseError(f"queue {recipient_id}: bad stored event: {exc.detail}") from None
            except (WandRelayError, LookupError, TypeError, ValueError, AttributeError) as exc:
                cause = exc if isinstance(exc, WandRelayError) else repr(exc)  # "Code: detail", or the Python error
                raise ParseError(f"queue {recipient_id}: bad stored event: {cause}") from None

        self._principals.update(self._store.replay(apply))

    def close(self) -> None:
        """Release the store, which snapshots what it holds."""
        self._store.close()

    # -- principals -------------------------------------------------------------

    def register_principal(self, principal: str) -> None:
        if principal not in self._principals:
            self._store.record_principal(principal)
            self._principals.add(principal)

    def end_of_run(self, at: datetime) -> None:
        """Scenario end: expire every Pending message, then decline every Delivered one.

        Replacing the capture manager drops every open session and its
        buffers: the privacy-preserving default applies to any capture
        without an answer. A Delivered message is declined once, whether its
        capture was running, waiting in line or lost to a restart.
        """
        self._captures = CaptureManager()
        stamp = format_rfc3339(at)
        for state, kind in ((MessageState.PENDING, "expired"), (MessageState.DELIVERED, "declined")):
            for message_id, record in self.records.items():
                if record.state is state:
                    self._record(record.message.recipient_id, {"ev": kind, "message_id": message_id, "at": stamp})

    def message_states(self) -> dict[str, MessageState]:
        return {message_id: record.state for message_id, record in self.records.items()}

    # -- requests ---------------------------------------------------------------------

    def _log(self, frame: dict[str, Any]) -> None:
        if self._recorder is not None:
            try:
                self._recorder.record(frame)
            except OSError as exc:
                raise DataDirUnwritable(f"frame log write failed: {exc.strerror}") from None

    def handle_frame(self, frame: dict[str, Any]) -> list[dict[str, Any]]:
        """Process one inbound frame; returns the outbound frames it caused.

        Both the inbound frame and every response go to the recorder, if
        there is one, so a recorded run is the complete wire history. An
        inbound frame that cannot be logged is refused before it changes
        anything. A response that cannot be logged is still returned: the
        store already holds what it reports.
        """
        kind = frame["kind"]
        origin = frame.get("from")
        try:
            self._log(frame)
            handler = _HANDLERS.get(kind)
            if handler is None:
                raise ParseError(f"frame kind {kind} is not accepted from clients")
            responses = handler(self, frame["payload"], origin)
        except WandRelayError as exc:
            responses = [protocol.error_frame(exc, to=origin)]
        try:
            for response in responses:
                self._log(response)
        except DataDirUnwritable:
            pass
        return responses

    def _hello(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        role = payload.get("role")
        principal = payload.get("principal")
        if role not in ("sender", "recipient") or not principal or not isinstance(principal, str):
            raise ParseError("HELLO requires role in {sender, recipient} and a principal")
        check_principal(principal)
        self.register_principal(principal)
        ack = {"of": protocol.HELLO, "role": role, "principal": principal}
        return [protocol.make_frame(protocol.ACK, ack, to=principal)]

    def _submit(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        """Enqueue a valid Pending message; durable once acknowledged."""
        message = message_from_dict(_field(payload, "message", dict))
        _check_origin(origin, message.sender_id)
        if message.recipient_id not in self._principals:
            raise UnknownRecipient(message.recipient_id)
        if message.message_id in self.records:
            raise DuplicateMessageId(message.message_id)
        check_new_message(
            message.sender_id, message.recipient_id, message.content_id, message.scale, message.schedule, self._markers
        )
        self._record(message.recipient_id, {"ev": "enqueued", "message": message_to_dict(message)})
        ack = {"message_id": message.message_id, "state": MessageState.PENDING.value, "of": protocol.SUBMIT}
        return [protocol.make_frame(protocol.ACK, ack, to=message.sender_id)]

    def _context(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        """Ingest one sample: PLAYBACK per delivery, then REACTION_START per new capture.

        A delivery whose write fails ends the answer with one ERROR, after
        the frames of the deliveries written before it.
        """
        sample = sample_from_dict(_field(payload, "sample", dict))
        recipient_id = sample.recipient_id
        _check_origin(origin, recipient_id)
        if sample.t > LAST_CAPTURE_START:
            raise ParseError(f"sample is after {format_rfc3339(LAST_CAPTURE_START)}, the last capture start")
        check_order(sample.t, self._last_t.get(recipient_id))  # before the index moves
        index = self._pending[recipient_id]
        lapsed = index.lapsed(sample.t)
        if lapsed:
            expired, _ = expire_messages(sample.t, lapsed)
            for message in expired:
                self._record(
                    recipient_id,
                    {"ev": "expired", "message_id": message.message_id, "at": format_rfc3339(sample.t)},
                )
        candidates = index.candidates(sample) if sample.wearing else ()
        fired = evaluate_sample(sample, candidates)[0] if candidates else ()
        self._last_t[recipient_id] = sample.t

        # The head of the capture line keeps recording the point of view
        # until its deadline; at or past the deadline it awaits the answer.
        head = self._captures.head(recipient_id)
        if head is not None:
            head.see(sample.t)
        if not fired:
            return []

        playbacks: list[dict[str, Any]] = []
        starts: list[dict[str, Any]] = []
        for message in fired:
            message_id = message.message_id
            try:
                self._record(
                    recipient_id, {"ev": "delivered", "message_id": message_id, "at": format_rfc3339(sample.t)}
                )
            except DataDirUnwritable as exc:
                # The earlier deliveries are durable and their captures run:
                # play them. This one stays Pending and fires at a later sample.
                return playbacks + starts + [protocol.error_frame(exc, to=recipient_id)]
            playbacks.append(_playback(message, sample.t))
            # Behind a running capture, this one starts once that one finalizes.
            if self._captures.join(recipient_id, message_id):
                session = self._captures.begin_capture(recipient_id, sample.t, message.voice_note)
                session.see(sample.t)
                starts.append(_reaction_start(session, recipient_id))
        return playbacks + starts

    def _capture(
        self, message_id: str, origin: str | None, closed: type[WandRelayError]
    ) -> tuple[ArMessage, CaptureSession | None]:
        """The Delivered message a capture request names, and its live session.

        The session is None when a restart lost it. An id nobody holds, a
        message of another recipient in any state, one not Delivered and one
        waiting in line behind another capture all raise the same
        UnknownMessage, so no answer tells whether another's message exists.
        One already answered raises ``closed``.
        """
        record = self.records.get(message_id)
        if record is None or record.message.recipient_id != origin:
            raise UnknownMessage(f"no capture session for {message_id}")
        if record.state in (MessageState.REACTED, MessageState.REACTION_DECLINED):
            raise closed(f"session for {message_id} is {record.state.value}")
        if record.state is not MessageState.DELIVERED or self._captures.queued(origin, message_id):
            raise UnknownMessage(f"no capture session for {message_id}")
        return record.message, self._captures.get(message_id)

    def _reaction_frame(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        """Add a recipient utterance to the message's capture session."""
        message_id = _field(payload, "message_id", str)
        t = parse_rfc3339(_field(payload, "t", str))
        utterance = Utterance(t, _field(payload, "transcript", str))
        _, session = self._capture(message_id, origin, SessionClosed)
        if session is None:
            raise UnknownMessage(f"no capture session for {message_id}")
        try:
            session.append_utterance(utterance)
        except ValueError as exc:  # before the capture start or the previous utterance
            raise OutOfOrderSample(str(exc)) from None
        ack = {"of": protocol.REACTION_FRAME, "message_id": message_id}
        return [protocol.make_frame(protocol.ACK, ack, to=origin)]

    def _consent(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        """Apply the Yes/No voice command; may start the next queued capture."""
        message_id = _field(payload, "message_id", str)
        answer = _field(payload, "answer", str).lower()
        if answer not in ("yes", "no"):
            raise ParseError(f"consent answer must be yes or no, got {payload['answer']!r}")
        at = parse_rfc3339(_field(payload, "t", str))
        message, session = self._capture(message_id, origin, NotAwaitingConsent)
        recipient_id = message.recipient_id
        ack = {"of": protocol.CONSENT, "message_id": message_id, "answer": answer}
        frames = [protocol.make_frame(protocol.ACK, ack, to=recipient_id)]
        declined = {"ev": "declined", "message_id": message_id, "at": format_rfc3339(at)}
        if session is None:
            # Delivered before a restart: its buffers were lost with that
            # process, so nothing can be forwarded whatever the answer.
            self._record(recipient_id, declined)
            return frames

        session.mark_awaiting(at)
        record = finalize(session, answer == "yes")
        if record is None:
            self._record(recipient_id, declined)
        else:
            reaction = reaction_to_dict(record)
            self._record(recipient_id, {"ev": "reacted", "message_id": message_id, "reaction": reaction})
            frames.append(
                protocol.make_frame(
                    protocol.REACTION_NOTIFY,
                    {"message_id": message_id, "reaction": reaction},
                    to=message.sender_id,
                )
            )
        next_id = self._captures.finish(recipient_id)
        if next_id is not None:
            # An answer given after the last capture start starts the next
            # capture at that start, so its deadline is still a datetime.
            started_at = min(at, LAST_CAPTURE_START)
            session = self._captures.begin_capture(recipient_id, started_at, self.records[next_id].message.voice_note)
            frames.append(_reaction_start(session, recipient_id))
        return frames

    def _view_request(self, payload: dict[str, Any], origin: str | None) -> list[dict[str, Any]]:
        """One record per message this sender submitted, oldest first."""
        sender_id = _field(payload, "sender_id", str)
        _check_origin(origin, sender_id)
        records = oldest_first(r for r in self.records.values() if r.message.sender_id == sender_id)
        # Each record's dict is built only as it is read or encoded, from its state at this request.
        view = protocol.LazyArray(_sender_record, records, [r.state for r in records])
        return [protocol.make_frame(protocol.SENDER_VIEW_RESP, {"sender_id": sender_id, "records": view}, to=sender_id)]


_HANDLERS = {
    protocol.HELLO: DeliveryService._hello,
    protocol.SUBMIT: DeliveryService._submit,
    protocol.CONTEXT: DeliveryService._context,
    protocol.REACTION_FRAME: DeliveryService._reaction_frame,
    protocol.CONSENT: DeliveryService._consent,
    protocol.SENDER_VIEW_REQ: DeliveryService._view_request,
}
