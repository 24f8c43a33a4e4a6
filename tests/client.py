"""Reach a DeliveryService the way every real caller does: through frames."""

from __future__ import annotations

from datetime import datetime
from typing import Any

from wandrelay import protocol
from wandrelay.engine import ContextSample, sample_to_dict
from wandrelay.model import ArMessage, message_to_dict
from wandrelay.timeutil import format_rfc3339


def request(service, kind: str, payload: dict[str, Any], sender: str) -> list[dict[str, Any]]:
    """Send one request frame; returns every frame it caused."""
    return service.handle_frame(protocol.make_frame(kind, payload, sender=sender))


def submit(service, message: ArMessage) -> list[dict[str, Any]]:
    return request(service, protocol.SUBMIT, {"message": message_to_dict(message)}, message.sender_id)


def push(service, sample: ContextSample) -> list[dict[str, Any]]:
    return request(service, protocol.CONTEXT, {"sample": sample_to_dict(sample)}, sample.recipient_id)


def utter(service, message_id: str, t: datetime, transcript: str, recipient: str = "r1") -> list[dict[str, Any]]:
    payload = {"message_id": message_id, "t": format_rfc3339(t), "transcript": transcript}
    return request(service, protocol.REACTION_FRAME, payload, recipient)


def consent(service, message_id: str, answer: str, t: datetime, recipient: str = "r1") -> list[dict[str, Any]]:
    payload = {"message_id": message_id, "answer": answer, "t": format_rfc3339(t)}
    return request(service, protocol.CONSENT, payload, recipient)


def view_of(service, sender_id: str) -> list[dict[str, Any]]:
    """The records of the sender's SENDER_VIEW_RESP."""
    (response,) = request(service, protocol.SENDER_VIEW_REQ, {"sender_id": sender_id}, sender_id)
    assert response["kind"] == protocol.SENDER_VIEW_RESP, response
    return response["payload"]["records"]


def error_code(frames: list[dict[str, Any]]) -> str | None:
    """The code of a lone ERROR answer, or None when the request was not refused."""
    if [f["kind"] for f in frames] == [protocol.ERROR]:
        return frames[0]["payload"]["code"]
    assert protocol.ERROR not in [f["kind"] for f in frames], frames
    return None


def ids_of(frames: list[dict[str, Any]], kind: str) -> list[str]:
    """Message ids of the frames of one kind, in order."""
    return [f["payload"]["message_id"] for f in frames if f["kind"] == kind]
