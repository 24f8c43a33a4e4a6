"""Reaction capture: 10-second recording, three-track composition, consent gate.

A capture session buffers scene snapshots and recipient utterances in memory
only; nothing touches storage until (and unless) the recipient consents. On
"No" the buffers are dropped on the spot. The composed record that a consenting
recipient forwards carries the scene track as bare timestamps: positions and
marker sightings stand in for raw camera pixels and never leave the recipient's
side in structured form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any

from .errors import DuplicateSession, NotAwaitingConsent, ParseError, PastDeadline, SessionClosed
from .model import VoiceNote, voice_note_from_dict, voice_note_to_dict
from .timeutil import format_rfc3339, parse_rfc3339

CAPTURE_SECONDS = 10.0


class CaptureState:
    RECORDING = "Recording"
    AWAITING_CONSENT = "AwaitingConsent"
    FORWARDED = "Forwarded"
    DISCARDED = "Discarded"


@dataclass(frozen=True, slots=True)
class SceneFrame:
    t: datetime
    lat: float | None = None
    lon: float | None = None
    visible_markers: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Utterance:
    t: datetime
    transcript: str


@dataclass(frozen=True, slots=True)
class ReactionRecord:
    """Consented three-track composition, time-aligned to ``started_at``.

    ``scene`` holds frame timestamps only; see the module docstring.
    """

    message_id: str
    started_at: datetime
    scene: tuple[datetime, ...]
    recipient_audio: tuple[Utterance, ...]
    sender_voice_note: VoiceNote
    consent: str = "Yes"


@dataclass(slots=True)
class CaptureSession:
    message_id: str
    started_at: datetime
    voice_note: VoiceNote  # sender's original note, third track of the composition
    frames: list[SceneFrame] = field(default_factory=list)
    utterances: list[Utterance] = field(default_factory=list)
    state: str = CaptureState.RECORDING

    @property
    def deadline(self) -> datetime:
        return self.started_at + timedelta(seconds=CAPTURE_SECONDS)

    def _check_append(self, t: datetime) -> None:
        if self.state in (CaptureState.FORWARDED, CaptureState.DISCARDED):
            raise SessionClosed(f"session for {self.message_id} is {self.state}")
        if t > self.deadline:
            raise PastDeadline(
                f"{format_rfc3339(t)} after deadline {format_rfc3339(self.deadline)}"
            )
        if t < self.started_at:
            raise ValueError("item predates the capture start")

    def append_frame(self, frame: SceneFrame) -> None:
        """Record a scene snapshot; the deadline itself is still in range."""
        self._check_append(frame.t)
        if self.frames and frame.t < self.frames[-1].t:
            raise ValueError("frames must arrive in time order")
        self.frames.append(frame)

    def append_utterance(self, utterance: Utterance) -> None:
        self._check_append(utterance.t)
        if self.utterances and utterance.t < self.utterances[-1].t:
            raise ValueError("utterances must arrive in time order")
        self.utterances.append(utterance)

    def mark_awaiting(self, at: datetime) -> None:
        """Recording ends automatically once the deadline passes."""
        if self.state == CaptureState.RECORDING and at >= self.deadline:
            self.state = CaptureState.AWAITING_CONSENT


class CaptureManager:
    """Tracks one session per delivered message, ever (DuplicateSession guard)."""

    def __init__(self) -> None:
        self._sessions: dict[str, CaptureSession] = {}

    def begin_capture(self, message_id: str, started_at: datetime, voice_note: VoiceNote) -> CaptureSession:
        if message_id in self._sessions:
            raise DuplicateSession(message_id)
        session = CaptureSession(message_id=message_id, started_at=started_at, voice_note=voice_note)
        self._sessions[message_id] = session
        return session

    def get(self, message_id: str) -> CaptureSession | None:
        return self._sessions.get(message_id)


def finalize(session: CaptureSession, consent_yes: bool) -> ReactionRecord | None:
    """Apply the recipient's Yes/No answer to a session awaiting consent.

    Yes composes and returns the record; No erases every buffered frame and
    utterance and returns None. Either way the session reaches its single
    terminal state.
    """
    if session.state != CaptureState.AWAITING_CONSENT:
        raise NotAwaitingConsent(f"session for {session.message_id} is {session.state}")
    if not consent_yes:
        session.frames.clear()
        session.utterances.clear()
        session.state = CaptureState.DISCARDED
        return None
    record = ReactionRecord(
        message_id=session.message_id,
        started_at=session.started_at,
        scene=tuple(f.t for f in session.frames),
        recipient_audio=tuple(session.utterances),
        sender_voice_note=session.voice_note,
    )
    session.state = CaptureState.FORWARDED
    return record


# -- canonical encoding -----------------------------------------------------------

def reaction_to_dict(record: ReactionRecord) -> dict[str, Any]:
    return {
        "message_id": record.message_id,
        "started_at": format_rfc3339(record.started_at),
        "tracks": {
            "scene": [{"t": format_rfc3339(t)} for t in record.scene],
            "recipient_audio": [
                {"t": format_rfc3339(u.t), "transcript": u.transcript} for u in record.recipient_audio
            ],
            "sender_voice_note": voice_note_to_dict(record.sender_voice_note),
        },
        "consent": record.consent,
    }


def reaction_from_dict(d: dict[str, Any]) -> ReactionRecord:
    try:
        tracks = d["tracks"]
        return ReactionRecord(
            message_id=str(d["message_id"]),
            started_at=parse_rfc3339(d["started_at"]),
            scene=tuple(parse_rfc3339(f["t"]) for f in tracks["scene"]),
            recipient_audio=tuple(
                Utterance(t=parse_rfc3339(u["t"]), transcript=str(u["transcript"]))
                for u in tracks["recipient_audio"]
            ),
            sender_voice_note=voice_note_from_dict(tracks["sender_voice_note"]),
            consent=str(d.get("consent", "Yes")),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad reaction record: {exc}") from None
