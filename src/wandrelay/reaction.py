"""Reaction capture: 10-second recording, three-track composition, consent gate.

Each recipient has one capture line: the ids of its delivered messages, in
delivery order. Only the head of a line records. Its session buffers the
timestamps of the scene frames it saw and the recipient's utterances, in
memory only; nothing touches storage until (and unless) the recipient
consents. The answer finalizes the session, which then leaves the manager,
and the next message in line starts its capture. On "No" the buffers are
dropped on the spot. The scene track stands in for raw camera pixels as bare
timestamps: positions and marker sightings are never buffered at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any

from .errors import NotAwaitingConsent, ParseError, PastDeadline
from .model import VoiceNote, _string, voice_note_from_dict, voice_note_to_dict
from .timeutil import UTC, format_rfc3339, parse_rfc3339

CAPTURE_SECONDS = 10.0
# The last instant a capture can start at: a later one's deadline would pass the last datetime.
LAST_CAPTURE_START = datetime.max.replace(tzinfo=UTC) - timedelta(seconds=CAPTURE_SECONDS)


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
    frames: list[datetime] = field(default_factory=list)  # scene frame timestamps
    utterances: list[Utterance] = field(default_factory=list)
    awaiting: bool = False  # recording is over; the answer is due

    @property
    def deadline(self) -> datetime:
        return self.started_at + timedelta(seconds=CAPTURE_SECONDS)

    def see(self, t: datetime) -> None:
        """A scene frame at ``t``: kept inside the window, the deadline included."""
        if self.started_at <= t <= self.deadline:
            self.frames.append(t)
        self.mark_awaiting(t)

    def append_utterance(self, utterance: Utterance) -> None:
        if utterance.t > self.deadline:
            raise PastDeadline(
                f"{format_rfc3339(utterance.t)} after deadline {format_rfc3339(self.deadline)}"
            )
        if utterance.t < self.started_at:
            raise ValueError("item predates the capture start")
        if self.utterances and utterance.t < self.utterances[-1].t:
            raise ValueError("utterances must arrive in time order")
        self.utterances.append(utterance)

    def mark_awaiting(self, at: datetime) -> None:
        """Recording ends automatically once the deadline passes."""
        if at >= self.deadline:
            self.awaiting = True


class CaptureManager:
    """One capture line per recipient; a session only for each line's head."""

    def __init__(self) -> None:
        self._lines: dict[str, deque[str]] = {}
        self._sessions: dict[str, CaptureSession] = {}  # message id -> its live session

    def join(self, recipient_id: str, message_id: str) -> bool:
        """Put a delivered message at the back of its line; True if it heads the line."""
        line = self._lines.setdefault(recipient_id, deque())
        line.append(message_id)
        return len(line) == 1

    def begin_capture(self, recipient_id: str, started_at: datetime, voice_note: VoiceNote) -> CaptureSession:
        """Start recording the head of the recipient's line."""
        session = CaptureSession(self._lines[recipient_id][0], started_at, voice_note)
        self._sessions[session.message_id] = session
        return session

    def get(self, message_id: str) -> CaptureSession | None:
        return self._sessions.get(message_id)

    def head(self, recipient_id: str) -> CaptureSession | None:
        line = self._lines.get(recipient_id)
        return self._sessions.get(line[0]) if line else None

    def queued(self, recipient_id: str, message_id: str) -> bool:
        """In line behind the head: its capture has not started."""
        return message_id in self._lines.get(recipient_id, ()) and message_id not in self._sessions

    def finish(self, recipient_id: str) -> str | None:
        """Drop the finalized head; returns the id whose capture starts next."""
        line = self._lines[recipient_id]
        del self._sessions[line.popleft()]
        if line:
            return line[0]
        del self._lines[recipient_id]
        return None

    def drain(self) -> list[tuple[str, CaptureSession, list[str]]]:
        """Empty every line: (recipient, the head's session, the line's ids)."""
        lines = [(r, self._sessions[line[0]], list(line)) for r, line in self._lines.items()]
        self._lines.clear()
        self._sessions.clear()
        return lines


def finalize(session: CaptureSession, consent_yes: bool) -> ReactionRecord | None:
    """Apply the recipient's Yes/No answer to a session awaiting consent.

    Yes composes and returns the record; No erases every buffered frame and
    utterance and returns None.
    """
    if not session.awaiting:
        raise NotAwaitingConsent(f"session for {session.message_id} is Recording")
    if not consent_yes:
        session.frames.clear()
        session.utterances.clear()
        return None
    return ReactionRecord(
        message_id=session.message_id,
        started_at=session.started_at,
        scene=tuple(session.frames),
        recipient_audio=tuple(session.utterances),
        sender_voice_note=session.voice_note,
    )


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
            message_id=_string(d["message_id"], "message_id"),
            started_at=parse_rfc3339(d["started_at"]),
            scene=tuple(parse_rfc3339(f["t"]) for f in tracks["scene"]),
            recipient_audio=tuple(
                Utterance(t=parse_rfc3339(u["t"]), transcript=_string(u["transcript"], "transcript"))
                for u in tracks["recipient_audio"]
            ),
            sender_voice_note=voice_note_from_dict(tracks["sender_voice_note"]),
            consent=_string(d.get("consent", "Yes"), "consent"),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad reaction record: {exc}") from None
