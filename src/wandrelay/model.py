"""Message model: content catalog, trigger schedules, lifecycle, encoding.

Everything here is an immutable value except ``MessageRecord``, the one
mutable record of a message's lifecycle; construction validates the type
invariants, so a successfully built object is valid by definition. An
``ArMessage`` is only what was submitted, so every message document is
Pending. The canonical JSON encoding (version 1) lives next to the types as
``*_to_dict`` / ``*_from_dict`` pairs and round-trips exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from functools import cache
from importlib import resources
from typing import Any, Callable, Collection, Mapping

from .errors import (
    EmptySchedule,
    InvalidCoordinates,
    InvalidWindow,
    IllegalTransition,
    ParseError,
    RadiusOutOfRange,
    ScaleOutOfRange,
    UnknownContent,
    UnknownMarker,
    VoiceNoteTooLong,
)
from .ids import IdFactory
from .timeutil import UTC, format_rfc3339, parse_rfc3339

ENCODING_VERSION = 1

MAX_VOICE_NOTE_SECONDS = 10.0
MIN_GEOFENCE_RADIUS_M = 7.0
MAX_GEOFENCE_RADIUS_M = 14.0
MIN_SCALE = 0.1
MAX_SCALE = 10.0


class ContentKind(str, Enum):
    VIRTUAL_OBJECT = "VirtualObject"
    AVATAR = "Avatar"


class Anchor(str, Enum):
    PINNED_TO_GROUND = "PinnedToGround"
    FLOATING = "Floating"


class Specificity(str, Enum):
    SPECIFIC = "Specific"  # all conditions at one sample (AND)
    FLEXIBLE = "Flexible"  # any condition (OR)


class MessageState(str, Enum):
    PENDING = "Pending"
    DELIVERED = "Delivered"
    REACTED = "Reacted"
    REACTION_DECLINED = "ReactionDeclined"
    EXPIRED = "Expired"


# The only legal lifecycle moves; everything else raises IllegalTransition.
ALLOWED_TRANSITIONS: dict[MessageState, frozenset[MessageState]] = {
    MessageState.PENDING: frozenset({MessageState.DELIVERED, MessageState.EXPIRED}),
    MessageState.DELIVERED: frozenset({MessageState.REACTED, MessageState.REACTION_DECLINED}),
    MessageState.REACTED: frozenset(),
    MessageState.REACTION_DECLINED: frozenset(),
    MessageState.EXPIRED: frozenset(),
}

# Stored event kind -> the state that event moves its message to.
EVENT_TRANSITIONS: dict[str, MessageState] = {
    "delivered": MessageState.DELIVERED,
    "expired": MessageState.EXPIRED,
    "reacted": MessageState.REACTED,
    "declined": MessageState.REACTION_DECLINED,
}


@dataclass(frozen=True, slots=True)
class ContentItem:
    content_id: str
    kind: ContentKind
    anchor: Anchor
    has_audio: bool
    default_scale: float = 1.0


@dataclass(frozen=True, slots=True)
class VoiceNote:
    duration: float  # seconds
    transcript: str

    def __post_init__(self) -> None:
        if not (self.duration > 0):
            raise ValueError(f"voice note duration must be positive, got {self.duration}")
        if self.duration > MAX_VOICE_NOTE_SECONDS:
            raise VoiceNoteTooLong(f"{self.duration} s exceeds {MAX_VOICE_NOTE_SECONDS:.0f} s limit")


def check_position(lat: float, lon: float) -> None:
    """Refuse a point off the globe; NaN fails both comparisons."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise InvalidCoordinates("position outside lat [-90, 90] or lon [-180, 180]")


@dataclass(frozen=True, slots=True)
class Geofence:
    lat: float
    lon: float
    radius: float  # meters

    def __post_init__(self) -> None:
        check_position(self.lat, self.lon)
        if not (MIN_GEOFENCE_RADIUS_M <= self.radius <= MAX_GEOFENCE_RADIUS_M):
            raise RadiusOutOfRange(
                f"radius {self.radius} m outside "
                f"[{MIN_GEOFENCE_RADIUS_M:.0f}, {MAX_GEOFENCE_RADIUS_M:.0f}] m"
            )


@dataclass(frozen=True, slots=True)
class TimeWindow:
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.start.tzinfo is None or self.end.tzinfo is None:
            raise ValueError("time window bounds must be timezone-aware")
        if self.end <= self.start:
            raise InvalidWindow(
                f"window end {format_rfc3339(self.end)} not after start {format_rfc3339(self.start)}"
            )


@dataclass(frozen=True, slots=True)
class MarkerCondition:
    marker_id: str

    def __post_init__(self) -> None:
        if not self.marker_id:
            raise ValueError("marker_id must be non-empty")


@dataclass(frozen=True, slots=True)
class TriggerSchedule:
    geofence: Geofence | None = None
    window: TimeWindow | None = None
    marker: MarkerCondition | None = None
    specificity: Specificity = Specificity.SPECIFIC

    def __post_init__(self) -> None:
        if self.geofence is None and self.window is None and self.marker is None:
            raise EmptySchedule("schedule present but declares no condition")
        # With a single condition AND and OR coincide; normalize so equal
        # schedules compare and serialize identically.
        if self.condition_count == 1 and self.specificity is not Specificity.SPECIFIC:
            object.__setattr__(self, "specificity", Specificity.SPECIFIC)

    @property
    def condition_count(self) -> int:
        return sum(c is not None for c in (self.geofence, self.window, self.marker))

    @property
    def is_compound(self) -> bool:
        return self.condition_count >= 2


@dataclass(frozen=True, slots=True)
class ArMessage:
    message_id: str
    sender_id: str
    recipient_id: str
    content_id: str
    scale: float
    voice_note: VoiceNote
    schedule: TriggerSchedule | None
    created_at: datetime


@dataclass(slots=True)
class MessageRecord:
    """One message's lifecycle: the message as submitted, its state, delivery time and reaction."""

    message: ArMessage
    state: MessageState = MessageState.PENDING
    delivered_at: datetime | None = None
    reaction: Any = None  # the reaction.ReactionRecord of a Reacted message

    def advance(self, new_state: MessageState) -> MessageState:
        """Move to ``new_state``, enforcing the lifecycle graph; returns the state left."""
        old = self.state
        if new_state not in ALLOWED_TRANSITIONS[old]:
            raise IllegalTransition(f"{old.value} -> {new_state.value} for {self.message.message_id}")
        self.state = new_state
        return old


# -- catalog ------------------------------------------------------------------

@cache
def catalog() -> tuple[ContentItem, ...]:
    """The static content catalog, in file order."""
    raw = json.loads(resources.files("wandrelay.data").joinpath("catalog.json").read_text())
    return tuple(
        ContentItem(
            content_id=item["content_id"],
            kind=ContentKind(item["kind"]),
            anchor=Anchor(item["anchor"]),
            has_audio=bool(item["has_audio"]),
            default_scale=float(item["default_scale"]),
        )
        for item in raw["items"]
    )


def catalog_item(content_id: str) -> ContentItem:
    for item in catalog():
        if item.content_id == content_id:
            return item
    raise UnknownContent(content_id)


# -- validation & composition ---------------------------------------------------

def validate_schedule(schedule: TriggerSchedule, declared_markers: Collection[str] | None) -> None:
    """Check a schedule against the scenario's declared marker set.

    Component invariants (radius bounds, window order, non-emptiness) are
    enforced at construction; this adds the context-dependent marker check.
    ``declared_markers=None`` means no marker registry is available and the
    check is skipped.
    """
    if schedule.marker is not None and declared_markers is not None:
        if schedule.marker.marker_id not in declared_markers:
            raise UnknownMarker(schedule.marker.marker_id)


def check_new_message(
    sender_id: str,
    recipient_id: str,
    content_id: str,
    scale: float,
    schedule: TriggerSchedule | None,
    declared_markers: Collection[str] | None,
) -> None:
    """The rule for every new message: catalog content, distinct parties, scale in range, declared markers.

    Not construction invariants of ``ArMessage``, so messages already stored
    keep loading.
    """
    catalog_item(content_id)  # raises UnknownContent
    if sender_id == recipient_id:
        raise ParseError("sender and recipient must be distinct principals")
    if not (MIN_SCALE <= scale <= MAX_SCALE):
        raise ScaleOutOfRange(f"scale {scale} outside [{MIN_SCALE}, {MAX_SCALE}]")
    if schedule is not None:
        validate_schedule(schedule, declared_markers)


_default_ids = IdFactory()


def compose(
    sender_id: str,
    recipient_id: str,
    content_id: str,
    scale: float,
    voice_note: VoiceNote,
    schedule: TriggerSchedule | None = None,
    *,
    declared_markers: Collection[str] | None = None,
    now: datetime | None = None,
    id_factory: Callable[[datetime], str] | None = None,
) -> ArMessage:
    """Build a new Pending message, validating every field."""
    check_new_message(sender_id, recipient_id, content_id, scale, schedule, declared_markers)
    created_at = now if now is not None else datetime.now(UTC)
    make_id = id_factory if id_factory is not None else _default_ids
    return ArMessage(
        message_id=make_id(created_at),
        sender_id=sender_id,
        recipient_id=recipient_id,
        content_id=content_id,
        scale=scale,
        voice_note=voice_note,
        schedule=schedule,
        created_at=created_at,
    )


# -- canonical encoding ----------------------------------------------------------

def voice_note_to_dict(note: VoiceNote) -> dict[str, Any]:
    return {"duration": note.duration, "transcript": note.transcript}


def _number(value: Any, name: str) -> float:
    """A JSON number as a float: a boolean is not one, nor is a string of digits."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


def _string(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")
    return value


def voice_note_from_dict(d: Mapping[str, Any]) -> VoiceNote:
    """A voice note from its canonical form; a field of the wrong JSON type is refused, not coerced."""
    try:
        duration = _number(d["duration"], "duration")
        return VoiceNote(duration=duration, transcript=_string(d["transcript"], "transcript"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad voice note: {exc}") from None


def schedule_to_dict(schedule: TriggerSchedule) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if schedule.geofence is not None:
        g = schedule.geofence
        out["geofence"] = {"center": {"lat": g.lat, "lon": g.lon}, "radius": g.radius}
    if schedule.window is not None:
        out["window"] = {
            "start": format_rfc3339(schedule.window.start),
            "end": format_rfc3339(schedule.window.end),
        }
    if schedule.marker is not None:
        out["marker"] = {"marker_id": schedule.marker.marker_id}
    # Only meaningful (and only emitted) with two or more conditions.
    if schedule.is_compound:
        out["specificity"] = schedule.specificity.value
    return out


def schedule_from_dict(d: Mapping[str, Any]) -> TriggerSchedule:
    """A schedule from its canonical form; a field of the wrong JSON type is refused, not coerced."""
    if not isinstance(d, Mapping):
        raise ParseError(f"schedule must be an object, got {type(d).__name__}")
    geofence = window = marker = None
    try:
        if "geofence" in d and d["geofence"] is not None:
            g = d["geofence"]
            center = g["center"]
            lat, lon = _number(center["lat"], "lat"), _number(center["lon"], "lon")
            geofence = Geofence(lat=lat, lon=lon, radius=_number(g["radius"], "radius"))
        if "window" in d and d["window"] is not None:
            w = d["window"]
            window = TimeWindow(start=parse_rfc3339(w["start"]), end=parse_rfc3339(w["end"]))
        if "marker" in d and d["marker"] is not None:
            marker = MarkerCondition(marker_id=_string(d["marker"]["marker_id"], "marker_id"))
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an integer past the largest float
        raise ParseError(f"bad schedule: {exc}") from None
    present = sum(c is not None for c in (geofence, window, marker))
    spec_raw = d.get("specificity")
    if present >= 2:
        if spec_raw is None:
            raise ParseError("compound schedule requires a specificity")
        try:
            specificity = Specificity(spec_raw)
        except ValueError:
            raise ParseError(f"bad specificity {spec_raw!r}") from None
    else:
        specificity = Specificity.SPECIFIC
    return TriggerSchedule(geofence=geofence, window=window, marker=marker, specificity=specificity)


def message_to_dict(message: ArMessage) -> dict[str, Any]:
    return {
        "v": ENCODING_VERSION,
        "message_id": message.message_id,
        "sender_id": message.sender_id,
        "recipient_id": message.recipient_id,
        "content_id": message.content_id,
        "scale": message.scale,
        "voice_note": voice_note_to_dict(message.voice_note),
        "schedule": schedule_to_dict(message.schedule) if message.schedule is not None else None,
        "created_at": format_rfc3339(message.created_at),
        "state": MessageState.PENDING.value,
    }


def message_from_dict(d: Mapping[str, Any]) -> ArMessage:
    """A message from its canonical form: a document not Pending or with a field of the wrong JSON type is refused."""
    if d.get("v") != ENCODING_VERSION:
        raise ParseError(f"unsupported message encoding version {d.get('v')!r}")
    if d.get("state") != MessageState.PENDING:
        raise ParseError(f"a message document must be Pending, got {d.get('state')!r}")
    try:
        schedule = schedule_from_dict(d["schedule"]) if d.get("schedule") is not None else None
        return ArMessage(
            message_id=_string(d["message_id"], "message_id"),
            sender_id=_string(d["sender_id"], "sender_id"),
            recipient_id=_string(d["recipient_id"], "recipient_id"),
            content_id=_string(d["content_id"], "content_id"),
            scale=_number(d["scale"], "scale"),
            voice_note=voice_note_from_dict(d["voice_note"]),
            schedule=schedule,
            created_at=parse_rfc3339(d["created_at"]),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past the largest float
        raise ParseError(f"bad message document: {exc}") from None
