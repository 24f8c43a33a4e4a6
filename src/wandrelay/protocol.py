"""Wire protocol: newline-delimited JSON frames.

Every frame is one line: ``{"v": 1, "kind": ..., "payload": {...}}`` plus
optional ``"from"`` / ``"to"`` principal routing fields. The same frames,
appended to a file, form the event-log format the analytics layer consumes.

Two privacy carve-outs. A server's log keeps no CONTEXT frame (see
``FrameRecorder``). When a REACTION_FRAME is written to a log, its
transcript is dropped. Consent is still undecided at that point, and
unconsented audio must never be persisted; the consented text reappears later
inside REACTION_NOTIFY and sender-view frames.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, TextIO

from .errors import ParseError, WandRelayError

PROTOCOL_VERSION = 1

HELLO = "HELLO"
SUBMIT = "SUBMIT"
ACK = "ACK"
ERROR = "ERROR"
CONTEXT = "CONTEXT"
PLAYBACK = "PLAYBACK"
REACTION_START = "REACTION_START"
REACTION_FRAME = "REACTION_FRAME"
CONSENT = "CONSENT"
REACTION_NOTIFY = "REACTION_NOTIFY"
SENDER_VIEW_REQ = "SENDER_VIEW_REQ"
SENDER_VIEW_RESP = "SENDER_VIEW_RESP"

FRAME_KINDS = frozenset({
    HELLO, SUBMIT, ACK, ERROR, CONTEXT, PLAYBACK, REACTION_START,
    REACTION_FRAME, CONSENT, REACTION_NOTIFY, SENDER_VIEW_REQ, SENDER_VIEW_RESP,
})


def make_frame(
    kind: str,
    payload: dict[str, Any],
    *,
    sender: str | None = None,
    to: str | None = None,
) -> dict[str, Any]:
    if kind not in FRAME_KINDS:
        raise ValueError(f"unknown frame kind {kind!r}")
    frame: dict[str, Any] = {"v": PROTOCOL_VERSION, "kind": kind, "payload": payload}
    if sender is not None:
        frame["from"] = sender
    if to is not None:
        frame["to"] = to
    return frame


def error_frame(exc: WandRelayError, to: str | None = None) -> dict[str, Any]:
    """The ERROR frame that reports ``exc`` by its code."""
    return make_frame(ERROR, {"code": exc.code, "detail": exc.detail}, to=to)


# Built once: json.dumps with any non-default argument builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def dumps_canonical(obj: Any) -> str:
    """Compact, key-order-preserving JSON; the one encoder used everywhere."""
    return _ENCODER.encode(obj)


def encode_frame(frame: dict[str, Any]) -> bytes:
    return (dumps_canonical(frame) + "\n").encode("utf-8")


def decode_frame(line: str | bytes) -> dict[str, Any]:
    try:
        text = line.decode("utf-8") if isinstance(line, bytes) else line
        frame = json.loads(text)
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        raise ParseError(f"bad frame: {exc}") from None
    # Only a \u escape can spell an unpaired surrogate, which no UTF-8 file or
    # socket can carry; frames without one skip the check.
    if "\\u" in text:
        try:
            dumps_canonical(frame).encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("frame holds an unpaired surrogate") from None
    if not isinstance(frame, dict):
        raise ParseError("frame must be a JSON object")
    if frame.get("v") != PROTOCOL_VERSION:
        raise ParseError(f"unsupported protocol version {frame.get('v')!r}")
    if frame.get("kind") not in FRAME_KINDS:
        raise ParseError(f"unknown frame kind {frame.get('kind')!r}")
    if not isinstance(frame.get("payload"), dict):
        raise ParseError("frame payload must be a JSON object")
    return frame


def loggable_frame(frame: dict[str, Any]) -> dict[str, Any]:
    """Copy of a frame safe to persist (pre-consent audio stripped)."""
    if frame.get("kind") != REACTION_FRAME:
        return frame
    cleaned = dict(frame)
    payload = {k: v for k, v in frame["payload"].items() if k != "transcript"}
    payload["transcript_redacted"] = True
    cleaned["payload"] = payload
    return cleaned


class FrameRecorder:
    """Writes frames to a log file, if given, and keeps those of a run in ``frames``.

    A recorder that starts a log (or writes none) keeps every frame it
    records in ``frames``: the whole log, which a run returns. One that
    appends to an existing log, as a long-running server does, keeps none
    (``frames`` is None): its own frames would not be the whole log, and a
    list would grow for as long as the process lives.

    A server's log also skips every CONTEXT frame. It outlives any one run
    and is read by ``report``, which needs no sample, and samples are the
    wearer's positions and sightings, which must not pile up on disk. The
    frames that answer a CONTEXT are still written, each line as it is
    recorded, so a killed server's log still holds every answer it gave.
    """

    def __init__(self, path: str | Path | None = None, *, append: bool = False):
        self.frames: list[dict[str, Any]] | None = None if append else []
        self._fh: TextIO | None = None
        if path is not None:
            self._fh = open(path, "a" if append else "w", buffering=1 if append else -1, encoding="utf-8")

    def record(self, frame: dict[str, Any]) -> None:
        if self.frames is None and frame["kind"] == CONTEXT:
            return
        safe = loggable_frame(frame)
        if self.frames is not None:
            self.frames.append(safe)
        if self._fh is not None:
            self._fh.write(dumps_canonical(safe) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


def read_frames(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream frames back out of a log file, validating each line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decode_frame(line)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc.detail}") from None
