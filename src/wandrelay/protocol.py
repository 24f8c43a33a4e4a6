"""Wire protocol: newline-delimited JSON frames.

Every frame is one line: ``{"v": 1, "kind": ..., "payload": {...}}`` plus
optional ``"from"`` / ``"to"`` principal routing fields. The same frames,
written to a file by a simulated run, form the run-log format the analytics
layer consumes.

One privacy carve-out: when a REACTION_FRAME is written to a log, its
transcript is dropped. Consent is still undecided at that point, and
unconsented audio must never be persisted; the consented text reappears later
inside REACTION_NOTIFY and sender-view frames.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, TextIO

from .errors import DataDirUnwritable, ParseError, WandRelayError

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
    """Keeps every frame it records in ``frames`` and writes it to a log file, if given.

    A run's recorder: ``frames`` is the whole wire history, which the run
    returns and ``report`` can read back from the file. A file that cannot
    be opened is DataDirUnwritable, naming it.
    """

    def __init__(self, path: str | Path | None = None):
        self.frames: list[dict[str, Any]] = []
        self._fh: TextIO | None = None
        if path is not None:
            try:
                self._fh = open(path, "w", encoding="utf-8")
            except OSError as exc:
                raise DataDirUnwritable(f"{path}: {exc.strerror}") from None

    def record(self, frame: dict[str, Any]) -> None:
        if frame.get("kind") == REACTION_FRAME:  # the one kind loggable_frame changes
            frame = loggable_frame(frame)
        self.frames.append(frame)
        if self._fh is not None:
            self._fh.write(dumps_canonical(frame) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


def read_frames(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream frames back out of a log file, validating each line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decode_frame(line)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc.detail}") from None
