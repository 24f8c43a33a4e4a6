"""Durable state for the delivery service.

Each recipient queue is an event journal kept in two files under
``queues/``, both canonical JSON: an append-only log and a snapshot. Both
are named by the percent-encoded recipient id, so no id names a path
outside ``queues/``. Every event is appended as one line, flushed and
fsynced, with the directory fsynced too when the line starts a log, so a
process killed right after acknowledging a submit loses nothing. An append
that fails is cut back off the file and raised as DataDirUnwritable. A log's
first line, written with its first event, names the size of the snapshot the
log follows: ``{"snap":N}``, 0 when there is none.

The store keeps no events in memory: the files are the journal.
``snapshot()`` (called by ``close()`` on graceful shutdown) writes each
logged queue's snapshot as ``{"v":1,"events":[...]}`` by joining bytes, the
old snapshot's events and then the log's lines, and removes the log only
once the snapshot is durable; recovery is the snapshot's events, then the
log's.

Recovery keeps none either. ``read_journal`` hands each stored event to its
caller's ``apply`` as it parses it: it walks the snapshot's array in place
with ``json.JSONDecoder.raw_decode`` and reads the log line by line, so the
most it holds beyond what ``apply`` keeps is one snapshot's text. It writes
nothing. ``FileStore.replay()`` then repairs what a crash can leave behind,
once the last event is applied, so a recovery that fails writes nothing.
``JournalReader`` reads without the repairs and has no write methods, so
``report`` recovers a service from a live server's data dir without
changing a byte of it. An unterminated last line is an append cut short,
never acknowledged: it is dropped, and the repair cuts it off the file. A log whose snapshot is no
longer the size its first line names is one a crash left between the
snapshot's rename and the log's removal: its events are in the snapshot,
and the repair removes it. A log without that first line is never taken
as folded: its events are applied after the snapshot's. A bad line anywhere
else, or a file that is not what it should hold, is corruption and raises
ParseError naming the file.

Reaction capture buffers are deliberately NOT stored here; only consented,
composed reaction records ever reach disk.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import quote, unquote

from .errors import DataDirUnwritable, ParseError


_SNAP = ".snap.json"
_MAX_STEM = 255 - len(_SNAP)  # 255 bytes: the common file-name limit

# A snapshot is its events' log lines joined by "," between these two: what
# json.dumps writes for {"v": 1, "events": [...]} with _line's separators.
_SNAP_HEAD, _SNAP_TAIL = b'{"v":1,"events":[', b"]}"
_HEAD, _TAIL = _SNAP_HEAD.decode(), _SNAP_TAIL.decode()
_DECODER = json.JSONDecoder()
# Built once: json.dumps with separators builds a new encoder per call. ASCII-only, as json.dumps writes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

Queues = dict[str, list[dict[str, Any]]]  # recipient -> its queue's events, oldest first
Apply = Callable[[str, Any], None]  # takes (recipient id, stored event), one event at a time


def _line(obj: dict[str, Any]) -> bytes:
    return _ENCODER.encode(obj).encode() + b"\n"


def _follows(entry: Any) -> int | None:
    """The snapshot size a log's first line names, or None when that line is an event."""
    return entry["snap"] if isinstance(entry, dict) and list(entry) == ["snap"] else None


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def check_principal(principal: str) -> None:
    """Refuse an id that cannot name its queue files: empty, or too long once percent-encoded."""
    if not 0 < len(quote(principal, safe="")) <= _MAX_STEM:
        raise ParseError(f"principal id must be 1 to {_MAX_STEM} bytes once percent-encoded")


def _fsync_dir(path: Path) -> None:
    """Make the entries of a directory durable: new, renamed or removed files."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class MemoryStore:
    """No-op persistence; used by the simulator unless a data dir is given."""

    def record_principal(self, principal: str) -> None:
        pass

    def record_event(self, recipient_id: str, event: dict[str, Any]) -> None:
        pass

    def replay(self, apply: Apply) -> set[str]:
        return set()

    def close(self) -> None:
        pass


class FileStore:
    """Append-only log + snapshot per recipient queue under ``data_dir``.

    It holds no events: a snapshot is the old snapshot joined with the log.
    """

    def __init__(self, data_dir: str | Path):
        self.root = Path(data_dir)
        queues = self.root / "queues"
        try:
            created = [d for d in (queues, *queues.parents) if not d.exists()]
            queues.mkdir(parents=True, exist_ok=True)
            for directory in created:  # each new directory's entry is durable in its parent
                _fsync_dir(directory.parent)
            probe = self.root / ".writable"
            probe.write_text("ok")
            probe.unlink()
        except OSError as exc:
            raise DataDirUnwritable(f"{self.root}: {exc}") from None

    # -- paths --

    def _log_path(self, recipient_id: str) -> Path:
        return self.root / "queues" / f"{quote(recipient_id, safe='')}.log"

    # -- writes --

    @staticmethod
    def _append_line(path: Path, obj: dict[str, Any], follows: Path | None = None) -> None:
        """Append one line and fsync it, and its directory too when the line starts the file.

        A new file's directory entry is durable only once the directory is
        fsynced. Logs start anew after every restart, since ``snapshot()``
        removes them, as well as at a new recipient's first event. A log
        that ``follows`` a snapshot starts with the line naming its size.

        A write, fsync or open that fails is DataDirUnwritable, whose detail
        names no file, so it can answer the request. What a failed write
        left is cut off again first, so the next append starts a line.
        """
        line = _line(obj)
        try:
            with open(path, "ab", buffering=0) as fh:
                size = fh.tell()
                try:
                    if size == 0 and follows is not None:
                        line = _line({"snap": _size(follows)}) + line
                    if os.write(fh.fileno(), line) < len(line):
                        raise OSError(errno.ENOSPC, "short write")
                    os.fsync(fh.fileno())
                    if size == 0:
                        _fsync_dir(path.parent)
                except OSError:
                    fh.truncate(size)
                    raise
        except OSError as exc:
            raise DataDirUnwritable(f"append failed: {exc.strerror}") from None

    def record_principal(self, principal: str) -> None:
        self._append_line(self.root / "principals.log", {"principal": principal})

    def record_event(self, recipient_id: str, event: dict[str, Any]) -> None:
        log = self._log_path(recipient_id)
        self._append_line(log, event, log.with_name(log.stem + _SNAP))

    def snapshot(self) -> None:
        """Join each log onto its queue's snapshot, then remove the log.

        The new snapshot holds the old one's events, then the log's complete
        lines. Every snapshot is fsynced and renamed into place, and the
        directory fsynced, before the first log goes. A queue without a log
        has appended nothing since its snapshot was written and is skipped.
        """
        logs = sorted((self.root / "queues").glob("*.log"))
        for log in logs:
            snap = log.with_name(log.stem + _SNAP)
            old = snap.read_bytes()[len(_SNAP_HEAD) : -len(_SNAP_TAIL)] if snap.exists() else b""
            lines = log.read_bytes().rpartition(b"\n")[0].split(b"\n")
            if lines[0] and _follows(json.loads(lines[0])) is not None:
                del lines[0]
            tmp = snap.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                fh.write(_SNAP_HEAD + b",".join(part for part in (old, *lines) if part) + _SNAP_TAIL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, snap)
        if logs:
            _fsync_dir(self.root / "queues")
        for log in logs:
            log.unlink()

    def close(self) -> None:
        self.snapshot()

    # -- recovery --

    def replay(self, apply: Apply) -> set[str]:
        """Hand every stored event to ``apply`` as it is read, then make the repairs ``read_journal`` names.

        Returns the principals. A recovery that fails, in the reading or
        in ``apply``, has written nothing.
        """
        principals, torn, folded = read_journal(self.root, apply)
        for path, size in torn:
            with open(path, "r+b") as fh:
                fh.truncate(size)
                os.fsync(fh.fileno())
        for path in folded:
            path.unlink()
        return principals

    def recover(self) -> tuple[set[str], Queues]:
        """Return (principals, per-recipient ordered event lists): ``replay`` collected into lists.

        For callers that want a whole journal at once: the storage tests and
        the benchmark's tracer. The service recovers through ``replay``.
        """
        queues: Queues = {}
        principals = self.replay(lambda recipient_id, event: queues.setdefault(recipient_id, []).append(event))
        return principals, queues


class JournalReader:
    """A data dir read as ``FileStore.replay`` reads it, without the repairs.

    It has no write methods, so a service recovered from it fails at once
    on any write rather than dropping it. Every ParseError names the dir
    once: ``read_journal``'s name its files, and a refusal by ``apply`` gets
    the dir in front.
    """

    def __init__(self, data_dir: str | Path):
        self.root = Path(data_dir)

    def replay(self, apply: Apply) -> set[str]:
        def named(recipient_id: str, event: Any) -> None:
            try:
                apply(recipient_id, event)
            except ParseError as exc:
                raise ParseError(f"{self.root}: {exc.detail}") from None

        return read_journal(self.root, named)[0]


def _log_entries(path: Path, torn: list[tuple[Path, int]]) -> Iterator[Any]:
    """Parse a log line by line; an unterminated last line is dropped and noted in ``torn`` as
    (path, size to keep)."""
    with open(path, "rb") as fh:
        kept = 0
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                torn.append((path, kept))
                return
            kept += len(line)
            if not line.strip():
                continue
            try:
                entry = json.loads(line[:-1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            yield entry


def _snapshot_events(path: Path) -> Iterator[Any]:
    """Walk a snapshot's event array in place, one event at a time.

    A snapshot is its events' log lines joined by "," between ``_SNAP_HEAD``
    and ``_SNAP_TAIL``, as ``snapshot()`` writes it; anything else is refused.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc!r}") from None
    if not (text.startswith(_HEAD) and text.endswith(_TAIL)):
        raise ParseError(f"{path}: a snapshot starts {_HEAD} and ends {_TAIL}")
    pos, end = len(_HEAD), len(text) - len(_TAIL)
    while pos < end:
        try:
            event, pos = _DECODER.raw_decode(text, pos)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc!r}") from None
        yield event
        if pos < end - 1 and text[pos] == ",":
            pos += 1
        elif pos != end:
            raise ParseError(f"{path}: char {pos}: expected ',' and an event, or the end of the events")


def _replay_log(log: Path, snap: Path, recipient_id: str, apply: Apply, torn: list[tuple[Path, int]]) -> bool:
    """Apply a log's events unless they are already in its snapshot; returns whether they were.

    The first line decides: a ``{"snap":N}`` line naming another size than
    the snapshot's marks the log folded, and a log without one is not. A
    folded log is still read to its end.
    """
    folded = None
    for entry in _log_entries(log, torn):
        if folded is None:
            follows = _follows(entry)
            folded = follows is not None and follows != _size(snap)
            if follows is not None:
                continue
        if not folded:
            apply(recipient_id, entry)
    return bool(folded)


def read_journal(root: Path, apply: Apply) -> tuple[set[str], list[tuple[Path, int]], list[Path]]:
    """Read a data dir without writing to it, calling ``apply(recipient_id, event)`` for each stored
    event as it is parsed.

    Queues come in the order of their snapshots' file names, then those
    with only a log in the order of the logs' names; a queue's snapshot
    events come before its log's. What ``apply`` raises reaches the caller
    as it is. Returns the principals, the torn tails (each log with the size
    its complete lines take) and the logs already folded into their
    snapshots; ``FileStore.replay()`` repairs the last two.
    """
    queues_dir = root / "queues"
    if not queues_dir.is_dir():
        raise ParseError(f"{root}: not a data dir, it has no queues/")
    torn: list[tuple[Path, int]] = []
    folded: list[Path] = []
    path = root / "principals.log"
    try:
        principals = {entry["principal"] for entry in _log_entries(path, torn)} if path.exists() else set()
    except (LookupError, TypeError) as exc:  # a line that is not a principal
        raise ParseError(f"{path}: {exc!r}") from None
    snapped = [p.name[: -len(_SNAP)] for p in sorted(queues_dir.glob(f"*{_SNAP}"))]
    has_snapshot = set(snapped)
    logged_only = [p.stem for p in sorted(queues_dir.glob("*.log")) if p.stem not in has_snapshot]
    for stem in snapped + logged_only:
        recipient_id = unquote(stem)
        snap, log = queues_dir / f"{stem}{_SNAP}", queues_dir / f"{stem}.log"
        if snap.exists():
            for event in _snapshot_events(snap):
                apply(recipient_id, event)
        if log.exists() and _replay_log(log, snap, recipient_id, apply, torn):
            folded.append(log)
    return principals, torn, folded
