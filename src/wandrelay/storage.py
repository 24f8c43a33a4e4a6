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

``read_journal`` reads a data dir and writes nothing, so ``report`` can read
a live server's; ``FileStore.recover()`` then repairs what a crash can leave
behind. An unterminated last line is an append cut short, never
acknowledged: it is dropped, and recovery cuts it off the file. A log whose
snapshot is no longer the size its first line names is one a crash left
between the snapshot's rename and the log's removal: its events are in the
snapshot, and recovery removes it. (A log written before
logs named their snapshot counts as folded when its events end the
snapshot.) A bad line anywhere else, or a file that is not what it should
hold, is corruption and raises ParseError naming the file.

Reaction capture buffers are deliberately NOT stored here; only consented,
composed reaction records ever reach disk.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Any
from urllib.parse import quote, unquote

from .errors import DataDirUnwritable, ParseError


_SNAP = ".snap.json"
_MAX_STEM = 255 - len(_SNAP)  # 255 bytes: the common file-name limit

# A snapshot is its events' log lines joined by "," between these two: what
# json.dumps writes for {"v": 1, "events": [...]} with _line's separators.
_SNAP_HEAD, _SNAP_TAIL = b'{"v":1,"events":[', b"]}"

Queues = dict[str, list[dict[str, Any]]]  # recipient -> its queue's events, oldest first


def _line(obj: dict[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


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

    def recover(self) -> tuple[set[str], Queues]:
        return set(), {}

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

    def recover(self) -> tuple[set[str], Queues]:
        """Return (principals, per-recipient ordered event lists), after the repairs ``read_journal`` names."""
        principals, queues, torn, folded = read_journal(self.root)
        for path, size in torn:
            with open(path, "r+b") as fh:
                fh.truncate(size)
                os.fsync(fh.fileno())
        for path in folded:
            path.unlink()
        return principals, queues


def _read_lines(path: Path, torn: list[tuple[Path, int]]) -> list[dict[str, Any]]:
    """Parse a log; an unterminated last line is dropped and noted in ``torn`` as (path, size to keep)."""
    if not path.exists():
        return []
    data = path.read_bytes()
    body, _, tail = data.rpartition(b"\n")
    entries = []
    for lineno, line in enumerate(body.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if tail:
        torn.append((path, len(data) - len(tail)))
    return entries


def read_journal(root: Path) -> tuple[set[str], Queues, list[tuple[Path, int]], list[Path]]:
    """Read a data dir without writing to it.

    Returns the principals, each queue's events in order, the torn tails
    (each log with the size its complete lines take) and the logs already
    folded into their snapshots; ``FileStore.recover()`` repairs the last two.
    """
    queues_dir = root / "queues"
    if not queues_dir.is_dir():
        raise ParseError(f"{root}: not a data dir, it has no queues/")
    states: Queues = {}
    torn, folded = [], []
    path = root / "principals.log"  # the file being read, for the error
    try:
        principals = {entry["principal"] for entry in _read_lines(path, torn)}
        for path in sorted(queues_dir.glob(f"*{_SNAP}")):
            states[unquote(path.name[: -len(_SNAP)])] = list(json.loads(path.read_text())["events"])
        for path in sorted(queues_dir.glob("*.log")):
            events = _read_lines(path, torn)
            journal = states.setdefault(unquote(path.stem), [])
            follows = _follows(events[0]) if events else None
            if follows is not None:
                events = events[1:]
                is_folded = follows != _size(path.with_name(path.stem + _SNAP))
            else:  # a log written before logs named their snapshot
                is_folded = bool(events) and journal[-len(events):] == events
            if is_folded:
                folded.append(path)
            else:
                journal.extend(events)
    except (LookupError, TypeError, ValueError) as exc:  # a file that is not what it should hold
        raise ParseError(f"{path}: {exc!r}") from None
    return principals, states, torn, folded
