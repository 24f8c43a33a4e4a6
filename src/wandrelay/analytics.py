"""Deliverability statistics over run logs or data dirs.

From a run log, counts come only from SUBMIT and PLAYBACK frames plus the
terminal states reported by the closing sender-view frames. From a data dir,
they come from the message records of a service recovered from it, as
``serve`` recovers it but without the repairs, so the report refuses what
``serve`` refuses and writes nothing. Each (sender, recipient) pair gets
per-category sent/received counts and an integer-percent delivery rate;
summary rows (median / mean / sample SD) are computed over those integer
rates, excluding pairs with nothing sent in a category. The text and CSV
renderings lay out one table: the same rows with the same cells, under
their own headers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from . import protocol
from .errors import IncompleteLog, ParseError
from .model import ArMessage, MessageState, Specificity, message_from_dict
from .service import DeliveryService
from .storage import JournalReader

CATEGORIES = ("location", "time", "marker", "specific", "flexible", "direct")

_DELIVERED_STATES = {MessageState.DELIVERED, MessageState.REACTED, MessageState.REACTION_DECLINED}
# The only frame kinds a run log's report reads; a tuple, so a kind of any type is simply not among them.
_COUNTED_KINDS = (protocol.SUBMIT, protocol.PLAYBACK, protocol.SENDER_VIEW_RESP)


def categorize(message: ArMessage) -> str:
    """Exactly one of the six categories per message."""
    schedule = message.schedule
    if schedule is None:
        return "direct"
    if schedule.is_compound:
        return "specific" if schedule.specificity is Specificity.SPECIFIC else "flexible"
    if schedule.geofence is not None:
        return "location"
    if schedule.window is not None:
        return "time"
    return "marker"


def round_half_up(value: float) -> int:
    """62.5% rounds to 63, matching the report's integer-percent convention."""
    return int(math.floor(value + 0.5))


@dataclass(slots=True)
class Stats:
    median: float
    mean: float
    sd: float | None  # sample standard deviation; None when n < 2


def stats(values: Sequence[float]) -> Stats | None:
    """None for an empty list: a column with no values has no statistics."""
    if not values:
        return None
    return Stats(
        median=float(statistics.median(values)),
        mean=statistics.fmean(values),
        sd=statistics.stdev(values) if len(values) >= 2 else None,
    )


@dataclass(slots=True)
class CategoryTally:
    sent: int = 0
    received: int = 0

    @property
    def rate(self) -> int | None:
        """Integer delivery percent; None (N/A) when nothing was sent."""
        if self.sent == 0:
            return None
        return round_half_up(self.received / self.sent * 100.0)


@dataclass(slots=True)
class PairSummary:
    sender_id: str
    recipient_id: str
    tallies: dict[str, CategoryTally] = field(
        default_factory=lambda: {c: CategoryTally() for c in CATEGORIES}
    )

    @property
    def pair_id(self) -> str:
        return f"{self.sender_id}/{self.recipient_id}"


@dataclass(slots=True)
class Report:
    pairs: list[PairSummary]
    sent_stats: dict[str, Stats | None]
    received_stats: dict[str, Stats | None]
    rate_stats: dict[str, Stats | None]


def summarize_frames_groups(groups: Iterable[Iterable[Mapping[str, Any]]]) -> Report:
    """Aggregate one or more frame logs into a deliverability report."""
    messages: dict[str, ArMessage] = {}
    playback_ids: set[str] = set()
    final_states: dict[str, MessageState] = {}

    for frames in groups:
        for frame in frames:
            kind = frame.get("kind")
            if kind not in _COUNTED_KINDS:  # mostly CONTEXT, whose payload is never opened
                continue
            payload = frame.get("payload", {})
            try:
                if kind == protocol.SUBMIT:
                    message = message_from_dict(payload["message"])
                    messages[message.message_id] = message
                elif kind == protocol.PLAYBACK:
                    playback_ids.add(payload["message_id"])
                elif kind == protocol.SENDER_VIEW_RESP:
                    for record in payload.get("records", []):
                        # Later views supersede earlier ones.
                        final_states[record["message_id"]] = MessageState(record["state"])
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                raise ParseError(f"bad {kind} frame: {exc!r}") from None

    outcomes = []
    for message_id, message in messages.items():
        state = final_states.get(message_id)
        if state is None or state is MessageState.PENDING:
            raise IncompleteLog(f"{message_id} has no terminal state")
        delivered = state in _DELIVERED_STATES
        if delivered != (message_id in playback_ids):
            raise IncompleteLog(f"{message_id}: playback frames disagree with state {state.value}")
        outcomes.append((message, delivered))
    return _summarize(outcomes)


def summarize_data_dirs(roots: Sequence[str | Path]) -> Report:
    """Aggregate data dirs, each recovered as ``serve`` recovers it, into a deliverability report.

    Each dir is read by ``DeliveryService`` over a ``JournalReader``, so a
    journal that recovery refuses is refused here too, with a ``ParseError``
    naming the dir once. Its messages count in ``(created_at, message_id)``
    order, so pairs come in the order of their first message. A message is
    received exactly when it was delivered: a Pending one counts as sent and
    not received, as the end of a run would expire it.
    """
    outcomes = []
    for root in roots:
        records = DeliveryService(JournalReader(root)).records.values()
        ordered = sorted(records, key=lambda r: (r.message.created_at, r.message.message_id))
        outcomes += [(r.message, r.delivered_at is not None) for r in ordered]
    return _summarize(outcomes)


def _summarize(outcomes: Iterable[Sequence[Any]]) -> Report:
    """Count each (message, received) into its pair's category; pairs in order of first message."""
    pairs: dict[tuple[str, str], PairSummary] = {}
    for message, received in outcomes:
        key = (message.sender_id, message.recipient_id)
        tally = pairs.setdefault(key, PairSummary(*key)).tallies[categorize(message)]
        tally.sent += 1
        tally.received += received

    ordered = list(pairs.values())
    report = Report(pairs=ordered, sent_stats={}, received_stats={}, rate_stats={})
    for c in CATEGORIES:
        tallies = [p.tallies[c] for p in ordered]
        report.sent_stats[c] = stats([float(t.sent) for t in tallies])
        report.received_stats[c] = stats([float(t.received) for t in tallies])
        report.rate_stats[c] = stats([float(t.rate) for t in tallies if t.rate is not None])
    return report


def summarize_paths(paths: Sequence[str | Path]) -> Report:
    """A report over run log files, or over data dirs; a mix of the two is refused."""
    dirs = [Path(p).is_dir() for p in paths]
    if any(dirs) and not all(dirs):
        raise ParseError("report reads run log files or data dirs, not a mix of both")
    return summarize_data_dirs(paths) if all(dirs) else summarize_frames_groups(map(protocol.read_frames, paths))


# -- rendering ---------------------------------------------------------------


def _fmt_count(x: float | None) -> str:
    if x is None:
        return "N/A"
    text = f"{x:.2f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _fmt_rate(x: float | None) -> str:
    return "N/A" if x is None else f"{round_half_up(x)}%"


def _fmt_rate_mean(x: float | None) -> str:
    return "N/A" if x is None else f"{x:.1f}%"


def _fmt_rate_sd(x: float | None) -> str:
    return "N/A" if x is None else f"{x:.1f}"


def _body(report: Report) -> Iterator[tuple[str, list[str], list[str]]]:
    """Every body row as (label, sender and recipient, cells): one row per pair, then Median, Mean
    and SD when there are pairs. A summary row leaves sender and recipient empty."""
    for pair in report.pairs:
        cells = []
        for c in CATEGORIES:
            tally = pair.tallies[c]
            cells += [str(tally.sent), str(tally.received), _fmt_rate(tally.rate)]
        yield pair.pair_id, [pair.sender_id, pair.recipient_id], cells
    if not report.pairs:
        return
    for label, attr, fmt_rate in (
        ("Median", "median", _fmt_rate),
        ("Mean", "mean", _fmt_rate_mean),
        ("SD", "sd", _fmt_rate_sd),
    ):
        cells = []
        for c in CATEGORIES:
            sent, received, rate = (
                None if column is None else getattr(column, attr)
                for column in (report.sent_stats[c], report.received_stats[c], report.rate_stats[c])
            )
            cells += [_fmt_count(sent), _fmt_count(received), fmt_rate(rate)]
        yield label, ["", ""], cells


def render_text(report: Report) -> str:
    """Aligned per-pair counts and rates with Median/Mean/SD rows appended."""
    header = ["Pair"]
    for c in CATEGORIES:
        title = c.capitalize()
        header += [f"{title} Sent", f"{title} Rcvd", f"{title} Rate"]
    rows = [header] + [[label] + cells for label, _parties, cells in _body(report)]
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """One row per pair, summary rows appended; cells match the text report."""
    header = ["pair", "sender", "recipient"]
    for c in CATEGORIES:
        header += [f"{c}_sent", f"{c}_received", f"{c}_rate"]
    lines = [",".join(header)]
    for label, parties, cells in _body(report):
        lines.append(",".join([label] + parties + cells))
    return "\n".join(lines) + "\n"
