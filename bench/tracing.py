"""Spans recorded from the benchmark's side of each module boundary.

``Tracer.install`` swaps each traced function for a wrapper at the name its
caller looks it up by (``service.evaluate_sample``, ``sim.haversine_distance``
and so on) and ``uninstall`` puts the originals back, so no file of the
program changes. A span is ``[name, start_ns, end_ns, parent, request]``;
the request is the index of the root span that caused it. Calls too frequent
to span individually (haversine) are counted instead.
"""

from __future__ import annotations

import gzip
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = [-1]
        self._request = -1
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1]
        if parent < 0:
            self._request = idx
        rec = [name, 0, 0, parent, self._request]
        spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    # -- installing wrappers -----------------------------------------------------

    def _swap(self, owner: Any, attr: str, wrapper: Callable) -> None:
        static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def span(self, owner: Any, attr: str, name: str | Callable[[tuple], str],
             after: Callable[[tuple, Any], None] | None = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        orig = getattr(owner, attr)
        call = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = call(name(args) if callable(name) else name, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        self._swap(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, key: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return orig(*args, **kwargs)

        self._swap(owner, attr, wrapper)

    def span_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record one span per item a generator function yields."""
        orig = getattr(owner, attr)
        call = self.call

        def wrapper(*args: Any, **kwargs: Any):
            it = orig(*args, **kwargs)
            while True:
                try:
                    item = call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        self._swap(owner, attr, wrapper)

    def install(self, wr: Any) -> None:
        """Wrap every module boundary the per-layer metrics are read from."""
        service, engine, sim, protocol = wr.service, wr.engine, wr.sim, wr.protocol
        counts = self.counts

        def after_expire(args: tuple, result: Any) -> None:
            counts["engine.expire_scanned"] += len(args[1])

        def after_evaluate(args: tuple, result: Any) -> None:
            counts["engine.evaluate_scanned"] += len(args[1])
            counts["engine.deliveries"] += len(result[0])

        def after_finalize(args: tuple, result: Any) -> None:
            counts["reaction.forwarded" if result is not None else "reaction.discarded"] += 1

        def after_recover(args: tuple, result: Any) -> None:
            counts["storage.recovered_events"] += sum(len(events) for events in result[1].values())

        self.span(service.DeliveryService, "handle_frame", lambda a: f"service.handle_frame.{a[1]['kind']}")
        self.span(service, "expire_messages", "engine.expire", after_expire)
        self.span(service, "evaluate_sample", "engine.evaluate", after_evaluate)
        self.span(service, "sample_from_dict", "engine.sample_from_dict")
        self.span(sim, "sample_to_dict", "engine.sample_to_dict")
        self.count(engine, "haversine_distance", "engine.haversine")
        self.count(sim, "haversine_distance", "sim.marker_distance")
        self.span_generator(sim, "sample_stream", "sim.sample_stream")
        self.span(protocol, "decode_frame", "protocol.decode")
        self.span(protocol, "encode_frame", "protocol.encode")
        self.span(protocol, "make_frame", "protocol.make_frame")
        self.span(protocol.FrameRecorder, "record", "protocol.record")
        for module in (service, engine, wr.model, wr.reaction, sim):
            self.span(module, "format_rfc3339", "timeutil.format")
            self.span(module, "parse_rfc3339", "timeutil.parse")
        self.span(service, "message_from_dict", "model.message_from_dict")
        self.span(service, "message_to_dict", "model.message_to_dict")
        self.span(service, "catalog_item", "model.catalog_item")
        self.span(service, "validate_schedule", "model.validate_schedule")
        self.span(sim, "compose", "model.compose")
        self.span(sim, "message_to_dict", "model.message_to_dict")
        self.span(service, "finalize", "reaction.finalize", after_finalize)
        self.span(service, "reaction_to_dict", "reaction.to_dict")
        self.span(wr.reaction.CaptureManager, "begin_capture", "reaction.begin_capture")
        self.span(wr.storage.FileStore, "_append_line", "storage.append_fsync")
        self.span(wr.storage.FileStore, "snapshot", "storage.snapshot")
        self.span(wr.storage.FileStore, "recover", "storage.recover", after_recover)
        self.span(wr.analytics, "summarize_frames_groups", "analytics.summarize")
        self.span(wr.analytics, "render_text", "analytics.render")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------------

    def self_times_us(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [(s[2] - s[1]) / 1000.0 for s in self.spans]
        for s, dur in zip(self.spans, list(out)):
            if s[3] >= 0:
                out[s[3]] -= dur
        return out

    def self_by_name(self) -> dict[str, list[float]]:
        by: dict[str, list[float]] = defaultdict(list)
        for s, st in zip(self.spans, self.self_times_us()):
            by[s[0]].append(st)
        return by

    def self_share_by_layer(self, root_name: str) -> dict[str, float]:
        """Share of the time under ``root_name`` roots spent in each layer's own code."""
        selfs = self.self_times_us()
        roots = {i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == root_name}
        total = sum((self.spans[i][2] - self.spans[i][1]) / 1000.0 for i in roots)
        by_layer: Counter[str] = Counter()
        for s, st in zip(self.spans, selfs):
            if s[4] in roots:
                by_layer[s[0].split(".")[0]] += st
        return {layer: v / total for layer, v in by_layer.items()} if total else {}

    def dump(self, fh: Any, phase: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        json.dump(
            {
                "phase": phase,
                "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                "names": names,
                "counts": dict(self.counts),
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            },
            fh,
            separators=(",", ":"),
        )
        fh.write("\n")


def write_spans(path: Path, tracers: dict[str, Tracer]) -> None:
    """All phases' spans, one JSON document per line, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for phase, tracer in tracers.items():
            tracer.dump(fh, phase)
