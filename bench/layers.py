"""The traced run: per-layer numbers from replaying a workload's frames.

1. Build the workload's replay script with spans on (this is where ``sim``
   works: the twelve pairs are simulated, or the walk is sampled).
2. Replay it in-process without spans: the single-threaded baseline.
3. Replay it again with spans, then snapshot, recover and report on it.
4. Serve it over TCP: the difference from step 2 is the wire's share.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import replay
import served
from tracing import Tracer, write_spans
from workloads import PAPER_TABLE, Run, check_table, pct, say_hello, start_server

KINDS = ("CONTEXT", "SUBMIT", "CONSENT", "SENDER_VIEW_REQ")
SHARE_LAYERS = ("engine", "service", "storage", "protocol", "timeutil", "model", "reaction")


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _errors(responses: list[list[bytes] | None]) -> int:
    return sum(1 for out in responses if out for r in out if b'"kind":"ERROR"' in r)


def traced(run: Run, make_script: Callable[[Run], tuple[list[tuple], dict]], spans_path: Path) -> dict[str, float]:
    wr, out = run.wr, run.outcome

    with Tracer() as gen:
        gen.install(wr)
        script, info = make_script(run)
    frames = sum(1 for item in script if item[0] == "frame")
    contexts = sum(1 for item in script if item[0] == "frame" and item[2] == "CONTEXT")
    run.meta.update(info, script_frames=frames, samples=contexts)

    plain = replay.run_inprocess(wr, script, run.fresh_dir("replay-plain"))
    out.ops(frames)
    if _errors(plain.responses):
        out.fail(f"{_errors(plain.responses)} ERROR frames in the in-process replay", _errors(plain.responses))

    data_dir = run.fresh_dir("replay-traced")
    with Tracer() as tr:
        tr.install(wr)
        spanned = replay.run_inprocess(wr, script, data_dir, tracer=tr)
        spanned.service.close()
        wr.service.DeliveryService(wr.storage.FileStore(data_dir))
        report = wr.analytics.summarize_frames_groups([spanned.recorder.frames])
        text = wr.analytics.render_text(report)
    out.check(spanned.responses == plain.responses, "traced replay answered differently from the untraced one")
    if {p.pair_id for p in report.pairs} == set(PAPER_TABLE):
        check_table(run, report, text)
    snapshot_bytes = sum(p.stat().st_size for p in (data_dir / "queues").glob("*.snap.json"))

    server = start_server(run, "replay-serve")
    try:
        conn = served.Conn(server.port)
        say_hello(run, conn, "sender", "probe")
        rtts = []
        for _ in range(run.sizes.hello_pings):
            t0 = time.perf_counter()
            reply = conn.request(served.hello("sender", "probe"))
            rtts.append(time.perf_counter() - t0)
            out.ops()
            if reply["kind"] != "ACK":
                out.fail(f"HELLO ping answered {reply}")
        conn.close()
        tcp = replay.run_tcp(script, plain.responses, server.port)
        out.ops(tcp.frames_sent)
        if tcp.errors:
            out.fail(f"{tcp.errors} ERROR frames in the served replay", tcp.errors)
        if tcp.mismatches:
            out.fail(f"{tcp.mismatches} served replies differ from in-process", tcp.mismatches)
    finally:
        server.stop()

    write_spans(spans_path, {"generate": gen, "replay": tr})
    return layer_metrics(run, gen, tr, plain, spanned, tcp, rtts, snapshot_bytes, frames, contexts)


def layer_metrics(run: Run, gen: Tracer, tr: Tracer, plain: replay.InProcess, spanned: replay.InProcess,
                  tcp: replay.OverTcp, rtts: list[float], snapshot_bytes: int,
                  frames: int, contexts: int) -> dict[str, float]:
    dur: dict[str, list[float]] = defaultdict(list)
    in_request: dict[tuple[str, str], int] = defaultdict(int)  # spans under a request of each kind, by name
    for s in tr.spans:
        dur[s[0]].append((s[2] - s[1]) / 1000.0)
        root = tr.spans[s[4]][0]
        if root.startswith("request."):
            in_request[(root[len("request."):], s[0])] += 1
    selfs = tr.self_by_name()
    c = tr.counts
    n = max(contexts, 1)
    timeutil_calls = in_request[("CONTEXT", "timeutil.format")] + in_request[("CONTEXT", "timeutil.parse")]
    appends = sum(v for (kind, name), v in in_request.items() if name == "storage.append_fsync")
    m: dict[str, float] = {
        "engine.expire_us": mean(dur["engine.expire"]),
        "engine.evaluate_us": mean(dur["engine.evaluate"]),
        "engine.scanned_per_sample": (c["engine.expire_scanned"] + c["engine.evaluate_scanned"]) / n,
        "engine.haversine_per_sample": c["engine.haversine"] / n,
        "engine.fire_ratio": c["engine.deliveries"] / c["engine.evaluate_scanned"] if c["engine.evaluate_scanned"] else 0.0,
        "sim.sample_stream_us": mean([(s[2] - s[1]) / 1000.0 for s in gen.spans if s[0] == "sim.sample_stream"]),
        "sim.marker_distance_calls": float(gen.counts["sim.marker_distance"]),
        "protocol.encode_us": mean(dur["protocol.encode"]),
        "protocol.decode_us": mean(dur["protocol.decode"]),
        "protocol.record_us": mean(dur["protocol.record"]),
        "protocol.bytes_per_frame": spanned.bytes_total / max(spanned.frames_total, 1),
        "timeutil.format_us": mean(dur["timeutil.format"]),
        "timeutil.parse_us": mean(dur["timeutil.parse"]),
        "timeutil.calls_per_sample": timeutil_calls / n,
        "model.message_from_dict_us": mean(dur["model.message_from_dict"]),
        "model.catalog_item_us": mean(dur["model.catalog_item"]),
    }
    for kind in KINDS:
        m[f"service.handle_frame_us.{kind}"] = mean(dur[f"service.handle_frame.{kind}"])
        m[f"service.self_us.{kind}"] = mean(selfs.get(f"service.handle_frame.{kind}", []))
    appends_us = dur["storage.append_fsync"]
    m.update({
        "service.pending": c["engine.expire_scanned"] / n,
        "storage.append_fsync_us": mean(appends_us),
        "storage.append_fsync_p99_us": pct(appends_us, 99) if appends_us else 0.0,
        "storage.appends_per_op": appends / max(frames, 1),
        "storage.snapshot_s": sum(dur["storage.snapshot"]) / 1e6,
        "storage.snapshot_bytes": float(snapshot_bytes),
        "storage.recover_s": sum(dur["storage.recover"]) / 1e6,
        "storage.recovered_events": float(c["storage.recovered_events"]),
        "reaction.finalize_us": mean(dur["reaction.finalize"]),
        "reaction.captures_started": float(len(dur["reaction.begin_capture"])),
        "reaction.forwarded": float(c["reaction.forwarded"]),
        "reaction.discarded": float(c["reaction.discarded"]),
        "server.hello_rtt_us": statistics.median(rtts) * 1e6,
        "server.wire_us_per_context": (tcp.context_s - plain.context_s) / n * 1e6,
        "server.bytes_in": float(tcp.bytes_in),
        "server.bytes_out": float(tcp.bytes_out),
        "analytics.summarize_s": sum(dur["analytics.summarize"]) / 1e6,
        "analytics.render_s": sum(dur["analytics.render"]) / 1e6,
        "trace_overhead_frac": spanned.frame_s / plain.frame_s - 1.0,
    })
    shares = tr.self_share_by_layer("request.CONTEXT")
    for layer in SHARE_LAYERS:
        m[f"context_share.{layer}"] = shares.get(layer, 0.0)
    run.meta.update(
        replay_s={"in_process": round(plain.frame_s, 4), "traced": round(spanned.frame_s, 4),
                  "tcp": round(tcp.elapsed_s, 4)},
        context_self_share={k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])},
    )
    return m
