"""Replay one script of inbound frames in-process and over TCP.

A script is a list of items:

* ``("open", role, principal)``: the principal says HELLO (over TCP this
  opens its connection, closing the previous one of the same role);
* ``("frame", principal, kind, line)``: one encoded inbound frame;
* ``("end", datetime)``: the simulator's scenario end, ``end_of_run``; it
  has no wire form, so the TCP replay skips it.

The in-process replay does per frame what the server's connection handler
does (decode, ``handle_frame``, encode what goes back on the connection),
and keeps those encoded responses; the TCP replay sends the same frames and
checks that the same bytes come back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import served


@dataclass
class InProcess:
    service: Any
    recorder: Any
    responses: list[list[bytes] | None]
    frame_s: float  # time spent in frame items only
    context_s: float  # of which in CONTEXT frames
    contexts: int
    bytes_total: int = 0
    frames_total: int = 0


def run_inprocess(wr: Any, script: list[tuple], data_dir: Path, tracer: Any = None) -> InProcess:
    """Drive a fresh durable DeliveryService through the script."""
    data_dir.mkdir(parents=True, exist_ok=True)
    recorder = wr.protocol.FrameRecorder(data_dir / "frames.ndjson")
    service = wr.service.DeliveryService(wr.storage.FileStore(data_dir), recorder=recorder)
    protocol = wr.protocol
    responses: list[list[bytes] | None] = []
    frame_s = context_s = 0.0
    contexts = 0
    nbytes = nframes = 0
    perf = time.perf_counter

    def one(principal: str, line: bytes) -> list[bytes]:
        frame = protocol.decode_frame(line)
        return [protocol.encode_frame(r) for r in service.handle_frame(frame) if r.get("to") in (None, principal)]

    for item in script:
        tag = item[0]
        if tag == "frame":
            _, principal, kind, line = item
            t0 = perf()
            if tracer is None:
                out = one(principal, line)
            else:
                out = tracer.call(f"request.{kind}", one, (principal, line), {})
            elapsed = perf() - t0
            frame_s += elapsed
            responses.append(out)
            if kind == "CONTEXT":
                contexts += 1
                context_s += elapsed
            nbytes += len(line) + sum(len(r) for r in out)
            nframes += 1 + len(out)
        elif tag == "open":
            out = service.handle_frame(served.hello(item[1], item[2]))
            if [r["kind"] for r in out] != ["ACK"]:
                raise RuntimeError(f"HELLO {item[2]} answered {out}")
            responses.append(None)
        else:
            service.end_of_run(item[1])
            responses.append(None)
    recorder.close()
    return InProcess(service, recorder, responses, frame_s, context_s, contexts, nbytes, nframes)


@dataclass
class OverTcp:
    elapsed_s: float = 0.0  # time spent in frame items, barriers included
    context_s: float = 0.0  # of which in runs of CONTEXT frames, up to their barrier
    bytes_in: int = 0  # bytes the server received
    bytes_out: int = 0  # bytes the server sent
    frames_sent: int = 0
    mismatches: int = 0
    errors: int = 0


def run_tcp(script: list[tuple], expected: list[list[bytes] | None], port: int) -> OverTcp:
    """Send the script over at most two connections and compare every response.

    Expected responses come from the in-process replay of the same script.
    A sender view that follows a scenario end is compared by kind only,
    because ``end_of_run`` has no wire form.
    """
    res = OverTcp()
    conns: dict[str, served.Conn] = {}  # principal -> connection
    roles: dict[str, str] = {}
    unacked: dict[str, int] = {}  # principal -> CONTEXT frames with no reply yet
    after_end = False
    seg_start: float | None = None
    run_of: str | None = None  # principal whose run of CONTEXT frames is being timed
    run_start = 0.0
    perf = time.perf_counter

    def barrier(principal: str) -> None:
        # Re-announcing the connection's own principal is answered in order,
        # so its ACK means every earlier frame on the connection was handled.
        if unacked.get(principal):
            reply = conns[principal].request(served.hello(roles[principal], principal))
            if reply["kind"] != "ACK":
                res.errors += 1
            unacked[principal] = 0

    def end_context_run() -> None:
        nonlocal run_of
        if run_of is not None:
            barrier(run_of)
            res.context_s += perf() - run_start
            run_of = None

    def close_segment() -> None:
        nonlocal seg_start
        end_context_run()
        for p in list(conns):
            barrier(p)
        if seg_start is not None:
            res.elapsed_s += perf() - seg_start
            seg_start = None

    def drop(principal: str) -> None:
        conn = conns.pop(principal)
        res.bytes_in += conn.bytes_out
        res.bytes_out += conn.bytes_in
        conn.close()

    try:
        for item, exp in zip(script, expected):
            tag = item[0]
            if tag == "open":
                close_segment()
                role, principal = item[1], item[2]
                for other in [p for p in conns if roles[p] == role or p == principal]:
                    drop(other)
                conn = served.Conn(port)
                conns[principal] = conn
                roles[principal] = role
                unacked[principal] = 0
                if conn.request(served.hello(role, principal))["kind"] != "ACK":
                    res.errors += 1
                after_end = False
            elif tag == "end":
                after_end = True
            else:
                _, principal, kind, line = item
                if kind != "CONTEXT" or principal != run_of:
                    end_context_run()
                for other in conns:
                    if other != principal:
                        barrier(other)
                if seg_start is None:
                    seg_start = perf()
                conn = conns[principal]
                t0 = perf()
                if kind == "CONTEXT" and run_of is None:
                    run_of, run_start = principal, t0
                conn.send(line)
                got = [conn.recv_line() for _ in exp]
                res.frames_sent += 1
                unacked[principal] = 0 if exp else unacked[principal] + 1
                for g, e in zip(got, exp):
                    if b'"kind":"ERROR"' in g:
                        res.errors += 1
                    if g != e and not (after_end and b'"kind":"SENDER_VIEW_RESP"' in e and b'"kind":"SENDER_VIEW_RESP"' in g):
                        res.mismatches += 1
        close_segment()
    finally:
        for p in list(conns):
            drop(p)
    return res
