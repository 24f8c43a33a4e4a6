from __future__ import annotations

import errno
import io
import json
import os
import re
import socket
import statistics
import sys
import threading
import time
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest

from wandrelay import errors, protocol
from wandrelay.errors import AddressInUse, ParseError
from wandrelay.ids import IdFactory
from wandrelay.model import MessageState, VoiceNote, compose, message_to_dict
from wandrelay.reaction import LAST_CAPTURE_START
from wandrelay.server import MAX_LINE_BYTES, WandRelayServer, WireClient, _Handler
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore, MemoryStore
from wandrelay.engine import sample_to_dict, ContextSample
from wandrelay.timeutil import format_rfc3339

from client import submit
from conftest import at
from genrandom import lat_off, lon_off
from test_service import OFF_THE_GLOBE, fenced, off_the_globe


LONE_SURROGATE = b'{"v":1,"kind":"SENDER_VIEW_REQ","payload":{"sender_id":"\\ud800"}}\n'


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = protocol.make_frame(protocol.ACK, {"of": "SUBMIT", "message_id": "X"}, to="s1")
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            protocol.make_frame("NOPE", {})
        with pytest.raises(ParseError):
            protocol.decode_frame('{"v": 1, "kind": "NOPE", "payload": {}}')

    def test_wrong_version_rejected(self):
        with pytest.raises(ParseError):
            protocol.decode_frame('{"v": 2, "kind": "ACK", "payload": {}}')

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            protocol.decode_frame("not json at all")
        with pytest.raises(ParseError):
            protocol.decode_frame(b'{"v": 1, "kind": "\xff"}\n')
        with pytest.raises(ParseError):  # an unpaired surrogate cannot be written out again
            protocol.decode_frame(LONE_SURROGATE)

    def test_reaction_frames_logged_without_transcript(self):
        frame = protocol.make_frame(
            protocol.REACTION_FRAME,
            {"message_id": "X", "t": "2021-06-05T09:00:02Z", "transcript": "private words"},
            sender="r1",
        )
        safe = protocol.loggable_frame(frame)
        assert "transcript" not in safe["payload"]
        assert safe["payload"]["transcript_redacted"] is True
        assert safe["payload"]["message_id"] == "X"
        # the original frame is untouched
        assert frame["payload"]["transcript"] == "private words"

    def test_recorder_writes_readable_log(self, tmp_path):
        path = tmp_path / "frames.ndjson"
        recorder = protocol.FrameRecorder(path)
        frames = [
            protocol.make_frame(protocol.HELLO, {"role": "recipient", "principal": "r1"}),
            protocol.make_frame(
                protocol.REACTION_FRAME,
                {"message_id": "X", "t": "2021-06-05T09:00:02Z", "transcript": "secret"},
            ),
        ]
        for frame in frames:
            recorder.record(frame)
        recorder.close()
        loaded = list(protocol.read_frames(path))
        assert len(loaded) == 2
        assert "secret" not in path.read_text()

    def test_the_one_encoder_writes_what_json_dumps_writes(self):
        frame = context_frame("r\u00e9", at("09:00:00"))
        frame["payload"]["note"] = ["\u2603", 1.5e-7, None, True, {"nested": [float("inf")]}]
        expected = json.dumps(frame, separators=(",", ":"), ensure_ascii=False)
        assert protocol.dumps_canonical(frame) == expected
        assert protocol.encode_frame(frame) == (expected + "\n").encode("utf-8")


class FullDisk(io.StringIO):
    """A frame log file that, once armed, lets ``skip`` writes through and fails the next with ENOSPC."""

    fail_in: int | None = None

    def fail_after(self, skip: int) -> None:
        self.fail_in = skip

    def write(self, text):
        if self.fail_in == 0:
            self.fail_in = None
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "/srv/wandrelay/frames.ndjson")
        if self.fail_in is not None:
            self.fail_in -= 1
        return super().write(text)

    def kinds(self) -> list[str]:
        return [json.loads(line)["kind"] for line in self.getvalue().splitlines()]


def full_disk_service():
    """A service, with r1 and s1 known, whose frame log is a FullDisk."""
    recorder = protocol.FrameRecorder()
    recorder._fh = log = FullDisk()
    service = DeliveryService(recorder=recorder)
    service.register_principal("s1")
    service.register_principal("r1")
    return service, log


@pytest.mark.parametrize("failing", ["inbound", "response"])
def test_a_frame_log_that_cannot_be_written_never_escapes(failing):
    """An unlogged request is refused and changes nothing; an unlogged answer is still given."""
    service, log = full_disk_service()
    log.fail_after(0 if failing == "inbound" else 1)
    message, frame = submit_frame()
    (answer,) = service.handle_frame(frame)
    if failing == "inbound":
        assert answer["kind"] == protocol.ERROR
        assert answer["payload"]["code"] == "DataDirUnwritable"
        assert "frames.ndjson" not in answer["payload"]["detail"]
        assert "/srv" not in answer["payload"]["detail"]
        assert service.message_states() == {}
        (answer,) = service.handle_frame(frame)
    assert answer["kind"] == protocol.ACK
    assert service.message_states() == {message.message_id: MessageState.PENDING}
    logged = [protocol.ERROR, protocol.SUBMIT, protocol.ACK] if failing == "inbound" else [protocol.SUBMIT]
    assert log.kinds() == logged


def test_a_frame_log_that_cannot_be_written_keeps_the_connection():
    service, log = full_disk_service()
    server = WandRelayServer("127.0.0.1", 0, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    try:
        with WireClient(host, port) as sender:
            assert sender.hello("sender", "s1")["kind"] == protocol.ACK
            message, frame = submit_frame()
            log.fail_after(0)
            refused = sender.request(frame)
            assert refused["kind"] == protocol.ERROR
            assert refused["payload"]["code"] == "DataDirUnwritable"
            ack = sender.request(frame)
            assert ack["kind"] == protocol.ACK
            assert ack["payload"]["message_id"] == message.message_id
    finally:
        server.shutdown()
        server.server_close()


def serving(service: DeliveryService) -> WandRelayServer:
    server = WandRelayServer("127.0.0.1", 0, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture()
def wire_server():
    server = serving(DeliveryService())
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def running_server(wire_server):
    host, port = wire_server.server_address
    return host, port, wire_server.service


def wait_until(condition, timeout=5.0):
    """Poll ``condition`` until it holds; a handler thread changes the server's state after its reply."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def submit_frame(sender="s1", recipient="r1", seed=1):
    message = compose(
        sender, recipient, "dog", 1.0, VoiceNote(2.0, "hi"),
        now=at("08:55:00"), id_factory=IdFactory(seed),
    )
    return message, protocol.make_frame(
        protocol.SUBMIT, {"message": message_to_dict(message)}, sender=sender
    )


def context_frame(recipient, t, sender=None):
    sample = ContextSample(recipient_id=recipient, t=t, lat=lat_off(0), lon=lon_off(0), wearing=True)
    return protocol.make_frame(protocol.CONTEXT, {"sample": sample_to_dict(sample)}, sender=sender or recipient)


def consent_frame(message_id, answer, t, sender):
    payload = {"message_id": message_id, "answer": answer, "t": t}
    return protocol.make_frame(protocol.CONSENT, payload, sender=sender)


class TestWireServer:
    def test_hello_establishes_session(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port) as client:
            ack = client.hello("recipient", "r1")
            assert ack["kind"] == protocol.ACK
            assert ack["payload"] == {"of": "HELLO", "role": "recipient", "principal": "r1"}

    def test_submit_and_view_round_trip(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port) as recipient:
            recipient.hello("recipient", "r1")
        message, frame = submit_frame()
        with WireClient(host, port) as sender:
            sender.hello("sender", "s1")
            ack = sender.request(frame)
            assert ack["kind"] == protocol.ACK
            assert ack["payload"]["message_id"] == message.message_id
            dup = sender.request(frame)
            assert dup["kind"] == protocol.ERROR
            assert dup["payload"]["code"] == "DuplicateMessageId"
            view = sender.request(
                protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"}, sender="s1")
            )
            assert view["kind"] == protocol.SENDER_VIEW_RESP
            assert [r["state"] for r in view["payload"]["records"]] == ["Pending"]

    def test_unknown_recipient_over_wire(self, running_server):
        host, port, _ = running_server
        _, frame = submit_frame(recipient="ghost")
        with WireClient(host, port) as sender:
            sender.hello("sender", "s1")
            response = sender.request(frame)
            assert response["kind"] == protocol.ERROR
            assert response["payload"]["code"] == "UnknownRecipient"

    def test_context_stream_delivers_playback(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port) as recipient:
            recipient.hello("recipient", "r1")
            message, frame = submit_frame()
            with WireClient(host, port) as sender:
                sender.hello("sender", "s1")
                assert sender.request(frame)["kind"] == protocol.ACK
            sample = ContextSample(
                recipient_id="r1", t=at("09:00:00"),
                lat=lat_off(0), lon=lon_off(0), wearing=True,
            )
            recipient.send(
                protocol.make_frame(protocol.CONTEXT, {"sample": sample_to_dict(sample)}, sender="r1")
            )
            playback = recipient.read_frame()
            assert playback["kind"] == protocol.PLAYBACK
            assert [e["kind"] for e in playback["payload"]["events"]] == ["flash", "render"]
            start = recipient.read_frame()
            assert start["kind"] == protocol.REACTION_START
            assert start["payload"]["message_id"] == message.message_id

    def test_bad_frame_gets_error_and_connection_keeps_working(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port) as recipient:
            recipient.hello("recipient", "r1")
        message, frame = submit_frame()
        with WireClient(host, port) as sender:
            sender.hello("sender", "s1")
            bad = sender.request(protocol.make_frame(protocol.SUBMIT, {"message": 5}, sender="s1"))
            assert bad["kind"] == protocol.ERROR
            assert bad["payload"]["code"] == "ParseError"
            sender._file.write(LONE_SURROGATE)
            sender._file.flush()
            assert sender.read_frame()["payload"]["code"] == "ParseError"
            ack = sender.request(frame)
            assert ack["kind"] == protocol.ACK
            assert ack["payload"]["message_id"] == message.message_id

    def test_first_frame_must_be_hello(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port) as client:
            response = client.request(
                protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"})
            )
            assert response["kind"] == protocol.ERROR

    def test_refused_hello_introduces_nobody(self, running_server):
        host, port, _ = running_server
        view_request = protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"}, sender="s1")
        with WireClient(host, port) as client:
            refused = client.hello("bogus", "s1")
            assert refused["kind"] == protocol.ERROR
            assert refused["payload"]["code"] == "ParseError"
            response = client.request(view_request)
            assert response["kind"] == protocol.ERROR
            assert response["payload"]["detail"] == "first frame must be HELLO"
            assert client.hello("sender", "s1")["kind"] == protocol.ACK
            assert client.request(view_request)["kind"] == protocol.SENDER_VIEW_RESP

    def test_second_hello_naming_another_principal_is_refused(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port, timeout=2.0) as client:
            assert client.hello("sender", "s1")["kind"] == protocol.ACK
            refused = client.hello("sender", "s2")
            assert refused["kind"] == protocol.ERROR
            assert refused["payload"]["code"] == "ParseError"
            assert client.hello("sender", "s1")["kind"] == protocol.ACK  # a repeat HELLO as oneself
            _, to_s2 = submit_frame(sender="s1", recipient="s2")
            assert client.request(to_s2)["payload"]["code"] == "UnknownRecipient"

    def test_over_long_line_is_refused_and_closes_the_connection(self, running_server):
        host, port, _ = running_server
        with WireClient(host, port, timeout=5.0) as client:
            assert client.hello("sender", "s1")["kind"] == protocol.ACK
            client._file.write(b"x" * MAX_LINE_BYTES + b"\n")
            client._file.flush()
            refused = client.read_frame()
            assert refused["kind"] == protocol.ERROR
            assert refused["payload"]["code"] == "ParseError"
            with pytest.raises(ConnectionError):  # closed: end of stream or a reset
                client.read_frame()
        with WireClient(host, port, timeout=5.0) as fresh:
            assert fresh.hello("sender", "s1")["kind"] == protocol.ACK

    def test_a_connection_cannot_act_for_another_recipient(self, running_server):
        host, port, service = running_server
        with WireClient(host, port, timeout=2.0) as r1, WireClient(host, port, timeout=2.0) as r2:
            assert r1.hello("recipient", "r1")["kind"] == protocol.ACK
            assert r2.hello("recipient", "r2")["kind"] == protocol.ACK
            message, frame = submit_frame(recipient="r2")
            with WireClient(host, port) as sender:
                sender.hello("sender", "s1")
                assert sender.request(frame)["kind"] == protocol.ACK
            # r1 sends r2's sample: refused, nothing delivered.
            refused = r1.request(context_frame("r2", at("09:00:00"), sender="r1"))
            assert refused["kind"] == protocol.ERROR
            assert refused["payload"]["code"] == "PrincipalMismatch"
            r2.send(context_frame("r2", at("09:00:01")))
            assert r2.read_frame()["kind"] == protocol.PLAYBACK
            start = r2.read_frame()
            assert start["kind"] == protocol.REACTION_START
            # r1 answers r2's consent gate: refused as for an unused id, the capture stays r2's.
            refused = r1.request(consent_frame(message.message_id, "yes", start["payload"]["deadline"], "r1"))
            assert refused["payload"]["code"] == "UnknownMessage"
            assert service.message_states()[message.message_id].value == "Delivered"
            with WireClient(host, port) as sender:
                sender.hello("sender", "s1")
                view = sender.request(protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"}))
                assert [r["state"] for r in view["payload"]["records"]] == ["Delivered"]
                # Nor can a sender read another's view.
                refused = sender.request(protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s2"}))
                assert refused["payload"]["code"] == "PrincipalMismatch"
            answered = r2.request(consent_frame(message.message_id, "yes", start["payload"]["deadline"], "r2"))
            assert answered["kind"] == protocol.ACK

    def test_repeated_recipient_hello_closes_its_session_at_disconnect(self, wire_server):
        host, port = wire_server.server_address
        with WireClient(host, port) as client:
            assert client.hello("sender", "x1")["kind"] == protocol.ACK
            assert "x1" not in wire_server.sessions
            assert client.hello("recipient", "x1")["kind"] == protocol.ACK
            assert "x1" in wire_server.sessions
        wait_until(lambda: "x1" not in wire_server.sessions)
        with WireClient(host, port) as client:
            assert client.hello("sender", "x1")["kind"] == protocol.ACK
            refused = client.request(context_frame("x1", at("09:00:00")))
            assert refused["payload"]["code"] == "NoSession"

    def test_a_position_off_the_globe_is_answered_and_the_connection_stays_open(self, running_server):
        host, port, _ = running_server
        message = fenced()
        with WireClient(host, port) as recipient, WireClient(host, port) as sender:
            recipient.hello("recipient", "r1")
            sender.hello("sender", "s1")
            frame = protocol.make_frame(protocol.SUBMIT, {"message": message_to_dict(message)})
            assert sender.request(frame)["kind"] == protocol.ACK
            for lat, lon in OFF_THE_GLOBE:
                refused = recipient.request(protocol.make_frame(protocol.CONTEXT, off_the_globe(lat, lon)))
                assert (refused["kind"], refused["payload"]["code"]) == (protocol.ERROR, "InvalidCoordinates")
            playback = recipient.request(context_frame("r1", at("09:00:00")))
            assert (playback["kind"], playback["payload"]["message_id"]) == (protocol.PLAYBACK, message.message_id)

    def test_a_sample_too_late_for_a_capture_is_answered_and_the_connection_stays_open(self, running_server):
        host, port, _ = running_server
        message = fenced()
        with WireClient(host, port) as recipient, WireClient(host, port) as sender:
            recipient.hello("recipient", "r1")
            sender.hello("sender", "s1")
            frame = protocol.make_frame(protocol.SUBMIT, {"message": message_to_dict(message)})
            assert sender.request(frame)["kind"] == protocol.ACK
            refused = recipient.request(context_frame("r1", LAST_CAPTURE_START + timedelta(seconds=5)))
            assert (refused["kind"], refused["payload"]["code"]) == (protocol.ERROR, "ParseError")
            playback = recipient.request(context_frame("r1", LAST_CAPTURE_START))
            assert (playback["kind"], playback["payload"]["message_id"]) == (protocol.PLAYBACK, message.message_id)

    def test_a_superseded_connection_leaves_the_live_session_open(self, wire_server):
        """B's recipient HELLO takes r1's session over from A; A's close then leaves B's session live."""
        host, port = wire_server.server_address
        sessions = wire_server.sessions
        with WireClient(host, port) as b, WireClient(host, port) as sender:
            a = WireClient(host, port)
            assert a.hello("recipient", "r1")["kind"] == protocol.ACK
            a_handler = sessions["r1"]
            assert b.hello("recipient", "r1")["kind"] == protocol.ACK
            b_handler = sessions["r1"]
            assert b_handler is not a_handler
            a.close()
            wait_until(lambda: a_handler.rfile.closed)  # A's handler has returned
            assert sessions["r1"] is b_handler
            sender.hello("sender", "s1")
            message, frame = submit_frame()
            assert sender.request(frame)["kind"] == protocol.ACK
            playback = b.request(context_frame("r1", at("09:00:00")))
            assert (playback["kind"], playback["payload"].get("message_id")) == (protocol.PLAYBACK, message.message_id)
        wait_until(lambda: "r1" not in sessions)

    def test_reaction_round_trip_does_not_wait_on_delayed_acks(self, running_server):
        """A client with the kernel's default socket options sees no 40 ms stall per reaction."""
        host, port, _ = running_server
        round_trips = []
        with WireClient(host, port) as recipient, WireClient(host, port) as sender:
            recipient.hello("recipient", "r1")
            sender.hello("sender", "s1")
            for k in range(20):
                t = at("09:00:00") + timedelta(seconds=20 * k)
                message, frame = submit_frame(seed=k + 1)
                assert sender.request(frame)["kind"] == protocol.ACK
                recipient.send(context_frame("r1", t))
                assert recipient.read_frame()["kind"] == protocol.PLAYBACK
                utterance = {"message_id": message.message_id, "t": format_rfc3339(t + timedelta(seconds=2)),
                             "transcript": "wow"}
                t0 = time.perf_counter()
                recipient.send(protocol.make_frame(protocol.REACTION_FRAME, utterance, sender="r1"))
                start, ack = recipient.read_frame(), recipient.read_frame()
                round_trips.append(time.perf_counter() - t0)
                assert (start["kind"], ack["kind"]) == (protocol.REACTION_START, protocol.ACK)
                answer = recipient.request(consent_frame(message.message_id, "no", start["payload"]["deadline"], "r1"))
                assert answer["kind"] == protocol.ACK
        assert statistics.median(round_trips) < 0.020, round_trips

    def test_a_pipelined_burst_is_answered_without_waiting_on_delayed_acks(self, running_server):
        """Requests sent in one write are each answered at once, not behind the client's 40 ms delayed ACK."""
        host, port, _ = running_server
        hello = protocol.make_frame(protocol.HELLO, {"role": "sender", "principal": "s1"}, sender="s1")
        burst = protocol.encode_frame(hello) * 32
        bursts = []
        with socket.create_connection((host, port)) as sock, sock.makefile("rb") as replies:
            for _ in range(20):
                t0 = time.perf_counter()
                sock.sendall(burst)
                for _ in range(32):
                    assert protocol.decode_frame(replies.readline())["kind"] == protocol.ACK
                bursts.append(time.perf_counter() - t0)
        assert statistics.median(bursts) < 0.020, bursts

    def test_address_in_use(self, running_server):
        host, port, _ = running_server
        with pytest.raises(AddressInUse):
            WandRelayServer(host, port, DeliveryService())

    def test_a_server_that_cannot_bind_leaves_its_store_alone(self, running_server):
        """A failed start snapshots nothing: the data dir may be a live server's."""
        host, port, _ = running_server
        closed = []

        class Store(MemoryStore):
            def close(self):
                closed.append(self)

        with pytest.raises(AddressInUse):
            WandRelayServer(host, port, DeliveryService(Store()))
        assert closed == []


class OneAtATime(DeliveryService):
    """A service that notes the most requests it ever ran at once."""

    running = most = 0

    def handle_frame(self, frame):
        self.running += 1
        self.most = max(self.most, self.running)
        try:
            return super().handle_frame(frame)
        finally:
            self.running -= 1


def test_concurrent_clients_leave_what_a_recovered_service_reads(tmp_path):
    """Senders submit on their own threads while the recipient streams firing samples on its own.

    Twice as many client threads as cores, switching often. The server runs
    one request at a time, every SUBMIT gets exactly one ACK and every
    message one PLAYBACK, and once ``server_close`` has snapshotted the
    store, a service recovered from the data dir reads the same states as
    the live one.
    """
    service = OneAtATime(FileStore(tmp_path))
    server = serving(service)
    host, port = server.server_address
    senders, per_sender = 2 * (os.cpu_count() or 1) + 1, 10
    acked: list[str] = []
    played: list[str] = []
    submitting = threading.Event()

    def send_all(n):
        sender_id = f"s{n}"
        with WireClient(host, port) as client:
            assert client.hello("sender", sender_id)["kind"] == protocol.ACK
            submitting.set()
            for k in range(per_sender):
                message, frame = submit_frame(sender=sender_id, seed=100 * n + k)
                answer = client.request(frame)
                assert (answer["kind"], answer["payload"]["message_id"]) == (protocol.ACK, message.message_id)
                acked.append(message.message_id)
            view = client.request(protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": sender_id}))
            assert view["kind"] == protocol.SENDER_VIEW_RESP  # no second answer to any SUBMIT came before it
            assert len(view["payload"]["records"]) == per_sender

    def stream(recipient, samples):
        """Each sample, then a repeated HELLO whose ACK ends that sample's answer."""
        for k in samples:
            recipient.send(context_frame("r1", at("09:00:00") + timedelta(seconds=k)))
            recipient.send(protocol.make_frame(protocol.HELLO, {"role": "recipient", "principal": "r1"}))
            while (frame := recipient.read_frame())["kind"] != protocol.ACK:
                assert frame["kind"] in (protocol.PLAYBACK, protocol.REACTION_START), frame
                if frame["kind"] == protocol.PLAYBACK:
                    played.append(frame["payload"]["message_id"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WireClient(host, port) as recipient:
            assert recipient.hello("recipient", "r1")["kind"] == protocol.ACK
            threads = [threading.Thread(target=send_all, args=(n,)) for n in range(senders)]
            for thread in threads:
                thread.start()
            assert submitting.wait(timeout=5.0)
            stream(recipient, range(40))
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            stream(recipient, [40])  # delivers whatever came in after the last sample
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()

    assert service.most == 1
    assert len(acked) == senders * per_sender
    assert sorted(played) == sorted(acked)
    live = service.message_states()
    assert set(live) == set(acked) and set(live.values()) == {MessageState.DELIVERED}
    assert DeliveryService(FileStore(tmp_path)).message_states() == live


class CountingSocket:
    """One end of a connection that lists every write made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.writes: list[bytes] = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def loopback_pair() -> tuple[socket.socket, socket.socket]:
    """Both ends of one TCP connection over the loopback interface."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        end, _ = listener.accept()
    return client, end


def two_deliverable_messages():
    service = DeliveryService()
    service.register_principal("r1")
    first, _ = submit_frame(seed=1)
    second, _ = submit_frame(seed=2)
    submit(service, first)
    submit(service, second)
    return service, first


def test_each_request_is_answered_in_one_write():
    """PLAYBACKs with REACTION_START, and a CONSENT's ACK with the next start, each leave in one write."""
    service, first = two_deliverable_messages()
    twin, _ = two_deliverable_messages()
    frames = [
        protocol.make_frame(protocol.HELLO, {"role": "recipient", "principal": "r1"}),
        context_frame("r1", at("09:00:00")),
        consent_frame(first.message_id, "yes", "2021-06-05T09:00:10Z", "r1"),
    ]
    direct = [[r for r in twin.handle_frame({**f, "from": "r1"}) if r.get("to") in (None, "r1")] for f in frames]
    expected = [b"".join(map(protocol.encode_frame, responses)) for responses in direct]
    assert [e.count(b"\n") for e in expected] == [1, 3, 2]  # the CONSENT's REACTION_NOTIFY goes to s1

    client, end = loopback_pair()
    with client, end:
        client.sendall(b"".join(protocol.encode_frame(f) for f in frames))
        client.shutdown(socket.SHUT_WR)
        counting = CountingSocket(end)
        _Handler(counting, ("local", 0), SimpleNamespace(service=service, lock=threading.Lock(), sessions={}))
        end.shutdown(socket.SHUT_WR)
        received = client.makefile("rb").read()
        assert end.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert counting.writes == expected
    assert received == b"".join(expected)


def test_the_documented_error_codes_are_the_codes_errors_py_defines():
    """The "Error codes" list in docs/protocol.md names every code of the error family, and no other."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    section = doc.split("## Error codes", 1)[1]
    listed = section.split("lines:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", listed)
    defined = {
        cls.code for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.WandRelayError)
    }
    assert len(documented) == len(set(documented))
    assert set(documented) == defined
