from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import statistics
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wandrelay import protocol, sim
from wandrelay.cli import main
from wandrelay.engine import ContextSample, sample_to_dict
from wandrelay.ids import IdFactory
from wandrelay.model import (
    Geofence, MarkerCondition, Specificity, TriggerSchedule, VoiceNote, compose, message_to_dict,
)
from wandrelay.server import WireClient
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore

from conftest import FIXTURE_PATHS, at
from genrandom import lat_off, lon_off, random_scenario_dict
from test_protocol import serving


def mini_scenario_file(tmp_path: Path, scale=1.0) -> Path:
    doc = {
        "v": 1, "name": "cli-mini", "seed": 2, "tick": 1.0,
        "end": "2021-06-05T09:01:00Z",
        "markers": [],
        "recipients": [{
            "principal": "r1",
            "wear_sessions": [{"start": "2021-06-05T09:00:00Z", "end": "2021-06-05T09:01:00Z"}],
            "trajectory": [
                {"t": "2021-06-05T09:00:00Z", "lat": 40.0, "lon": -100.0},
                {"t": "2021-06-05T09:01:00Z", "lat": 40.0, "lon": -100.0},
            ],
        }],
        "sender_script": [{
            "at": "2021-06-05T08:59:00Z", "label": "d0", "sender_id": "s1", "recipient_id": "r1",
            "content_id": "dog", "scale": scale,
            "voice_note": {"duration": 1.0, "transcript": "x"}, "schedule": None,
        }],
        "consent_policy": {"default": "yes"},
    }
    path = tmp_path / f"mini-{scale}.json"
    path.write_text(json.dumps(doc))
    return path


BAD_SCALES = (1000, "big", None)  # simulate refuses each of them, so validate must too


def assert_bad_scale_refused(command, tmp_path, capsys):
    for scale in BAD_SCALES:
        path = mini_scenario_file(tmp_path, scale)
        assert main([command, "--scenario", str(path)]) == 1, scale
        assert f"error: ParseError: {path}: sender_script[0]: " in capsys.readouterr().err


class TestValidate:
    def test_valid_scenario(self, capsys):
        assert main(["validate", "--scenario", str(FIXTURE_PATHS[0])]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "error: ParseError:" in capsys.readouterr().err
        assert_bad_scale_refused("validate", tmp_path, capsys)

    def test_missing_file(self, capsys):
        assert main(["validate", "--scenario", "nope.json"]) == 1
        assert "error: ParseError:" in capsys.readouterr().err

    @pytest.mark.parametrize("tick", [math.nan, math.inf, 0.0, 1e-7, 1e-300])
    def test_a_tick_must_be_finite_and_at_least_a_microsecond(self, tmp_path, capsys, tick):
        """NaN and Infinity are what ``json.loads`` reads; below 1 us, samples would repeat their times."""
        path = mini_scenario_file(tmp_path)
        path.write_text(path.read_text().replace('"tick": 1.0', f'"tick": {json.dumps(tick)}'))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: {path}: tick must be a finite number")
        path.write_text(path.read_text().replace(f'"tick": {json.dumps(tick)}', '"tick": 1e-06'))
        assert main(["validate", "--scenario", str(path)]) == 0


    @pytest.mark.parametrize(
        "mutate, element",
        [
            (lambda d: d.update(recipients=[5]), "recipients[0]: "),
            (lambda d: d.update(recipients=5), "recipients must be a list"),
            (lambda d: d.update(markers=[5]), "markers[0]: "),
            (lambda d: d.update(markers=5), "markers must be a list"),
            (lambda d: d.update(sender_script=[5]), "sender_script[0]: "),
            (lambda d: d.update(consent_policy=5), "consent_policy: "),
            (lambda d: d["consent_policy"].update(by_label=[1]), "consent_policy: "),
            (lambda d: d["recipients"][0].update(wear_sessions=5), "recipients[0]: wear_sessions must be a list"),
            (lambda d: d["recipients"][0]["trajectory"][1].update(t="noon"), "recipients[0]: trajectory[1]: "),
            (lambda d: d.update(end="noon"), "bad timestamp 'noon'"),
            (lambda d: d.update(end="9999-12-31T23:59:50Z"), "end is after 9999-12-31T23:59:49.999999Z"),
        ],
        ids=["recipient-not-object", "recipients-not-list", "marker-not-object", "markers-not-list",
             "action-not-object", "policy-not-object", "by-label-not-object", "wear-sessions-not-list",
             "bad-waypoint-time", "bad-end", "end-past-the-last-capture-start"],
    )
    def test_a_malformed_scenario_is_a_parse_error_naming_file_and_element(self, tmp_path, capsys, mutate, element):
        path = mini_scenario_file(tmp_path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {path}: {element}"), err

    def test_a_scenario_may_end_at_the_last_capture_start(self, tmp_path, capsys):
        """A capture started there ends at the last datetime; one microsecond later, validate refuses the end."""
        path = mini_scenario_file(tmp_path)
        doc = json.loads(path.read_text())
        end = "9999-12-31T23:59:49.999999Z"
        doc.update(end=end, tick=0.5)
        doc["recipients"][0]["wear_sessions"] = [{"start": "9999-12-31T23:59:40Z", "end": end}]
        doc["recipients"][0]["trajectory"] = [
            {"t": "9999-12-31T23:59:40Z", "lat": 40.0, "lon": -100.0}, {"t": end, "lat": 40.0, "lon": -100.0},
        ]
        doc["sender_script"][0]["at"] = "9999-12-31T23:59:45Z"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run.ndjson"
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        (start,) = [f["payload"] for f in protocol.read_frames(out) if f["kind"] == protocol.REACTION_START]
        assert (start["started_at"], start["deadline"]) == ("9999-12-31T23:59:45Z", "9999-12-31T23:59:55Z")
        capsys.readouterr()
        path.write_text(json.dumps({**doc, "end": "9999-12-31T23:59:50Z"}))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: {path}: end is after")


class TestSimulate:
    def test_writes_log(self, tmp_path):
        scenario = mini_scenario_file(tmp_path)
        out = tmp_path / "run.ndjson"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        kinds = [f["kind"] for f in protocol.read_frames(out)]
        assert "PLAYBACK" in kinds and "SENDER_VIEW_RESP" in kinds

    def test_deterministic_across_invocations(self, tmp_path):
        scenario = mini_scenario_file(tmp_path)
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_log(self, tmp_path):
        scenario = mini_scenario_file(tmp_path)
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        main(["simulate", "--scenario", str(scenario), "--out", str(a)])
        main(["simulate", "--scenario", str(scenario), "--out", str(b), "--seed-override", "77"])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("tick", [1e12, 1e300])
    def test_a_tick_past_the_last_datetime_ends_the_stream(self, tmp_path, tick):
        """The second sample would lie past year 9999, so past any end: each recipient gets one CONTEXT."""
        scenario = mini_scenario_file(tmp_path)
        scenario.write_text(scenario.read_text().replace('"tick": 1.0', f'"tick": {tick!r}'))
        out = tmp_path / "run.ndjson"
        assert main(["validate", "--scenario", str(scenario)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        kinds = [f["kind"] for f in protocol.read_frames(out)]
        assert kinds.count(protocol.CONTEXT) == 1 and protocol.PLAYBACK in kinds

    def test_bad_scenario_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"v": 1, "seed": 1, "end": "2021-06-05T09:00:00Z", "recipients": []}))
        assert main(["simulate", "--scenario", str(bad)]) == 1
        assert "error: ParseError:" in capsys.readouterr().err
        assert_bad_scale_refused("simulate", tmp_path, capsys)


class TestReport:
    def test_text_and_csv(self, tmp_path, capsys):
        scenario = mini_scenario_file(tmp_path)
        log = tmp_path / "run.ndjson"
        main(["simulate", "--scenario", str(scenario), "--out", str(log)])
        assert main(["report", str(log)]) == 0
        text = capsys.readouterr().out
        assert "s1/r1" in text and "Median" in text
        assert main(["report", str(log), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("pair,sender,recipient")

    def test_report_to_file(self, tmp_path):
        scenario = mini_scenario_file(tmp_path)
        log = tmp_path / "run.ndjson"
        main(["simulate", "--scenario", str(scenario), "--out", str(log)])
        out = tmp_path / "report.csv"
        assert main(["report", str(log), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("pair,")

    def test_missing_log_exit_1(self, capsys):
        assert main(["report", "missing.ndjson"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "files, args, named",
        [
            ({"bom.ndjson": b'\xff\xfe{"v":1}\n'}, ["bom.ndjson"], "bom.ndjson:1: bad frame"),
            ({"empty.ndjson": b'{"v":1,"kind":"SUBMIT","payload":{}}\n'}, ["empty.ndjson"],
             "bad SUBMIT frame: KeyError('message')"),
            ({"lost.ndjson": b'{"v":1,"kind":"SENDER_VIEW_RESP","payload":{"records":[{"message_id":"A",'
                             b'"state":"Lost"}]}}\n'}, ["lost.ndjson"], "bad SENDER_VIEW_RESP frame"),
            ({}, ["missing.ndjson"], "cannot read missing.ndjson"),
            ({"data/queues": None, "run.ndjson": b""}, ["data", "run.ndjson"], "not a mix of both"),
            ({"plain": None}, ["plain"], "plain: not a data dir"),
            ({"data/queues/r1.log": b"not json\n"}, ["data"], "r1.log:1:"),
            ({"data/queues/r1.snap.json": b'{"v":1,"events":'}, ["data"], "r1.snap.json"),
            ({"data/principals.log": b'["s1"]\n', "data/queues": None}, ["data"], "principals.log"),
            ({"data/queues/r1.log": b'{"ev":"enqueued","message":{}}\n'}, ["data"], "queue r1: bad stored event"),
            ({"data/queues/r1.log": b'{"ev":"moved"}\n'}, ["data"], "queue r1: bad stored event"),
            ({"data/queues/r1.log": b'{"ev":"delivered","message_id":"A"}\n'}, ["data"], "queue r1: bad stored event"),
            ({"data/queues/r1.log": b'[1]\n'}, ["data"], "queue r1: bad stored event"),
        ],
        ids=["not-utf-8", "submit-without-message", "unknown-state", "missing-file", "dir-and-file",
             "not-a-data-dir", "corrupt-log", "corrupt-snapshot", "corrupt-principals", "bad-message",
             "unknown-event", "delivery-of-unknown-message", "event-not-object"],
    )
    def test_bad_input_is_a_parse_error(self, tmp_path, monkeypatch, capsys, files, args, named):
        """Exit 1 with ``error: ParseError:`` naming the file or queue, never InternalError."""
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            path = tmp_path / name
            if content is None:
                path.mkdir(parents=True)
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)
        assert main(["report", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and named in err, err

    def test_incomplete_log_reported(self, tmp_path, capsys):
        scenario = mini_scenario_file(tmp_path)
        log = tmp_path / "run.ndjson"
        main(["simulate", "--scenario", str(scenario), "--out", str(log)])
        truncated = tmp_path / "cut.ndjson"
        lines = [
            line
            for line in log.read_text().splitlines()
            if '"kind":"SENDER_VIEW_RESP"' not in line
        ]
        truncated.write_text("\n".join(lines) + "\n")
        assert main(["report", str(truncated)]) == 1
        assert "error: IncompleteLog:" in capsys.readouterr().err


def test_importing_the_cli_loads_neither_the_simulator_nor_the_analytics():
    """So a ``serve`` (re)start pays for neither; only the commands that use them import them."""
    code = (
        "import sys, wandrelay.cli; "
        "print(sorted(m for m in ('wandrelay.sim', 'wandrelay.analytics', 'statistics') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_server(data_dir: Path, port: int) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "wandrelay.cli", "serve",
         "--listen", f"127.0.0.1:{port}", "--data-dir", str(data_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("ready"), f"server did not come up: {line!r}"
    return proc


@pytest.mark.slow
class TestServe:
    def test_submit_kill_restart_keeps_pending(self, tmp_path):
        port = free_port()
        proc = start_server(tmp_path / "data", port)
        try:
            with WireClient("127.0.0.1", port) as recipient:
                recipient.hello("recipient", "r1")
            result = subprocess.run(
                [sys.executable, "-m", "wandrelay.cli", "send",
                 "--connect", f"127.0.0.1:{port}", "--sender", "s1", "--recipient", "r1",
                 "--content", "dog", "--note", "hello", "--note-duration", "2"],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            message_id = json.loads(result.stdout)["message_id"]
        finally:
            proc.kill()  # unclean shutdown on purpose
            proc.communicate(timeout=10)

        proc = start_server(tmp_path / "data", port)
        try:
            with WireClient("127.0.0.1", port) as sender:
                sender.hello("sender", "s1")
                view = sender.request(
                    protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"}, sender="s1")
                )
            records = view["payload"]["records"]
            assert [(r["message_id"], r["state"]) for r in records] == [(message_id, "Pending")]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=10)

    def test_sigterm_ends_an_idle_server_at_once(self, tmp_path):
        """From SIGTERM to exit 0 takes well under the serve loop's half-second poll."""
        procs = [start_server(tmp_path / f"data{n}", free_port()) for n in range(5)]
        delays = random.Random(11).sample(range(0, 500, 10), len(procs))
        took = []
        try:
            for proc, delay in zip(procs, delays):
                time.sleep(delay / 1000)
                start = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
                took.append(time.monotonic() - start)
        finally:
            for proc in procs:
                proc.kill()
                proc.communicate()
        assert statistics.median(took) < 0.150, took

    def test_a_served_session_leaves_no_sample_on_disk(self, tmp_path):
        """No coordinate or sighted marker id of any CONTEXT reaches a file under the data dir.

        The geofence centre and the marker id a SUBMIT names may stay there: triggers need them.
        """
        data, port = tmp_path / "data", free_port()
        fence = Geofence(lat=lat_off(1.0), lon=lon_off(-1.0), radius=10.0)
        message = compose(
            "s1", "r1", "dog", 1.0, VoiceNote(2.0, "hi"),
            TriggerSchedule(geofence=fence, marker=MarkerCondition("mk-desk"), specificity=Specificity.FLEXIBLE),
            now=at("08:55:00"), id_factory=IdFactory(1),
        )
        samples = [  # outside the fence, then two inside it, none at its centre
            ContextSample("r1", at(t), lat_off(north), lon_off(east), True, frozenset({"kitchen-door"}))
            for t, north, east in (("09:00:00", 40.0, 30.0), ("09:00:01", 3.0, 2.0), ("09:00:02", 4.0, -1.5))
        ]
        proc = start_server(data, port)
        try:
            with WireClient("127.0.0.1", port) as recipient, WireClient("127.0.0.1", port) as sender:
                recipient.hello("recipient", "r1")
                sender.hello("sender", "s1")
                submit = protocol.make_frame(protocol.SUBMIT, {"message": message_to_dict(message)}, sender="s1")
                assert sender.request(submit)["kind"] == protocol.ACK
                for n, sample in enumerate(samples):
                    recipient.send(protocol.make_frame(protocol.CONTEXT, {"sample": sample_to_dict(sample)}))
                    if n == 1:
                        assert recipient.read_frame()["kind"] == protocol.PLAYBACK
                        start = recipient.read_frame()
                        assert start["kind"] == protocol.REACTION_START
                reaction = {"message_id": message.message_id, "t": "2021-06-05T09:00:03Z", "transcript": "a dog!"}
                assert recipient.request(protocol.make_frame(protocol.REACTION_FRAME, reaction))["kind"] == protocol.ACK
                answer = {"message_id": message.message_id, "answer": "yes", "t": start["payload"]["deadline"]}
                assert recipient.request(protocol.make_frame(protocol.CONSENT, answer))["kind"] == protocol.ACK
                view = sender.request(protocol.make_frame(protocol.SENDER_VIEW_REQ, {"sender_id": "s1"}))
                assert [r["state"] for r in view["payload"]["records"]] == ["Reacted"]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=10)
        assert proc.returncode == 0
        files = sorted(path.relative_to(data).as_posix() for path in data.rglob("*") if path.is_file())
        assert files[0] == "principals.log" and all(name.startswith("queues/") for name in files[1:]), files
        stored = b"".join(path.read_bytes() for path in sorted(data.rglob("*")) if path.is_file())
        assert json.dumps(fence.lat).encode() in stored and b"mk-desk" in stored
        sampled = {json.dumps(v) for sample in samples for v in (sample.lat, sample.lon)} | {"kitchen-door"}
        assert not {token for token in sampled if token.encode() in stored}

    def test_second_serve_same_port_fails(self, tmp_path):
        port = free_port()
        proc = start_server(tmp_path / "data", port)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "wandrelay.cli", "serve",
                 "--listen", f"127.0.0.1:{port}", "--data-dir", str(tmp_path / "data2")],
                capture_output=True, text=True, timeout=20,
            )
            assert result.returncode == 1
            assert "error: AddressInUse:" in result.stderr
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=10)

    def test_a_killed_servers_data_dir_reports_every_answered_submit(self, tmp_path, capsys):
        """Each SUBMIT is fsynced before its ACK, so after SIGKILL ``report`` on the data dir counts all five."""
        data, port = tmp_path / "data", free_port()
        proc = start_server(data, port)
        sent = []
        try:
            with WireClient("127.0.0.1", port) as recipient, WireClient("127.0.0.1", port) as sender:
                assert recipient.hello("recipient", "r1")["kind"] == protocol.ACK
                assert sender.hello("sender", "s1")["kind"] == protocol.ACK
                for seed in range(1, 6):
                    message = compose("s1", "r1", "dog", 1.0, VoiceNote(2.0, "hi"),
                                      now=at("08:55:00"), id_factory=IdFactory(seed))
                    frame = protocol.make_frame(protocol.SUBMIT, {"message": message_to_dict(message)})
                    assert sender.request(frame)["kind"] == protocol.ACK
                    sent.append(message.message_id)
        finally:
            proc.kill()
            proc.communicate(timeout=10)
        assert main(["report", str(data), "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        counts = dict(zip(header.split(","), row.split(",")))
        assert (counts["pair"], counts["direct_sent"], counts["direct_received"]) == ("s1/r1", "5", "0")
        assert not (data / "frames.ndjson").exists()
        journal = FileStore(data).recover()[1]["r1"]
        assert [e["message"]["message_id"] for e in journal] == sent

    @pytest.mark.parametrize(
        "content", [None, b"{not json", b"\xff", b"[]", b"{}", b'{"markers": 5}', b'{"markers": [{}]}']
    )
    def test_bad_markers_file_exits_1(self, tmp_path, capsys, content):
        markers = tmp_path / "markers.json"
        if content is not None:
            markers.write_bytes(content)
        rc = main([
            "serve", "--listen", "127.0.0.1:0", "--data-dir", str(tmp_path / "data"),
            "--markers", str(markers),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: ParseError: {markers}")

    @pytest.mark.parametrize("duration", ["-1", "0", "nan"])
    def test_send_rejects_a_bad_note_duration_locally(self, capsys, duration):
        rc = main([
            "send", "--connect", "127.0.0.1:1", "--sender", "s1", "--recipient", "r1",
            "--content", "dog", "--note-duration", duration,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ParseError: bad voice note: voice note duration must be positive")

    def test_send_to_a_port_nobody_listens_on_is_an_input_error(self, capsys):
        rc = main(["send", "--connect", "127.0.0.1:1", "--sender", "s1", "--recipient", "r1", "--content", "dog"])
        assert rc == 1
        assert capsys.readouterr().err == "error: ServerUnreachable: Connection refused\n"

    def test_send_rejects_bad_schedule_locally(self, capsys):
        rc = main([
            "send", "--connect", "127.0.0.1:1", "--sender", "s1", "--recipient", "r1",
            "--content", "dog", "--geofence", "47.6,-122.3,99",
        ])
        assert rc == 1
        assert "error: RadiusOutOfRange:" in capsys.readouterr().err

    def test_env_var_data_dir(self, tmp_path, monkeypatch):
        port = free_port()
        monkeypatch.setenv("WANDRELAY_DATA_DIR", str(tmp_path / "env-data"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wandrelay.cli", "serve", "--listen", f"127.0.0.1:{port}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "WANDRELAY_DATA_DIR": str(tmp_path / "env-data")},
        )
        try:
            assert proc.stdout.readline().startswith("ready")
            assert (tmp_path / "env-data").is_dir()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=10)


@pytest.mark.parametrize("port", ["70000", "65536", "1\u00b2"])
def test_a_port_outside_0_to_65535_is_an_input_error(tmp_path, capsys, port):
    """Neither command binds nor dials it: serve would fail inside bind(), send would dial the port modulo 65536."""
    data = tmp_path / "data"
    for argv in (
        ["serve", "--listen", f"127.0.0.1:{port}", "--data-dir", str(data)],
        ["send", "--connect", f"127.0.0.1:{port}", "--sender", "s1", "--recipient", "r1", "--content", "dog"],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ParseError: expected HOST:PORT with a port in 0-65535")
    assert not data.exists()


@pytest.mark.parametrize("drop", ["close", "reset"])
def test_send_to_a_server_that_drops_the_connection_is_an_input_error(capsys, drop):
    """A server that accepts and then closes or resets the connection is unreachable, not an internal error."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def accept_and_drop():
            conn, _ = listener.accept()
            if drop == "reset":  # close with an RST rather than a FIN
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=accept_and_drop)
        thread.start()
        port = listener.getsockname()[1]
        rc = main(["send", "--connect", f"127.0.0.1:{port}", "--sender", "s1", "--recipient", "r1", "--content", "dog"])
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ServerUnreachable: ")


def test_send_reports_a_refused_hello_by_its_own_error(capsys):
    server = serving(DeliveryService())
    try:
        port = server.server_address[1]
        rc = main([
            "send", "--connect", f"127.0.0.1:{port}", "--sender", "s" * 300, "--recipient", "r1", "--content", "dog",
        ])
    finally:
        server.shutdown()
        server.server_close()
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ParseError: principal id must be 1 to 245 bytes")


# One strategy per JSON type, so a swap can always pick a type other than the value's own.
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.one_of(st.integers(), st.floats()),  # NaN and Infinity too, which json.loads reads
    "string": st.text(max_size=8),
    "array": st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
JSON_TYPE = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array",
             dict: "object"}


def slots(node):
    """Every (container, key) of a JSON document, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from slots(value)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_what_validate_accepts_simulate_runs(seed, data):
    """A random scenario, mutated once at any depth: ``validate`` exits 0 or 1, and on 0 ``simulate`` exits 0."""
    doc = random_scenario_dict(random.Random(seed), "mutant")
    container, key = data.draw(st.sampled_from(list(slots(doc))))
    if isinstance(container, dict) and data.draw(st.booleans()):
        del container[key]
    else:
        other = data.draw(st.sampled_from([t for t in JSON_VALUES if t != JSON_TYPE[type(container[key])]]))
        container[key] = data.draw(JSON_VALUES[other])
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(doc))
        rc = main(["validate", "--scenario", str(path)])
        assert rc in (0, 1), err.getvalue()
        if rc == 0:
            scenario = sim.load_scenario(path)
            tick = timedelta(seconds=scenario.tick)
            assume(all((scenario.end - r.trajectory[0].t) / tick <= 2_000 for r in scenario.recipients))
            out = Path(tmp) / "run.ndjson"
            assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0, err.getvalue()
