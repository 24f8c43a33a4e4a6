"""FileStore on disk: the v1 format, failed and torn appends, corruption, the byte-join snapshot, its order and file names."""

from __future__ import annotations

import contextlib
import errno
import gc
import json
import os
import stat
import tempfile
import warnings
from pathlib import Path
from unittest import mock
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay import protocol
from wandrelay.cli import main
from wandrelay.errors import ParseError
from wandrelay.ids import IdFactory
from wandrelay.model import MessageState, VoiceNote, compose, message_to_dict
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore

from client import consent, error_code, ids_of, push, request, submit, view_of
from conftest import at
from test_service import durable, make_message, sample

A, B, C, D = (
    "01F7DNTQP04TFF59TDWH9EDD1R",
    "01F7DNWJ901HEAD8X4A1JH69RE",
    "01F7DNYCW0H4QX4FR84G98PBSK",
    "01F7DP07F0JMRNV7E9Z0C1HT0H",
)


def enqueued(message_id, content, scale, note, schedule, created):
    return (
        '{"ev":"enqueued","message":{"v":1,"message_id":"%s","sender_id":"s1","recipient_id":"r1",'
        '"content_id":"%s","scale":%s,"voice_note":%s,"schedule":%s,"created_at":"2021-06-05T%sZ",'
        '"state":"Pending"}}' % (message_id, content, scale, note, schedule, created)
    )


# Four messages: A delivered and reacted, B delivered and declined (both in the
# snapshot a clean shutdown wrote), then, in the log a crash left, D expired and
# C delivered.
V1_SNAPSHOT = (
    '{"v":1,"events":['
    + enqueued(A, "dog", "1.0", '{"duration":2.0,"transcript":"hey"}', "null", "08:50:00") + ","
    + enqueued(B, "bee", "1.5", '{"duration":1.0,"transcript":"hi"}', "null", "08:51:00") + ","
    + enqueued(C, "dog", "1.0", '{"duration":2.0,"transcript":"desk"}',
               '{"marker":{"marker_id":"mk-desk"}}', "08:52:00") + ","
    + enqueued(D, "dog", "1.0", '{"duration":2.0,"transcript":"soon"}',
               '{"window":{"start":"2021-06-05T09:01:00Z","end":"2021-06-05T09:01:30Z"}}',
               "08:53:00") + ","
    + '{"ev":"delivered","message_id":"%s","at":"2021-06-05T09:00:00Z"},' % A
    + '{"ev":"delivered","message_id":"%s","at":"2021-06-05T09:00:00Z"},' % B
    + '{"ev":"reacted","message_id":"%s","reaction":{"message_id":"%s",' % (A, A)
    + '"started_at":"2021-06-05T09:00:00Z","tracks":{"scene":[{"t":"2021-06-05T09:00:00Z"}],'
    + '"recipient_audio":[{"t":"2021-06-05T09:00:03Z","transcript":"wow"}],'
    + '"sender_voice_note":{"duration":2.0,"transcript":"hey"}},"consent":"Yes"}},'
    + '{"ev":"declined","message_id":"%s","at":"2021-06-05T09:00:20Z"}' % B
    + "]}"
)
V1_LOG = (
    '{"ev":"expired","message_id":"%s","at":"2021-06-05T09:02:00Z"}\n' % D
    + '{"ev":"delivered","message_id":"%s","at":"2021-06-05T09:02:00Z"}\n' % C
)


def test_v1_data_dir_recovers(tmp_path):
    (tmp_path / "queues").mkdir()
    (tmp_path / "principals.log").write_text('{"principal":"s1"}\n{"principal":"r1"}\n')
    (tmp_path / "queues" / "r1.snap.json").write_text(V1_SNAPSHOT)
    (tmp_path / "queues" / "r1.log").write_text(V1_LOG)

    service = DeliveryService(FileStore(tmp_path))
    assert service.message_states() == {
        A: MessageState.REACTED,
        B: MessageState.REACTION_DECLINED,
        C: MessageState.DELIVERED,
        D: MessageState.EXPIRED,
    }
    assert view_of(service, "s1") == [
        {
            "message_id": A, "state": "Reacted", "delivered_at": "2021-06-05T09:00:00Z",
            "reaction": {
                "message_id": A,
                "started_at": "2021-06-05T09:00:00Z",
                "tracks": {
                    "scene": [{"t": "2021-06-05T09:00:00Z"}],
                    "recipient_audio": [{"t": "2021-06-05T09:00:03Z", "transcript": "wow"}],
                    "sender_voice_note": {"duration": 2.0, "transcript": "hey"},
                },
                "consent": "Yes",
            },
        },
        {"message_id": B, "state": "ReactionDeclined", "delivered_at": "2021-06-05T09:00:00Z"},
        {"message_id": C, "state": "Delivered", "delivered_at": "2021-06-05T09:02:00Z"},
        {"message_id": D, "state": "Expired"},
    ]
    # A clean shutdown folds the log into the same snapshot format.
    service.close()
    assert not (tmp_path / "queues" / "r1.log").exists()
    assert (tmp_path / "queues" / "r1.snap.json").read_text() == V1_SNAPSHOT[:-2] + "," + ",".join(
        V1_LOG.strip().split("\n")
    ) + "]}"


def fail_once(monkeypatch, name, skip=0):
    """Make ``os.<name>`` fail with ENOSPC once, after ``skip`` calls; a failing write writes half first."""
    real = getattr(os, name)
    calls = []

    def flaky(fd, *data):
        calls.append(fd)
        if len(calls) != skip + 1:
            return real(fd, *data)
        if data:
            real(fd, data[0][: len(data[0]) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, name, flaky)


@pytest.mark.parametrize("call", ["write", "fsync"])
@pytest.mark.parametrize("failing", ["first-submit", "later-submit", "second-delivery"])
def test_a_failed_append_is_answered_and_cut_off(tmp_path, monkeypatch, call, failing):
    """One ERROR, the log as it was before the failed line, and the service goes on, restart included."""
    service = durable(tmp_path)
    one, two, three = (make_message(seed=n, created=f"08:5{n}:00") for n in (1, 2, 3))
    log = tmp_path / "queues" / "r1.log"
    if failing == "first-submit":
        fail_once(monkeypatch, call)
        frames, logged = submit(service, one), b""
    elif failing == "later-submit":
        submit(service, one)
        logged = log.read_bytes()
        fail_once(monkeypatch, call)
        frames = submit(service, two)
    else:
        submit(service, one)
        submit(service, two)
        # the sample fires both: the first delivery is written, the second fails
        logged = log.read_bytes() + b'{"ev":"delivered","message_id":"%s","at":"2021-06-05T09:00:00Z"}\n' % (
            one.message_id.encode()
        )
        fail_once(monkeypatch, call, skip=1)
        frames = push(service, sample("09:00:00"))
    monkeypatch.undo()

    if failing == "second-delivery":
        # the first message, durably Delivered, is played and its capture starts; then the ERROR
        assert [f["kind"] for f in frames] == [protocol.PLAYBACK, protocol.REACTION_START, protocol.ERROR]
        assert ids_of(frames, protocol.PLAYBACK) == ids_of(frames, protocol.REACTION_START) == [one.message_id]
        assert frames[-1]["payload"]["code"] == "DataDirUnwritable"
    else:
        assert error_code(frames) == "DataDirUnwritable"
    detail = frames[-1]["payload"]["detail"]
    assert not any(word in detail for word in ("r1", "queues", str(tmp_path), one.message_id, two.message_id))
    assert log.read_bytes() == logged
    if failing == "second-delivery":
        assert service.message_states()[two.message_id] is MessageState.PENDING
        assert ids_of(push(service, sample("09:00:01")), protocol.PLAYBACK) == [two.message_id]
    assert error_code(submit(service, three)) is None
    live = service.message_states()
    assert three.message_id in live
    service.close()
    assert DeliveryService(FileStore(tmp_path)).message_states() == live


def test_a_principal_whose_write_failed_is_written_by_its_next_hello(tmp_path, monkeypatch):
    service = durable(tmp_path)
    fail_once(monkeypatch, "fsync")
    assert error_code(hello(service, "recipient", "r2")) == "DataDirUnwritable"
    monkeypatch.undo()
    assert error_code(hello(service, "recipient", "r2")) is None
    service.close()
    assert FileStore(tmp_path).recover()[0] == {"s1", "r1", "r2"}


def test_torn_last_line_is_dropped_and_cut_off(tmp_path):
    first = durable(tmp_path)
    one = make_message(seed=1)
    submit(first, one)
    # a crash mid-append leaves each file's last line unterminated
    for path, torn in ((tmp_path / "queues" / "r1.log", '{"ev":"enqueued","mess'),
                       (tmp_path / "principals.log", '{"princ')):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)

    reborn = DeliveryService(FileStore(tmp_path))
    assert reborn.message_states() == {one.message_id: MessageState.PENDING}
    two = make_message(seed=2)
    submit(reborn, two)
    reborn.register_principal("s2")

    principals, journal = FileStore(tmp_path).recover()
    assert principals == {"s1", "r1", "s2"}
    assert [e["message"]["message_id"] for e in journal["r1"]] == [one.message_id, two.message_id]


@pytest.mark.parametrize("name", ["queues/r1.log", "principals.log"])
@pytest.mark.parametrize("lines", [['{"bad', '{"principal":"s1"}'], ['{"principal":"s1"}', '{"bad']],
                         ids=["mid-file", "terminated-last-line"])
def test_bad_line_elsewhere_is_an_error(tmp_path, name, lines):
    store = FileStore(tmp_path)
    (tmp_path / name).write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=Path(name).name):
        store.recover()


def test_a_year_below_1000_survives_a_restart(tmp_path):
    """The log writes the year as four digits, so what was acknowledged can be read back."""
    service = durable(tmp_path)
    message = make_message()
    doc = {**message_to_dict(message), "created_at": "0999-06-05T09:00:00Z"}
    (ack,) = request(service, protocol.SUBMIT, {"message": doc}, "s1")
    assert ack["kind"] == protocol.ACK
    service.close()
    assert DeliveryService(FileStore(tmp_path)).message_states() == {message.message_id: MessageState.PENDING}


def to(recipient, seed):
    return compose("s1", recipient, "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:55:00"),
                   id_factory=IdFactory(seed))


def test_snapshot_is_durable_before_any_log_goes(tmp_path, monkeypatch):
    first = durable(tmp_path)
    first.register_principal("r3")
    submit(first, to("r3", 3))
    first.close()  # r3 now has a snapshot and no log
    service = durable(tmp_path)
    for seed, recipient in enumerate(("r1", "r2")):
        service.register_principal(recipient)
        submit(service, to(recipient, seed))

    calls = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(dst).name))
        real_replace(src, dst)

    def unlink(path, missing_ok=False):
        calls.append(("unlink", path.name))
        real_unlink(path, missing_ok)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)
    service.close()
    assert calls == [
        ("fsync", "file"), ("replace", "r1.snap.json"),
        ("fsync", "file"), ("replace", "r2.snap.json"),
        ("fsync", "dir"),
        ("unlink", "r1.log"), ("unlink", "r2.log"),
    ]


def test_a_new_log_is_durable_in_its_directory(tmp_path, monkeypatch):
    """A new directory is fsynced into its parent, and the append that creates a file fsyncs it,
    then its directory, before the ACK; later appends fsync only the file."""
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        st_ = os.fstat(fd)
        calls.append(("dir", st_.st_ino) if stat.S_ISDIR(st_.st_mode) else "file")
        real_fsync(fd)

    def entry(path):
        return "dir", path.stat().st_ino

    monkeypatch.setattr(os, "fsync", fsync)
    fresh = tmp_path / "fresh"
    data, queues = fresh / "data", fresh / "data" / "queues"
    service = durable(data)  # creates fresh, data and queues; registers s1, which starts principals.log, then r1
    assert calls == [entry(data), entry(fresh), entry(tmp_path), "file", entry(data), "file"]
    for seed, want in [(1, ["file", entry(queues)]), (2, ["file"])]:
        calls.clear()
        (ack,) = submit(service, to("r1", seed))
        assert ack["kind"] == protocol.ACK
        assert calls == want
    service.close()  # the snapshot removes r1's log, so the next event starts a new one
    calls.clear()
    service = durable(data)  # every directory exists: nothing to fsync
    assert calls == []
    (ack,) = submit(service, to("r1", 3))
    assert ack["kind"] == protocol.ACK
    assert calls == ["file", entry(queues)]


def test_crash_between_snapshot_and_log_removal(tmp_path, monkeypatch):
    first = durable(tmp_path)
    delivered, parked = make_message(seed=1), make_message(seed=2)
    submit(first, delivered)
    submit(first, parked)
    push(first, sample("09:00:00"))
    consent(first, delivered.message_id, "yes", at("09:00:10"))
    before = first.message_states(), view_of(first, "s1")

    def crash(path, missing_ok=False):
        raise OSError("killed before the log was removed")

    monkeypatch.setattr(Path, "unlink", crash)
    with pytest.raises(OSError):
        first.close()
    monkeypatch.undo()
    log = tmp_path / "queues" / "r1.log"
    assert log.exists() and (tmp_path / "queues" / "r1.snap.json").exists()

    reborn = DeliveryService(FileStore(tmp_path))
    assert (reborn.message_states(), view_of(reborn, "s1")) == before
    assert not log.exists()


def test_a_log_that_repeats_the_end_of_its_snapshot_is_kept(tmp_path):
    """Only a snapshot that is no longer the size a log names holds that log, whatever its events."""
    event = {"ev": "enqueued", "n": 0}
    store = FileStore(tmp_path)
    store.record_event("r1", event)
    store.close()
    store = FileStore(tmp_path)
    store.record_event("r1", event)  # then a crash: no close
    assert FileStore(tmp_path).recover() == (set(), {"r1": [event, event]})
    assert (tmp_path / "queues" / "r1.log").read_bytes().startswith(b'{"snap":')


def test_a_log_without_a_size_line_that_ends_its_snapshot_is_removed(tmp_path):
    """A log written before logs named their snapshot is folded when its events end the snapshot."""
    (tmp_path / "queues").mkdir()
    (tmp_path / "queues" / "r1.snap.json").write_text('{"v":1,"events":[{"ev":"a"},{"ev":"b"}]}')
    (tmp_path / "queues" / "r1.log").write_text('{"ev":"b"}\n')
    assert FileStore(tmp_path).recover() == (set(), {"r1": [{"ev": "a"}, {"ev": "b"}]})
    assert not (tmp_path / "queues" / "r1.log").exists()


def hello(service, role, principal):
    return request(service, protocol.HELLO, {"role": role, "principal": principal}, principal)


def test_principal_id_cannot_escape_the_queue_dir(tmp_path):
    data = tmp_path / "data"
    service = DeliveryService(FileStore(data))
    hello(service, "recipient", "../escape")
    hello(service, "sender", "s1")
    message = to("../escape", 1)
    assert error_code(submit(service, message)) is None
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert files == ["data/principals.log", "data/queues/..%2Fescape.log"]
    # no close(): a crash right after the ACK loses nothing
    reborn = DeliveryService(FileStore(data))
    assert reborn.message_states() == {message.message_id: MessageState.PENDING}
    reborn.close()
    assert DeliveryService(FileStore(data)).message_states() == {message.message_id: MessageState.PENDING}


def test_hello_refuses_a_principal_too_long_for_a_file_name(tmp_path):
    service = DeliveryService(FileStore(tmp_path))
    for principal in ("r" * 300, "\u00e9" * 100):  # 600 bytes once percent-encoded
        assert error_code(hello(service, "recipient", principal)) == "ParseError"
    longest = "r" * (255 - len(".snap.json"))
    assert error_code(hello(service, "recipient", longest)) is None
    hello(service, "sender", "s1")
    assert error_code(submit(service, to(longest, 1))) is None
    service.close()
    assert (tmp_path / "queues" / f"{longest}.snap.json").exists()


DELIVERED_A = '{"ev":"delivered","message_id":"%s","at":"2021-06-05T09:00:00Z"}' % A


@pytest.mark.parametrize(
    "name, content, named",
    [
        ("principals.log", '{"who":"s1"}\n', "principals.log"),
        ("principals.log", "5\n", "principals.log"),
        ("queues/r1.snap.json", "{not json", "r1.snap.json"),
        ("queues/r1.snap.json", '{"v":1}', "r1.snap.json"),
        ("queues/r1.snap.json", '{"v":1,"events":5}', "r1.snap.json"),
        ("queues/r1.snap.json", '{"v":1,"events":[5]}', "queue r1:"),
        ("queues/r1.log", '{"message_id":"%s"}\n' % A, "queue r1:"),
        ("queues/r1.log", '{"ev":"teleported","message_id":"%s"}\n' % A, "queue r1:"),
        ("queues/r1.log", DELIVERED_A + "\n", "queue r1:"),  # a message never enqueued
        ("queues/r1.log", enqueued(A, "dog", "1.0", "{}", "null", "08:50:00") + "\n", "queue r1:"),
        ("queues/r1.log", "\n".join([enqueued(A, "dog", "1.0", '{"duration":2.0,"transcript":"x"}',
                                              "null", "08:50:00"), DELIVERED_A, DELIVERED_A]) + "\n",
         "queue r1:"),
    ],
    ids=["principal-missing", "principal-not-object", "snapshot-not-json", "snapshot-without-events",
         "snapshot-events-not-list", "snapshot-event-not-object", "log-line-not-event", "unknown-ev",
         "transition-of-unknown-message", "bad-message", "illegal-transition"],
)
def test_malformed_store_stops_recovery_with_a_parse_error(tmp_path, capsys, name, content, named):
    """serve exits 1 with ``error: ParseError:`` naming the file or queue, never with InternalError,
    and closes the frame log it had opened."""
    data = tmp_path / "data"
    (data / "queues").mkdir(parents=True)
    (data / name).write_text(content)
    with pytest.raises(ParseError, match=named):
        DeliveryService(FileStore(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["serve", "--listen", "127.0.0.1:0", "--data-dir", str(data)]) == 1
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and named in err, err


RECIPIENTS = ("r1", "r/2", "r\u00e9 3")  # the last two are percent-encoded in their file names
stored_events = st.fixed_dictionaries(
    {"ev": st.sampled_from(["enqueued", "delivered"]), "n": st.integers()},
    optional={"note": st.text(max_size=8), "tags": st.lists(st.text(max_size=4) | st.floats(allow_nan=False))},
)
store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(RECIPIENTS), stored_events),
        st.tuples(st.sampled_from(["close", "crash"])),
        # close() dies after this many logs are removed: every snapshot is in place
        st.tuples(st.just("crash-before-unlink"), st.integers(0, 2)),
    ),
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(store_steps)
def test_a_snapshot_is_the_old_snapshot_joined_with_the_log(steps):
    """Whatever mix of appends, closes and crashes came before, a clean close leaves each queue's
    snapshot byte for byte as json.dumps writes all its events, and every restart recovers them."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        recorded: dict[str, list] = {}
        store = FileStore(root)
        for step in [*steps, ("close",)]:
            if step[0] == "record":
                store.record_event(step[1], step[2])
                recorded.setdefault(step[1], []).append(step[2])
                continue
            if step[0] == "close":
                store.close()
                for recipient, events in recorded.items():
                    snap = root / "queues" / f"{quote(recipient, safe='')}.snap.json"
                    assert snap.read_bytes() == json.dumps({"v": 1, "events": events}, separators=(",", ":")).encode()
            elif step[0] == "crash-before-unlink":
                removed, real_unlink = [], Path.unlink

                def unlink(path, missing_ok=False, left=step[1]):
                    if len(removed) == left:
                        raise OSError("killed before the log was removed")
                    removed.append(path)
                    real_unlink(path, missing_ok)

                with mock.patch.object(Path, "unlink", unlink), contextlib.suppress(OSError):
                    store.close()
            store = FileStore(root)
            assert store.recover() == (set(), recorded)
