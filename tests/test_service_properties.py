"""Property tests at the service's frame boundary and across restarts."""

from __future__ import annotations

import json
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from wandrelay import protocol
from wandrelay.engine import ContextSample, sample_to_dict
from wandrelay.ids import IdFactory
from wandrelay.model import (
    MarkerCondition,
    MessageState,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    compose,
    message_to_dict,
)
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore
from wandrelay.timeutil import parse_rfc3339

from client import consent, error_code, push, request, submit, view_of
from conftest import at

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=12), json_values, max_size=5)


@st.composite
def mutated(draw, value):
    """``value`` with some parts, at any depth, dropped or replaced by arbitrary JSON."""
    if isinstance(value, (dict, list)) and value:
        out = dict(value) if isinstance(value, dict) else list(value)
        keys = sorted(out) if isinstance(out, dict) else list(range(len(out)))
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            action = draw(st.sampled_from(["drop", "replace", "recurse"]))
            if action == "drop" and isinstance(out, dict):
                del out[key]
            elif action == "recurse":
                out[key] = draw(mutated(out[key]))
            else:
                out[key] = draw(json_values)
        return out
    return draw(json_values) if draw(st.booleans()) else value


def message(seed, sender="s1", marker=False, created=at("08:55:00"), window=None):
    schedule = None
    if marker or window:
        schedule = TriggerSchedule(window=window, marker=MarkerCondition("mk-desk") if marker else None)
    return compose(
        sender, "r1", "dog", 1.0, VoiceNote(2.0, "hey"), schedule,
        now=created, id_factory=IdFactory(seed),
    )


def sample(t, markers=()):
    return ContextSample("r1", t, 40.0, -100.0, wearing=True, visible_markers=frozenset(markers))


def service_with_open_capture():
    """Two direct messages delivered to r1: one capture running, one queued."""
    service = DeliveryService(declared_markers={"mk-desk"})
    service.register_principal("r1")
    service.register_principal("s1")
    first, second = message(1), message(2)
    submit(service, first)
    submit(service, second)
    push(service, sample(at("09:00:00")))
    return service, first.message_id


def valid_payloads(message_id):
    return {
        protocol.HELLO: {"role": "recipient", "principal": "r1"},
        protocol.SUBMIT: {"message": message_to_dict(message(3))},
        protocol.CONTEXT: {"sample": sample_to_dict(sample(at("09:00:05"), ["mk-desk"]))},
        protocol.REACTION_FRAME: {"message_id": message_id, "t": "2021-06-05T09:00:03Z", "transcript": "wow"},
        protocol.CONSENT: {"message_id": message_id, "answer": "yes", "t": "2021-06-05T09:00:10Z"},
        protocol.SENDER_VIEW_REQ: {"sender_id": "s1"},
    }


REQUEST_KINDS = sorted(valid_payloads("x"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(REQUEST_KINDS), data=st.data())
def test_any_payload_gets_exactly_one_answer(kind, data):
    service, message_id = service_with_open_capture()
    valid = valid_payloads(message_id)[kind]
    payload = data.draw(st.one_of(json_objects, mutated(valid)).filter(lambda p: isinstance(p, dict)))
    sender = "s1" if kind in (protocol.SUBMIT, protocol.SENDER_VIEW_REQ) else "r1"
    kinds = [r["kind"] for r in service.handle_frame(protocol.make_frame(kind, payload, sender=sender))]
    if kind == protocol.CONTEXT:  # a one-way stream: an ERROR only when rejected
        assert protocol.ERROR not in kinds or kinds == [protocol.ERROR]
    elif kind == protocol.SENDER_VIEW_REQ:
        assert kinds in ([protocol.SENDER_VIEW_RESP], [protocol.ERROR])
    else:
        assert kinds[0] in (protocol.ACK, protocol.ERROR)
        assert kinds.count(protocol.ACK) + kinds.count(protocol.ERROR) == 1


PRINCIPALS = ("p", "q")


def two_principal_service(data_dir):
    """p and q send to each other; each holds one Reacted, a running and a queued capture, one Pending."""
    service = DeliveryService(FileStore(data_dir), declared_markers={"mk-desk"})
    for principal in PRINCIPALS:
        request(service, protocol.HELLO, {"role": "recipient", "principal": principal}, principal)
    received = {}
    for seed, (me, other) in enumerate([PRINCIPALS, PRINCIPALS[::-1]]):
        messages = [
            compose(other, me, "dog", 1.0, VoiceNote(2.0, "hey"), schedule, now=at("08:55:00"),
                    id_factory=IdFactory(10 * seed + k))
            for k, schedule in enumerate([None, None, None, TriggerSchedule(marker=MarkerCondition("mk-desk"))])
        ]
        for m in messages:
            assert error_code(submit(service, m)) is None
        push(service, ContextSample(me, at("09:00:00"), 40.0, -100.0, wearing=True))
        assert error_code(consent(service, messages[0].message_id, "yes", at("09:00:10"), recipient=me)) is None
        received[me] = [m.message_id for m in messages]
    return service, received


@st.composite
def foreign_request(draw, received):
    """A request from one principal that carries the other's ids."""
    me = draw(st.sampled_from(PRINCIPALS))
    other = PRINCIPALS[1 - PRINCIPALS.index(me)]
    kind = draw(st.sampled_from(
        [protocol.SUBMIT, protocol.CONTEXT, protocol.REACTION_FRAME, protocol.CONSENT, protocol.SENDER_VIEW_REQ]
    ))
    t = at("09:00:00") + timedelta(seconds=draw(st.integers(0, 60)))
    stamp = t.strftime("%Y-%m-%dT%H:%M:%SZ")
    if kind == protocol.SUBMIT:
        doc = message_to_dict(compose(other, me, "dog", 1.0, VoiceNote(1.0, "hi"), None, now=t,
                                      id_factory=IdFactory(100 + draw(st.integers(0, 50)))))
        payload = {"message": doc}
    elif kind == protocol.CONTEXT:
        markers = draw(st.sampled_from([(), ("mk-desk",)]))
        sample_ = ContextSample(other, t, 40.0, -100.0, wearing=True, visible_markers=frozenset(markers))
        payload = {"sample": sample_to_dict(sample_)}
    elif kind == protocol.SENDER_VIEW_REQ:
        payload = {"sender_id": other}
    else:
        message_id = draw(st.sampled_from(received[other]))
        if kind == protocol.REACTION_FRAME:
            payload = {"message_id": message_id, "t": stamp, "transcript": draw(st.text(max_size=8))}
        else:
            payload = {"message_id": message_id, "answer": draw(st.sampled_from(["yes", "no"])), "t": stamp}
    return kind, payload, me


def stored_bytes(data_dir):
    return {p: p.read_bytes() for p in sorted(Path(data_dir).rglob("*")) if p.is_file()}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_requests_carrying_another_principals_ids_are_refused(data):
    data_dir = tempfile.mkdtemp(prefix="wandrelay-principals-")
    try:
        service, received = two_principal_service(data_dir)
        before = (service.message_states(), {p: view_of(service, p) for p in PRINCIPALS}, stored_bytes(data_dir))
        for kind, payload, sender in data.draw(st.lists(foreign_request(received), min_size=1, max_size=8)):
            # A capture request for another's message is answered as for an unused id.
            want = "UnknownMessage" if kind in (protocol.REACTION_FRAME, protocol.CONSENT) else "PrincipalMismatch"
            assert error_code(request(service, kind, payload, sender)) == want
        after = (service.message_states(), {p: view_of(service, p) for p in PRINCIPALS}, stored_bytes(data_dir))
        assert after == before
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def test_another_recipients_message_is_answered_as_an_unused_id(tmp_path):
    """Whatever the state of q's message, p learns from the ERROR only that p holds no such capture."""
    service, received = two_principal_service(tmp_path)
    states = service.message_states()
    assert {states[m].value for m in received["q"]} == {"Pending", "Delivered", "Reacted"}
    before = (states, {p: view_of(service, p) for p in PRINCIPALS}, stored_bytes(tmp_path))
    unused = IdFactory(999)(at("08:55:00"))
    payloads = {
        protocol.REACTION_FRAME: lambda mid: {"message_id": mid, "t": "2021-06-05T09:00:30Z", "transcript": "hi"},
        protocol.CONSENT: lambda mid: {"message_id": mid, "answer": "yes", "t": "2021-06-05T09:00:30Z"},
    }
    for kind, payload in payloads.items():
        (want,) = request(service, kind, payload(unused), "p")
        assert want["kind"] == protocol.ERROR and want["payload"]["code"] == "UnknownMessage"
        for message_id in received["q"]:
            (got,) = request(service, kind, payload(message_id), "p")
            assert json.dumps(got).replace(message_id, unused) == json.dumps(want)
    assert (service.message_states(), {p: view_of(service, p) for p in PRINCIPALS}, stored_bytes(tmp_path)) == before


class LiveEqualsReplay(RuleBasedStateMachine):
    """Whatever a crash or a clean restart interrupts, the state read back is the same."""

    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="wandrelay-live-replay-")
        self.clock = at("09:00:00")
        self.seeds = 0
        self.captures: dict[str, str] = {}  # open capture -> its deadline
        self.open()

    def open(self):
        self.service = DeliveryService(FileStore(self.data_dir), declared_markers={"mk-desk"})
        self.captures.clear()
        self.request(protocol.HELLO, {"role": "recipient", "principal": "r1"}, "r1")

    def request(self, kind, payload, sender):
        responses = self.service.handle_frame(protocol.make_frame(kind, payload, sender=sender))
        assert protocol.ERROR not in [r["kind"] for r in responses], responses
        for response in responses:
            if response["kind"] == protocol.REACTION_START:
                self.captures[response["payload"]["message_id"]] = response["payload"]["deadline"]
        return responses

    def observed(self):
        views = {s: view_of(self.service, s) for s in ("s1", "s2")}
        return self.service.message_states(), views

    @rule(
        sender=st.sampled_from(["s1", "s2"]),
        marker=st.booleans(),
        window=st.none() | st.tuples(st.integers(1, 10), st.integers(1, 5)),
    )
    def submit(self, sender, marker, window):
        """A drawn window opens a few seconds after the clock, so a ``context`` jump can skip past it: expired."""
        self.request(protocol.HELLO, {"role": "sender", "principal": sender}, sender)
        self.seeds += 1
        if window is not None:
            opens = self.clock + timedelta(seconds=window[0])
            window = TimeWindow(opens, opens + timedelta(seconds=window[1]))
        doc = message_to_dict(message(self.seeds, sender, marker, created=self.clock, window=window))
        self.request(protocol.SUBMIT, {"message": doc}, sender)

    @rule(seconds=st.integers(1, 15), show_marker=st.booleans())
    def context(self, seconds, show_marker):
        self.clock += timedelta(seconds=seconds)
        doc = sample_to_dict(sample(self.clock, ["mk-desk"] if show_marker else []))
        self.request(protocol.CONTEXT, {"sample": doc}, "r1")

    @precondition(lambda self: self.captures)
    @rule(answer=st.sampled_from(["yes", "no"]))
    def consent(self, answer):
        message_id, deadline = self.captures.popitem()
        self.clock = max(self.clock, parse_rfc3339(deadline))
        t = self.clock.strftime("%Y-%m-%dT%H:%M:%SZ")
        self.request(protocol.CONSENT, {"message_id": message_id, "answer": answer, "t": t}, "r1")

    @invariant()
    def sessions_are_the_unanswered_starts(self):
        """A live capture session exists exactly for each REACTION_START not yet answered."""
        assert set(self.service._captures._sessions) == set(self.captures)

    @invariant()
    def pending_records_are_the_indexed_ones(self):
        """A record is Pending exactly when its id is in its recipient's trigger index."""
        indexed = {(r, mid) for r, index in self.service._pending.items() for mid in index.messages}
        pending = {
            (record.message.recipient_id, mid)
            for mid, record in self.service.records.items()
            if record.state is MessageState.PENDING
        }
        assert indexed == pending

    @rule()
    def crash(self):
        before = self.observed()
        self.open()  # the old service is dropped without close()
        assert self.observed() == before

    @rule()
    def restart(self):
        before = self.observed()
        self.service.close()
        self.open()
        assert self.observed() == before

    def teardown(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)


LiveEqualsReplay.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_live_equals_replay = LiveEqualsReplay.TestCase
