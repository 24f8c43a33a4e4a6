from __future__ import annotations

import json
import math
from datetime import datetime

import pytest

from wandrelay import protocol
from wandrelay.engine import ContextSample, sample_to_dict
from wandrelay.ids import IdFactory
from wandrelay.model import (
    Geofence,
    MarkerCondition,
    MessageState,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    compose,
    message_to_dict,
)
from wandrelay.reaction import LAST_CAPTURE_START
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore
from wandrelay.timeutil import UTC, format_rfc3339, parse_rfc3339

from client import consent, error_code, ids_of, push, request, submit, utter, view_of
from conftest import at
from genrandom import lat_off, lon_off


@pytest.fixture()
def service():
    svc = DeliveryService(declared_markers={"mk-desk", "mk-door"})
    svc.register_principal("s1")
    svc.register_principal("r1")
    return svc


def make_message(schedule=None, seed=1, created="08:55:00"):
    return compose(
        "s1", "r1", "dog", 1.0,
        VoiceNote(3.0, "hey"), schedule,
        now=at(created), id_factory=IdFactory(seed),
    )


def sample(t="09:00:00", wearing=True, markers=(), east=0.0, north=0.0):
    return ContextSample(
        recipient_id="r1", t=at(t),
        lat=lat_off(north), lon=lon_off(east),
        wearing=wearing, visible_markers=frozenset(markers),
    )


class TestSubmit:
    def test_ack_and_queue_growth(self, service):
        message = make_message()
        (ack,) = submit(service, message)
        assert ack["kind"] == protocol.ACK
        assert ack["payload"]["message_id"] == message.message_id
        assert service.message_states() == {message.message_id: MessageState.PENDING}

    def test_duplicate_id_rejected(self, service):
        message = make_message()
        submit(service, message)
        assert error_code(submit(service, message)) == "DuplicateMessageId"

    def test_unknown_recipient(self, service):
        message = compose("s1", "nobody", "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:55:00"))
        assert error_code(submit(service, message)) == "UnknownRecipient"


class TestPushContext:
    def test_out_of_order_rejected(self, service):
        push(service, sample("09:00:00"))
        assert error_code(push(service, sample("09:00:00"))) == "OutOfOrderSample"

    def test_not_wearing_changes_nothing(self, service):
        for seed in (1, 2, 3):
            submit(service, make_message(seed=seed))
        assert push(service, sample(wearing=False)) == []
        assert list(service.message_states().values()) == [MessageState.PENDING] * 3

    def test_direct_delivery_emits_flash_then_render(self, service):
        message = make_message()
        submit(service, message)
        playback, start = push(service, sample())
        assert playback["kind"] == protocol.PLAYBACK
        payload = playback["payload"]
        assert [e["kind"] for e in payload["events"]] == ["flash", "render"]
        assert payload["events"][0]["duration"] == 0.5
        assert service.message_states()[message.message_id] is MessageState.DELIVERED
        assert ids_of([start], protocol.REACTION_START) == [message.message_id]

    def test_two_messages_fire_in_created_at_order(self, service):
        older = make_message(seed=1, created="08:50:00")
        newer = make_message(seed=2, created="08:52:00")
        submit(service, newer)
        submit(service, older)
        frames = push(service, sample())
        assert ids_of(frames, protocol.PLAYBACK) == [older.message_id, newer.message_id]

    def test_expired_messages_marked(self, service):
        schedule = TriggerSchedule(window=TimeWindow(start=at("08:00:00"), end=at("08:30:00")))
        message = make_message(schedule)
        submit(service, message)
        assert push(service, sample()) == []
        assert service.message_states()[message.message_id] is MessageState.EXPIRED


# Positions no sample can have: json reads NaN and Infinity, and neither is on the globe.
OFF_THE_GLOBE = [
    (math.nan, lon_off(0)), (math.inf, lon_off(0)), (-math.inf, lon_off(0)), (lat_off(0), math.inf),
    (91.0, lon_off(0)), (lat_off(0), 181.0), (1e308, lon_off(0)),
]


def off_the_globe(lat, lon, t="09:00:00"):
    return {"sample": {**sample_to_dict(sample(t)), "position": {"lat": lat, "lon": lon}}}


def fenced():
    """A message for r1 that a sample at ``sample()``'s position fires; while it waits, samples probe the grid."""
    return make_message(TriggerSchedule(geofence=Geofence(lat=lat_off(0), lon=lon_off(0), radius=10.0)))


@pytest.mark.parametrize("lat, lon", OFF_THE_GLOBE)
def test_a_position_off_the_globe_is_refused(tmp_path, lat, lon):
    """One ERROR, and nothing changes: states, views, stored bytes, nor the last sample time."""
    service = durable(tmp_path)
    fence = fenced()
    submit(service, fence)

    def observed():
        stored = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        return service.message_states(), view_of(service, "s1"), stored

    before = observed()
    assert error_code(request(service, protocol.CONTEXT, off_the_globe(lat, lon), "r1")) == "InvalidCoordinates"
    assert observed() == before
    assert ids_of(push(service, sample()), protocol.PLAYBACK) == [fence.message_id]


@pytest.mark.parametrize("t", ["9999-12-31T23:59:50Z", "9999-12-31T23:59:55Z", "9999-12-31T23:59:59.999999Z"])
def test_a_sample_too_late_for_a_capture_is_refused(tmp_path, t):
    """One ERROR that changes nothing: a capture started then would end past the last datetime.

    A sample at the last instant that leaves room for a capture still fires, and one past it is refused
    while that capture records.
    """
    service = durable(tmp_path)
    fence = fenced()
    submit(service, fence)

    def observed():
        stored = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        return service.message_states(), view_of(service, "s1"), stored

    late = {"sample": {**sample_to_dict(sample()), "t": t}}
    before = observed()
    assert error_code(request(service, protocol.CONTEXT, late, "r1")) == "ParseError"
    assert observed() == before
    bound = {**sample_to_dict(sample()), "t": format_rfc3339(LAST_CAPTURE_START)}
    frames = request(service, protocol.CONTEXT, {"sample": bound}, "r1")
    assert [f["kind"] for f in frames] == [protocol.PLAYBACK, protocol.REACTION_START]
    assert frames[1]["payload"]["deadline"] == "9999-12-31T23:59:59.999999Z"
    assert error_code(request(service, protocol.CONTEXT, late, "r1")) == "ParseError"


# Sample fields of the wrong JSON type, as (field, value); lat and lon sit in the position.
# 10**400 is a JSON number, but no float holds it.
MISTYPED_SAMPLE_FIELDS = [
    ("wearing", "no"), ("wearing", 1), ("wearing", None), ("recipient_id", 5),
    ("lat", True), ("lon", "2"), pytest.param("lat", 10**400, id="lat-10**400"),
    ("visible_markers", "abc"), ("visible_markers", ["mk-desk", 1]), ("visible_markers", None),
]


@pytest.mark.parametrize("field, value", MISTYPED_SAMPLE_FIELDS)
def test_a_sample_field_of_the_wrong_type_is_refused(tmp_path, field, value):
    """One ParseError that changes nothing; the value is not coerced ("no" is not worn), and the same t still fires."""
    service = durable(tmp_path)
    direct = make_message()
    submit(service, direct)

    def observed():
        stored = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        return service.message_states(), view_of(service, "s1"), stored

    doc = sample_to_dict(sample())
    if field in ("lat", "lon"):
        doc["position"] = {**doc["position"], field: value}
    else:
        doc[field] = value
    before = observed()
    assert error_code(request(service, protocol.CONTEXT, {"sample": doc}, "r1")) == "ParseError"
    assert observed() == before
    assert ids_of(push(service, sample()), protocol.PLAYBACK) == [direct.message_id]


def capture(service, message_id):
    """The capture session buffering a message's reaction; no frame shows its buffers."""
    return service._captures.get(message_id)


class TestReactionFlow:
    def deliver_one(self, service):
        message = make_message()
        submit(service, message)
        push(service, sample("09:00:00"))
        return message, capture(service, message.message_id)

    def test_capture_collects_scene_and_voice(self, service):
        message, session = self.deliver_one(service)
        push(service, sample("09:00:03"))
        assert error_code(utter(service, message.message_id, at("09:00:04"), "wow")) is None
        assert len(session.frames) == 2  # delivery sample + one later sample
        ack, notify = consent(service, message.message_id, "yes", at("09:00:10"))
        assert (ack["kind"], notify["kind"]) == (protocol.ACK, protocol.REACTION_NOTIFY)
        assert service.message_states()[message.message_id] is MessageState.REACTED
        (view,) = view_of(service, "s1")
        assert view["reaction"] == notify["payload"]["reaction"]

    def test_consent_no_declines_and_erases(self, service):
        message, session = self.deliver_one(service)
        utter(service, message.message_id, at("09:00:02"), "nope")
        (ack,) = consent(service, message.message_id, "no", at("09:00:10"))
        assert ack["kind"] == protocol.ACK
        assert session.frames == [] and session.utterances == []
        assert service.message_states()[message.message_id] is MessageState.REACTION_DECLINED
        # a second answer changes nothing: the capture is already finalized
        assert error_code(consent(service, message.message_id, "yes", at("09:00:11"))) == "NotAwaitingConsent"
        assert service.message_states()[message.message_id] is MessageState.REACTION_DECLINED

    def test_second_delivery_queues_until_consent(self, service):
        first = make_message(seed=1, created="08:50:00")
        second = make_message(
            TriggerSchedule(marker=MarkerCondition("mk-desk")), seed=2, created="08:51:00"
        )
        submit(service, first)
        submit(service, second)
        frames = push(service, sample("09:00:00", markers=("mk-desk",)))
        assert len(ids_of(frames, protocol.PLAYBACK)) == 2
        assert ids_of(frames, protocol.REACTION_START) == [first.message_id]
        # a queued capture has not started, so it cannot be answered yet
        assert error_code(consent(service, second.message_id, "no", at("09:00:10"))) == "UnknownMessage"
        # queued capture starts when the first one finalizes
        (start,) = [f for f in consent(service, first.message_id, "yes", at("09:00:10"))
                    if f["kind"] == protocol.REACTION_START]
        assert start["payload"]["message_id"] == second.message_id
        assert start["payload"]["started_at"] == "2021-06-05T09:00:10Z"

    def test_utterance_out_of_order_is_an_error(self, service):
        message, _ = self.deliver_one(service)
        answers = []
        for t in ("08:59:00", "09:00:05", "09:00:04"):  # before the start, in order, out of order
            (response,) = service.handle_frame(protocol.make_frame(
                protocol.REACTION_FRAME,
                {"message_id": message.message_id, "t": f"2021-06-05T{t}Z", "transcript": "x"},
                sender="r1",
            ))
            answers.append(response["payload"].get("code", response["kind"]))
        assert answers == ["OutOfOrderSample", "ACK", "OutOfOrderSample"]

    def test_sample_before_next_capture_start_is_not_recorded(self, service):
        first = make_message(seed=1, created="08:50:00")
        second = make_message(seed=2, created="08:51:00")
        submit(service, first)
        submit(service, second)
        push(service, sample("09:00:00"))
        frames = consent(service, first.message_id, "yes", at("10:00:00"))
        assert ids_of(frames, protocol.REACTION_START) == [second.message_id]
        push(service, sample("09:00:30"))
        assert capture(service, second.message_id).frames == []

    def test_an_answer_after_the_last_capture_start_starts_the_next_capture_at_it(self, service):
        """Two messages delivered by one sample, each answered "yes" in the last second of year 9999.

        Every answer is answered, never raised: the next capture starts at the last capture start,
        so its deadline is a datetime, and answered at that deadline the message leaves Delivered.
        """
        first = make_message(seed=1, created="08:50:00")
        second = make_message(seed=2, created="08:51:00")
        submit(service, first)
        submit(service, second)
        push(service, sample("09:00:00"))
        late = datetime(9999, 12, 31, 23, 59, 59, tzinfo=UTC)
        frames = consent(service, first.message_id, "yes", late)
        assert [f["kind"] for f in frames] == [protocol.ACK, protocol.REACTION_NOTIFY, protocol.REACTION_START]
        start = frames[2]["payload"]
        assert start["message_id"] == second.message_id
        deadline = parse_rfc3339(start["deadline"])
        assert deadline <= parse_rfc3339("9999-12-31T23:59:59.999999Z")
        assert error_code(consent(service, second.message_id, "yes", late)) == "NotAwaitingConsent"
        frames = consent(service, second.message_id, "yes", deadline)
        assert [f["kind"] for f in frames] == [protocol.ACK, protocol.REACTION_NOTIFY]
        assert service.message_states() == {
            first.message_id: MessageState.REACTED,
            second.message_id: MessageState.REACTED,
        }


class TestSenderView:
    def test_states_and_reaction_visibility(self, service):
        reacted = make_message(seed=1, created="08:50:00")
        declined = make_message(seed=2, created="08:51:00")
        pending = make_message(
            TriggerSchedule(marker=MarkerCondition("mk-door")), seed=3, created="08:52:00"
        )
        for m in (reacted, declined, pending):
            submit(service, m)
        push(service, sample("09:00:00"))
        consent(service, reacted.message_id, "yes", at("09:00:10"))
        # the second message's capture was queued behind the first and
        # started at 09:00:10; answer it with "no"
        consent(service, declined.message_id, "no", at("09:00:20"))

        records = {r["message_id"]: r for r in view_of(service, "s1")}
        assert records[reacted.message_id]["state"] == MessageState.REACTED.value
        assert "reaction" in records[reacted.message_id]
        assert records[declined.message_id]["state"] == MessageState.REACTION_DECLINED.value
        assert "reaction" not in records[declined.message_id]
        assert records[pending.message_id]["state"] == MessageState.PENDING.value

    def test_serialized_record_has_no_location_shaped_fields(self, service):
        message = make_message()
        submit(service, message)
        push(service, sample("09:00:00"))
        consent(service, message.message_id, "yes", at("09:00:10"))
        (doc,) = view_of(service, "s1")
        text = json.dumps(doc)
        assert set(doc) <= {"message_id", "state", "delivered_at", "reaction"}
        for needle in ("lat", "lon", "position", "marker", "geofence_hit", "window_hit"):
            assert needle not in text
        for frame in doc["reaction"]["tracks"]["scene"]:
            assert set(frame) == {"t"}


def durable(tmp_path):
    service = DeliveryService(FileStore(tmp_path))
    service.register_principal("s1")
    service.register_principal("r1")
    return service


class TestDurability:
    def test_pending_survives_unclean_restart(self, tmp_path):
        first = durable(tmp_path)
        message = make_message()
        submit(first, message)
        # no close(): simulate a crash right after the submit ack
        reborn = DeliveryService(FileStore(tmp_path))
        assert reborn.message_states() == {message.message_id: MessageState.PENDING}
        # both principals are still registered: each can be submitted to
        assert error_code(submit(reborn, make_message(seed=2))) is None
        back = compose("r1", "s1", "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:56:00"))
        assert error_code(submit(reborn, back)) is None

    def test_snapshot_then_restart_preserves_states(self, tmp_path):
        first = durable(tmp_path)
        delivered = make_message(seed=1, created="08:50:00")
        parked = make_message(seed=2, created="08:51:00")
        submit(first, delivered)
        submit(first, parked)
        push(first, sample("09:00:00"))  # delivers both; captures queue
        consent(first, delivered.message_id, "yes", at("09:00:10"))
        first.close()
        assert not (tmp_path / "queues" / "r1.log").exists()  # folded into snapshot

        reborn = DeliveryService(FileStore(tmp_path))
        assert reborn.message_states() == {
            delivered.message_id: MessageState.REACTED,
            parked.message_id: MessageState.DELIVERED,
        }
        view = {r["message_id"]: r for r in view_of(reborn, "s1")}
        assert "reaction" in view[delivered.message_id]

    def lost_captures(self, tmp_path):
        """Two messages Delivered (one capture running, one queued), then a restart."""
        first = durable(tmp_path)
        running = make_message(seed=1, created="08:50:00")
        queued = make_message(seed=2, created="08:51:00")
        submit(first, running)
        submit(first, queued)
        push(first, sample("09:00:00"))
        first.close()
        reborn = DeliveryService(FileStore(tmp_path))
        # recovery itself declines nothing
        assert set(reborn.message_states().values()) == {MessageState.DELIVERED}
        return reborn, running.message_id, queued.message_id

    def test_consent_after_restart_declines_a_lost_capture(self, tmp_path):
        reborn, running, queued = self.lost_captures(tmp_path)
        reborn.register_principal("r1")
        assert error_code(utter(reborn, running, at("09:00:05"), "wow")) == "UnknownMessage"
        for message_id, answer in ((running, "yes"), (queued, "no")):
            (ack,) = consent(reborn, message_id, answer, at("09:00:10"))
            assert ack["kind"] == protocol.ACK
            assert ack["payload"] == {"of": protocol.CONSENT, "message_id": message_id, "answer": answer}
        assert reborn.message_states() == {
            running: MessageState.REACTION_DECLINED,
            queued: MessageState.REACTION_DECLINED,
        }
        assert error_code(consent(reborn, running, "yes", at("09:00:20"))) == "NotAwaitingConsent"
        assert [r["state"] for r in view_of(reborn, "s1")] == ["ReactionDeclined"] * 2

    def test_end_of_run_after_restart_declines_lost_captures(self, tmp_path):
        reborn, running, queued = self.lost_captures(tmp_path)
        reborn.end_of_run(at("09:30:00"))
        settled = {running: MessageState.REACTION_DECLINED, queued: MessageState.REACTION_DECLINED}
        assert reborn.message_states() == settled
        reborn.close()
        assert DeliveryService(FileStore(tmp_path)).message_states() == settled

    @pytest.mark.parametrize("event", ["delivered", "expired"])
    def test_out_of_order_guard_survives_restart(self, tmp_path, event):
        first = durable(tmp_path)
        window = TriggerSchedule(window=TimeWindow(start=at("08:58:00"), end=at("08:59:00")))
        earlier = make_message(None if event == "delivered" else window, seed=1)
        submit(first, earlier)
        push(first, sample("09:00:30"))
        assert first.message_states()[earlier.message_id] is MessageState(event.capitalize())
        # crash: the 09:00:30 sample is known to the store only by the event it caused
        reborn = DeliveryService(FileStore(tmp_path))
        reborn.register_principal("r1")
        later = make_message(seed=2, created="08:56:00")
        submit(reborn, later)
        assert error_code(push(reborn, sample("09:00:05"))) == "OutOfOrderSample"
        assert reborn.message_states()[later.message_id] is MessageState.PENDING
        assert ids_of(push(reborn, sample("09:00:31")), protocol.PLAYBACK) == [later.message_id]

    def test_end_of_run_settles_everything(self, service):
        direct = make_message(seed=1, created="08:50:00")
        fenced = make_message(
            TriggerSchedule(geofence=Geofence(lat=lat_off(5000), lon=lon_off(0), radius=10.0)),
            seed=2, created="08:51:00",
        )
        submit(service, direct)
        submit(service, fenced)
        push(service, sample("09:00:00"))  # direct delivers, capture open
        service.end_of_run(at("09:30:00"))
        assert service.message_states() == {
            direct.message_id: MessageState.REACTION_DECLINED,
            fenced.message_id: MessageState.EXPIRED,
        }


def answered(tmp_path, how):
    """A durable service and a message settled by an answer, by end_of_run or after a restart."""
    service = durable(tmp_path)
    first = make_message(seed=1, created="08:50:00")
    queued = make_message(seed=2, created="08:51:00")
    submit(service, first)
    submit(service, queued)
    push(service, sample("09:00:00"))  # first's capture runs, queued's waits
    if how in ("no", "yes"):
        consent(service, first.message_id, how, at("09:00:10"))
        return service, first.message_id
    if how == "queue":
        service.end_of_run(at("09:30:00"))
        return service, queued.message_id
    service.close()
    service = DeliveryService(FileStore(tmp_path))
    service.register_principal("r1")
    consent(service, first.message_id, "yes", at("09:00:10"))  # lost with the old process
    return service, first.message_id


@pytest.mark.parametrize("how", ["no", "yes", "queue", "restart"])
def test_answered_message_refuses_capture_requests(tmp_path, how):
    """Reacted or ReactionDeclined, however reached: no session, one terminal state."""
    service, message_id = answered(tmp_path, how)
    state = service.message_states()[message_id]
    assert state is (MessageState.REACTED if how == "yes" else MessageState.REACTION_DECLINED)
    assert capture(service, message_id) is None
    assert error_code(utter(service, message_id, at("09:00:05"), "late")) == "SessionClosed"
    assert error_code(consent(service, message_id, "yes", at("09:00:20"))) == "NotAwaitingConsent"
    assert service.message_states()[message_id] is state


class TestFrameDispatch:
    def test_error_frames_carry_verbatim_codes(self, service):
        message = make_message()
        doc = message_to_dict(message)
        bad_documents = [
            ({"v": 1}, "s1", "ParseError"),
            ({**doc, "scale": 1000.0}, "s1", "ScaleOutOfRange"),
            ({**doc, "sender_id": "r1"}, "r1", "ParseError"),  # sender is the recipient
            (doc, "r1", "PrincipalMismatch"),  # r1 submits as s1
        ]
        for bad, sender, code in bad_documents:
            (response,) = service.handle_frame(
                protocol.make_frame(protocol.SUBMIT, {"message": bad}, sender=sender)
            )
            assert response["kind"] == protocol.ERROR
            assert response["payload"]["code"] == code

        good = protocol.make_frame(protocol.SUBMIT, {"message": doc}, sender="s1")
        (ack,) = service.handle_frame(good)
        assert ack["kind"] == protocol.ACK
        (dup,) = service.handle_frame(good)
        assert dup["kind"] == protocol.ERROR
        assert dup["payload"]["code"] == "DuplicateMessageId"

    @pytest.mark.parametrize("scale", [True, "2", None, [1.0], pytest.param(10**400, id="10**400")])
    def test_a_scale_that_is_not_a_number_is_a_parse_error(self, service, scale):
        """Not coerced (``true`` is not 1.0) nor out of range: a ParseError, and the message is not queued."""
        doc = message_to_dict(make_message())
        (response,) = request(service, protocol.SUBMIT, {"message": {**doc, "scale": scale}}, "s1")
        assert response["kind"] == protocol.ERROR
        assert response["payload"]["code"] == "ParseError"
        assert service.message_states() == {}
        assert error_code(request(service, protocol.SUBMIT, {"message": doc}, "s1")) is None

    @pytest.mark.parametrize("t", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_timestamps_past_the_datetime_range_are_parse_errors(self, service, t):
        """Each parses, but shifting it to UTC overflows; every request still gets one ERROR."""
        delivered = make_message(seed=1)
        submit(service, delivered)
        push(service, sample("09:00:00"))
        before = service.message_states(), view_of(service, "s1"), len(capture(service, delivered.message_id).frames)
        fresh = {**message_to_dict(make_message(seed=2)), "created_at": t}
        requests = [
            (protocol.CONTEXT, {"sample": {**sample_to_dict(sample("09:00:05")), "t": t}}, "r1"),
            (protocol.SUBMIT, {"message": fresh}, "s1"),
            (protocol.CONSENT, {"message_id": delivered.message_id, "answer": "yes", "t": t}, "r1"),
        ]
        for kind, payload, sender in requests:
            assert error_code(request(service, kind, payload, sender)) == "ParseError"
        after = service.message_states(), view_of(service, "s1"), len(capture(service, delivered.message_id).frames)
        assert after == before
        assert error_code(push(service, sample("09:00:01"))) is None  # the order guard did not move
