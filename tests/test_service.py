from __future__ import annotations

import json

import pytest

from wandrelay import protocol
from wandrelay.engine import ContextSample
from wandrelay.errors import (
    AlreadyReacted,
    DuplicateMessageId,
    NoSession,
    NotDelivered,
    OutOfOrderSample,
    UnknownRecipient,
)
from wandrelay.ids import IdFactory
from wandrelay.model import (
    Geofence,
    MarkerCondition,
    MessageState,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    compose,
)
from wandrelay.reaction import ReactionRecord, Utterance
from wandrelay.service import DeliveryService, SenderVisibleRecord
from wandrelay.storage import FileStore

from conftest import at
from genrandom import lat_off, lon_off


@pytest.fixture()
def service():
    svc = DeliveryService(declared_markers={"mk-desk", "mk-door"})
    svc.register_principal("s1")
    svc.open_session("r1")
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
        ack = service.submit(message)
        assert ack["message_id"] == message.message_id
        assert service.message_states() == {message.message_id: MessageState.PENDING}

    def test_duplicate_id_rejected(self, service):
        message = make_message()
        service.submit(message)
        with pytest.raises(DuplicateMessageId):
            service.submit(message)

    def test_unknown_recipient(self, service):
        message = compose("s1", "nobody", "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:55:00"))
        with pytest.raises(UnknownRecipient):
            service.submit(message)


class TestPushContext:
    def test_requires_open_session(self, service):
        service.close_session("r1")
        with pytest.raises(NoSession):
            service.push_context(sample())

    def test_superseded_connection_cannot_close_live_session(self, service):
        first = service.open_session("r1")
        second = service.open_session("r1")
        service.close_session("r1", first)  # stale token: no-op
        service.push_context(sample())
        service.close_session("r1", second)
        with pytest.raises(NoSession):
            service.push_context(sample("09:00:01"))

    def test_out_of_order_rejected(self, service):
        service.push_context(sample("09:00:00"))
        with pytest.raises(OutOfOrderSample):
            service.push_context(sample("09:00:00"))

    def test_not_wearing_changes_nothing(self, service):
        for seed in (1, 2, 3):
            service.submit(make_message(seed=seed))
        events, started = service.push_context(sample(wearing=False))
        assert events == [] and started == []
        assert list(service.message_states().values()) == [MessageState.PENDING] * 3

    def test_direct_delivery_emits_flash_then_render(self, service):
        message = make_message()
        service.submit(message)
        events, started = service.push_context(sample())
        assert len(events) == 1
        payload = events[0].to_payload()
        assert [e["kind"] for e in payload["events"]] == ["flash", "render"]
        assert payload["events"][0]["duration"] == 0.5
        assert service.message_states()[message.message_id] is MessageState.DELIVERED
        assert len(started) == 1 and started[0].message_id == message.message_id

    def test_two_messages_fire_in_created_at_order(self, service):
        older = make_message(seed=1, created="08:50:00")
        newer = make_message(seed=2, created="08:52:00")
        service.submit(newer)
        service.submit(older)
        events, _ = service.push_context(sample())
        assert [e.message_id for e in events] == [older.message_id, newer.message_id]

    def test_expired_messages_marked(self, service):
        schedule = TriggerSchedule(window=TimeWindow(start=at("08:00:00"), end=at("08:30:00")))
        message = make_message(schedule)
        service.submit(message)
        events, _ = service.push_context(sample())
        assert events == []
        assert service.message_states()[message.message_id] is MessageState.EXPIRED


class TestReactionFlow:
    def deliver_one(self, service):
        message = make_message()
        service.submit(message)
        _, started = service.push_context(sample("09:00:00"))
        return message, started[0]

    def test_capture_collects_scene_and_voice(self, service):
        message, session = self.deliver_one(service)
        service.push_context(sample("09:00:03"))
        service.append_reaction_item(message.message_id, Utterance(at("09:00:04"), "wow"))
        assert len(session.frames) == 2  # delivery sample + one later sample
        record, started = service.consent(message.message_id, True, at("09:00:10"))
        assert record is not None
        assert service.message_states()[message.message_id] is MessageState.REACTED
        (view,) = service.sender_view("s1")
        assert view.reaction == record

    def test_consent_no_declines_and_erases(self, service):
        message, session = self.deliver_one(service)
        service.append_reaction_item(message.message_id, Utterance(at("09:00:02"), "nope"))
        record, _ = service.consent(message.message_id, False, at("09:00:10"))
        assert record is None
        assert session.frames == [] and session.utterances == []
        assert service.message_states()[message.message_id] is MessageState.REACTION_DECLINED

    def test_second_delivery_queues_until_consent(self, service):
        first = make_message(seed=1, created="08:50:00")
        second = make_message(
            TriggerSchedule(marker=MarkerCondition("mk-desk")), seed=2, created="08:51:00"
        )
        service.submit(first)
        service.submit(second)
        events, started = service.push_context(sample("09:00:00", markers=("mk-desk",)))
        assert len(events) == 2
        assert [s.message_id for s in started] == [first.message_id]
        # queued capture starts when the first one finalizes
        _, started_next = service.consent(first.message_id, True, at("09:00:10"))
        assert [s.message_id for s in started_next] == [second.message_id]
        assert started_next[0].started_at == at("09:00:10")

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
        service.submit(first)
        service.submit(second)
        service.push_context(sample("09:00:00"))
        _, (queued,) = service.consent(first.message_id, True, at("10:00:00"))
        service.push_context(sample("09:00:30"))
        assert queued.frames == []

    def test_notify_reaction_guards(self, service):
        message = make_message()
        service.submit(message)
        record = ReactionRecord(
            message_id=message.message_id,
            started_at=at("09:00:00"),
            scene=(),
            recipient_audio=(),
            sender_voice_note=message.voice_note,
        )
        with pytest.raises(NotDelivered):
            service.notify_reaction(record)
        service.push_context(sample("09:00:00"))
        service.consent(message.message_id, True, at("09:00:10"))
        with pytest.raises(AlreadyReacted):
            service.notify_reaction(record)


class TestSenderView:
    def test_states_and_reaction_visibility(self, service):
        reacted = make_message(seed=1, created="08:50:00")
        declined = make_message(seed=2, created="08:51:00")
        pending = make_message(
            TriggerSchedule(marker=MarkerCondition("mk-door")), seed=3, created="08:52:00"
        )
        for m in (reacted, declined, pending):
            service.submit(m)
        service.push_context(sample("09:00:00"))
        service.consent(reacted.message_id, True, at("09:00:10"))
        # the second message's capture was queued behind the first and
        # started at 09:00:10; answer it with "no"
        service.consent(declined.message_id, False, at("09:00:20"))

        records = {r.message_id: r for r in service.sender_view("s1")}
        assert records[reacted.message_id].state is MessageState.REACTED
        assert records[reacted.message_id].reaction is not None
        assert records[declined.message_id].state is MessageState.REACTION_DECLINED
        assert records[declined.message_id].reaction is None
        assert records[pending.message_id].state is MessageState.PENDING

    def test_serialized_record_has_no_location_shaped_fields(self, service):
        message = make_message()
        service.submit(message)
        service.push_context(sample("09:00:00"))
        service.consent(message.message_id, True, at("09:00:10"))
        (record,) = service.sender_view("s1")
        doc = record.to_dict()
        text = json.dumps(doc)
        assert set(doc) <= {"message_id", "state", "delivered_at", "reaction"}
        for needle in ("lat", "lon", "position", "marker", "geofence_hit", "window_hit"):
            assert needle not in text
        for frame in doc["reaction"]["tracks"]["scene"]:
            assert set(frame) == {"t"}


class TestDurability:
    def test_pending_survives_unclean_restart(self, tmp_path):
        first = DeliveryService(FileStore(tmp_path))
        first.register_principal("s1")
        first.open_session("r1")
        message = make_message()
        first.submit(message)
        # no close(): simulate a crash right after the submit ack
        reborn = DeliveryService(FileStore(tmp_path))
        assert reborn.message_states() == {message.message_id: MessageState.PENDING}
        # both principals are still registered: each can be submitted to
        reborn.submit(make_message(seed=2))
        reborn.submit(compose("r1", "s1", "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:56:00")))

    def test_snapshot_then_restart_preserves_states(self, tmp_path):
        first = DeliveryService(FileStore(tmp_path))
        first.register_principal("s1")
        first.open_session("r1")
        delivered = make_message(seed=1, created="08:50:00")
        parked = make_message(seed=2, created="08:51:00")
        first.submit(delivered)
        first.submit(parked)
        first.push_context(sample("09:00:00"))  # delivers both; captures queue
        first.consent(delivered.message_id, True, at("09:00:10"))
        first.close()
        assert not (tmp_path / "queues" / "r1.log").exists()  # folded into snapshot

        reborn = DeliveryService(FileStore(tmp_path))
        assert reborn.message_states() == {
            delivered.message_id: MessageState.REACTED,
            parked.message_id: MessageState.DELIVERED,
        }
        view = {r.message_id: r for r in reborn.sender_view("s1")}
        assert view[delivered.message_id].reaction is not None

    def test_end_of_run_settles_everything(self, service):
        direct = make_message(seed=1, created="08:50:00")
        fenced = make_message(
            TriggerSchedule(geofence=Geofence(lat=lat_off(5000), lon=lon_off(0), radius=10.0)),
            seed=2, created="08:51:00",
        )
        service.submit(direct)
        service.submit(fenced)
        service.push_context(sample("09:00:00"))  # direct delivers, capture open
        service.end_of_run(at("09:30:00"))
        assert service.message_states() == {
            direct.message_id: MessageState.REACTION_DECLINED,
            fenced.message_id: MessageState.EXPIRED,
        }


class TestFrameDispatch:
    def test_error_frames_carry_verbatim_codes(self, service):
        message = make_message()
        frame = protocol.make_frame(
            protocol.SUBMIT,
            {"message": {"v": 1}},
            sender="s1",
        )
        (response,) = service.handle_frame(frame)
        assert response["kind"] == protocol.ERROR
        assert response["payload"]["code"] == "ParseError"

        from wandrelay.model import message_to_dict
        good = protocol.make_frame(
            protocol.SUBMIT, {"message": message_to_dict(message)}, sender="s1"
        )
        (ack,) = service.handle_frame(good)
        assert ack["kind"] == protocol.ACK
        (dup,) = service.handle_frame(good)
        assert dup["kind"] == protocol.ERROR
        assert dup["payload"]["code"] == "DuplicateMessageId"
