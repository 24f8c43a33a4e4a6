from __future__ import annotations

import pytest

from wandrelay.errors import NotAwaitingConsent, ParseError, PastDeadline
from wandrelay.model import VoiceNote
from wandrelay.reaction import (
    CaptureManager,
    Utterance,
    finalize,
    reaction_from_dict,
    reaction_to_dict,
)

from conftest import at

NOTE = VoiceNote(duration=4.0, transcript="look at this")


def fresh_session(manager=None):
    manager = manager or CaptureManager()
    assert manager.join("r1", "msg-1")
    return manager.begin_capture("r1", started_at=at("09:00:00"), voice_note=NOTE)


class TestBeginCapture:
    def test_fresh_session_records_with_10s_deadline(self):
        session = fresh_session()
        assert session.message_id == "msg-1"
        assert not session.awaiting
        assert session.deadline == at("09:00:10")


class TestCaptureLine:
    def test_only_the_head_has_a_session(self):
        manager = CaptureManager()
        head = fresh_session(manager)
        assert not manager.join("r1", "msg-2")
        assert manager.join("r2", "msg-3")  # another recipient's line
        assert manager.head("r1") is head and manager.get("msg-1") is head
        assert manager.get("msg-2") is None and manager.queued("r1", "msg-2")
        assert not manager.queued("r1", "msg-1")

    def test_finish_drops_the_head_and_names_the_next(self):
        manager = CaptureManager()
        fresh_session(manager)
        manager.join("r1", "msg-2")
        assert manager.finish("r1") == "msg-2"
        assert manager.get("msg-1") is None and manager.head("r1") is None
        nxt = manager.begin_capture("r1", started_at=at("09:00:10"), voice_note=NOTE)
        assert nxt.message_id == "msg-2" and manager.head("r1") is nxt
        assert manager.finish("r1") is None
        assert manager.drain() == []

    def test_drain_empties_every_line_in_delivery_order(self):
        manager = CaptureManager()
        head = fresh_session(manager)
        manager.join("r1", "msg-2")
        manager.join("r1", "msg-3")
        assert manager.drain() == [("r1", head, ["msg-1", "msg-2", "msg-3"])]
        assert manager.head("r1") is None and manager.drain() == []


class TestAppend:
    def test_utterance_within_window(self):
        session = fresh_session()
        session.append_utterance(Utterance(t=at("09:00:03"), transcript="wow"))
        assert [u.transcript for u in session.utterances] == ["wow"]

    def test_utterance_past_deadline(self):
        session = fresh_session()
        with pytest.raises(PastDeadline):
            session.append_utterance(Utterance(t=at("09:00:11"), transcript="late"))

    def test_frame_at_deadline_exactly_is_kept(self):
        session = fresh_session()
        session.see(at("09:00:10"))
        assert session.frames == [at("09:00:10")]
        assert session.awaiting

    def test_frames_outside_the_window_are_not_kept(self):
        session = fresh_session()
        session.see(at("08:59:59"))
        assert session.frames == [] and not session.awaiting
        session.see(at("09:00:11"))
        assert session.frames == [] and session.awaiting

    def test_items_must_be_time_ordered(self):
        session = fresh_session()
        session.append_utterance(Utterance(t=at("09:00:05"), transcript="a"))
        with pytest.raises(ValueError):
            session.append_utterance(Utterance(t=at("09:00:02"), transcript="b"))


class TestConsent:
    def recorded_session(self):
        session = fresh_session()
        session.see(at("09:00:00"))
        session.see(at("09:00:05"))
        session.append_utterance(Utterance(t=at("09:00:02"), transcript="wow so cute"))
        session.mark_awaiting(at("09:00:10"))
        return session

    def test_finalize_while_recording_rejected(self):
        session = fresh_session()
        with pytest.raises(NotAwaitingConsent):
            finalize(session, consent_yes=True)

    def test_yes_composes_three_tracks(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        assert record.scene == (at("09:00:00"), at("09:00:05"))
        assert [u.transcript for u in record.recipient_audio] == ["wow so cute"]
        assert record.sender_voice_note == NOTE
        assert record.consent == "Yes"

    def test_track_alignment_within_10s(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        stamps = list(record.scene) + [u.t for u in record.recipient_audio]
        assert all(0 <= (t - record.started_at).total_seconds() <= 10.0 for t in stamps)

    def test_no_discards_everything(self):
        session = self.recorded_session()
        result = finalize(session, consent_yes=False)
        assert result is None
        assert session.frames == [] and session.utterances == []

    def test_forwarded_scene_track_has_no_positions(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        doc = reaction_to_dict(record)
        for frame in doc["tracks"]["scene"]:
            assert set(frame) == {"t"}

    def test_round_trip(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        assert reaction_from_dict(reaction_to_dict(record)) == record

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda d: d.update(message_id=5),
            lambda d: d["tracks"]["recipient_audio"][0].update(transcript=5),
            lambda d: d.update(consent=True),  # not coerced to "True"
        ],
        ids=["message_id", "transcript", "consent"],
    )
    def test_fields_of_the_wrong_json_type_are_refused(self, breakage):
        doc = reaction_to_dict(finalize(self.recorded_session(), consent_yes=True))
        breakage(doc)
        with pytest.raises(ParseError):
            reaction_from_dict(doc)
