from __future__ import annotations

import pytest

from wandrelay.errors import (
    DuplicateSession,
    NotAwaitingConsent,
    PastDeadline,
    SessionClosed,
)
from wandrelay.model import VoiceNote
from wandrelay.reaction import (
    CaptureManager,
    CaptureState,
    SceneFrame,
    Utterance,
    finalize,
    reaction_from_dict,
    reaction_to_dict,
)

from conftest import at

NOTE = VoiceNote(duration=4.0, transcript="look at this")


def fresh_session(manager=None):
    manager = manager or CaptureManager()
    return manager.begin_capture("msg-1", started_at=at("09:00:00"), voice_note=NOTE)


class TestBeginCapture:
    def test_fresh_session_records_with_10s_deadline(self):
        session = fresh_session()
        assert session.state == CaptureState.RECORDING
        assert session.deadline == at("09:00:10")

    def test_duplicate_session_rejected(self):
        manager = CaptureManager()
        manager.begin_capture("msg-1", started_at=at("09:00:00"), voice_note=NOTE)
        with pytest.raises(DuplicateSession):
            manager.begin_capture("msg-1", started_at=at("09:00:05"), voice_note=NOTE)


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
        session.append_frame(SceneFrame(t=at("09:00:10")))
        assert len(session.frames) == 1

    def test_closed_session_rejects_items(self):
        session = fresh_session()
        session.mark_awaiting(at("09:00:10"))
        finalize(session, consent_yes=False)
        with pytest.raises(SessionClosed):
            session.append_utterance(Utterance(t=at("09:00:05"), transcript="too late"))

    def test_items_must_be_time_ordered(self):
        session = fresh_session()
        session.append_utterance(Utterance(t=at("09:00:05"), transcript="a"))
        with pytest.raises(ValueError):
            session.append_utterance(Utterance(t=at("09:00:02"), transcript="b"))


class TestConsent:
    def recorded_session(self):
        session = fresh_session()
        session.append_frame(SceneFrame(t=at("09:00:00"), lat=1.0, lon=2.0))
        session.append_frame(SceneFrame(t=at("09:00:05"), lat=1.0, lon=2.0))
        session.append_utterance(Utterance(t=at("09:00:02"), transcript="wow so cute"))
        session.mark_awaiting(at("09:00:10"))
        return session

    def test_finalize_while_recording_rejected(self):
        session = fresh_session()
        with pytest.raises(NotAwaitingConsent):
            finalize(session, consent_yes=True)

    def test_yes_composes_three_tracks(self):
        session = self.recorded_session()
        record = finalize(session, consent_yes=True)
        assert session.state == CaptureState.FORWARDED
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
        assert session.state == CaptureState.DISCARDED
        assert session.frames == [] and session.utterances == []

    def test_single_terminal_state(self):
        session = self.recorded_session()
        finalize(session, consent_yes=True)
        with pytest.raises(NotAwaitingConsent):
            finalize(session, consent_yes=False)

    def test_forwarded_scene_track_has_no_positions(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        doc = reaction_to_dict(record)
        for frame in doc["tracks"]["scene"]:
            assert set(frame) == {"t"}

    def test_round_trip(self):
        record = finalize(self.recorded_session(), consent_yes=True)
        assert reaction_from_dict(reaction_to_dict(record)) == record
