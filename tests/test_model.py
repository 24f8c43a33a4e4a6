from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay import model
from wandrelay.errors import (
    EmptySchedule,
    IllegalTransition,
    InvalidWindow,
    ParseError,
    RadiusOutOfRange,
    ScaleOutOfRange,
    UnknownContent,
    UnknownMarker,
    VoiceNoteTooLong,
)
from wandrelay.ids import IdFactory
from wandrelay.model import (
    ArMessage,
    ContentKind,
    Geofence,
    MarkerCondition,
    MessageRecord,
    MessageState,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    catalog,
    compose,
    message_from_dict,
    message_to_dict,
    validate_schedule,
)

from conftest import at


def note(seconds: float = 3.0) -> VoiceNote:
    return VoiceNote(duration=seconds, transcript="hi there")


class TestCatalog:
    def test_exactly_21_items(self):
        assert len(catalog()) == 21

    def test_kind_split_11_objects_10_avatars(self):
        kinds = [item.kind for item in catalog()]
        assert kinds.count(ContentKind.VIRTUAL_OBJECT) == 11
        assert kinds.count(ContentKind.AVATAR) == 10

    def test_stable_order_and_unique_ids(self):
        first = [item.content_id for item in catalog()]
        second = [item.content_id for item in catalog()]
        assert first == second
        assert len(set(first)) == 21

    def test_anchor_fixed_per_item(self):
        by_id = {item.content_id: item for item in catalog()}
        assert by_id["palm_tree"].anchor is model.Anchor.PINNED_TO_GROUND
        assert by_id["bee"].anchor is model.Anchor.FLOATING


class TestTypeInvariants:
    def test_voice_note_at_limit_ok(self):
        assert VoiceNote(duration=10.0, transcript="x").duration == 10.0

    def test_voice_note_over_limit(self):
        with pytest.raises(VoiceNoteTooLong):
            VoiceNote(duration=11.0, transcript="too long")

    def test_voice_note_nonpositive(self):
        with pytest.raises(ValueError):
            VoiceNote(duration=0.0, transcript="")

    @pytest.mark.parametrize("radius", [7.0, 10.5, 14.0])
    def test_radius_bounds_inclusive(self, radius):
        assert Geofence(lat=0.0, lon=0.0, radius=radius).radius == radius

    @pytest.mark.parametrize("radius", [6.99, 20.0, 0.0, -3.0])
    def test_radius_out_of_range(self, radius):
        with pytest.raises(RadiusOutOfRange):
            Geofence(lat=0.0, lon=0.0, radius=radius)

    def test_degenerate_window_rejected(self):
        with pytest.raises(InvalidWindow):
            TimeWindow(start=at("09:00:00"), end=at("09:00:00"))

    def test_schedule_needs_a_condition(self):
        with pytest.raises(EmptySchedule):
            TriggerSchedule()

    def test_single_condition_specificity_normalized(self):
        schedule = TriggerSchedule(
            marker=MarkerCondition("poster_1"), specificity=Specificity.FLEXIBLE
        )
        assert schedule.specificity is Specificity.SPECIFIC
        assert not schedule.is_compound


class TestCompose:
    def test_minimal_direct_message(self):
        message = compose("s1", "r1", "dog", 1.0, note(3.0), None, now=at("09:00:00"))
        assert message_to_dict(message)["state"] == "Pending"
        assert message.schedule is None
        assert message.message_id
        assert message.created_at == at("09:00:00")

    def test_geofence_radius_20_rejected(self):
        # the schedule cannot even be constructed with a 20 m radius
        with pytest.raises(RadiusOutOfRange):
            TriggerSchedule(geofence=Geofence(lat=0.0, lon=0.0, radius=20.0))

    def test_note_over_10s_rejected(self):
        with pytest.raises(VoiceNoteTooLong):
            compose("s1", "r1", "basketball", 1.0, VoiceNote(11.0, "eleven seconds"))

    def test_unknown_content(self):
        with pytest.raises(UnknownContent):
            compose("s1", "r1", "unicorn", 1.0, note())

    def test_same_principal_rejected(self):
        with pytest.raises(ParseError):
            compose("s1", "s1", "dog", 1.0, note())

    @pytest.mark.parametrize("scale", [0.05, 11.0, -1.0])
    def test_scale_bounds(self, scale):
        with pytest.raises(ScaleOutOfRange):
            compose("s1", "r1", "dog", scale, note())

    def test_marker_checked_against_declared_set(self):
        schedule = TriggerSchedule(marker=MarkerCondition("poster_9"))
        declared = {f"poster_{i}" for i in range(1, 9)}
        with pytest.raises(UnknownMarker):
            compose("s1", "r1", "dog", 1.0, note(), schedule, declared_markers=declared)

    def test_fresh_ids_are_unique_and_sorted_by_time(self):
        ids = IdFactory(seed=5)
        first = compose("s1", "r1", "dog", 1.0, note(), now=at("09:00:00"), id_factory=ids)
        second = compose("s1", "r1", "bee", 1.0, note(), now=at("09:00:01"), id_factory=ids)
        assert first.message_id != second.message_id
        assert first.message_id < second.message_id


class TestValidateSchedule:
    def test_geofence_only_radius_7_ok(self):
        validate_schedule(TriggerSchedule(geofence=Geofence(0.0, 0.0, 7.0)), declared_markers=set())

    def test_window_start_equals_end_rejected(self):
        with pytest.raises(InvalidWindow):
            TriggerSchedule(window=TimeWindow(start=at("09:00:00"), end=at("09:00:00")))

    def test_unknown_marker(self):
        schedule = TriggerSchedule(marker=MarkerCondition("poster_9"))
        with pytest.raises(UnknownMarker):
            validate_schedule(schedule, {f"poster_{i}" for i in range(1, 9)})

    def test_marker_check_skipped_without_registry(self):
        validate_schedule(TriggerSchedule(marker=MarkerCondition("poster_9")), None)


class TestLifecycle:
    def record(self) -> MessageRecord:
        return MessageRecord(compose("s1", "r1", "dog", 1.0, note(), now=at("09:00:00")))

    def test_legal_paths(self):
        for path in (
            (MessageState.DELIVERED, MessageState.REACTED),
            (MessageState.DELIVERED, MessageState.REACTION_DECLINED),
            (MessageState.EXPIRED,),
        ):
            record = self.record()
            assert record.state is MessageState.PENDING
            for state in path:
                left = record.state
                assert record.advance(state) is left  # advance returns the state it leaves
                assert record.state is state

    @pytest.mark.parametrize(
        "path",
        [
            (MessageState.REACTED,),
            (MessageState.EXPIRED, MessageState.DELIVERED),
            (MessageState.DELIVERED, MessageState.EXPIRED),
            (MessageState.DELIVERED, MessageState.REACTED, MessageState.REACTION_DECLINED),
        ],
    )
    def test_illegal_paths(self, path):
        record = self.record()
        with pytest.raises(IllegalTransition):
            for state in path:
                record.advance(state)
        # the refused move leaves the record where the last legal one put it
        assert record.state is (path[-2] if len(path) > 1 else MessageState.PENDING)

    def test_terminal_states_never_move(self):
        for terminal in (MessageState.REACTED, MessageState.REACTION_DECLINED, MessageState.EXPIRED):
            assert not model.ALLOWED_TRANSITIONS[terminal]


# -- round-trip property -------------------------------------------------------

_content_ids = st.sampled_from([item.content_id for item in catalog()])
_timestamps = st.integers(min_value=0, max_value=7200).map(
    lambda s: at("08:00:00").fromtimestamp(at("08:00:00").timestamp() + s, tz=at("08:00:00").tzinfo)
)
_geofences = st.builds(
    Geofence,
    lat=st.floats(min_value=-89.0, max_value=89.0, allow_nan=False),
    lon=st.floats(min_value=-179.0, max_value=179.0, allow_nan=False),
    radius=st.floats(min_value=7.0, max_value=14.0, allow_nan=False),
)
_windows = st.tuples(_timestamps, st.integers(min_value=1, max_value=3600)).map(
    lambda pair: TimeWindow(start=pair[0], end=pair[0].__class__.fromtimestamp(pair[0].timestamp() + pair[1], tz=pair[0].tzinfo))
)
_markers = st.builds(MarkerCondition, marker_id=st.sampled_from(["poster_1", "poster_2", "mk-x"]))


@st.composite
def schedules(draw):
    geofence = draw(st.none() | _geofences)
    window = draw(st.none() | _windows)
    marker = draw(st.none() | _markers)
    if geofence is None and window is None and marker is None:
        marker = draw(_markers)
    specificity = draw(st.sampled_from(list(Specificity)))
    return TriggerSchedule(geofence=geofence, window=window, marker=marker, specificity=specificity)


@st.composite
def messages(draw):
    ids = IdFactory(draw(st.integers(min_value=0, max_value=2**20)))
    created_at = draw(_timestamps)
    return ArMessage(
        message_id=ids(created_at),
        sender_id="s1",
        recipient_id="r1",
        content_id=draw(_content_ids),
        scale=draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False)),
        voice_note=VoiceNote(
            duration=draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False)),
            transcript=draw(st.text(max_size=40)),
        ),
        schedule=draw(st.none() | schedules()),
        created_at=created_at,
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(messages())
    def test_dict_and_json_round_trip(self, message):
        doc = message_to_dict(message)
        assert message_from_dict(doc) == message
        assert message_from_dict(json.loads(json.dumps(doc))) == message

    @settings(max_examples=100, deadline=None)
    @given(messages())
    def test_compound_serialization_carries_specificity(self, message):
        doc = message_to_dict(message)
        if message.schedule is not None and message.schedule.is_compound:
            assert doc["schedule"]["specificity"] in ("Specific", "Flexible")
        elif message.schedule is not None:
            assert "specificity" not in doc["schedule"]

    @settings(max_examples=150, deadline=None)
    @given(
        content=_content_ids,
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        duration=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        schedule=st.none() | schedules(),
        when=_timestamps,
    )
    def test_compose_output_always_satisfies_type_invariants(
        self, content, scale, duration, schedule, when
    ):
        message = compose(
            "s1", "r1", content, scale, VoiceNote(duration, "x"), schedule, now=when
        )
        assert 0 < message.voice_note.duration <= 10.0
        assert 0.1 <= message.scale <= 10.0
        if message.schedule is not None:
            s = message.schedule
            assert s.condition_count >= 1
            if s.geofence is not None:
                assert 7.0 <= s.geofence.radius <= 14.0
            if s.window is not None:
                assert s.window.start < s.window.end
            if s.condition_count == 1:
                assert s.specificity is Specificity.SPECIFIC
        # round-trips through the canonical encoding unchanged
        assert message_from_dict(message_to_dict(message)) == message

    def test_bad_documents_raise_parse_error(self):
        good = message_to_dict(compose("s1", "r1", "dog", 1.0, note(), now=at("09:00:00")))
        for breakage in (
            lambda d: d.update(v=2),
            lambda d: d.pop("message_id"),
            lambda d: d.update(state="Vanished"),
            lambda d: d.update(state="Delivered"),  # only what was submitted is a message document
            lambda d: d.pop("state"),
            lambda d: d.update(message_id=5),  # not coerced to the id "5"
            lambda d: d.update(sender_id=7),
            lambda d: d.update(content_id=None),
            lambda d: d.update(created_at="not-a-time"),
            lambda d: d.update(schedule=""),
        ):
            doc = json.loads(json.dumps(good))
            breakage(doc)
            with pytest.raises(ParseError):
                message_from_dict(doc)
