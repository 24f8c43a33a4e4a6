from __future__ import annotations

import random
from datetime import timedelta

import pytest

from wandrelay.engine import (
    ContextSample,
    check_order,
    evaluate_sample,
    evaluate_schedule,
    expire_messages,
    geofence_contains,
    haversine_distance,
    window_contains,
)
from wandrelay.errors import OutOfOrderSample
from wandrelay.ids import IdFactory
from wandrelay.model import (
    ArMessage,
    Geofence,
    MarkerCondition,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
)

from conftest import at
from genrandom import lat_off, lon_off
from oracles import oracle_haversine

_ids = IdFactory(seed=99)


def build_message(schedule, created="08:55:00", recipient="r1") -> ArMessage:
    created_at = at(created)
    return ArMessage(
        message_id=_ids(created_at),
        sender_id="s1",
        recipient_id=recipient,
        content_id="dog",
        scale=1.0,
        voice_note=VoiceNote(3.0, "hello"),
        schedule=schedule,
        created_at=created_at,
    )


def sample(t="09:00:00", east=0.0, north=0.0, wearing=True, markers=(), recipient="r1"):
    return ContextSample(
        recipient_id=recipient,
        t=at(t),
        lat=lat_off(north),
        lon=lon_off(east),
        wearing=wearing,
        visible_markers=frozenset(markers),
    )


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_distance(47.6062, -122.3321, 47.6062, -122.3321) == 0.0

    def test_ten_meter_pair_matches_independent_oracle(self):
        # Derived with the asin-form oracle before this implementation existed:
        # (47.606200, -122.332100) -> (47.606290, -122.332100) is 10.0075 m.
        d = haversine_distance(47.606200, -122.332100, 47.606290, -122.332100)
        assert d == pytest.approx(10.007543398026467, abs=1e-6)
        assert d == pytest.approx(10.0, abs=0.05)

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(200):
            a = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert haversine_distance(*a, *b) == pytest.approx(haversine_distance(*b, *a), rel=1e-12)
            assert haversine_distance(*a, *b) >= 0.0

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(500):
            a = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = (a[0] + rng.uniform(-0.01, 0.01), a[1] + rng.uniform(-0.01, 0.01))
            assert haversine_distance(*a, *b) == pytest.approx(oracle_haversine(*a, *b), rel=1e-9, abs=1e-9)


class TestGeofence:
    def test_center_inside(self):
        fence = Geofence(lat=47.6062, lon=-122.3321, radius=7.0)
        assert geofence_contains(fence, 47.6062, -122.3321)

    def test_boundary_inclusive_at_10m(self):
        fence = Geofence(lat=47.606200, lon=-122.332100, radius=10.007543398026467)
        assert geofence_contains(fence, 47.606290, -122.332100)

    def test_20m_point_outside_max_radius(self):
        # 20.0 m north per the oracle; even the widest fence (14 m) misses it.
        fence = Geofence(lat=47.606200, lon=-122.332100, radius=14.0)
        point_lat = 47.606200 + 0.00017986432118374611
        assert oracle_haversine(fence.lat, fence.lon, point_lat, fence.lon) == pytest.approx(20.0, abs=1e-6)
        assert not geofence_contains(fence, point_lat, fence.lon)


class TestWindow:
    def test_boundaries_inclusive(self):
        window = TimeWindow(start=at("09:00:00"), end=at("09:10:00"))
        assert window_contains(window, at("09:00:00"))
        assert window_contains(window, at("09:10:00"))
        assert window_contains(window, at("09:05:00"))

    def test_outside(self):
        window = TimeWindow(start=at("09:00:00"), end=at("09:10:00"))
        assert not window_contains(window, at("09:10:01"))
        assert not window_contains(window, at("08:59:59"))


class TestEvaluateSample:
    def test_direct_message_delivers_on_first_worn_sample(self):
        message = build_message(None)
        fired, still = evaluate_sample(sample(), [message])
        assert fired == [message]
        assert still == []

    def test_nothing_delivers_while_not_wearing(self):
        messages = [build_message(None), build_message(TriggerSchedule(marker=MarkerCondition("mk")))]
        fired, still = evaluate_sample(sample(wearing=False, markers=("mk",)), messages)
        assert fired == []
        assert still == messages

    def test_specific_requires_all_conditions_at_one_sample(self):
        schedule = TriggerSchedule(
            geofence=Geofence(lat=lat_off(0), lon=lon_off(0), radius=10.0),
            window=TimeWindow(start=at("09:05:00"), end=at("09:06:00")),
            specificity=Specificity.SPECIFIC,
        )
        message = build_message(schedule)
        # inside the fence but before the window: nothing
        fired, still = evaluate_sample(sample("09:00:00"), [message])
        assert fired == []
        assert not evaluate_schedule(schedule, sample("09:00:00"))
        # inside both: it fires
        fired, still = evaluate_sample(sample("09:05:30"), still)
        assert fired == [message]
        assert still == []

    def test_flexible_delivers_on_any_condition(self):
        schedule = TriggerSchedule(
            window=TimeWindow(start=at("10:00:00"), end=at("11:00:00")),
            marker=MarkerCondition("mk-poster"),
            specificity=Specificity.FLEXIBLE,
        )
        message = build_message(schedule)
        fired, still = evaluate_sample(sample("09:00:00", markers=("mk-poster",)), [message])
        assert fired == [message]
        assert still == []
        assert not evaluate_schedule(schedule, sample("09:00:00"))

    def test_deliveries_ordered_by_created_at_then_id(self):
        first = build_message(None, created="08:50:00")
        second = build_message(None, created="08:51:00")
        fired, _ = evaluate_sample(sample(), [second, first])
        assert fired == [first, second]


class TestCheckOrder:
    def test_out_of_order_sample_rejected(self):
        with pytest.raises(OutOfOrderSample):
            check_order(at("09:00:00"), at("09:00:00"))
        with pytest.raises(OutOfOrderSample):
            check_order(at("08:59:59"), at("09:00:00"))

    def test_a_later_or_first_sample_passes(self):
        check_order(at("09:00:01"), at("09:00:00"))
        check_order(at("09:00:00"), None)


class TestExpiry:
    def test_specific_window_passed_expires(self):
        schedule = TriggerSchedule(
            geofence=Geofence(lat=0.0, lon=0.0, radius=10.0),
            window=TimeWindow(start=at("08:00:00"), end=at("09:00:00")),
            specificity=Specificity.SPECIFIC,
        )
        message = build_message(schedule)
        expired, still = expire_messages(at("09:01:00"), [message])
        assert expired == [message] and still == []

    def test_boundary_not_expired_at_window_end(self):
        schedule = TriggerSchedule(window=TimeWindow(start=at("08:00:00"), end=at("09:00:00")))
        expired, still = expire_messages(at("09:00:00"), [build_message(schedule)])
        assert expired == []
        assert len(still) == 1

    def test_flexible_with_live_branch_stays_pending(self):
        schedule = TriggerSchedule(
            geofence=Geofence(lat=0.0, lon=0.0, radius=10.0),
            window=TimeWindow(start=at("08:00:00"), end=at("09:00:00")),
            specificity=Specificity.FLEXIBLE,
        )
        expired, still = expire_messages(at("10:00:00"), [build_message(schedule)])
        assert expired == []
        assert len(still) == 1

    def test_window_only_schedule_expires_after_end(self):
        schedule = TriggerSchedule(window=TimeWindow(start=at("08:00:00"), end=at("09:00:00")))
        expired, still = expire_messages(at("09:00:01"), [build_message(schedule)])
        assert len(expired) == 1 and still == []

    def test_geofence_and_marker_never_self_expire(self):
        fences = [
            build_message(TriggerSchedule(geofence=Geofence(lat=0.0, lon=0.0, radius=10.0))),
            build_message(TriggerSchedule(marker=MarkerCondition("mk"))),
            build_message(None),
        ]
        expired, still = expire_messages(at("23:59:59"), fences)
        assert expired == [] and len(still) == 3

    def test_expiry_then_evaluation_boundary_consistency(self):
        # A sample exactly at the window end must still deliver (closed window),
        # and the same message must expire one tick later.
        schedule = TriggerSchedule(window=TimeWindow(start=at("09:00:00"), end=at("09:04:00")))
        message = build_message(schedule)
        expired, pending = expire_messages(at("09:04:00"), [message])
        assert expired == []
        fired, pending = evaluate_sample(sample("09:04:00"), pending)
        assert fired == [message]

        message2 = build_message(schedule)
        expired, pending = expire_messages(at("09:04:01"), [message2])
        assert [m.message_id for m in expired] == [message2.message_id]


class TestLifecycleStates:
    def test_evaluate_rejects_wrong_recipient(self):
        message = build_message(None, recipient="r2")
        with pytest.raises(ValueError):
            evaluate_sample(sample(recipient="r1"), [message])
