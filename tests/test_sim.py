from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandrelay import analytics, protocol, sim
from wandrelay.engine import haversine_distance, sample_to_dict
from wandrelay.errors import ParseError, WandRelayError
from wandrelay.model import MessageState, TimeWindow
from wandrelay.storage import FileStore

from conftest import FIXTURE_PATHS, at
from genrandom import destination, lat_off, lon_off, random_scenario_dict
from oracles import bisect_position, oracle_interpolate, recount_pairs, worn
from test_engine_properties import LATITUDES, LONGITUDES
from test_golden import multi_recipient_docs


def minimal_scenario(**overrides) -> dict:
    doc = {
        "v": 1,
        "name": "mini",
        "seed": 3,
        "tick": 1.0,
        "end": "2021-06-05T09:02:00Z",
        "markers": [
            {"marker_id": "mk-desk", "position": {"lat": lat_off(0), "lon": lon_off(0)}}
        ],
        "recipients": [
            {
                "principal": "r1",
                "wear_sessions": [
                    {"start": "2021-06-05T09:00:00Z", "end": "2021-06-05T09:02:00Z"}
                ],
                "trajectory": [
                    {"t": "2021-06-05T09:00:00Z", "lat": lat_off(0), "lon": lon_off(0)},
                    {"t": "2021-06-05T09:02:00Z", "lat": lat_off(0), "lon": lon_off(0)},
                ],
            }
        ],
        "sender_script": [
            {
                "at": "2021-06-05T08:59:00Z",
                "label": "hello",
                "sender_id": "s1",
                "recipient_id": "r1",
                "content_id": "dog",
                "scale": 1.0,
                "voice_note": {"duration": 3.0, "transcript": "hi"},
                "schedule": None,
            }
        ],
        "consent_policy": {"default": "yes"},
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_minimal_scenario_parses(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(minimal_scenario()))
        scenario = sim.load_scenario(path)
        assert scenario.name == "mini"
        assert len(scenario.recipients) == 1
        assert scenario.sender_ids == ("s1",)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            sim.load_scenario("does/not/exist.json")

    def test_waypoints_out_of_order(self):
        doc = minimal_scenario()
        doc["recipients"][0]["trajectory"] = [
            {"t": "2021-06-05T09:01:00Z", "lat": lat_off(0), "lon": lon_off(0)},
            {"t": "2021-06-05T09:00:00Z", "lat": lat_off(0), "lon": lon_off(0)},
            {"t": "2021-06-05T09:02:00Z", "lat": lat_off(0), "lon": lon_off(0)},
        ]
        with pytest.raises(ParseError, match="strictly increasing"):
            sim.scenario_from_dict(doc)

    def test_undeclared_marker_in_schedule(self):
        doc = minimal_scenario()
        doc["sender_script"][0]["schedule"] = {"marker": {"marker_id": "mk-ghost"}}
        with pytest.raises(ParseError, match="UnknownMarker"):
            sim.scenario_from_dict(doc)

    def test_trajectory_must_reach_end(self):
        doc = minimal_scenario()
        doc["recipients"][0]["trajectory"][-1]["t"] = "2021-06-05T09:01:00Z"
        with pytest.raises(ParseError, match="extend to the scenario end"):
            sim.scenario_from_dict(doc)

    def test_submission_after_end_rejected(self):
        doc = minimal_scenario()
        doc["sender_script"][0]["at"] = "2021-06-05T09:30:00Z"
        with pytest.raises(ParseError, match="before the scenario end"):
            sim.scenario_from_dict(doc)

    def test_duplicate_labels_rejected(self):
        doc = minimal_scenario()
        doc["sender_script"].append(copy.deepcopy(doc["sender_script"][0]))
        with pytest.raises(ParseError, match="duplicate label"):
            sim.scenario_from_dict(doc)

    def test_consent_override_for_unknown_label(self):
        doc = minimal_scenario()
        doc["consent_policy"] = {"default": "yes", "by_label": {"ghost": "no"}}
        with pytest.raises(ParseError, match="unknown label"):
            sim.scenario_from_dict(doc)

    def test_principal_ids_the_service_refuses_are_rejected(self):
        for bad in ("", "r" * 300):  # HELLO refuses both
            doc = minimal_scenario()
            doc["recipients"][0]["principal"] = bad
            with pytest.raises(ParseError, match=r"recipients\[0\]: principal id must be"):
                sim.scenario_from_dict(doc)
            doc = minimal_scenario()
            doc["sender_script"][0]["sender_id"] = bad
            with pytest.raises(ParseError, match=r"sender_script\[0\]: principal id must be"):
                sim.scenario_from_dict(doc)

    def test_overlapping_wear_sessions_rejected(self):
        doc = minimal_scenario()
        doc["recipients"][0]["wear_sessions"] = [
            {"start": "2021-06-05T09:00:00Z", "end": "2021-06-05T09:01:30Z"},
            {"start": "2021-06-05T09:01:00Z", "end": "2021-06-05T09:02:00Z"},
        ]
        with pytest.raises(ParseError, match="disjoint"):
            sim.scenario_from_dict(doc)


class TestSampleStream:
    def build(self, trajectory, wear, tick=1.0, end="2021-06-05T09:02:00Z"):
        doc = minimal_scenario(tick=tick, end=end, sender_script=[])
        doc["recipients"][0]["trajectory"] = trajectory
        doc["recipients"][0]["wear_sessions"] = wear
        return sim.scenario_from_dict(doc)

    def test_waypoint_hit_exactly(self):
        scenario = sim.scenario_from_dict(minimal_scenario())
        samples = list(sim.sample_stream(scenario, scenario.recipients[0]))
        assert samples[0].t == at("09:00:00")
        assert samples[0].lat == pytest.approx(lat_off(0))
        assert len(samples) == 121  # 09:00:00..09:02:00 inclusive at 1 Hz

    def test_the_smallest_tick_still_moves_every_sample(self):
        """At the 1 us a scenario's tick may go down to, each sample keeps a time of its own."""
        scenario = sim.scenario_from_dict(minimal_scenario(tick=1e-6))
        samples = itertools.islice(sim.sample_stream(scenario, scenario.recipients[0]), 1000)
        assert [s.t for s in samples] == [at("09:00:00") + timedelta(microseconds=k) for k in range(1000)]

    def test_midpoint_of_20m_segment_is_10m_along(self):
        # two waypoints 20 m apart (north-south), sampled at the midpoint
        trajectory = [
            {"t": "2021-06-05T09:00:00Z", "lat": lat_off(0), "lon": lon_off(0)},
            {"t": "2021-06-05T09:01:00Z", "lat": lat_off(20), "lon": lon_off(0)},
            {"t": "2021-06-05T09:02:00Z", "lat": lat_off(20), "lon": lon_off(0)},
        ]
        scenario = self.build(trajectory, [])
        samples = {s.t: s for s in sim.sample_stream(scenario, scenario.recipients[0])}
        mid = samples[at("09:00:30")]
        want_lat, want_lon = oracle_interpolate(
            [(0.0, lat_off(0), lon_off(0)), (60.0, lat_off(20), lon_off(0))], 30.0
        )
        assert mid.lat == pytest.approx(want_lat, abs=1e-12)
        assert mid.lon == pytest.approx(want_lon, abs=1e-12)
        assert mid.lat == pytest.approx(lat_off(10), abs=1e-9)

    def test_wearing_flag_tracks_sessions(self):
        scenario = self.build(
            [
                {"t": "2021-06-05T09:00:00Z", "lat": lat_off(0), "lon": lon_off(0)},
                {"t": "2021-06-05T09:02:00Z", "lat": lat_off(0), "lon": lon_off(0)},
            ],
            [{"start": "2021-06-05T09:00:30Z", "end": "2021-06-05T09:01:00Z"}],
        )
        samples = {s.t: s for s in sim.sample_stream(scenario, scenario.recipients[0])}
        assert not samples[at("09:00:29")].wearing
        assert samples[at("09:00:30")].wearing
        assert samples[at("09:01:00")].wearing
        assert not samples[at("09:01:01")].wearing

    def test_marker_visibility_radius(self):
        # walk past the marker: visible only within 5 m
        trajectory = [
            {"t": "2021-06-05T09:00:00Z", "lat": lat_off(-20), "lon": lon_off(0)},
            {"t": "2021-06-05T09:00:40Z", "lat": lat_off(20), "lon": lon_off(0)},
            {"t": "2021-06-05T09:02:00Z", "lat": lat_off(20), "lon": lon_off(0)},
        ]
        scenario = self.build(trajectory, [])
        samples = list(sim.sample_stream(scenario, scenario.recipients[0]))
        visible_ts = [s.t for s in samples if "mk-desk" in s.visible_markers]
        # 1 m/s crossing at 09:00:20: within 5 m between 09:00:15 and 09:00:25
        assert visible_ts and visible_ts[0] == at("09:00:15") and visible_ts[-1] == at("09:00:25")

    @settings(max_examples=150, deadline=None)
    @given(
        LATITUDES,
        LONGITUDES,
        st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 25.0)), min_size=1, max_size=12),
        st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 25.0)), min_size=1, max_size=4),
    )
    def test_visible_markers_match_a_scan_of_every_marker(self, lat, lon, layout, walk):
        """Markers and waypoints scattered within 25 m of one point, poles and antimeridian included."""
        markers = tuple(
            sim.MarkerSpec(f"mk-{i}", *destination(lat, lon, bearing, meters))
            for i, (bearing, meters) in enumerate(layout)
        )
        trajectory = tuple(
            sim.Waypoint(at("09:00:00") + timedelta(seconds=10 * i), *destination(lat, lon, bearing, meters))
            for i, (bearing, meters) in enumerate(walk)
        )
        recipient = sim.RecipientSpec("r1", (), trajectory)
        scenario = sim.Scenario(
            "walk", 1, 1.0, trajectory[-1].t + timedelta(seconds=5), markers, (recipient,), (), sim.ConsentPolicy()
        )
        for s in sim.sample_stream(scenario, recipient):
            assert s.visible_markers == {
                m.marker_id
                for m in markers
                if haversine_distance(m.lat, m.lon, s.lat, s.lon) <= sim.MARKER_VISIBILITY_M
            }

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stream_equals_a_bisect_and_scan_oracle(self, data):
        """Walks with stops, ticks that do not divide the legs, a clamped end, and sessions on sample times.

        Every field matches the former per-sample lookups bit for bit, and a
        sample at the previous sample's position measures no marker distance.
        """
        lat, lon = data.draw(LATITUDES | st.just(-0.0)), data.draw(LONGITUDES | st.just(-0.0))
        tick = data.draw(st.sampled_from([0.25, 0.7, 1.0, 1.5, 2.5]))
        start = at("09:00:00")

        def place():
            """The centre itself (a signed zero, say), a point within 25 m of it, or anywhere."""
            kind = data.draw(st.sampled_from(["centre", "near", "near", "far"]))
            if kind == "centre":
                return lat, lon
            if kind == "far":
                return data.draw(LATITUDES), data.draw(LONGITUDES)
            return destination(lat, lon, data.draw(st.floats(0.0, 2 * math.pi)), data.draw(st.floats(0.0, 25.0)))

        waypoints = [sim.Waypoint(start, *place())]
        for _ in range(data.draw(st.integers(0, 6))):
            # Legs in quarter seconds: some waypoints fall on sample times, others between them.
            t = waypoints[-1].t + timedelta(milliseconds=250 * data.draw(st.integers(1, 32)))
            still = data.draw(st.booleans())
            waypoints.append(sim.Waypoint(t, waypoints[-1].lat, waypoints[-1].lon) if still else sim.Waypoint(t, *place()))
        end = waypoints[-1].t + timedelta(seconds=data.draw(st.integers(-3, 6)))  # past the last: clamped
        # Session bounds on a half-tick grid: the even ones fall exactly on sample times.
        bounds = sorted(data.draw(st.sets(st.integers(-2, 40), max_size=6)))
        at_half_tick = [start + timedelta(seconds=k * tick / 2) for k in bounds[: len(bounds) // 2 * 2]]
        sessions = tuple(TimeWindow(a, b) for a, b in zip(at_half_tick[::2], at_half_tick[1::2]))
        markers = tuple(
            sim.MarkerSpec(f"mk-{i}", *destination(lat, lon, bearing, meters))
            for i, (bearing, meters) in enumerate(
                data.draw(st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 25.0)), max_size=8))
            )
        )
        recipient = sim.RecipientSpec("r1", sessions, tuple(waypoints))
        scenario = sim.Scenario("walk", 1, tick, end, markers, (recipient,), (), sim.ConsentPolicy())

        calls = []

        def counted(*args):
            calls.append(args)
            return haversine_distance(*args)

        sim.haversine_distance = counted
        try:
            samples, measured = [], []
            for s in sim.sample_stream(scenario, recipient):
                samples.append(s)
                measured.append(len(calls))
                calls.clear()
        finally:
            sim.haversine_distance = haversine_distance
        times = [start + timedelta(seconds=k * tick) for k in range(len(samples) + 1)]
        assert times[-1] > end and (not samples or times[-2] <= end)
        for s, t, n, prev in zip(samples, times, measured, [None, *samples]):
            want_lat, want_lon = bisect_position(waypoints, t)
            assert (s.recipient_id, s.t, s.lat.hex(), s.lon.hex()) == ("r1", t, want_lat.hex(), want_lon.hex())
            assert s.wearing is worn(sessions, t)
            assert s.visible_markers == {
                m.marker_id
                for m in markers
                if haversine_distance(m.lat, m.lon, s.lat, s.lon) <= sim.MARKER_VISIBILITY_M
            }
            if prev is not None and (prev.lat, prev.lon) == (s.lat, s.lon):
                assert n == 0

    def test_positions_stay_inside_waypoint_bounding_box(self):
        rng = random.Random(4)
        for _ in range(20):
            doc = random_scenario_dict(rng, "bbox")
            scenario = sim.scenario_from_dict(doc)
            recipient = scenario.recipients[0]
            lats = [w.lat for w in recipient.trajectory]
            lons = [w.lon for w in recipient.trajectory]
            for s in sim.sample_stream(scenario, recipient):
                assert min(lats) - 1e-12 <= s.lat <= max(lats) + 1e-12
                assert min(lons) - 1e-12 <= s.lon <= max(lons) + 1e-12


class TestRun:
    def test_direct_message_full_loop(self):
        result = sim.run(sim.scenario_from_dict(minimal_scenario()))
        kinds = [f["kind"] for f in result.frames]
        assert kinds.count("PLAYBACK") == 1
        assert kinds.count("REACTION_NOTIFY") == 1
        assert list(result.final_states.values()) == [MessageState.REACTED]

    def test_consent_no_discards(self):
        doc = minimal_scenario(consent_policy={"default": "no"})
        result = sim.run(sim.scenario_from_dict(doc))
        kinds = [f["kind"] for f in result.frames]
        assert kinds.count("PLAYBACK") == 1
        assert kinds.count("REACTION_NOTIFY") == 0
        assert list(result.final_states.values()) == [MessageState.REACTION_DECLINED]

    @pytest.mark.parametrize("worn_from, utterances", [("09:01:55", 1), ("09:01:59", 0)])
    def test_a_scenario_ending_during_a_capture(self, worn_from, utterances):
        """Delivered 5 s before the end, the +2 s utterance is sent and the +10 s CONSENT is not;
        1 s before, neither is. The end declines the capture, so nothing is forwarded."""
        doc = minimal_scenario()  # ends at 09:02:00, consent "yes"
        doc["recipients"][0]["wear_sessions"][0]["start"] = f"2021-06-05T{worn_from}Z"
        result = sim.run(sim.scenario_from_dict(doc))
        (playback,) = [f for f in result.frames if f["kind"] == "PLAYBACK"]
        assert playback["payload"]["delivered_at"] == f"2021-06-05T{worn_from}Z"
        kinds = [f["kind"] for f in result.frames]
        assert [kinds.count(k) for k in ("REACTION_FRAME", "CONSENT", "REACTION_NOTIFY")] == [utterances, 0, 0]
        assert list(result.final_states.values()) == [MessageState.REACTION_DECLINED]

    def test_same_scenario_runs_identically(self, tmp_path):
        doc = minimal_scenario()
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        sim.run(sim.scenario_from_dict(doc), log_path=first)
        sim.run(sim.scenario_from_dict(doc), log_path=second)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_ids_but_not_shape(self):
        doc = minimal_scenario()
        a = sim.run(sim.scenario_from_dict(doc))
        doc["seed"] = 99
        b = sim.run(sim.scenario_from_dict(doc))
        assert [f["kind"] for f in a.frames] == [f["kind"] for f in b.frames]
        assert set(a.final_states) != set(b.final_states)

    def test_conservation_on_random_scenarios(self):
        rng = random.Random(2024)
        for i in range(15):
            doc = random_scenario_dict(rng, f"cons{i}")
            result = sim.run(sim.scenario_from_dict(doc))
            submitted = sum(1 for f in result.frames if f["kind"] == "SUBMIT")
            states = list(result.final_states.values())
            delivered = sum(
                1
                for s in states
                if s in (MessageState.DELIVERED, MessageState.REACTED, MessageState.REACTION_DECLINED)
            )
            expired = sum(1 for s in states if s is MessageState.EXPIRED)
            assert submitted == len(states) == delivered + expired

    def test_terminal_views_match_playback_recount(self):
        rng = random.Random(77)
        doc = random_scenario_dict(rng, "recount")
        result = sim.run(sim.scenario_from_dict(doc))
        recount = recount_pairs([result.frames])
        delivered_by_state = sum(
            1
            for s in result.final_states.values()
            if s in (MessageState.DELIVERED, MessageState.REACTED, MessageState.REACTION_DECLINED)
        )
        delivered_by_frames = sum(
            delivered for cats in recount.values() for (_, delivered) in cats.values()
        )
        assert delivered_by_state == delivered_by_frames


class TestOneWalk:
    """``run`` and ``sample_stream`` read one trajectory walk; ``run``'s documents share marker lists safely."""

    def test_run_sends_the_documents_of_sample_stream(self):
        """Per recipient, the CONTEXT documents ``run`` sends are ``sample_stream``'s samples, in order and count."""
        rng = random.Random(21)
        scenarios = [sim.load_scenario(path) for path in FIXTURE_PATHS]
        scenarios += [sim.scenario_from_dict(doc) for doc in multi_recipient_docs()]
        scenarios += [sim.scenario_from_dict(random_scenario_dict(rng, f"walk{i}")) for i in range(4)]
        for scenario in scenarios:
            sent: dict[str, list[dict]] = {recipient.principal: [] for recipient in scenario.recipients}
            for frame in sim.run(scenario).frames:
                if frame["kind"] == protocol.CONTEXT:
                    sent[frame["from"]].append(frame["payload"]["sample"])
            for recipient in scenario.recipients:
                streamed = [sample_to_dict(s) for s in sim.sample_stream(scenario, recipient)]
                assert sent[recipient.principal] == streamed, (scenario.name, recipient.principal)

    def test_nothing_mutates_a_recorded_frame(self, tmp_path):
        """Reading a run's frames back, the report included, leaves each one as its log line says."""
        log_path = tmp_path / "run.ndjson"
        frames = sim.run(sim.load_scenario(FIXTURE_PATHS[0]), log_path=log_path).frames
        lists = [f["payload"]["sample"]["visible_markers"] for f in frames if f["kind"] == protocol.CONTEXT]
        assert any(a and a is b for a, b in zip(lists, lists[1:]))  # documents at one position share a list
        analytics.render_text(analytics.summarize_frames_groups([frames]))
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert [protocol.dumps_canonical(frame) for frame in frames] == lines


class TestCollector:
    """``run`` pauses automatic garbage collection, which is safe only while a run makes no cycles."""

    def test_a_run_leaves_nothing_for_the_collector(self, tmp_path):
        rng = random.Random(19)
        scenarios = [sim.load_scenario(path) for path in FIXTURE_PATHS]
        scenarios += [sim.scenario_from_dict(random_scenario_dict(rng, f"gc{i}")) for i in range(6)]
        gc.collect()
        gc.disable()
        try:
            for i, scenario in enumerate(scenarios):
                store = FileStore(tmp_path / f"data{i}") if i % 2 else None
                sim.run(scenario, store=store, log_path=tmp_path / f"run{i}.ndjson")
                assert gc.collect() == 0, scenario.name
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_leaves_collection_as_it_found_it(self, tmp_path, enabled):
        scenario = sim.scenario_from_dict(minimal_scenario())
        store = FileStore(tmp_path / "data")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            sim.run(scenario, store=store)
            assert gc.isenabled() is enabled
            with pytest.raises(WandRelayError) as refused:  # the stored messages refuse the rerun's SUBMITs
                sim.run(scenario, store=FileStore(tmp_path / "data"))
            assert refused.value.code == "DuplicateMessageId"
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
