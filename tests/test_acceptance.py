"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from wandrelay import analytics, protocol, sim
from wandrelay.engine import ContextSample, evaluate_sample, expire_messages
from wandrelay.model import (
    ALLOWED_TRANSITIONS,
    MessageState,
    Specificity,
    TriggerSchedule,
    VoiceNote,
    compose,
)
from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore

from client import ids_of, push, submit
from conftest import FIXTURE_PATHS, at
from genrandom import random_messages, random_scenario_dict, random_schedule, random_stream
from oracles import brute_force_deliveries, recount_pairs
from test_engine_properties import flags_of, run_engine

DELIVERED_STATES = {"Delivered", "Reacted", "ReactionDeclined"}


def ok(line: str) -> None:
    print(f"PASS: {line}")


# -- criterion 1: benchmark-table reproduction --------------------------------------

_N = None  # N/A
EXPECTED_PAIRS = {
    "S1/W1": {"location": (1, 1, 100), "time": (3, 0, 0), "marker": (3, 3, 100), "specific": (0, 0, _N), "flexible": (0, 0, _N)},
    "S2/W2": {"location": (2, 0, 0), "time": (3, 1, 33), "marker": (2, 2, 100), "specific": (1, 0, 0), "flexible": (0, 0, _N)},
    "S3/W3": {"location": (1, 1, 100), "time": (1, 1, 100), "marker": (1, 0, 0), "specific": (1, 0, 0), "flexible": (0, 0, _N)},
    "S4/W4": {"location": (5, 5, 100), "time": (1, 1, 100), "marker": (2, 2, 100), "specific": (1, 1, 100), "flexible": (0, 0, _N)},
    "S5/W5": {"location": (0, 0, _N), "time": (2, 1, 50), "marker": (0, 0, _N), "specific": (6, 0, 0), "flexible": (1, 0, 0)},
    "S6/W6": {"location": (3, 1, 33), "time": (5, 0, 0), "marker": (1, 1, 100), "specific": (0, 0, _N), "flexible": (8, 5, 63)},
    "S7/W7": {"location": (1, 0, 0), "time": (0, 0, _N), "marker": (7, 1, 14), "specific": (8, 0, 0), "flexible": (2, 1, 50)},
    "S8/W8": {"location": (1, 1, 100), "time": (1, 1, 100), "marker": (1, 1, 100), "specific": (1, 0, 0), "flexible": (6, 6, 100)},
    "S9/W9": {"location": (6, 3, 50), "time": (1, 0, 0), "marker": (4, 2, 50), "specific": (0, 0, _N), "flexible": (2, 1, 50)},
    "S10/W10": {"location": (4, 3, 75), "time": (2, 0, 0), "marker": (2, 2, 100), "specific": (0, 0, _N), "flexible": (0, 0, _N)},
    "S11/W11": {"location": (1, 1, 100), "time": (1, 0, 0), "marker": (1, 1, 100), "specific": (0, 0, _N), "flexible": (4, 4, 100)},
    "S12/W12": {"location": (2, 2, 100), "time": (1, 1, 100), "marker": (5, 5, 100), "specific": (1, 0, 0), "flexible": (0, 0, _N)},
}

# (median, mean, sample SD) per column; rate medians are kept unrounded
# here (a 56.5 median renders as 57% in the report row).
EXPECTED_SUMMARY = {
    "sent": {
        "location": (1.5, 2.25, 1.86), "time": (1, 1.75, 1.36), "marker": (2, 2.42, 2.02),
        "specific": (1, 1.58, 2.61), "flexible": (0.5, 1.92, 2.71),
    },
    "received": {
        "location": (1, 1.5, 1.51), "time": (0.5, 0.5, 0.52), "marker": (1.5, 1.67, 1.37),
        "specific": (0, 0.08, 0.29), "flexible": (0, 1.42, 2.23),
    },
    "rate": {
        "location": (100, 68.9, 41.2), "time": (33, 43.9, 47.3), "marker": (100, 78.5, 38.5),
        "specific": (0, 14.3, 37.8), "flexible": (56.5, 60.5, 37.4),
    },
}


def test_criterion_1_table_reproduction(tmp_path):
    started = time.monotonic()
    log_paths = []
    frames_groups = []
    for path in FIXTURE_PATHS:
        out = tmp_path / f"{path.stem}.ndjson"
        frames_groups.append(sim.run(sim.load_scenario(path), log_path=out).frames)
        log_paths.append(out)
    report = analytics.summarize_paths(log_paths)

    assert [p.pair_id for p in report.pairs] == list(EXPECTED_PAIRS)
    recounted = recount_pairs(frames_groups)
    for pair in report.pairs:
        for category, (sent, received, rate) in EXPECTED_PAIRS[pair.pair_id].items():
            tally = pair.tallies[category]
            got = (tally.sent, tally.received, tally.rate)
            assert got == (sent, received, rate), f"{pair.pair_id} {category}: {got}"
            # independent recount straight off the raw frames agrees
            assert recounted[pair.pair_id].get(category, (0, 0)) == (sent, received)

    tables = {"sent": report.sent_stats, "received": report.received_stats, "rate": report.rate_stats}
    for which, columns in EXPECTED_SUMMARY.items():
        for category, (median, mean, sd) in columns.items():
            got = tables[which][category]
            assert got.median == pytest.approx(median, abs=0.1), (which, category, "median")
            assert got.mean == pytest.approx(mean, abs=0.1), (which, category, "mean")
            assert got.sd == pytest.approx(sd, abs=0.1), (which, category, "sd")

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"fixture reproduction took {elapsed:.1f}s"
    ok(
        "criterion 1 — 12-pair fixture report matches the benchmark table "
        f"(60 cells exact, 45 summary stats within 0.1) in {elapsed:.1f}s"
    )


# -- criterion 2: specificity vs deliverability -----------------------------------


def test_criterion_2_flexible_dominates_specific():
    started = time.monotonic()
    rng = random.Random(20210605)
    spec_rates, flex_rates = [], []
    dominance_checks = 0
    for _ in range(500):
        samples = random_stream(rng, max_samples=120)
        span_end = samples[-1].t
        schedules = [random_schedule(rng, span_end, min_conditions=2) for _ in range(rng.randint(1, 8))]
        outcomes = {}
        for variant in (Specificity.SPECIFIC, Specificity.FLEXIBLE):
            messages = []
            for i, schedule in enumerate(schedules):
                toggled = TriggerSchedule(
                    geofence=schedule.geofence, window=schedule.window,
                    marker=schedule.marker, specificity=variant,
                )
                messages.append(
                    compose(
                        "s1", "r1", "dog", 1.0, VoiceNote(1.0, "x"), toggled,
                        now=at("08:00:00"),
                        id_factory=lambda _t, i=i, v=variant: f"{i:03d}-{v.value}",
                    )
                )
            deliveries, _ = run_engine(messages, samples)
            outcomes[variant] = {d.message_id.split("-")[0] for d in deliveries}
        spec_set, flex_set = outcomes[Specificity.SPECIFIC], outcomes[Specificity.FLEXIBLE]
        assert spec_set <= flex_set, "a Specific delivery escaped its Flexible twin"
        dominance_checks += len(schedules)
        spec_rates.append(len(spec_set) / len(schedules))
        flex_rates.append(len(flex_set) / len(schedules))

    mean_spec = sum(spec_rates) / len(spec_rates)
    mean_flex = sum(flex_rates) / len(flex_rates)
    assert mean_flex >= mean_spec
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"specificity sweep took {elapsed:.1f}s"
    ok(
        "criterion 2 — over 500 toggle scenarios Flexible dominates Specific "
        f"per message ({dominance_checks} checks) and on mean delivery rate "
        f"({mean_flex:.1%} vs {mean_spec:.1%}) in {elapsed:.1f}s"
    )


# -- criterion 3: engine vs brute-force oracle ---------------------------------------


def test_criterion_3_engine_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    categories_seen = set()
    for _ in range(1000):
        samples = random_stream(rng, max_samples=200)
        messages = random_messages(rng, samples[-1].t, max_messages=20)
        categories_seen.update(analytics.categorize(m) for m in messages)
        deliveries, _ = run_engine(messages, samples)
        got = {d.message_id: (d.delivered_at, flags_of(d)) for d in deliveries}
        assert got == brute_force_deliveries(messages, samples)
    assert categories_seen == set(analytics.CATEGORIES)
    elapsed = time.monotonic() - started
    ok(
        "criterion 3 — 1000 randomized streams match the per-(message,sample) "
        f"oracle exactly (all six categories exercised) in {elapsed:.1f}s"
    )


# -- criterion 4: privacy & erasure ------------------------------------------------------


def _coordinate_tokens(frames) -> set[str]:
    """Every coordinate literal that appeared in recipient context frames."""
    tokens = set()
    for frame in frames:
        if frame["kind"] == protocol.CONTEXT:
            position = frame["payload"]["sample"]["position"]
            tokens.add(json.dumps(position["lat"]))
            tokens.add(json.dumps(position["lon"]))
    return tokens


def test_criterion_4_privacy_and_erasure(fixture_runs):
    audited_frames = 0
    declined_total = 0
    consented_total = 0
    for run in fixture_runs:
        scenario, result = run["scenario"], run["result"]
        senders = set(scenario.sender_ids)
        coordinate_tokens = _coordinate_tokens(result.frames)
        coordinate_tokens.update(json.dumps(m.lat) for m in scenario.markers)
        coordinate_tokens.update(json.dumps(m.lon) for m in scenario.markers)
        marker_ids = set(scenario.marker_ids)

        sender_bound = [f for f in result.frames if f.get("to") in senders]
        assert sender_bound, "audit would be vacuous"
        for frame in sender_bound:
            text = protocol.dumps_canonical(frame)
            for token in coordinate_tokens:
                assert token not in text, f"{scenario.name}: coordinate {token} reached a sender"
            for marker_id in marker_ids:
                assert f'"{marker_id}"' not in text, f"{scenario.name}: marker id leaked"
            payload_keys = set(frame["payload"])
            assert "sample" not in payload_keys and "position" not in payload_keys
        audited_frames += len(sender_bound)

        # erasure of unconsented reactions, by sentinel transcript bytes
        declined_ids = {
            f["payload"]["message_id"]
            for f in result.frames
            if f["kind"] == protocol.CONSENT and f["payload"]["answer"] == "no"
        }
        assert declined_ids, f"{scenario.name}: fixtures always decline one reaction"
        declined_total += len(declined_ids)
        log_bytes = run["log_path"].read_bytes()
        stored_files = [p for p in run["data_dir"].rglob("*") if p.is_file()]
        assert stored_files, "durable store missing"
        for message_id in declined_ids:
            sentinel = f"utt::{message_id}".encode()
            assert sentinel not in log_bytes, f"{scenario.name}: declined transcript in run log"
            for stored in stored_files:
                assert sentinel not in stored.read_bytes(), f"{scenario.name}: {stored} leaked"

        # positive control: consented transcripts do reach their sender, so
        # the sentinel scan genuinely detects transcript bytes when present
        for frame in result.frames:
            if frame["kind"] != protocol.REACTION_NOTIFY:
                continue
            audio = frame["payload"]["reaction"]["tracks"]["recipient_audio"]
            if audio:
                assert audio[0]["transcript"] == f"utt::{frame['payload']['message_id']}"
                consented_total += 1

    assert consented_total, "no consented reactions anywhere; sentinel scan untested"
    ok(
        f"criterion 4 — privacy audit over {audited_frames} sender-bound frames; "
        f"erasure holds for {declined_total} declined reactions "
        f"({consented_total} consented cross-checks), all 12 fixtures clean"
    )


# -- criterion 5: protocol & lifecycle invariants -------------------------------------------


def _final_states(frames) -> dict[str, str]:
    states: dict[str, str] = {}
    for frame in frames:
        if frame["kind"] == protocol.SENDER_VIEW_RESP:
            for record in frame["payload"]["records"]:
                states[record["message_id"]] = record["state"]
    return states


def _check_run_invariants(frames) -> None:
    submits: dict[str, dict] = {}
    playbacks: list[dict] = []
    notified: set[str] = set()
    consent_no: set[str] = set()
    wearing_at: dict[tuple[str, str], bool] = {}
    playback_seen: set[str] = set()

    for frame in frames:
        kind = frame["kind"]
        payload = frame["payload"]
        if kind == protocol.SUBMIT:
            submits[payload["message"]["message_id"]] = payload["message"]
        elif kind == protocol.CONTEXT:
            sample = payload["sample"]
            wearing_at[(sample["recipient_id"], sample["t"])] = sample["wearing"]
        elif kind == protocol.PLAYBACK:
            playbacks.append(frame)
            message_id = payload["message_id"]
            assert message_id not in playback_seen, "second delivery for one message"
            playback_seen.add(message_id)
            assert [e["kind"] for e in payload["events"]] == ["flash", "render"]
            assert payload["events"][0]["duration"] == 0.5
        elif kind == protocol.REACTION_NOTIFY:
            message_id = payload["message_id"]
            assert message_id not in notified
            notified.add(message_id)
            assert message_id in playback_seen, "reaction before delivery"
        elif kind == protocol.CONSENT and payload["answer"] == "no":
            consent_no.add(payload["message_id"])

    # no delivery at a not-wearing sample
    for frame in playbacks:
        recipient = frame["to"]
        delivered_at = frame["payload"]["delivered_at"]
        assert wearing_at.get((recipient, delivered_at)) is True, (
            f"delivery at {delivered_at} without glasses on"
        )

    # conservation + per-message state legality
    finals = _final_states(frames)
    assert set(finals) == set(submits), "every submitted message needs a terminal state"
    delivered = sum(1 for s in finals.values() if s in DELIVERED_STATES)
    expired = sum(1 for s in finals.values() if s == "Expired")
    assert delivered + expired == len(submits)

    for message_id, final in finals.items():
        path = [MessageState.PENDING]
        if message_id in playback_seen:
            path.append(MessageState.DELIVERED)
        if message_id in notified:
            path.append(MessageState.REACTED)
        elif message_id in consent_no and message_id in playback_seen:
            path.append(MessageState.REACTION_DECLINED)
        if MessageState(final) is not path[-1]:
            path.append(MessageState(final))
        for current, following in zip(path, path[1:]):
            assert following in ALLOWED_TRANSITIONS[current], (
                f"{message_id}: illegal {current.value} -> {following.value}"
            )


def test_criterion_5_protocol_and_lifecycle_invariants(fixture_runs):
    started = time.monotonic()
    for run in fixture_runs:
        _check_run_invariants(run["result"].frames)
    rng = random.Random(5150)
    randomized = 0
    for i in range(25):
        doc = random_scenario_dict(rng, f"prop{i}")
        result = sim.run(sim.scenario_from_dict(doc))
        _check_run_invariants(result.frames)
        randomized += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    ok(
        "criterion 5 — at-most-once, wearing gate, flash-before-render, "
        f"conservation, and state legality hold on 12 fixtures + {randomized} "
        f"randomized runs in {elapsed:.1f}s"
    )


# -- criterion 6: determinism & durability ------------------------------------------


def test_criterion_6_determinism_and_durability(tmp_path):
    scenario_path = FIXTURE_PATHS[0]
    first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    sim.run(sim.load_scenario(scenario_path), log_path=first)
    sim.run(sim.load_scenario(scenario_path), log_path=second)
    assert first.read_bytes() == second.read_bytes()

    rng = random.Random(6)
    doc = random_scenario_dict(rng, "det")
    third, fourth = tmp_path / "c.ndjson", tmp_path / "d.ndjson"
    sim.run(sim.scenario_from_dict(doc), log_path=third)
    sim.run(sim.scenario_from_dict(doc), log_path=fourth)
    assert third.read_bytes() == fourth.read_bytes()

    # durability: unclean stop between submit and any context push
    data_dir = tmp_path / "durable"
    service = DeliveryService(FileStore(data_dir))
    service.register_principal("s1")
    service.register_principal("r1")
    message = compose("s1", "r1", "dog", 1.0, VoiceNote(2.0, "x"), now=at("08:55:00"))
    submit(service, message)
    del service  # crash: no close(), no snapshot

    reborn = DeliveryService(FileStore(data_dir))
    assert reborn.message_states() == {message.message_id: MessageState.PENDING}
    reborn.register_principal("r1")
    frames = push(reborn, ContextSample("r1", at("09:00:00"), 0.0, 0.0, wearing=True))
    assert ids_of(frames, protocol.PLAYBACK) == [message.message_id]
    ok(
        "criterion 6 — byte-identical logs on repeated runs; a pending message "
        "survives an unclean restart between submit and delivery"
    )
