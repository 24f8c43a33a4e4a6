from __future__ import annotations

import random
import re

import pytest

from wandrelay import analytics, sim
from wandrelay.analytics import (
    CategoryTally,
    Stats,
    categorize,
    render_csv,
    render_text,
    round_half_up,
    stats,
    summarize_frames_groups,
)
from wandrelay.engine import ContextSample
from wandrelay.errors import IncompleteLog, ParseError
from wandrelay.ids import IdFactory
from wandrelay.model import (
    Geofence,
    MarkerCondition,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    VoiceNote,
    compose,
)

from wandrelay.service import DeliveryService
from wandrelay.storage import FileStore

from client import push, submit
from conftest import at
from genrandom import random_scenario_dict
from oracles import naive_mean, naive_median, naive_sample_sd, recount_pairs


def message_with(schedule):
    return compose("s1", "r1", "dog", 1.0, VoiceNote(2.0, "x"), schedule, now=at("08:00:00"))


FENCE = Geofence(lat=10.0, lon=10.0, radius=10.0)
WINDOW = TimeWindow(start=at("09:00:00"), end=at("10:00:00"))


class TestCategorize:
    def test_single_condition_categories(self):
        assert categorize(message_with(TriggerSchedule(geofence=FENCE))) == "location"
        assert categorize(message_with(TriggerSchedule(window=WINDOW))) == "time"
        assert categorize(message_with(TriggerSchedule(marker=MarkerCondition("mk")))) == "marker"

    def test_compound_categories(self):
        specific = TriggerSchedule(geofence=FENCE, window=WINDOW, specificity=Specificity.SPECIFIC)
        flexible = TriggerSchedule(geofence=FENCE, window=WINDOW, specificity=Specificity.FLEXIBLE)
        assert categorize(message_with(specific)) == "specific"
        assert categorize(message_with(flexible)) == "flexible"

    def test_direct(self):
        assert categorize(message_with(None)) == "direct"


class TestStats:
    def test_sent_count_column_of_benchmark_corpus(self):
        # location sent counts across the twelve benchmark pairs
        result = stats([1, 2, 1, 5, 0, 3, 1, 1, 6, 4, 1, 2])
        assert result.median == pytest.approx(1.5)
        assert result.mean == pytest.approx(2.25)
        assert result.sd == pytest.approx(1.86, abs=0.005)

    def test_rate_column_of_benchmark_corpus(self):
        rates = [100, 0, 100, 100, 33, 0, 100, 50, 75, 100, 100]
        result = stats(rates)
        assert result.median == pytest.approx(100)
        assert result.mean == pytest.approx(68.9, abs=0.05)
        assert result.sd == pytest.approx(41.2, abs=0.05)

    def test_singleton(self):
        result = stats([4.0])
        assert result.median == result.mean == 4.0
        assert result.sd is None

    def test_empty_input(self):
        assert stats([]) is None

    def test_matches_naive_oracle_on_random_lists(self):
        rng = random.Random(11)
        for _ in range(300):
            values = [rng.uniform(-100, 100) for _ in range(rng.randint(2, 40))]
            result = stats(values)
            assert result.median == pytest.approx(naive_median(values), rel=1e-9, abs=1e-9)
            assert result.mean == pytest.approx(naive_mean(values), rel=1e-9, abs=1e-9)
            assert result.sd == pytest.approx(naive_sample_sd(values), rel=1e-9, abs=1e-9)


class TestRounding:
    @pytest.mark.parametrize(
        ("value", "want"), [(62.5, 63), (56.5, 57), (14.2857, 14), (33.333, 33), (0.0, 0), (100.0, 100)]
    )
    def test_half_up(self, value, want):
        assert round_half_up(value) == want

    def test_tally_rate(self):
        assert CategoryTally(sent=8, received=5).rate == 63
        assert CategoryTally(sent=0, received=0).rate is None
        assert CategoryTally(sent=7, received=1).rate == 14


def run_mini(consent="yes"):
    doc = {
        "v": 1, "name": "mini", "seed": 5, "tick": 1.0,
        "end": "2021-06-05T09:01:00Z",
        "markers": [],
        "recipients": [{
            "principal": "r1",
            "wear_sessions": [{"start": "2021-06-05T09:00:00Z", "end": "2021-06-05T09:01:00Z"}],
            "trajectory": [
                {"t": "2021-06-05T09:00:00Z", "lat": 40.0, "lon": -100.0},
                {"t": "2021-06-05T09:01:00Z", "lat": 40.0, "lon": -100.0},
            ],
        }],
        "sender_script": [{
            "at": "2021-06-05T08:59:00Z", "label": "d0", "sender_id": "s1", "recipient_id": "r1",
            "content_id": "dog", "scale": 1.0,
            "voice_note": {"duration": 1.0, "transcript": "x"}, "schedule": None,
        }],
        "consent_policy": {"default": consent},
    }
    return sim.run(sim.scenario_from_dict(doc))


class TestSummarize:
    def test_empty_log_is_an_empty_report(self):
        report = summarize_frames_groups([[]])
        assert report.pairs == []
        assert "Pair" in render_text(report)

    def test_pending_message_raises_incomplete_log(self):
        result = run_mini()
        frames = [f for f in result.frames if f["kind"] != "SENDER_VIEW_RESP"]
        with pytest.raises(IncompleteLog):
            summarize_frames_groups([frames])

    def test_playback_state_disagreement_detected(self):
        result = run_mini()
        frames = [f for f in result.frames if f["kind"] != "PLAYBACK"]
        with pytest.raises(IncompleteLog):
            summarize_frames_groups([frames])

    def test_direct_delivery_counted(self):
        report = summarize_frames_groups([run_mini().frames])
        (pair,) = report.pairs
        assert pair.pair_id == "s1/r1"
        assert pair.tallies["direct"].sent == 1
        assert pair.tallies["direct"].received == 1
        assert pair.tallies["direct"].rate == 100

    def test_declined_reaction_still_counts_as_delivered(self):
        report = summarize_frames_groups([run_mini(consent="no").frames])
        assert report.pairs[0].tallies["direct"].received == 1

    def test_frames_the_report_does_not_read_are_never_opened(self):
        """Only SUBMIT, PLAYBACK and SENDER_VIEW_RESP count; the payload of any other kind is not looked at."""

        class Sealed(dict):
            def get(self, key, *default):
                assert key != "payload", "opened a frame the report does not read"
                return super().get(key, *default)

        frames = run_mini().frames
        want = render_csv(summarize_frames_groups([frames]))
        unread = [
            {"v": 1, "kind": "CONTEXT", "payload": ["not", "an", "object"]},
            {"v": 1, "kind": "CONTEXT"},
            {"v": 1, "kind": "ACK", "payload": {"message": 42, "message_id": [], "records": "junk"}},
            Sealed(v=1, kind="CONTEXT", payload={}),
            {"v": 1, "kind": ["SUBMIT"], "payload": None},
        ]
        assert render_csv(summarize_frames_groups([frames + unread])) == want
        assert render_csv(summarize_frames_groups([unread[:2] + frames[:3] + unread[2:] + frames[3:]])) == want

    def test_a_submit_without_a_payload_is_refused(self):
        with pytest.raises(ParseError, match=re.escape("bad SUBMIT frame: KeyError('message')")):
            summarize_frames_groups([run_mini().frames + [{"v": 1, "kind": "SUBMIT"}]])

    def test_matches_independent_recount_on_random_logs(self):
        rng = random.Random(31337)
        groups = []
        for i in range(8):
            doc = random_scenario_dict(rng, f"an{i}")
            doc["sender_script"] = [
                dict(entry, sender_id=f"s{i}") for entry in doc["sender_script"]
            ]
            groups.append(sim.run(sim.scenario_from_dict(doc)).frames)
        report = summarize_frames_groups(groups)
        recounted = recount_pairs(groups)
        got = {
            pair.pair_id: {
                cat: (tally.sent, tally.received)
                for cat, tally in pair.tallies.items()
                if tally.sent
            }
            for pair in report.pairs
        }
        assert got == recounted


class TestDataDirs:
    def test_pairs_come_in_the_order_of_their_first_message(self, tmp_path):
        """Not in submission or queue-file order; a tie at one instant goes by message id.

        Before and after the snapshot, a Pending message counts as sent and not received.
        """
        service = DeliveryService(FileStore(tmp_path))
        for principal in ("a", "b", "c", "r1", "r2"):
            service.register_principal(principal)

        def send(sender, recipient, created, seed, schedule=None):
            message = compose(sender, recipient, "dog", 1.0, VoiceNote(2.0, "x"), schedule,
                              now=at(created), id_factory=IdFactory(seed))
            assert submit(service, message)[0]["kind"] == "ACK"
            return message

        send("a", "r1", "09:00:00", 1)
        send("a", "r1", "09:30:00", 2, TriggerSchedule(geofence=FENCE))
        tied = [send("b", "r2", "08:00:00", 3), send("c", "r2", "08:00:00", 4)]
        push(service, ContextSample("r1", at("09:05:00"), 0.0, 0.0, True, frozenset()))
        expected = [f"{m.sender_id}/r2" for m in sorted(tied, key=lambda m: m.message_id)] + ["a/r1"]
        counts = {"a/r1": {"direct": (1, 1), "location": (1, 0)}, "b/r2": {"direct": (1, 0)}, "c/r2": {"direct": (1, 0)}}
        for _ in range(2):
            report = analytics.summarize_data_dirs([tmp_path])
            assert [pair.pair_id for pair in report.pairs] == expected
            for pair in report.pairs:
                got = {c: (t.sent, t.received) for c, t in pair.tallies.items() if t.sent}
                assert got == counts[pair.pair_id]
            service.close()


TEXT_HEADER = (
    "Location Sent  Location Rcvd  Location Rate  Time Sent  Time Rcvd  Time Rate"
    "  Marker Sent  Marker Rcvd  Marker Rate  Specific Sent  Specific Rcvd  Specific Rate"
    "  Flexible Sent  Flexible Rcvd  Flexible Rate  Direct Sent  Direct Rcvd  Direct Rate"
)
CSV_HEADER = (
    "pair,sender,recipient,location_sent,location_received,location_rate,time_sent,time_received,time_rate,"
    "marker_sent,marker_received,marker_rate,specific_sent,specific_received,specific_rate,"
    "flexible_sent,flexible_received,flexible_rate,direct_sent,direct_received,direct_rate"
)
# The text report's cells after the first column, for a category with nothing sent
TEXT_UNSENT = {
    "location": "              0              0            N/A",
    "time": "          0          0        N/A",
    "marker": "            0            0          N/A",
    "specific": "              0              0            N/A",
    "flexible": "              0              0            N/A",
    "direct": "            0            0          N/A",
}
TEXT_SD = (
    "SD                N/A            N/A            N/A        N/A        N/A        N/A"
    "          N/A          N/A          N/A            N/A            N/A            N/A"
    "            N/A            N/A            N/A          N/A          N/A          N/A"
)
CSV_SD = "SD,,," + ",".join(["N/A"] * 18)


def text_row(label, **cells):
    """A text row: the label padded as in a report with summary rows, then each category's cells."""
    return label.ljust(6) + "".join(cells.get(c, TEXT_UNSENT[c]) for c in analytics.CATEGORIES)


def csv_row(label, **cells):
    return label + "," + ",".join(cells.get(c, "0,0,N/A") for c in analytics.CATEGORIES)


class TestRendering:
    """The exact renderings pin the reports that the twelve-pair golden does not cover."""

    def test_an_empty_report_is_its_header(self):
        report = summarize_frames_groups([[]])
        assert render_text(report) == "Pair  " + TEXT_HEADER + "\n"
        assert render_csv(report) == CSV_HEADER + "\n"

    def test_one_pair_has_no_sd(self):
        report = summarize_frames_groups([run_mini().frames])
        direct = "            1            1         100%"
        assert render_text(report) == "\n".join([
            "Pair    " + TEXT_HEADER,
            text_row("s1/r1", direct=direct),
            text_row("Median", direct=direct),
            text_row("Mean", direct="            1            1       100.0%"),
            TEXT_SD,
        ]) + "\n"
        assert render_csv(report) == "\n".join([
            CSV_HEADER,
            csv_row("s1/r1,s1,r1", direct="1,1,100%"),
            csv_row("Median,,", direct="1,1,100%"),
            csv_row("Mean,,", direct="1,1,100.0%"),
            CSV_SD,
        ]) + "\n"

    def test_a_pending_message_in_a_data_dir_is_sent_and_not_received(self, tmp_path):
        service = DeliveryService(FileStore(tmp_path))
        for principal in ("s1", "r1"):
            service.register_principal(principal)
        assert submit(service, message_with(TriggerSchedule(geofence=FENCE)))[0]["kind"] == "ACK"
        report = analytics.summarize_data_dirs([tmp_path])
        service.close()
        location = "              1              0             0%"
        assert render_text(report) == "\n".join([
            "Pair    " + TEXT_HEADER,
            text_row("s1/r1", location=location),
            text_row("Median", location=location),
            text_row("Mean", location="              1              0           0.0%"),
            TEXT_SD,
        ]) + "\n"
        assert render_csv(report) == "\n".join([
            CSV_HEADER,
            csv_row("s1/r1,s1,r1", location="1,0,0%"),
            csv_row("Median,,", location="1,0,0%"),
            csv_row("Mean,,", location="1,0,0.0%"),
            CSV_SD,
        ]) + "\n"

    def test_text_report_is_aligned_and_complete(self):
        report = summarize_frames_groups([run_mini().frames])
        text = render_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("Pair")
        assert any(line.startswith("s1/r1") for line in lines)
        assert [line.split()[0] for line in lines[-3:]] == ["Median", "Mean", "SD"]

    def test_csv_report_parses(self):
        report = summarize_frames_groups([run_mini().frames])
        rows = [line.split(",") for line in render_csv(report).strip().splitlines()]
        header, body = rows[0], rows[1:]
        assert header[:3] == ["pair", "sender", "recipient"]
        assert len({len(row) for row in rows}) == 1  # rectangular
        assert body[0][0] == "s1/r1"
        assert body[-3][0] == "Median"
        direct_rate = header.index("direct_rate")
        assert body[0][direct_rate] == "100%"
