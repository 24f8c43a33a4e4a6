"""The twelve-pair runs and a set of random scenarios are byte-identical to committed digests.

``golden/pairs12.sha256`` holds, in ``sha256sum`` format, the SHA-256 of
every frame log, every file in every data dir and both renderings of the
report over all twelve logs. ``golden/random20.sha256`` holds the SHA-256 of
the frame logs of twenty seeded random scenarios; unlike the bundled pairs,
most of their sender scripts are out of time order and every other one has
two submissions at the same instant, so these digests pin the order in which
submissions are sent and message ids are drawn. ``golden/multi10.sha256``
holds the frame logs of ten scenarios of three recipients whose samples fall
at shared instants, so it pins the order in which samples of different
recipients at one instant are sent. A change that is meant to alter the
output rewrites all three files with ``python tests/test_golden.py`` and
says why.
"""

from __future__ import annotations

import hashlib
import random
import sys
from datetime import timedelta
from pathlib import Path

from genrandom import T0, random_scenario_dict
from wandrelay import analytics, sim
from wandrelay.timeutil import format_rfc3339, parse_rfc3339

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs12.sha256"
GOLDEN_RANDOM = GOLDEN.with_name("random20.sha256")
GOLDEN_MULTI = GOLDEN.with_name("multi10.sha256")


def digest_lines(runs: list[dict]) -> str:
    """One ``<sha256>  <name>`` line per output file of ``fixture_runs``."""
    blobs: dict[str, bytes] = {}
    for run in runs:
        root = run["log_path"].parent
        blobs[run["log_path"].name] = run["log_path"].read_bytes()
        for path in sorted(run["data_dir"].rglob("*")):
            if path.is_file():
                blobs[path.relative_to(root).as_posix()] = path.read_bytes()
    report = analytics.summarize_paths([run["log_path"] for run in runs])
    blobs["report.txt"] = analytics.render_text(report).encode()
    blobs["report.csv"] = analytics.render_csv(report).encode()
    return "".join(f"{hashlib.sha256(blob).hexdigest()}  {name}\n" for name, blob in blobs.items())


def random_scenario_docs() -> list[dict]:
    """Twenty seeded random scenarios; every odd one gets a tie in its script."""
    docs = []
    for i in range(20):
        doc = random_scenario_dict(random.Random(7000 + i), f"golden{i:02d}")
        script = doc["sender_script"]
        if i % 2 and len(script) >= 2:
            script[-1]["at"] = script[0]["at"]
        docs.append(doc)
    return docs


def multi_recipient_docs() -> list[dict]:
    """Ten seeded scenarios, each joining three random scenarios' recipients.

    They share the first scenario's tick and the earliest end. The recipients
    are declared as r2, r0, r1, out of principal order. The first two
    trajectories start together, so their samples tie at every instant; the
    third starts half a tick earlier in even scenarios (no ties) and a whole
    tick earlier in odd ones (ties at every instant). The first submission is
    moved to the first shared sample instant.
    """
    docs = []
    for i in range(10):
        rng = random.Random(9000 + i)
        parts = [random_scenario_dict(rng, f"multi{i:02d}-{k}") for k in range(3)]
        doc = parts[0]
        doc["name"] = f"multi{i:02d}"
        end = min((part["end"] for part in parts), key=parse_rfc3339)
        doc["end"] = end
        markers: dict[str, dict] = {}
        recipients, script, by_label = [], [], {}
        for principal, part in zip(("r2", "r0", "r1"), parts):
            for marker in part["markers"]:
                markers.setdefault(marker["marker_id"], marker)
            (recipient,) = part["recipients"]
            recipients.append({**recipient, "principal": principal})
            for action in part["sender_script"]:
                if parse_rfc3339(action["at"]) < parse_rfc3339(end):
                    label = f"{principal}.{action['label']}"
                    script.append({**action, "label": label, "recipient_id": principal})
                    if action["label"] in part["consent_policy"]["by_label"]:
                        by_label[label] = part["consent_policy"]["by_label"][action["label"]]
        lead = doc["tick"] * (0.5 if i % 2 == 0 else 1.0)
        recipients[2]["trajectory"][0] = {
            **recipients[2]["trajectory"][0],
            "t": format_rfc3339(T0 - timedelta(seconds=lead)),
        }
        script[0]["at"] = format_rfc3339(T0)
        doc.update(markers=list(markers.values()), recipients=recipients, sender_script=script)
        doc["consent_policy"]["by_label"] = by_label
        docs.append(doc)
    return docs


def log_digest_lines(root: Path, docs: list[dict]) -> str:
    """One ``<sha256>  <name>`` line per frame log of the scenarios ``docs``."""
    lines = []
    for doc in docs:
        log_path = root / f"{doc['name']}.ndjson"
        sim.run(sim.scenario_from_dict(doc), log_path=log_path)
        lines.append(f"{hashlib.sha256(log_path.read_bytes()).hexdigest()}  {log_path.name}\n")
    return "".join(lines)


def test_twelve_pairs_match_golden_digests(fixture_runs):
    assert digest_lines(fixture_runs) == GOLDEN.read_text()


def test_a_report_over_the_twelve_data_dirs_matches_the_golden_report(fixture_runs):
    """The queue journals alone give the report the frame logs give, byte for byte."""
    report = analytics.summarize_paths([run["data_dir"] for run in fixture_runs])
    golden = GOLDEN.read_text().splitlines()
    for name, text in (("report.txt", analytics.render_text(report)), ("report.csv", analytics.render_csv(report))):
        assert f"{hashlib.sha256(text.encode()).hexdigest()}  {name}" in golden


def test_random_scenarios_match_golden_digests(tmp_path):
    assert log_digest_lines(tmp_path, random_scenario_docs()) == GOLDEN_RANDOM.read_text()


def test_multi_recipient_scenarios_match_golden_digests(tmp_path):
    assert log_digest_lines(tmp_path, multi_recipient_docs()) == GOLDEN_MULTI.read_text()


def test_multi_recipient_samples_tie_across_recipients():
    """Every scenario has instants where two recipients' samples are due together, odd ones three."""
    for i, doc in enumerate(multi_recipient_docs()):
        scenario = sim.scenario_from_dict(doc)
        streams = [{s.t for s in sim.sample_stream(scenario, r)} for r in scenario.recipients]
        assert streams[0] & streams[1]
        assert bool(streams[0] & streams[1] & streams[2]) == (i % 2 == 1)
        assert T0 in streams[0] and scenario.sender_script[0].at == T0


def test_random_scripts_cover_unsorted_and_tied_submissions():
    scripts = [[action["at"] for action in doc["sender_script"]] for doc in random_scenario_docs()]
    assert sum(ats != sorted(ats) for ats in scripts) >= 10
    assert sum(len(set(ats)) < len(ats) for ats in scripts) >= 5


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import run_fixtures

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(digest_lines(run_fixtures(Path(tmp))))
        GOLDEN_RANDOM.write_text(log_digest_lines(Path(tmp), random_scenario_docs()))
        GOLDEN_MULTI.write_text(log_digest_lines(Path(tmp), multi_recipient_docs()))
    print(f"wrote {GOLDEN}, {GOLDEN_RANDOM} and {GOLDEN_MULTI}")
