"""The twelve-pair runs and a set of random scenarios are byte-identical to committed digests.

``golden/pairs12.sha256`` holds, in ``sha256sum`` format, the SHA-256 of
every frame log, every file in every data dir and both renderings of the
report over all twelve logs. ``golden/random20.sha256`` holds the SHA-256 of
the frame logs of twenty seeded random scenarios; unlike the bundled pairs,
most of their sender scripts are out of time order and every other one has
two submissions at the same instant, so these digests pin the order in which
submissions are sent and message ids are drawn. A change that is meant to
alter the output rewrites both files with ``python tests/test_golden.py``
and says why.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from genrandom import random_scenario_dict
from wandrelay import analytics, sim

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs12.sha256"
GOLDEN_RANDOM = GOLDEN.with_name("random20.sha256")


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


def random_digest_lines(root: Path) -> str:
    """One ``<sha256>  <name>`` line per frame log of ``random_scenario_docs``."""
    lines = []
    for doc in random_scenario_docs():
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
    assert random_digest_lines(tmp_path) == GOLDEN_RANDOM.read_text()


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
        GOLDEN_RANDOM.write_text(random_digest_lines(Path(tmp)))
    print(f"wrote {GOLDEN} and {GOLDEN_RANDOM}")
