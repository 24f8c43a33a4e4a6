from __future__ import annotations

import sys
from datetime import datetime
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles / genrandom helpers

from wandrelay.timeutil import UTC

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURE_PATHS = [SCENARIO_DIR / f"pair{k:02d}.json" for k in range(1, 13)]


def at(hhmmss: str) -> datetime:
    """Timestamp on the fixtures' reference day."""
    hh, mm, ss = (int(part) for part in hhmmss.split(":"))
    return datetime(2021, 6, 5, hh, mm, ss, tzinfo=UTC)


def run_fixtures(root: Path) -> list[dict]:
    """Run all twelve bundled scenarios under ``root``, with durable stores and log files."""
    from wandrelay import sim
    from wandrelay.storage import FileStore

    runs = []
    for path in FIXTURE_PATHS:
        scenario = sim.load_scenario(path)
        data_dir = root / f"{scenario.name}-data"
        log_path = root / f"{scenario.name}.ndjson"
        result = sim.run(scenario, store=FileStore(data_dir), log_path=log_path)
        runs.append(
            {
                "scenario": scenario,
                "result": result,
                "log_path": log_path,
                "data_dir": data_dir,
            }
        )
    return runs


@pytest.fixture(scope="session")
def fixture_runs(tmp_path_factory):
    return run_fixtures(tmp_path_factory.mktemp("fixture-runs"))
