"""Smoke test for the benchmark.

    python -m pytest bench/test_smoke.py

Runs every workload untraced and traced at a tiny size through
``run.py --smoke``, which checks that every metric BENCHMARK.json declares is
emitted and that every output check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.mark.slow
def test_smoke_emits_every_metric_and_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stdout[-6000:] + proc.stderr[-6000:]
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_without_program_sources_fails_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "pairs12", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
