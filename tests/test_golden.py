"""The twelve-pair runs are byte-identical to committed digests.

``golden/pairs12.sha256`` holds, in ``sha256sum`` format, the SHA-256 of
every frame log, every file in every data dir and both renderings of the
report over all twelve logs. A change that is meant to alter the output
rewrites the file with ``python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from wandrelay import analytics

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs12.sha256"


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


def test_twelve_pairs_match_golden_digests(fixture_runs):
    assert digest_lines(fixture_runs) == GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import run_fixtures

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(digest_lines(run_fixtures(Path(tmp))))
    print(f"wrote {GOLDEN}")
