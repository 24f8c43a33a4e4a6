"""tools/bench_report.py on synthetic result files."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_report", Path(__file__).resolve().parent.parent / "tools" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)


def write_result(directory: Path, workload: str, seed: int, sha: str, values: dict[str, float], trace: int = 0,
                 raw: dict[str, float] | None = None, slice_ms: float | None = None, correct: bool = True,
                 failed: int = 0, attempted: int = 10):
    units = {"context_samples_per_s": "1/s", "restart_s": "s"}
    doc = {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        },
        "meta": {"workload": workload, "seed": seed, "seconds": 30.0, "trace": trace,
                 "git_sha": sha, "src_sha256": sha * 2, "nproc": 2, "python": "3.11.7"},
    }
    if raw is not None:
        doc["meta"]["raw"] = raw
    if slice_ms is not None:
        doc["meta"]["speed"] = {"slices": 40, "slice_p50_ms": slice_ms}
    directory.mkdir(exist_ok=True)
    (directory / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def test_medians_units_wins_and_identity(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(90.0, 7000.0), (95.0, 7500.0), (80.0, 70.0)], start=1):
        write_result(parent, "deep_queue", seed, "aaa", {"context_samples_per_s": before, "restart_s": 0.3})
        write_result(change, "deep_queue", seed, "bbb", {"context_samples_per_s": after, "restart_s": 0.3 - seed / 100})
    write_result(parent, "deep_queue", 1, "aaa", {"context_samples_per_s": 1.0}, trace=1)  # traced: ignored
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 0

    summary = json.loads(out.read_text())
    assert summary["parent"]["git_sha"] == "aaa" and summary["change"]["git_sha"] == "bbb"
    assert summary["change"]["src_sha256"] == "bbbbbb"
    assert summary["parent"]["seeds"] == summary["change"]["seeds"] == [1, 2, 3]
    assert summary["nproc"] == 2 and summary["python"] == "3.11.7"
    assert list(summary["workloads"]) == ["deep_queue"]
    rate = summary["workloads"]["deep_queue"]["context_samples_per_s"]
    assert rate["unit"] == "1/s" and rate["better"] == "higher"
    assert rate["parent"]["median"] == 90.0 and rate["change"]["median"] == 7000.0
    assert rate["pairs"] == 3 and rate["change_wins"] == 2
    restart = summary["workloads"]["deep_queue"]["restart_s"]
    assert restart["unit"] == "s" and restart["change_wins"] == 3  # lower is better


def test_raw_figures_and_reference_slices_stand_beside_the_scaled_ones(tmp_path, capsys):
    """A scaled gain that the raw figures do not show comes with slower reference slices."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        raw = {"context_samples_per_s": 100.0 + seed, "restart_s": 0.2}
        write_result(parent, "pairs12", seed, "aaa", {"context_samples_per_s": 100.0, "restart_s": 0.2},
                     raw=raw, slice_ms=9.0 + seed)
        write_result(change, "pairs12", seed, "bbb", {"context_samples_per_s": 120.0, "restart_s": 0.2},
                     raw=raw, slice_ms=11.0 + seed)
    write_result(parent, "deep_queue", 1, "aaa", {"restart_s": 0.3})  # no raw figures, no slices
    write_result(change, "deep_queue", 1, "bbb", {"restart_s": 0.3})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 0

    summary = json.loads(out.read_text())
    rate = summary["workloads"]["pairs12"]["context_samples_per_s"]
    assert rate["parent"]["median"] == 100.0 and rate["change"]["median"] == 120.0 and rate["change_wins"] == 3
    assert rate["parent_raw"] == rate["change_raw"] == {"median": 102.0, "q1": 101.5, "q3": 102.5, "runs": 3}
    assert summary["slice_p50_ms"]["pairs12"] == {"parent": 11.0, "change": 13.0}
    assert "parent_raw" not in summary["workloads"]["deep_queue"]["restart_s"]
    assert summary["slice_p50_ms"]["deep_queue"] == {"parent": None, "change": None}
    printed = capsys.readouterr().out
    assert "raw 102 -> 102" in printed
    assert any(line.split()[:5] == ["pairs12", "slice_p50_ms", "11", "->", "13"] for line in printed.splitlines())


def test_raw_wins_are_counted_per_pair_beside_the_scaled_ones(tmp_path, capsys):
    """A workload can lose most scaled pairs while winning most raw ones; both counts are written and printed."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (scaled_after, raw_after) in enumerate([(95.0, 110.0), (98.0, 105.0), (101.0, 99.0), (100.0, 100.0)],
                                                     start=1):
        write_result(parent, "deep_queue", seed, "aaa", {"context_samples_per_s": 100.0, "restart_s": 0.2},
                     raw={"context_samples_per_s": 100.0, "restart_s": 0.2})
        write_result(change, "deep_queue", seed, "bbb", {"context_samples_per_s": scaled_after, "restart_s": 0.2},
                     raw={"context_samples_per_s": raw_after, "restart_s": 0.1 * seed})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 0

    metrics = json.loads(out.read_text())["workloads"]["deep_queue"]
    rate, restart = metrics["context_samples_per_s"], metrics["restart_s"]
    assert (rate["change_wins"], rate["change_wins_raw"]) == (1, 2)  # the ties count for neither
    assert (restart["change_wins"], restart["change_wins_raw"]) == (0, 1)  # lower is better
    printed = capsys.readouterr().out
    assert "change won 1/4" in printed and "raw 100 -> 102.5 won 2/4" in printed


def test_directory_without_results_is_an_error(tmp_path):
    (tmp_path / "empty").mkdir()
    write_result(tmp_path / "change", "pairs12", 1, "bbb", {"restart_s": 0.2})
    with pytest.raises(SystemExit, match="no result"):
        bench_report.main([str(tmp_path / "empty"), str(tmp_path / "change"), "--out", str(tmp_path / "o.json")])


@pytest.mark.parametrize(
    "name, before, after, worse",
    [
        ("context_samples_per_s", 100.0, 76.0, False),  # higher is better: 24% down is inside 0.25
        ("context_samples_per_s", 100.0, 74.0, True),
        ("context_samples_per_s", 100.0, 500.0, False),
        ("restart_s", 0.2, 0.24, False),  # lower is better: 20% up is inside 0.25
        ("restart_s", 0.2, 0.26, True),
        ("restart_s", 0.2, 0.01, False),
    ],
)
def test_worse_beyond_bound_follows_each_metrics_direction_and_bound(tmp_path, capsys, name, before, after, worse):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_result(parent, "pairs12", seed, "aaa", {name: before})
        write_result(change, "pairs12", seed, "bbb", {name: after})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == (1 if worse else 0)

    metric = json.loads(out.read_text())["workloads"]["pairs12"][name]
    assert metric["bound"] == 0.25 and metric["worse_beyond_bound"] is worse
    printed = capsys.readouterr().out.splitlines()
    row = next(line for line in printed if line.split()[:2] == ["pairs12", name])
    assert ("WORSE BEYOND BOUND" in row) is worse and ("within bound" in row) is not worse
    assert [line for line in printed if line.startswith("FAIL")] == (
        [f"FAIL: pairs12 {name} is worse beyond its bound"] if worse else []
    )


@pytest.mark.parametrize("incorrect", ["parent", "change"])
def test_an_incorrect_run_on_either_side_fails_the_comparison(tmp_path, capsys, incorrect):
    """One exit code answers the check: the summary is still written, and the run is named."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        for directory, sha in ((parent, "aaa"), (change, "bbb")):
            wrong = directory.name == incorrect and seed == 2
            write_result(directory, "pairs12", seed, sha, {"context_samples_per_s": 100.0}, correct=not wrong)
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 1

    summary = json.loads(out.read_text())
    assert summary[incorrect]["incorrect_runs"] == 1
    assert summary["workloads"]["pairs12"]["context_samples_per_s"]["worse_beyond_bound"] is False
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("FAIL")] == [f"FAIL: {incorrect} has 1 incorrect runs"]


@pytest.mark.parametrize(
    "parent_ops, change_ops, fails",
    [
        ((0, 10), (1, 10), True),
        ((1, 10), (2, 10), True),
        ((1, 10), (0, 10), False),
        ((1, 10), (2, 20), False),  # the same share of more attempts
        ((0, 0), (1, 10), True),
    ],
)
def test_a_larger_failed_share_on_the_change_fails_the_comparison(tmp_path, capsys, parent_ops, change_ops, fails):
    """Operations are summed over a workload's runs on each side; only the change failing a larger share fails."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        for directory, sha, (failed, attempted) in ((parent, "aaa", parent_ops), (change, "bbb", change_ops)):
            write_result(directory, "pairs12", seed, sha, {"context_samples_per_s": 100.0},
                         failed=failed if seed == 2 else 0, attempted=attempted if seed == 2 else 0)
        write_result(parent, "deep_queue", seed, "aaa", {"context_samples_per_s": 100.0}, failed=1)
        write_result(change, "deep_queue", seed, "bbb", {"context_samples_per_s": 100.0}, failed=1)
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == (1 if fails else 0)

    summary = json.loads(out.read_text())
    assert summary["failed_ops"]["pairs12"] == {
        "parent": {"failed": parent_ops[0], "attempted": parent_ops[1]},
        "change": {"failed": change_ops[0], "attempted": change_ops[1]},
    }
    assert summary["failed_ops"]["deep_queue"]["change"] == {"failed": 3, "attempted": 30}
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert printed == ([f"FAIL: pairs12 change failed {change_ops[0]} of {change_ops[1]} operations, a larger share "
                        f"than the parent's {parent_ops[0]} of {parent_ops[1]}"] if fails else [])


@pytest.mark.parametrize("only", ["parent", "change"])
def test_a_workload_only_one_side_ran_fails_the_comparison(tmp_path, capsys, only):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_result(parent, "pairs12", seed, "aaa", {"context_samples_per_s": 100.0})
        write_result(change, "pairs12", seed, "bbb", {"context_samples_per_s": 100.0})
        write_result(tmp_path / only, "durable_churn", seed, "aaa" if only == "parent" else "bbb", {"restart_s": 0.2})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 1

    summary = json.loads(out.read_text())
    assert summary["one_sided"] == {"durable_churn": only}  # deep_queue, which neither side ran, is not named
    assert list(summary["workloads"]) == ["pairs12"]
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert printed == [f"FAIL: durable_churn has runs only on the {only} side"]


@pytest.mark.parametrize("mixed", ["parent", "change"])
def test_a_side_that_mixes_source_trees_fails_the_comparison(tmp_path, capsys, mixed):
    """One side's runs from two trees, as a results directory that kept older runs holds, are not one side."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        for directory, sha in ((parent, "aaa"), (change, "bbb")):
            other = directory.name == mixed and seed == 3
            write_result(directory, "pairs12", seed, "ccc" if other else sha, {"context_samples_per_s": 100.0})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 1

    summary = json.loads(out.read_text())
    trees = ["aaaaaa", "cccccc"] if mixed == "parent" else ["bbbbbb", "cccccc"]
    assert summary[mixed]["src_sha256"] == trees
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert printed == [f"FAIL: {mixed} mixes runs of 2 source trees: {trees}"]


def test_two_sides_of_one_source_tree_pass(tmp_path, capsys):
    """A change to the benchmark alone compares one program tree with itself."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_result(parent, "pairs12", seed, "aaa", {"context_samples_per_s": 100.0})
        write_result(change, "pairs12", seed, "aaa", {"context_samples_per_s": 100.0})
    out = tmp_path / "BENCH.json"

    assert bench_report.main([str(parent), str(change), "--out", str(out)]) == 0

    summary = json.loads(out.read_text())
    assert summary["parent"]["src_sha256"] == summary["change"]["src_sha256"] == "aaaaaa"
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")] == []
