#!/usr/bin/env python3
"""Compare two sets of benchmark results and write a BENCH_<n>.json summary.

Each directory holds the ``result-<workload>-seed<N>-trace0.json`` files that
``bench/run.py`` writes to ``bench/out/``, one set from the parent commit and
one from the change, run with the same seeds. For every workload and
end-to-end metric of ``BENCHMARK.json`` the summary gives each side's median
and quartiles with the unit, how many same-seed pairs the change won, and
``worse_beyond_bound``: whether the change's median is worse than the
parent's, in the metric's bad direction, by more than the metric's bound (a
fraction of the parent's median). That is the regression rule a change is
held to, and the script prints it beside each row.
Beside those scaled figures it gives the same spread of the raw wall-clock
values (``meta["raw"]``, as ``parent_raw`` and ``change_raw``) and the
same-seed pairs the change won on them (``change_wins_raw``), and for each
workload each side's median reference slice (``meta["speed"]["slice_p50_ms"]``):
a gain that comes only from slower reference slices shows as a scaled gain
with no raw one and a longer slice. It also records the seeds, ``nproc``, the
Python version, and both sides' git sha and ``src_sha256`` (bench/run.py's
digest of ``src/wandrelay``).
Traced runs (``trace1``) are left out: their per-layer figures are not
end-to-end metrics. Standard library only.

For each workload it also gives each side's failed and attempted operations
(``failed_ops``), and it names in ``one_sided`` a workload of
``BENCHMARK.json`` that only one side ran.

The exit code is 1, with each cause named on a ``FAIL`` line, when either side
has an incorrect run or runs of more than one source tree (``src_sha256``), a
workload has runs on one side only, a workload's
change runs fail a larger share of their attempted operations than its parent
runs, or any metric is worse beyond its bound; it is 0 otherwise. The summary
is written either way.

Usage: python tools/bench_report.py PARENT_DIR CHANGE_DIR --out BENCH_6.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> list[dict[str, Any]]:
    """Every untraced result file in ``directory``, as written by bench/run.py."""
    runs = [json.loads(path.read_text()) for path in sorted(directory.glob("result-*-trace0.json"))]
    if not runs:
        raise SystemExit(f"error: no result-*-trace0.json files in {directory}")
    return runs


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def one_of(runs: list[dict[str, Any]], key: str) -> Any:
    """A metadata value every run shares; a sorted list when they differ."""
    values = sorted({run["meta"][key] for run in runs}, key=str)
    return values[0] if len(values) == 1 else values


def operations(runs: list[dict[str, Any]]) -> dict[str, int]:
    return {"failed": sum(run["result"]["failed"] for run in runs),
            "attempted": sum(run["result"]["attempted"] for run in runs)}


def failed_share(ops: dict[str, int]) -> float:
    return ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0


def side(runs: list[dict[str, Any]]) -> dict[str, Any]:
    ops = operations(runs)
    return {
        "git_sha": one_of(runs, "git_sha"),
        "src_sha256": one_of(runs, "src_sha256"),
        "seeds": sorted({run["meta"]["seed"] for run in runs}),
        "runs": len(runs),
        "incorrect_runs": sum(not run["result"]["correct"] for run in runs),
        "failed_ops": ops["failed"],
        "attempted_ops": ops["attempted"],
    }


def slice_p50_ms(runs: list[dict[str, Any]]) -> float | None:
    """The median of the runs' median reference slices, if they recorded any."""
    slices = [run["meta"]["speed"]["slice_p50_ms"] for run in runs if "speed" in run["meta"]]
    return statistics.median(slices) if slices else None


def scaled(run: dict[str, Any], name: str) -> float | None:
    return run["result"]["metrics"].get(name, {}).get("value")


def raw(run: dict[str, Any], name: str) -> float | None:
    return run["meta"].get("raw", {}).get(name)


def wins(pairs: list[tuple[float, float]], higher: bool) -> int:
    """How many (parent, change) pairs the change won; a tie counts for neither."""
    return sum((c > p) if higher else (c < p) for p, c in pairs)


def worse_beyond_bound(parent: float, change: float, higher: bool, bound: float) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than ``bound`` times ``parent``."""
    return change < parent * (1 - bound) if higher else change > parent * (1 + bound)


def report(parent: list[dict[str, Any]], change: list[dict[str, Any]], benchmark: dict[str, Any]) -> dict[str, Any]:
    def by_seed(runs: list[dict[str, Any]], workload: str) -> dict[int, dict[str, Any]]:
        return {run["meta"]["seed"]: run for run in runs if run["meta"]["workload"] == workload}

    workloads: dict[str, Any] = {}
    slices: dict[str, Any] = {}
    failed_ops: dict[str, Any] = {}
    one_sided: dict[str, str] = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        before, after = by_seed(parent, workload), by_seed(change, workload)
        if not before or not after:
            if before or after:
                one_sided[workload] = "parent" if before else "change"
            continue

        def paired(figure, name: str) -> list[tuple[float, float]]:
            """(parent, change) for every seed both sides report the figure for."""
            both = [(figure(before[s], name), figure(after[s], name)) for s in sorted(before.keys() & after.keys())]
            return [(p, c) for p, c in both if p is not None and c is not None]

        metrics = {}
        for metric in benchmark["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            pairs = paired(scaled, name)
            if not pairs:
                continue
            before_spread, after_spread = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": before_spread,
                "change": after_spread,
                "pairs": len(pairs),
                "change_wins": wins(pairs, higher),
                "worse_beyond_bound": worse_beyond_bound(
                    before_spread["median"], after_spread["median"], higher, metric["bound"]
                ),
            }
            raws = paired(raw, name)
            if raws:
                metrics[name]["parent_raw"] = spread([p for p, _ in raws])
                metrics[name]["change_raw"] = spread([c for _, c in raws])
                metrics[name]["change_wins_raw"] = wins(raws, higher)
        workloads[workload] = metrics
        slices[workload] = {"parent": slice_p50_ms(list(before.values())), "change": slice_p50_ms(list(after.values()))}
        failed_ops[workload] = {"parent": operations(list(before.values())), "change": operations(list(after.values()))}
    everything = parent + change
    return {
        "parent": side(parent),
        "change": side(change),
        "nproc": one_of(everything, "nproc"),
        "python": one_of(everything, "python"),
        "seconds": one_of(everything, "seconds"),
        "workloads": workloads,
        "slice_p50_ms": slices,
        "failed_ops": failed_ops,
        "one_sided": one_sided,
    }


def fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def failures(summary: dict[str, Any]) -> list[str]:
    """What makes the comparison fail: incorrect runs on either side, a side whose runs come from more than one
    source tree, a workload only one side ran, a larger failed share of operations on the change, metrics worse
    beyond their bounds. Both sides may share one tree."""
    found = [f"{name} has {summary[name]['incorrect_runs']} incorrect runs"
             for name in ("parent", "change") if summary[name]["incorrect_runs"]]
    found += [f"{name} mixes runs of {len(summary[name]['src_sha256'])} source trees: {summary[name]['src_sha256']}"
              for name in ("parent", "change") if isinstance(summary[name]["src_sha256"], list)]
    found += [f"{workload} has runs only on the {name} side" for workload, name in summary["one_sided"].items()]
    for workload, ops in summary["failed_ops"].items():
        before, after = ops["parent"], ops["change"]
        if failed_share(after) > failed_share(before):
            found.append(f"{workload} change failed {after['failed']} of {after['attempted']} operations, "
                         f"a larger share than the parent's {before['failed']} of {before['attempted']}")
    for workload, metrics in summary["workloads"].items():
        found += [f"{workload} {name} is worse beyond its bound" for name, m in metrics.items() if m["worse_beyond_bound"]]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = report(load_runs(args.parent), load_runs(args.change), benchmark)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, metrics in summary["workloads"].items():
        for name, m in metrics.items():
            raw = (f"raw {m['parent_raw']['median']:.6g} -> {m['change_raw']['median']:.6g} "
                   f"won {m['change_wins_raw']}/{m['change_raw']['runs']}" if "change_raw" in m else "")
            verdict = "WORSE BEYOND BOUND" if m["worse_beyond_bound"] else "within bound"
            print(f"{workload:14s} {name:22s} {m['parent']['median']:12.6g} -> {m['change']['median']:12.6g} "
                  f"{m['unit']:4s} change won {m['change_wins']}/{m['pairs']}  {verdict}  {raw}")
        speed = summary["slice_p50_ms"][workload]
        print(f"{workload:14s} {'slice_p50_ms':22s} {fmt(speed['parent']):>12s} -> {fmt(speed['change']):>12s} ms")
    found = failures(summary)
    for failure in found:
        print(f"FAIL: {failure}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
