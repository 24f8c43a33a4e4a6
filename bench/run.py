#!/usr/bin/env python3
"""wandrelay benchmark.

    python3 bench/run.py --workload {pairs12,deep_queue,durable_churn} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with nothing traced; ``--trace
1`` replays the workload's frames with spans on and reports the per-layer
metrics. Either way the run checks the program's outputs and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only for a correct run. ``--smoke`` runs every
workload both ways at a tiny size and checks that each metric is emitted.

End-to-end times are scaled to a fixed host speed by reference slices run
between the timed units (see speed.py); the wall-clock figures are kept in
the metadata, under ``raw``.

The program is imported from ``src/`` beside this directory, and the served
workloads start ``wandrelay serve`` from the same sources. Scratch state goes
to ``bench/.work/`` and is removed after each run; results and span files go
to ``bench/out/``. See NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

MODULES = ("analytics", "engine", "ids", "model", "protocol", "reaction", "service", "sim", "storage", "timeutil")

END_TO_END = [
    ("setup_s", "s"),
    ("context_samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
]

# The names these metrics go by on each workload, printed beside them.
ALIASES = {
    "pairs12": {"context_samples_per_s": "sim_samples_per_s", "latency_p50_ms": "pair_sim_p50_ms"},
    "deep_queue": {"latency_p50_ms": "playback_p50_ms"},
    "durable_churn": {"context_samples_per_s": "cycles_per_s", "latency_p50_ms": "playback_p50_ms"},
}

PER_LAYER = [
    ("engine.expire_us", "us"),
    ("engine.evaluate_us", "us"),
    ("engine.scanned_per_sample", "count"),
    ("engine.haversine_per_sample", "count"),
    ("engine.fire_ratio", "ratio"),
    ("sim.sample_stream_us", "us"),
    ("sim.marker_distance_calls", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.record_us", "us"),
    ("protocol.bytes_per_frame", "B"),
    ("timeutil.format_us", "us"),
    ("timeutil.parse_us", "us"),
    ("timeutil.calls_per_sample", "count"),
    ("model.message_from_dict_us", "us"),
    ("model.catalog_item_us", "us"),
    *[(f"service.{what}.{kind}", "us")
      for what in ("handle_frame_us", "self_us") for kind in ("CONTEXT", "SUBMIT", "CONSENT", "SENDER_VIEW_REQ")],
    ("service.pending", "count"),
    ("storage.append_fsync_us", "us"),
    ("storage.append_fsync_p99_us", "us"),
    ("storage.appends_per_op", "count"),
    ("storage.snapshot_s", "s"),
    ("storage.snapshot_bytes", "B"),
    ("storage.recover_s", "s"),
    ("storage.recovered_events", "count"),
    ("reaction.finalize_us", "us"),
    ("reaction.captures_started", "count"),
    ("reaction.forwarded", "count"),
    ("reaction.discarded", "count"),
    ("server.hello_rtt_us", "us"),
    ("server.wire_us_per_context", "us"),
    ("server.bytes_in", "B"),
    ("server.bytes_out", "B"),
    ("analytics.summarize_s", "s"),
    ("analytics.render_s", "s"),
    ("trace_overhead_frac", "ratio"),
    *[(f"context_share.{layer}", "ratio")
      for layer in ("engine", "service", "storage", "protocol", "timeutil", "model", "reaction")],
]


def load_program() -> types.SimpleNamespace:
    """Import wandrelay from this checkout's sources, never from anywhere else."""
    if not (SRC / "wandrelay" / "service.py").is_file():
        print(f"error: no wandrelay sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"wandrelay.{name}") for name in MODULES}
    if not Path(mods["service"].__file__).resolve().is_relative_to(SRC):
        print(f"error: wandrelay imported from {mods['service'].__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(**mods)


def code_identity() -> dict[str, str]:
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    h = hashlib.sha256()
    for path in sorted((SRC / "wandrelay").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: time the host took this machine's CPUs away."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def run_one(wr: types.SimpleNamespace, workload: str, seed: int, seconds: float, trace: int,
            sizes: object) -> tuple[dict, dict]:
    """One run; returns (result object, metadata)."""
    import layers
    from workloads import WORKLOADS, Run

    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wr, SRC, work, seed, seconds, sizes)
    measure, make_script = WORKLOADS[workload]
    metrics: dict[str, float] = {}
    steal0, total0 = cpu_ticks()
    try:
        if trace:
            metrics = layers.traced(run, make_script, OUT / f"spans-{workload}-seed{seed}.json.gz")
        else:
            metrics = measure(run)
    except Exception as exc:  # a crash or a dropped connection fails the run, with its traceback
        traceback.print_exc()
        run.outcome.fail(f"{type(exc).__name__}: {exc}")
    finally:
        for server in run.servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    out = run.outcome
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": out.failed == 0 and set(metrics) == set(units),
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **code_identity(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "failed_frac": out.failed / max(out.attempted, 1), "problems": out.problems,
        "cpu_steal_frac": round((steal1 - steal0) / max(total1 - total0, 1), 4), **run.meta,
    }
    return result, meta


def report(result: dict, meta: dict) -> None:
    aliases = ALIASES.get(meta["workload"], {}) if not meta["trace"] else {}
    print(f"workload {meta['workload']}  seed {meta['seed']}  seconds {meta['seconds']}  trace {meta['trace']}")
    for name, m in result["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{alias}")
    print(f"  {'failed_frac':34s} {meta['failed_frac']:14.6g} ({result['failed']} of {result['attempted']})")
    for why in meta["problems"]:
        print(f"  FAILED: {why}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k not in ("problems", "series")}, default=str))


def smoke(wr: types.SimpleNamespace) -> int:
    """Every workload both ways at a tiny size: all metrics emitted, all checks pass."""
    from workloads import SMOKE, WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics this script emits")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from the metrics this script emits")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from this script's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, meta = run_one(wr, workload, 1, 2.0, trace, SMOKE)
            report(result, meta)
            want = {n for n, _ in (PER_LAYER if trace else END_TO_END)}
            if set(result["metrics"]) != want:
                problems.append(f"{workload} trace {trace}: missing {sorted(want - set(result['metrics']))}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: output checks failed: {meta['problems']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["pairs12", "deep_queue", "durable_churn"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    wr = load_program()
    if args.smoke:
        return smoke(wr)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from workloads import FULL

    result, meta = run_one(wr, args.workload, args.seed, args.seconds, args.trace, FULL)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "meta": meta}, indent=1, default=str) + "\n")
    report(result, meta)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
