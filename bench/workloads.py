"""The three workloads: inputs from the seed, the timed run, and the output checks.

pairs12        the paper's twelve-pair table, simulated in-process pass after
               pass; between passes each pair's messages are submitted to a
               server, which restarts along the way.
deep_queue     one recipient with about 2,000 pending messages that never
               fire; rounds of a saturating CONTEXT burst and an open-loop
               segment at a fixed rate in which every 4th sample fires one
               sentinel message.
durable_churn  a closed loop of submit, firing sample, reaction and consent,
               each acknowledged after an fsync, with restarts along the way.

Each workload also builds a smaller replay script of the same frames for the
traced run (see ``layers.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Any, Callable, Iterator

import served
from speed import Lap, Speed

perf = time.perf_counter

SEED_STRIDE = 1_000_003  # forks each pair's id stream while keeping the twelve distinct
SENDER, RECIPIENT = "sender-1", "wearer-1"
WALK_SPEED_M_S = 1.4
M_PER_DEG = 111_320.0
CAPTURE_S = 10.0

# The paper table's per-pair cells: (sent, received, rate %) per category.
_N = None
PAPER_TABLE = {
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


@dataclass(frozen=True)
class Sizes:
    setups: int = 9  # set-ups per run; setup_s is their median
    restarts: int = 16  # restarts per run; restart_s is their median
    deep_pending: int = 2000  # never-firing messages in deep_queue
    paced_rate: float = 20.0  # deep_queue open-loop samples per second
    fire_every: int = 4  # deep_queue paced: every 4th sample shows a sentinel
    deep_rounds_per_second: float = 0.7  # deep_queue: rounds of one burst chunk and one paced segment
    paced_per_round: int = 20
    block_cycles: int = 16  # durable_churn: cycles per sender, one view at the end of each
    cycles_per_second: int = 20  # durable_churn runs this many cycles per --seconds
    burst_chunk: int = 32  # deep_queue: burst samples per round
    trace_deep_contexts: int = 240
    trace_cycles: int = 1000
    hello_pings: int = 200


FULL = Sizes()
SMOKE = Sizes(setups=1, restarts=1, deep_pending=40, burst_chunk=8,
              trace_deep_contexts=24, trace_cycles=24, hello_pings=10)


class Outcome:
    """Operations attempted and failed; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(why)
        return ok


@dataclass
class Run:
    wr: Any  # namespace of the program's modules
    src: Path
    work: Path
    seed: int
    seconds: float
    sizes: Sizes
    outcome: Outcome = field(default_factory=Outcome)
    meta: dict[str, Any] = field(default_factory=dict)
    servers: list[served.Server] = field(default_factory=list)  # stopped when the run ends
    speed: Speed = field(default_factory=Speed)
    _dirs: int = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:02d}-{name}"
        path.mkdir(parents=True)
        return path


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def ms(seconds: float) -> float:
    return seconds * 1000.0


def scaled(laps: list[Lap]) -> list[float]:
    return [lap.scaled_s for lap in laps]


def raw(laps: list[Lap]) -> list[float]:
    return [lap.raw_s for lap in laps]


def metrics_from(laps: dict[str, Any], peak_rss_mb: float, run: Run,
                 unscaled: tuple[str, ...] = ()) -> dict[str, float]:
    """The end-to-end metrics, scaled to the reference speed (see speed.py).

    ``laps`` holds the set-ups, the throughput's units of work and their
    count (``work``), the latencies and the restarts. The raw wall-clock
    figures go to the metadata; ``unscaled`` names the metrics that are
    reported raw because they wait on a kernel timer, which host speed does
    not change.
    """
    figures = {}
    for name, pick in (("scaled", scaled), ("raw", raw)):
        figures[name] = {
            "setup_s": statistics.median(pick(laps["setups"])),
            "context_samples_per_s": laps["work"] / sum(pick(laps["units"])),
            "latency_p50_ms": ms(statistics.median(pick(laps["latencies"]))),
            "restart_s": statistics.median(pick(laps["restarts"])),
            "peak_rss_mb": peak_rss_mb,
        }
    run.meta["raw"] = figures["raw"]
    run.meta["speed"] = run.speed.summary()
    return {name: figures["raw" if name in unscaled else "scaled"][name] for name in figures["raw"]}


# -- shared served steps ----------------------------------------------------------


def start_server(run: Run, name: str) -> served.Server:
    server = served.Server(run.src, run.fresh_dir(name))
    run.servers.append(server)
    server.start()
    return server


def say_hello(run: Run, conn: served.Conn, role: str, principal: str) -> None:
    run.outcome.ops()
    reply = conn.request(served.hello(role, principal))
    run.outcome.check(reply["kind"] == "ACK", f"HELLO {principal}: {reply}")


def restart(run: Run, server: served.Server, principal: str) -> Lap:
    """SIGTERM (snapshot), respawn on the same data dir, time to the first HELLO ACK."""
    run.speed.start()
    code = server.stop()
    server.start()
    conn = served.Conn(server.port)
    try:
        say_hello(run, conn, "sender", principal)
    finally:
        conn.close()
    lap = run.speed.lap()
    run.outcome.check(code == 0, f"server exited with {code} on SIGTERM")
    return lap


def sender_view(run: Run, conn: served.Conn, sender: str, sink: list[bytes] | None = None) -> dict[str, dict]:
    """The sender's own view, by message id."""
    run.outcome.ops()
    conn.send(served.encode(served.frame("SENDER_VIEW_REQ", {"sender_id": sender}, sender)))
    line = conn.recv_line()
    if sink is not None:
        sink.append(line)
    reply = json.loads(line)
    if reply["kind"] != "SENDER_VIEW_RESP":
        run.outcome.fail(f"view for {sender}: {reply}")
        return {}
    return {r["message_id"]: r for r in reply["payload"]["records"]}


# -- walking recipients ---------------------------------------------------------------


def offset(lat: float, lon: float, heading: float, meters: float) -> tuple[float, float]:
    dlat = meters * math.cos(heading) / M_PER_DEG
    dlon = meters * math.sin(heading) / (M_PER_DEG * math.cos(math.radians(lat)))
    return lat + dlat, lon + dlon


@dataclass
class Walk:
    """A straight worn walk; samples come from the program's own sample_stream."""

    start: datetime
    lat: float
    lon: float
    heading: float
    scenario: Any
    recipient: Any


def make_walk(wr: Any, rng: random.Random, tick: float, duration_s: float) -> Walk:
    start = datetime(2021, 6, 5, 9, 0, tzinfo=wr.timeutil.UTC)
    end = start + timedelta(seconds=duration_s)
    lat = 47.60 + rng.uniform(-0.01, 0.01)
    lon = -122.33 + rng.uniform(-0.01, 0.01)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    lat1, lon1 = offset(lat, lon, heading, WALK_SPEED_M_S * duration_s)
    recipient = wr.sim.RecipientSpec(
        principal=RECIPIENT,
        wear_sessions=(wr.model.TimeWindow(start=start, end=end),),
        trajectory=(wr.sim.Waypoint(t=start, lat=lat, lon=lon), wr.sim.Waypoint(t=end, lat=lat1, lon=lon1)),
    )
    scenario = wr.sim.Scenario(
        name="walk", seed=0, tick=tick, end=end, markers=(), recipients=(recipient,),
        sender_script=(), consent_policy=wr.sim.ConsentPolicy(),
    )
    return Walk(start, lat, lon, heading, scenario, recipient)


def context_line(wr: Any, sample: Any, marker: str | None) -> bytes:
    if marker is not None:
        sample = dataclasses.replace(sample, visible_markers=frozenset({marker}))
    return served.encode(served.frame("CONTEXT", {"sample": wr.engine.sample_to_dict(sample)}, RECIPIENT))


def submit_line(wr: Any, message: Any) -> bytes:
    return served.encode(served.frame("SUBMIT", {"message": wr.model.message_to_dict(message)}, message.sender_id))


# =====================================================================================
# pairs12
# =====================================================================================


def load_pairs(run: Run) -> list[Any]:
    root = run.src.parent / "scenarios"
    scenarios = []
    for k in range(1, 13):
        s = run.wr.sim.load_scenario(root / f"pair{k:02d}.json")
        scenarios.append(dataclasses.replace(s, seed=s.seed + SEED_STRIDE * run.seed))
    return scenarios


def digest(groups: list[list[dict]], wr: Any) -> str:
    h = hashlib.sha256()
    for frames in groups:
        for f in frames:
            h.update(wr.protocol.dumps_canonical(f).encode())
            h.update(b"\n")
        h.update(b"\x00")
    return h.hexdigest()


def check_table(run: Run, report: Any, text: str) -> None:
    wr = run.wr
    cells = 0
    ok = [p.pair_id for p in report.pairs] == list(PAPER_TABLE)
    for pair in report.pairs:
        for category, want in PAPER_TABLE.get(pair.pair_id, {}).items():
            tally = pair.tallies[category]
            cells += 1
            ok &= (tally.sent, tally.received, tally.rate) == want
    ok &= cells == 60 and all(pid in text for pid in PAPER_TABLE)
    run.outcome.check(ok, "pairs12 report does not reproduce the paper table's 60 cells")


def sim_pass(run: Run, scenarios: list[Any]) -> tuple[list[list[dict]], list[Lap], Lap, Any, str]:
    """One timed pass: every pair simulated (a lap each), then summarized and rendered (one lap)."""
    wr = run.wr
    groups, per_pair = [], []
    run.speed.start()
    for s in scenarios:
        groups.append(wr.sim.run(s).frames)
        per_pair.append(run.speed.lap())
    report = wr.analytics.summarize_frames_groups(groups)
    text = wr.analytics.render_text(report)
    return groups, per_pair, run.speed.lap(), report, text


def capture_pairs(run: Run, scenarios: list[Any]) -> tuple[list[tuple], list[list[dict]]]:
    """Simulate every pair once, recording each inbound frame.

    Returns the replay script and the frame logs.
    """
    wr = run.wr
    script: list[tuple] = []
    base = wr.sim.DeliveryService

    class Recording(base):  # type: ignore[misc, valid-type]
        def handle_frame(self, frame: dict) -> list[dict]:
            out = super().handle_frame(frame)
            if frame["kind"] != "HELLO":
                script.append(("frame", frame["from"], frame["kind"], wr.protocol.encode_frame(frame)))
            return out

        def end_of_run(self, at: datetime) -> list[str]:
            script.append(("end", at))
            return super().end_of_run(at)

    groups = []
    wr.sim.DeliveryService = Recording
    try:
        for s in scenarios:
            (sender,), (recipient,) = s.sender_ids, s.recipients
            script += [("open", "sender", sender), ("open", "recipient", recipient.principal)]
            groups.append(wr.sim.run(s).frames)
    finally:
        wr.sim.DeliveryService = base
    return script, groups


def pair_submits(script: list[tuple]) -> list[tuple[str, str, list[bytes]]]:
    """Each pair's sender, its recipient and the SUBMIT frames it sends, in order."""
    pairs: list[tuple[str, str, list[bytes]]] = []
    for item in script:
        if item[:2] == ("open", "sender"):
            pairs.append((item[2], "", []))
        elif item[:2] == ("open", "recipient"):
            pairs[-1] = (pairs[-1][0], item[2], pairs[-1][2])
        elif item[0] == "frame" and item[2] == "SUBMIT":
            pairs[-1][2].append(item[3])
    return pairs


def pairs12(run: Run) -> dict[str, float]:
    wr, sizes, out = run.wr, run.sizes, run.outcome
    setups, server = [], None
    for i in range(sizes.setups):
        if server is not None:
            server.stop()
        run.speed.start()
        scenarios = load_pairs(run)
        server = start_server(run, f"pairs12-serve{i}")
        conn = served.Conn(server.port)
        say_hello(run, conn, "sender", "probe")
        conn.close()
        setups.append(run.speed.lap())
    try:
        script, groups = capture_pairs(run, scenarios)
        contexts = sum(1 for item in script if item[0] == "frame" and item[2] == "CONTEXT")
        want = digest(groups, wr)
        report = wr.analytics.summarize_frames_groups(groups)
        check_table(run, report, wr.analytics.render_text(report))

        # Each pair's messages are also submitted to the server once, a pair
        # at a time between passes, so the served part spreads over the run;
        # the restarts fall after every pair or two, the last after the twelfth.
        pairs = pair_submits(script)
        restart_after = [round((i + 1) * len(pairs) / sizes.restarts) for i in range(sizes.restarts)]
        acks_by_pair: list[list[float]] = []
        restarts: list[Lap] = []

        def serve_next() -> None:
            sender, recipient, lines = pairs[len(acks_by_pair)]
            conn = served.Conn(server.port)  # the recipient says HELLO once, so the server knows it
            try:
                say_hello(run, conn, "recipient", recipient)
            finally:
                conn.close()
            conn = served.Conn(server.port)
            acks = []
            try:
                say_hello(run, conn, "sender", sender)
                for line in lines:
                    t0 = perf()
                    conn.send(line)
                    reply = conn.recv()
                    acks.append(perf() - t0)
                    out.ops()
                    if reply["kind"] != "ACK":
                        out.fail(f"SUBMIT from {sender} answered {reply}")
            finally:
                conn.close()
            acks_by_pair.append(acks)
            for _ in range(restart_after.count(len(acks_by_pair))):
                restarts.append(restart(run, server, "probe"))

        per_pair, units, passes = [], [], 0
        window = 0.85 * run.seconds
        t_begin = perf()
        while perf() - t_begin < window or passes < 2:
            groups, laps, analytics, report, text = sim_pass(run, scenarios)
            out.ops(len(scenarios))
            per_pair += laps
            units += laps + [analytics]
            passes += 1
            out.check(digest(groups, wr) == want, "pairs12 pass gave a different frame log")
            check_table(run, report, text)
            while len(acks_by_pair) < len(pairs) * min(1.0, (perf() - t_begin) / window):
                serve_next()
        while len(acks_by_pair) < len(pairs):
            serve_next()
        acks = [a for pair in acks_by_pair for a in pair]
        # After the last restart, every sender still sees all its messages.
        for sender, _recipient, lines in pairs:
            conn = served.Conn(server.port)
            try:
                say_hello(run, conn, "sender", sender)
                view = sender_view(run, conn, sender)
            finally:
                conn.close()
            submitted = {json.loads(line)["payload"]["message"]["message_id"] for line in lines}
            out.check(set(view) == submitted and all(r["state"] == "Pending" for r in view.values()),
                      f"view of {sender} after the restarts is not its submitted messages")
    finally:
        server.stop()
    run.meta.update(passes=passes, samples=contexts * passes, samples_per_pass=contexts,
                    submits=len(acks), submit_ack_p50_ms=ms(statistics.median(acks)),
                    latency_p90_ms=ms(pct(raw(per_pair), 90)))
    run.meta["series"] = {"pair_s": raw(per_pair), "pair_scaled_s": scaled(per_pair), "ack_s": acks,
                          "restart_s": raw(restarts), "restart_scaled_s": scaled(restarts)}
    laps = {"setups": setups, "units": units, "work": contexts * passes, "latencies": per_pair,
            "restarts": restarts}
    return metrics_from(laps, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, run)


def pairs12_script(run: Run) -> tuple[list[tuple], dict[str, Any]]:
    script, _groups = capture_pairs(run, load_pairs(run))
    return script, {}


# =====================================================================================
# deep_queue
# =====================================================================================


@dataclass
class DeepInputs:
    walk: Walk
    pending: list[Any]  # never fire
    sentinels: list[Any]  # sentinel j fires on the sample that shows marker fire<j>


def deep_inputs(run: Run, n_sentinels: int) -> DeepInputs:
    """About 2,000 messages none of which can fire on the walk, plus sentinels.

    An even mix of far geofences (behind the walk's start; it only moves
    away), windows a month ahead, markers that never show, and AND and OR
    compounds of those, so nothing expires either.
    """
    wr = run.wr
    m = wr.model
    rng = random.Random(run.seed)
    walk = make_walk(wr, rng, tick=1.0, duration_s=400_000.0)
    ids = wr.ids.IdFactory(run.seed)
    created = walk.start - timedelta(hours=1)

    def far_fence() -> Any:
        back = rng.uniform(500.0, 3000.0)
        lat, lon = offset(walk.lat, walk.lon, walk.heading + math.pi, back)
        lat, lon = offset(lat, lon, walk.heading + math.pi / 2, rng.uniform(-400.0, 400.0))
        return m.Geofence(lat=lat, lon=lon, radius=rng.uniform(7.0, 14.0))

    def future_window() -> Any:
        start = walk.start + timedelta(days=30, hours=rng.uniform(0.0, 240.0))
        return m.TimeWindow(start=start, end=start + timedelta(hours=rng.uniform(1.0, 4.0)))

    def ghost(i: int) -> Any:
        return m.MarkerCondition(marker_id=f"ghost{i}")

    def compound(i: int, spec: Any) -> Any:
        parts = rng.choice([("g", "w"), ("g", "m"), ("w", "m"), ("g", "w", "m")])
        return m.TriggerSchedule(
            geofence=far_fence() if "g" in parts else None,
            window=future_window() if "w" in parts else None,
            marker=ghost(i) if "m" in parts else None,
            specificity=spec,
        )

    content = [c.content_id for c in m.catalog()]

    def message(i: int, schedule: Any) -> Any:
        note = m.VoiceNote(duration=round(rng.uniform(0.5, 9.5), 1), transcript=f"note {i}")
        return m.compose(SENDER, RECIPIENT, rng.choice(content), 1.0, note, schedule,
                         now=created + timedelta(milliseconds=10 * i), id_factory=ids)

    pending = []
    for i in range(run.sizes.deep_pending):
        kind = i % 5
        if kind == 0:
            schedule = m.TriggerSchedule(geofence=far_fence())
        elif kind == 1:
            schedule = m.TriggerSchedule(window=future_window())
        elif kind == 2:
            schedule = m.TriggerSchedule(marker=ghost(i))
        else:
            schedule = compound(i, m.Specificity.SPECIFIC if kind == 3 else m.Specificity.FLEXIBLE)
        pending.append(message(i, schedule))
    base = run.sizes.deep_pending
    sentinels = [message(base + j, m.TriggerSchedule(marker=m.MarkerCondition(marker_id=f"fire{j}")))
                 for j in range(n_sentinels)]
    return DeepInputs(walk, pending, sentinels)


class SampleFeed:
    """Consecutive walk samples as encoded CONTEXT frames; sentinels on request."""

    def __init__(self, wr: Any, walk: Walk):
        self.wr = wr
        self._stream: Iterator[Any] = wr.sim.sample_stream(walk.scenario, walk.recipient)
        self.count = 0
        self.last_t: datetime | None = None

    def next(self, marker: str | None = None) -> bytes:
        sample = next(self._stream)
        self.count += 1
        self.last_t = sample.t
        return context_line(self.wr, sample, marker)


class PlaybackReader:
    """Reads the recipient connection on a second thread, timing each PLAYBACK.

    It stops after the PLAYBACK of ``last_id``; anything other than a
    sentinel's PLAYBACK or REACTION_START is recorded as a problem.
    """

    def __init__(self, conn: served.Conn, sentinel_ids: list[str], last_id: str):
        self.conn = conn
        self.expected = set(sentinel_ids)
        self.last_id = last_id
        self.arrivals: dict[str, float] = {}
        self.first_capture: dict | None = None
        self.problems: list[str] = []
        self.done = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        try:
            while self.last_id not in self.arrivals:
                f = self.conn.recv()
                at = perf()
                if f["kind"] == "PLAYBACK" and f["payload"]["message_id"] in self.expected:
                    with self._cond:
                        self.arrivals.setdefault(f["payload"]["message_id"], at)
                        self._cond.notify_all()
                elif f["kind"] == "REACTION_START" and self.first_capture is None:
                    self.first_capture = f["payload"]
                else:
                    self.problems.append(f"unexpected {f['kind']} on the recipient connection: {f['payload']}")
        except (OSError, ValueError) as exc:
            self.problems.append(f"recipient connection: {exc}")
        finally:
            with self._cond:
                self.done = True
                self._cond.notify_all()

    def wait(self, message_id: str, timeout: float = served.IO_TIMEOUT_S) -> float | None:
        with self._cond:
            self._cond.wait_for(lambda: message_id in self.arrivals or self.done, timeout)
            return self.arrivals.get(message_id)

    def join(self, timeout: float) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()


def deep_queue(run: Run) -> dict[str, float]:
    """Rounds of a saturating burst chunk then an open-loop segment, over the whole run.

    Interleaving the two phases spreads both over the same stretch of time,
    so that a shared host's slow and fast spells weigh on them alike.
    """
    wr, sizes, out = run.wr, run.sizes, run.outcome
    rounds = max(2, round(sizes.deep_rounds_per_second * run.seconds))
    per_round = 1 + sizes.paced_per_round // sizes.fire_every
    n_sentinels = rounds * per_round

    setups = []
    server = conn_s = conn_r = None
    for i in range(sizes.setups):
        for c in (conn_s, conn_r):
            if c is not None:
                c.close()
        if server is not None:
            server.stop()
        run.speed.start()
        inputs = deep_inputs(run, n_sentinels)
        prefill = [submit_line(wr, msg) for msg in inputs.pending]
        sentinel_lines = [submit_line(wr, msg) for msg in inputs.sentinels]
        server = start_server(run, f"deep-serve{i}")
        conn_s, conn_r = served.Conn(server.port), served.Conn(server.port)
        say_hello(run, conn_s, "sender", SENDER)
        say_hello(run, conn_r, "recipient", RECIPIENT)
        setups.append(run.speed.lap())

    def submit(line: bytes) -> float:
        t = perf()
        conn_s.send(line)
        reply = conn_s.recv()
        elapsed = perf() - t
        out.ops()
        if reply["kind"] != "ACK":
            out.fail(f"SUBMIT answered {reply}")
        return elapsed

    try:
        t_prefill = perf()
        for line in prefill:
            submit(line)
        prefill_s = perf() - t_prefill

        feed = SampleFeed(wr, inputs.walk)
        sentinel_ids = [s.message_id for s in inputs.sentinels]
        # Restarts fall between rounds, spread over the run, the last after
        # the close-out. A restart loses the open capture, so the first
        # sentinel after each one starts a new capture.
        restart_after = {round((i + 1) * rounds / sizes.restarts) for i in range(sizes.restarts)}
        fired = seg_first = 0

        def segment_reader(after_round: int) -> PlaybackReader:
            """Reads until the PLAYBACK of the last sentinel before the next restart."""
            until = min(r for r in restart_after if r > after_round)
            return PlaybackReader(conn_r, sentinel_ids, sentinel_ids[until * per_round - 1])

        reader = segment_reader(0)
        chunk, chunk_s, latencies, late, restarts = sizes.burst_chunk, [], [], [], []

        def end_segment() -> None:
            if not reader.join(served.IO_TIMEOUT_S):
                out.fail("recipient connection: reader did not finish")
            for why in reader.problems:
                out.fail(why)
            missing = [mid for mid in sentinel_ids[seg_first:fired] if mid not in reader.arrivals]
            if missing:
                out.fail(f"{len(missing)} sentinels never played back", len(missing))
            out.check(reader.first_capture is not None, "no REACTION_START after a restart")

        acks = []
        for r in range(1, rounds + 1):
            # The round's sentinels are submitted as it starts, so that the
            # timed SUBMITs spread over the run like everything else.
            acks += [submit(line) for line in sentinel_lines[fired:fired + per_round]]
            # Burst: the whole chunk at once; its last sample shows a sentinel
            # whose PLAYBACK is the barrier.
            data = b"".join([feed.next() for _ in range(chunk - 1)] + [feed.next(f"fire{fired}")])
            run.speed.start()  # a lap for the burst, one for the open loop; each scales its own times
            t0 = perf()
            conn_r.send(data)
            arrived = reader.wait(sentinel_ids[fired])
            fired += 1
            out.ops(chunk)
            if arrived is None:
                break
            chunk_s.append(Lap(arrived - t0, run.speed.lap().factor))
            # Open loop: samples due at a fixed rate, sent when due however
            # late the replies are; latency counts from each due time.
            segment, due_ids = [], []
            for i in range(sizes.paced_per_round):
                if i % sizes.fire_every == sizes.fire_every - 1:
                    due_ids.append((i, sentinel_ids[fired]))
                    segment.append(feed.next(f"fire{fired}"))
                    fired += 1
                else:
                    segment.append(feed.next())
            t_start = perf() + 0.01
            for i, line in enumerate(segment):
                due = t_start + i / sizes.paced_rate
                wait = due - perf()
                if wait > 0:
                    time.sleep(wait)
                late.append(perf() - due)
                conn_r.send(line)
            out.ops(len(segment))
            round_latencies = []
            for i, mid in due_ids:
                arrived = reader.wait(mid)
                if arrived is None:
                    break
                round_latencies.append(arrived - (t_start + i / sizes.paced_rate))
            factor = run.speed.lap().factor
            latencies += [Lap(t, factor) for t in round_latencies]
            if r in restart_after and r < rounds:
                end_segment()
                conn_s.close()
                conn_r.close()
                conn_s = conn_r = None
                restarts.append(restart(run, server, SENDER))
                conn_s, conn_r = served.Conn(server.port), served.Conn(server.port)
                say_hello(run, conn_s, "sender", SENDER)
                say_hello(run, conn_r, "recipient", RECIPIENT)
                seg_first = fired
                reader = segment_reader(r)
        end_segment()
        timed = chunk_s[1:] or chunk_s

        # Close-out: the wearer declines the capture that every later delivery
        # since the last restart queued behind.
        first = reader.first_capture
        declined = first["message_id"] if first is not None else None
        if first is not None:
            consent = served.frame("CONSENT", {"message_id": declined, "answer": "no",
                                               "t": first["deadline"]}, RECIPIENT)
            out.ops()
            reply = conn_r.request(consent)
            out.check(reply["kind"] == "ACK", f"CONSENT answered {reply}")
            if fired - seg_first > 1:
                out.check(conn_r.recv()["kind"] == "REACTION_START", "next capture did not start")

        expected = {m.message_id: "Pending" for m in inputs.pending + inputs.sentinels}
        expected.update({mid: "Delivered" for mid in sentinel_ids[:fired]})
        expected[declined] = "ReactionDeclined"
        view = {mid: r["state"] for mid, r in sender_view(run, conn_s, SENDER).items()}
        out.check(view == expected, "deep_queue: delivered set is not exactly the fired sentinels")
        peak = server.vm_hwm_mb()
        conn_s.close()
        conn_r.close()
        conn_s = conn_r = None
        restarts.append(restart(run, server, SENDER))
        conn_s = served.Conn(server.port)
        say_hello(run, conn_s, "sender", SENDER)
        again = {mid: r["state"] for mid, r in sender_view(run, conn_s, SENDER).items()}
        out.check(again == expected, "deep_queue: states changed across restart")
    finally:
        for c in (conn_s, conn_r):
            if c is not None:
                c.close()
        server.stop()
    run.meta["series"] = {"chunk_s": raw(chunk_s), "chunk_scaled_s": scaled(chunk_s),
                          "latency_s": raw(latencies), "latency_scaled_s": scaled(latencies), "ack_s": acks,
                          "restart_s": raw(restarts), "restart_scaled_s": scaled(restarts)}
    capacity = chunk * len(timed) / sum(raw(timed))
    run.meta.update(
        pending=len(inputs.pending), sentinels=len(inputs.sentinels), samples=feed.count,
        rounds=rounds, burst_samples=chunk * len(chunk_s), paced_samples=rounds * sizes.paced_per_round,
        offered_rate=sizes.paced_rate, firing_share=1.0 / sizes.fire_every, prefill_s=round(prefill_s, 4),
        submit_ack_p50_ms=ms(statistics.median(acks)), latency_p90_ms=ms(pct(raw(latencies), 90)),
        capacity_per_s=round(capacity, 2), utilization=round(sizes.paced_rate / capacity, 3),
        gen_late_ms={"p50": round(ms(statistics.median(late)), 3), "p99": round(ms(pct(late, 99)), 3),
                     "max": round(ms(max(late)), 3)},
    )
    laps = {"setups": setups, "units": timed, "work": chunk * len(timed), "latencies": latencies,
            "restarts": restarts}
    return metrics_from(laps, peak, run)


def deep_queue_script(run: Run) -> tuple[list[tuple], dict[str, Any]]:
    """The deep_queue frames, shortened: two burst chunks, then the paced mix."""
    wr, sizes = run.wr, run.sizes
    n = sizes.trace_deep_contexts
    burst = min(64, n // 4)
    n_sentinels = 2 + (n - burst) // sizes.fire_every
    inputs = deep_inputs(run, n_sentinels)
    script: list[tuple] = [("open", "sender", SENDER), ("open", "recipient", RECIPIENT)]
    for msg in inputs.pending + inputs.sentinels:
        script.append(("frame", SENDER, "SUBMIT", submit_line(wr, msg)))
    feed = SampleFeed(wr, inputs.walk)
    fired = 0
    first_t = None
    for i in range(n):
        if i < burst:
            fire = i in (burst // 2 - 1, burst - 1)
        else:
            fire = (i - burst) % sizes.fire_every == sizes.fire_every - 1
        line = feed.next(f"fire{fired}" if fire else None)
        if fire:
            first_t = first_t or feed.last_t
            fired += 1
        script.append(("frame", RECIPIENT, "CONTEXT", line))
    deadline = wr.timeutil.format_rfc3339(first_t + timedelta(seconds=CAPTURE_S))
    consent = served.frame("CONSENT", {"message_id": inputs.sentinels[0].message_id, "answer": "no",
                                       "t": deadline}, RECIPIENT)
    script.append(("frame", RECIPIENT, "CONSENT", served.encode(consent)))
    script.append(("end", feed.last_t + timedelta(seconds=1)))
    script.append(("frame", SENDER, "SENDER_VIEW_REQ",
                   served.encode(served.frame("SENDER_VIEW_REQ", {"sender_id": SENDER}, SENDER))))
    return script, {"pending": len(inputs.pending), "sentinels": len(inputs.sentinels)}


# =====================================================================================
# durable_churn
# =====================================================================================

@dataclass
class Cycle:
    submit: bytes
    context: bytes
    msg: Any
    t: datetime
    reaction: Callable[[str], tuple[bytes, bytes]]  # (REACTION_FRAME, CONSENT) given the deadline


COORD_KEYS = {"lat", "lon", "position", "visible_markers", "geofence", "center", "marker", "marker_id"}
NUMBER = re.compile(rb"-?\d+\.\d+")


class Churn:
    """The cycle script: message k, the sample that fires it, a reaction, consent.

    Even-numbered pairs of cycles send direct messages, odd ones a marker
    message shown by the next sample; consent alternates yes/no. Sender
    principals rotate every ``block_cycles`` cycles, and each sender asks for
    its own view once its block is done, so views stay the same size.
    """

    def __init__(self, run: Run):
        self.run = run
        wr = run.wr
        self.rng = random.Random(run.seed)
        # The tick outlasts a capture (10 s), so each cycle's capture is over
        # before the next sample arrives.
        self.walk = make_walk(wr, self.rng, tick=12.0, duration_s=12.0 * 200_000)
        self.stream = wr.sim.sample_stream(self.walk.scenario, self.walk.recipient)
        self.ids = wr.ids.IdFactory(run.seed)
        self.content = [c.content_id for c in wr.model.catalog()]
        self.coords: set[bytes] = set()
        self.declined: set[str] = set()
        self.expect: dict[str, str] = {}  # message id -> final state

    def sender(self, k: int) -> str:
        return f"sender-{k // self.run.sizes.block_cycles}"

    def cycle(self, k: int) -> "Cycle":
        wr, m = self.run.wr, self.run.wr.model
        sample = next(self.stream)
        marker = f"mrk-{k}" if (k // 2) % 2 else None
        schedule = m.TriggerSchedule(marker=m.MarkerCondition(marker_id=marker)) if marker else None
        note = m.VoiceNote(duration=round(self.rng.uniform(0.5, 9.5), 1), transcript=f"note {k}")
        msg = m.compose(self.sender(k), RECIPIENT, self.rng.choice(self.content), 1.0, note, schedule,
                        now=sample.t - timedelta(seconds=1), id_factory=self.ids)
        self.coords.update(repr(v).encode() for v in (sample.lat, sample.lon))
        yes = k % 2 == 0
        transcript = f"utt-{self.run.seed}-{k}"
        if not yes:
            self.declined.add(transcript)
        self.expect[msg.message_id] = "Reacted" if yes else "ReactionDeclined"
        fmt = wr.timeutil.format_rfc3339

        def reaction(deadline: str) -> tuple[bytes, bytes]:
            mid = msg.message_id
            rf = served.frame("REACTION_FRAME", {"message_id": mid, "t": fmt(sample.t + timedelta(seconds=2)),
                                                 "transcript": transcript}, RECIPIENT)
            cf = served.frame("CONSENT", {"message_id": mid, "answer": "yes" if yes else "no",
                                          "t": deadline}, RECIPIENT)
            return served.encode(rf), served.encode(cf)

        return Cycle(submit_line(wr, msg), context_line(wr, sample, marker), msg, sample.t, reaction)

    def check_view(self, view: dict[str, dict], ids: list[str]) -> bool:
        ok = set(view) == set(ids)
        for mid in ids:
            rec = view.get(mid, {})
            ok &= rec.get("state") == self.expect[mid]
            if self.expect[mid] == "Reacted":
                ok &= rec.get("reaction", {}).get("consent") == "Yes"
        return ok

    def check_private(self, sender_bytes: list[bytes]) -> bool:
        """No coordinate, marker id or declined transcript ever reached a sender."""
        ok = True
        for line in sender_bytes:
            ok &= b"mrk-" not in line
            ok &= not any(n in self.coords for n in NUMBER.findall(line))
            stack = [json.loads(line)]
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    ok &= not (COORD_KEYS & node.keys())
                    ok &= node.get("transcript") not in self.declined
                    stack.extend(node.values())
                elif isinstance(node, list):
                    stack.extend(node)
        return ok


def durable_churn(run: Run) -> dict[str, float]:
    wr, sizes, out = run.wr, run.sizes, run.outcome
    setups = []
    server = conn_s = conn_r = None
    for i in range(sizes.setups):
        for c in (conn_s, conn_r):
            if c is not None:
                c.close()
        if server is not None:
            server.stop()
        run.speed.start()
        churn = Churn(run)
        server = start_server(run, f"churn-serve{i}")
        conn_s, conn_r = served.Conn(server.port), served.Conn(server.port)
        say_hello(run, conn_s, "sender", churn.sender(0))
        say_hello(run, conn_r, "recipient", RECIPIENT)
        setups.append(run.speed.lap())

    acks, playbacks, reactions, blocks, sender_bytes, restarts = [], [], [], [], [], []
    block_playbacks: list[float] = []
    views: dict[str, list[str]] = {}
    peak = None
    # A fixed number of cycles, so the journal that restarts recover and the
    # memory it takes do not grow with the speed of the server. Restarts fall
    # on block ends spread over the run, the last at its end.
    block = sizes.block_cycles
    n_blocks = max(1, int(sizes.cycles_per_second * run.seconds) // block)
    n_cycles = n_blocks * block
    restart_at = {round((i + 1) * n_blocks / sizes.restarts) * block for i in range(sizes.restarts)}
    try:
        k = 0
        hard_stop = perf() + 3.0 * run.seconds
        while k < n_cycles and perf() < hard_stop:
            sender = churn.sender(k)
            if conn_s is None:
                conn_s = served.Conn(server.port)
                say_hello(run, conn_s, "sender", sender)
            if conn_r is None:
                conn_r = served.Conn(server.port)
                say_hello(run, conn_r, "recipient", RECIPIENT)
            if k % block == 0:
                run.speed.start()  # one lap per block; its factor scales the block's playbacks
            cyc = churn.cycle(k)
            msg = cyc.msg
            views.setdefault(sender, []).append(msg.message_id)
            out.ops(4)
            t0 = perf()
            conn_s.send(cyc.submit)
            line = conn_s.recv_line()
            acks.append(perf() - t0)
            sender_bytes.append(line)
            if b'"kind":"ACK"' not in line:
                out.fail(f"SUBMIT answered {line[:200]!r}")
            t0 = perf()
            conn_r.send(cyc.context)
            played = conn_r.recv()
            block_playbacks.append(perf() - t0)
            # The wearer speaks once playback starts, without waiting for
            # REACTION_START: the utterance's time is known from the sample.
            rf, _ = cyc.reaction("")
            t0 = perf()
            conn_r.send(rf)
            start, ack = conn_r.recv(), conn_r.recv()
            reactions.append(perf() - t0)
            if played["kind"] != "PLAYBACK" or played["payload"]["message_id"] != msg.message_id \
                    or start["kind"] != "REACTION_START" or ack["kind"] != "ACK":
                out.fail(f"cycle {k}: expected PLAYBACK, REACTION_START and ACK, got "
                         f"{played['kind']}, {start['kind']}, {ack['kind']}")
                break
            _, cf = cyc.reaction(start["payload"]["deadline"])
            conn_r.send(cf)
            reply = conn_r.recv()
            if reply["kind"] != "ACK":
                out.fail(f"cycle {k}: CONSENT answered {reply}")
            k += 1
            if k % block == 0:
                lap = run.speed.lap()
                blocks.append(lap)
                playbacks += [Lap(t, lap.factor) for t in block_playbacks]
                block_playbacks = []
                view = sender_view(run, conn_s, sender, sender_bytes)
                out.check(churn.check_view(view, views[sender]), f"view of {sender} is wrong")
                conn_s.close()
                conn_s = None
                if k in restart_at:
                    if peak is None:
                        peak = server.vm_hwm_mb()
                    conn_r.close()
                    conn_r = None
                    restarts.append(restart(run, server, sender))
        out.check(k == n_cycles, f"durable_churn stopped after {k} of {n_cycles} cycles")
        if conn_s is not None:
            sender = churn.sender(k - 1)
            view = sender_view(run, conn_s, sender, sender_bytes)
            out.check(churn.check_view(view, views[sender]), f"view of {sender} is wrong")
        if peak is None:
            peak = server.vm_hwm_mb()
        for c in (conn_s, conn_r):
            if c is not None:
                c.close()
        conn_s = conn_r = None
        if k not in restart_at:
            restarts.append(restart(run, server, churn.sender(0)))
        for sender, ids in views.items():
            conn_s = served.Conn(server.port)
            say_hello(run, conn_s, "sender", sender)
            view = sender_view(run, conn_s, sender, sender_bytes)
            out.check(churn.check_view(view, ids), f"view of {sender} changed across restart")
            conn_s.close()
            conn_s = None
        out.check(churn.check_private(sender_bytes), "a sender saw a coordinate, marker id or declined transcript")
    finally:
        for c in (conn_s, conn_r):
            if c is not None:
                c.close()
        server.stop()
    run.meta["series"] = {"block_s": raw(blocks), "ack_s": acks, "playback_s": raw(playbacks),
                          "playback_scaled_s": scaled(playbacks), "reaction_s": reactions,
                          "restart_s": raw(restarts), "restart_scaled_s": scaled(restarts)}
    run.meta.update(cycles=k, cycles_planned=n_cycles, samples=k, senders=len(views), pending=0, firing_share=1.0,
                    submit_ack_p50_ms=ms(statistics.median(acks)), latency_p90_ms=ms(pct(raw(playbacks), 90)),
                    block_cycles=sizes.block_cycles)
    # A cycle waits about 40 ms on the client's delayed-ACK timer (see
    # NOTES.md), which host speed does not change, so cycles per second are
    # reported as measured.
    laps = {"setups": setups, "units": blocks, "work": block * len(blocks), "latencies": playbacks,
            "restarts": restarts}
    return metrics_from(laps, peak, run, unscaled=("context_samples_per_s",))


def durable_churn_script(run: Run) -> tuple[list[tuple], dict[str, Any]]:
    """The churn cycles as a replay script."""
    churn = Churn(run)
    wr = run.wr
    n, block = run.sizes.trace_cycles, run.sizes.block_cycles
    script: list[tuple] = [("open", "recipient", RECIPIENT)]
    for k in range(n):
        sender = churn.sender(k)
        if k % block == 0:
            script.append(("open", "sender", sender))
        cyc = churn.cycle(k)
        script.append(("frame", sender, "SUBMIT", cyc.submit))
        script.append(("frame", RECIPIENT, "CONTEXT", cyc.context))
        # The capture deadline is the delivery time plus the capture length.
        rf, cf = cyc.reaction(wr.timeutil.format_rfc3339(cyc.t + timedelta(seconds=CAPTURE_S)))
        script.append(("frame", RECIPIENT, "REACTION_FRAME", rf))
        script.append(("frame", RECIPIENT, "CONSENT", cf))
        if (k + 1) % block == 0 or k == n - 1:
            req = served.frame("SENDER_VIEW_REQ", {"sender_id": sender}, sender)
            script.append(("frame", sender, "SENDER_VIEW_REQ", served.encode(req)))
    return script, {"cycles": n, "pending": 0}


WORKLOADS: dict[str, tuple[Callable[[Run], dict[str, float]], Callable[[Run], tuple[list[tuple], dict]]]] = {
    "pairs12": (pairs12, pairs12_script),
    "deep_queue": (deep_queue, deep_queue_script),
    "durable_churn": (durable_churn, durable_churn_script),
}
