"""Host speed, measured between timed units, to scale times to a fixed speed.

The shared virtual machine this benchmark was built on runs the same
CPU-bound Python code up to twice as fast or as slow from one stretch of
seconds or minutes to the next, with no CPU steal to show for it; process
CPU time moves with wall time. So the benchmark runs a short reference
slice, plain standard-library Python that does not touch the program,
before and after each timed unit, and scales the unit's wall time by the
reference speed: ``scaled = wall * NOMINAL_SLICE_S / mean(slice before,
slice after)``. A scaled time is the time the unit would have taken on a
host where one slice takes ``NOMINAL_SLICE_S``; the program's own cost is
unchanged by the scaling, the host's drift largely cancels. Every raw wall
time is kept in the result's metadata beside the scaled one.

Each unit is scaled by the slices next to it, not by the run's typical
slice: the host switches between a fast and a slow speed within a run, so
the median slice of a run jumps between the two while the run's times mix
them.

The slices run in the benchmark process while the server, if any, is idle,
so they never compete with the work they calibrate, and they fall outside
every timed interval.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

perf = time.perf_counter

# About the median slice's time on the 2-vCPU host the benchmark was tuned
# on (Python 3.11). Any fixed value works: it only sets the scale in which
# scaled times read.
NOMINAL_SLICE_S = 0.009
SLICE_ROUNDS = 300

_FRAME = {"v": 1, "kind": "CONTEXT", "from": "wearer-1",
          "payload": {"sample": {"t": "2021-06-05T09:00:00Z", "lat": 47.6012345, "lon": -122.3312345,
                                 "worn": True, "visible_markers": ["m1", "m2"]}}}
_T0 = datetime(2021, 6, 5, 9, tzinfo=timezone.utc)


def _reference_round(i: int) -> float:
    """A little of what the program does per frame: JSON, floats, a timestamp."""
    decoded = json.loads(json.dumps(_FRAME, separators=(",", ":")))
    lat = math.radians(decoded["payload"]["sample"]["lat"])
    x = 0.0
    for k in range(24):
        x += math.sin(lat + k * 0.01) * math.cos(lat - k * 0.02)
    stamp = (_T0 + timedelta(seconds=i + x)).isoformat()
    return x + len(stamp)


@dataclass(frozen=True)
class Lap:
    raw_s: float  # wall time of the unit
    factor: float  # NOMINAL_SLICE_S over the mean of the slices around it

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor


class Speed:
    """Reference slices around timed units.

    ``start()`` takes a slice and starts the clock; ``lap()`` stops it,
    takes a slice, and starts the next unit at once, so back-to-back units
    share the slice between them.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._t: float | None = None
        self._before = 0.0

    def _slice(self) -> float:
        t = perf()
        for i in range(SLICE_ROUNDS):
            _reference_round(i)
        elapsed = perf() - t
        self.slices.append(elapsed)
        return elapsed

    def start(self) -> None:
        self._before = self._slice()
        self._t = perf()

    def lap(self) -> Lap:
        if self._t is None:
            raise RuntimeError("lap() before start()")
        raw = perf() - self._t
        after = self._slice()
        lap = Lap(raw, NOMINAL_SLICE_S / ((self._before + after) / 2.0))
        self._before = after
        self._t = perf()
        return lap

    def summary(self) -> dict[str, float]:
        s = self.slices or [0.0]
        return {"slices": len(self.slices), "slice_p50_ms": round(statistics.median(s) * 1000.0, 3),
                "slice_min_ms": round(min(s) * 1000.0, 3), "slice_max_ms": round(max(s) * 1000.0, 3)}
