"""The benchmark still finds what it uses of the program.

``bench/tracing.py`` swaps functions by their module attribute names and
reads their arguments and results, and ``bench/workloads.py`` builds samples
with ``dataclasses.replace``, so a rename or a change of signature or type in
``src/`` would otherwise break only benchmark runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import types
from datetime import datetime
from pathlib import Path

from wandrelay import protocol
from wandrelay.engine import ContextSample, sample_from_dict, sample_to_dict
from wandrelay.model import Geofence, MarkerCondition, TriggerSchedule
from wandrelay.service import DeliveryService
from wandrelay.timeutil import UTC

from client import ids_of, push, submit
from genrandom import lat_off, lon_off
from test_service import make_message, sample

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program() -> types.SimpleNamespace:
    """The modules the benchmark traces, by the names it imports them under."""
    return types.SimpleNamespace(**{name: importlib.import_module(f"wandrelay.{name}") for name in load("run").MODULES})


def test_tracer_installs_on_the_program_and_uninstalls():
    tracer = load("tracing").Tracer()
    try:
        tracer.install(program())  # AttributeError if a name is gone
        swapped = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert swapped
    for owner, attr, original in swapped:
        assert inspect.getattr_static(owner, attr) is original, f"{attr} not restored"


def test_a_context_sample_takes_dataclasses_replace():
    """deep_queue and durable_churn show a marker by replacing a sample's ``visible_markers``."""
    sample = ContextSample("r1", datetime(2021, 6, 5, 9, 0, 0, 250000, tzinfo=UTC), 40.5, -100.25, True)
    shown = dataclasses.replace(sample, visible_markers=frozenset({"m2", "m1"}))
    assert sample.visible_markers == frozenset()
    assert sample_to_dict(shown) == {
        "recipient_id": "r1",
        "t": "2021-06-05T09:00:00.25Z",
        "position": {"lat": 40.5, "lon": -100.25},
        "wearing": True,
        "visible_markers": ["m1", "m2"],
    }
    assert sample_from_dict(sample_to_dict(shown)) == shown


def test_the_tracer_counts_the_candidates_and_deliveries_of_a_context_sample():
    """The evaluate span reads ``evaluate_sample``'s candidates argument and its fired list."""
    service = DeliveryService()
    service.register_principal("s1")
    service.register_principal("r1")
    direct = [make_message(seed=1), make_message(seed=2)]
    # Filed under its marker, so a candidate when "mk" is seen, but its fence is 500 m away.
    fence = Geofence(lat=lat_off(500.0), lon=lon_off(0.0), radius=10.0)
    far = TriggerSchedule(marker=MarkerCondition("mk"), geofence=fence)
    for message in [*direct, make_message(far, seed=3)]:
        submit(service, message)
    tracer = load("tracing").Tracer()
    try:
        tracer.install(program())
        frames = push(service, sample(markers=("mk",)))
    finally:
        tracer.uninstall()
    playbacks = ids_of(frames, protocol.PLAYBACK)
    assert sorted(playbacks) == sorted(m.message_id for m in direct)
    assert tracer.counts["engine.deliveries"] == len(playbacks)
    assert tracer.counts["engine.evaluate_scanned"] == 3
