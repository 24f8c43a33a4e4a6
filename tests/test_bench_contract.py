"""The benchmark still finds what it uses of the program.

``bench/tracing.py`` swaps functions by their module attribute names, and
``bench/workloads.py`` builds samples with ``dataclasses.replace``, so a
rename or a change of type in ``src/`` would otherwise break only benchmark
runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import types
from datetime import datetime
from pathlib import Path

from wandrelay.engine import ContextSample, sample_from_dict, sample_to_dict
from wandrelay.timeutil import UTC

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_program_and_uninstalls():
    modules = {name: importlib.import_module(f"wandrelay.{name}") for name in load("run").MODULES}
    tracer = load("tracing").Tracer()
    try:
        tracer.install(types.SimpleNamespace(**modules))  # AttributeError if a name is gone
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
