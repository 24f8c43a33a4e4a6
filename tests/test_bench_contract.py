"""The benchmark's tracer still finds every name it wraps in the program.

``bench/tracing.py`` swaps functions by their module attribute names, so a
rename in ``src/`` would otherwise break only traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

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
