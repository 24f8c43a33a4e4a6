from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SNIPPET = '''"""Module docstring."""

import os  # a trailing comment does not hide the code


def f(x):
    """Function docstring,
    on two lines."""
    # a comment line
    y = (x +
         1)
    s = """a string that is not a docstring
    spans two lines"""
    return y, s


class C:
    "Class docstring."
    z = 1
'''


def test_counts_code_lines_only():
    # import, def, the two lines of y, the two of s, return, class, z
    assert sloc.sloc(SNIPPET) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["10", "total"],
    ]


@pytest.mark.parametrize("args", [[], ["--help"], ["missing.py"]])
def test_no_path_or_a_missing_one_prints_the_usage(tmp_path, capsys, args):
    argv = [str(tmp_path / a) if a.endswith(".py") else a for a in args]
    assert sloc.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("Usage: python tools/sloc.py PATH") and "Traceback" not in err
