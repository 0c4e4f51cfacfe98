"""``tools/line_counts.py`` counts code and docstring+comment lines by
its stated rule, on a module whose counts are known."""

import importlib.util
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "line_counts.py"

# Docstrings: the module's 2 lines, f's 1 and C's 2; comment lines: 3.
# Code: the import (with its trailing comment), the two def lines, the
# class line, the three lines of the string, the two of the bracketed
# expression and the last return.  Blank lines count as neither.
SOURCE = '''"""Module docstring
on two lines."""

import os  # a trailing comment is code

# a comment line
#   and another


def f(x):
    """One-line docstring."""
    # a comment inside
    text = """a string
that spans
three lines"""
    return (x +
            len(text) + len(os.sep))


class C:
    """Class
    docstring."""

    def g(self):
        return "not a docstring"
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("line_counts", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_of_a_known_module():
    assert _load_tool().count(SOURCE) == (10, 8)


def test_total_over_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# one comment\n")
    assert _load_tool().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1].split()[:3] == ["11", "9", "total"]
