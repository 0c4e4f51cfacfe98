"""Every name a module imports is used in it.

No linter is part of the toolchain, so this check stands in for the
unused-import rule over the package and the tests.  A name listed in
``__all__``, or imported on a line marked ``# noqa``, counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "euler_spectra").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and "# noqa" not in lines[line - 1])


def test_finds_unused_and_honours_exemptions():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(dumps)\n")
    assert unused_imports(source) == [(1, "os"), (3, "osp")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
