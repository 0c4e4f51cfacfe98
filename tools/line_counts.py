"""Count code lines and docstring and comment lines of Python sources.

Usage, from the root of a checkout::

    python3 tools/line_counts.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for
them; the default is ``src/euler_spectra``.  Prints one line per file
and a total, each with its code lines and its docstring and comment
lines.  Blank lines count as neither.

- A docstring line is a line of the docstring of a module, class or
  function (``ast``).
- A comment line is a line with a comment token and no other token
  but line ends and indentation (``tokenize``).
- A code line is any other line that a token other than a comment,
  a line end or indentation starts, ends or spans.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(code, docs)`` line counts of the Python ``source``; ``docs``
    counts docstring and comment lines."""
    docstrings = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.COMMENT:
            comments.update(rows)
        elif token.type not in _LAYOUT:
            code.update(rows)
    code -= docstrings
    return len(code), len(docstrings | (comments - code))


def sources(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/euler_spectra"]
    total_code = total_docs = 0
    for path in sources(paths):
        code, docs = count(path.read_text())
        total_code += code
        total_docs += docs
        print(f"{code:6d} {docs:6d}  {path}")
    print(f"{total_code:6d} {total_docs:6d}  total (code, docstring+comment)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
