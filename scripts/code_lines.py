"""Count the code lines of Python source files.

A line counts when it carries a token other than a comment, a newline or
an indent, and lies in no docstring: the first statement of a module,
class or function, when that statement is a string.  Blank lines, comment
lines and docstrings are free; every line of a statement that spans lines
counts, a string continued over lines included.

Usage::

    python scripts/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py`` files
(not recursively); the default is the package, ``src/gmfrac``.  Prints one
``count  path`` line per file, then the total.  Needs only the standard
library.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "gmfrac"

# the tokens that make no line a code line
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def _files(paths):
    for path in paths:
        path = Path(path)
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or [DEFAULT]
    total = 0
    for path in _files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
