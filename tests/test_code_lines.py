import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Each line is marked by hand: "+" counts, "-" does not.  The marks are
# stripped before the source is counted.
SOURCE = '''\
- """Module docstring,
- over two lines."""
-
- # a comment line
+ import math  # a comment after code
-
-
+ class Point:
-     """Class docstring."""
-
+     x = 1
+     """A string that is not the first statement."""
-
+     def norm(self):
-         """Function docstring,
-
-         with a blank line inside."""
-         # comment
+         return math.hypot(
+             self.x,
+             0.0,
+         )
-
-
+ async def fetch():
-     r"""Raw docstring."""
+     return 1
-
-
+ def bare():
+     if True:
+         "first in a block, but not of a function"
+     text = """a string
+ over two lines"""
+     total = 1 + \\
+         2
+     return text, total
'''


def _strip(marked):
    lines = [line[2:] for line in marked.splitlines()]
    want = sum(line.startswith("+") for line in marked.splitlines())
    return "\n".join(lines) + "\n", want


def test_counts_a_hand_marked_source():
    source, want = _strip(SOURCE)
    assert want == 19
    assert code_lines.code_lines(source) == want


def test_prints_each_file_and_the_total(tmp_path, capsys):
    source, want = _strip(SOURCE)
    (tmp_path / "a.py").write_text(source, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("y = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        [str(want), str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        [str(want + 1), "total"],
    ]
