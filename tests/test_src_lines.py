"""``tools/src_lines.py``: the line counts by kind that ROADMAP tracks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

with a blank line inside."""

# a comment line
x = 1  # code with a trailing comment


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        return x
'''


def test_count_splits_code_docstring_comment_and_blank():
    assert src_lines.count(SOURCE) == {"code": 4, "docstring": 6, "comment": 1, "blank": 4}


def test_module_rows_sum_to_the_newline_count(capsys):
    # wc -l counts newlines; every module ends with one, so its rows are its lines
    files = sorted((ROOT / "src" / "nonadd").glob("*.py"))
    newlines = sum(path.read_bytes().count(b"\n") for path in files)
    assert src_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == [p.name for p in files] + ["total"]
    *modules, total = [[int(v) for v in r[1:]] for r in rows]
    assert [sum(col) for col in zip(*modules)] == total
    assert total[0] == newlines == sum(total[1:])
