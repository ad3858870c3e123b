"""``tools/src_lines.py``: the line counts by kind and the keyword count
that ROADMAP tracks."""

import importlib.util
from pathlib import Path

import pytest

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


KEYWORD_SOURCE = '''
def public(a, b=1, *args, c, d=2, **kw):
    pass


def _private(a=1):
    pass


class Public:
    def __init__(self, a=1):
        pass

    def method(self, a, b=2, *, c=3):
        def inner(x=1):
            pass

    def _helper(self, a=1):
        pass

    @classmethod
    def build(cls, a=1):
        pass


class _Private:
    def method(self, a=1):
        pass
'''


def test_count_splits_code_docstring_comment_and_blank():
    assert src_lines.count(SOURCE) == {"code": 4, "docstring": 6, "comment": 1, "blank": 4}


def test_keywords_count_the_defaults_of_the_public_api():
    # public's b and d, Public.method's b and c, Public.build's a: no dunder,
    # private, nested or private-class function counts
    assert src_lines.keywords(KEYWORD_SOURCE) == 5
    assert src_lines.keywords(SOURCE) == 0


def test_module_rows_sum_to_the_newline_count(capsys):
    # wc -l counts newlines; every module ends with one, so its rows are its lines
    files = sorted((ROOT / "src" / "nonadd").glob("*.py"))
    newlines = sum(path.read_bytes().count(b"\n") for path in files)
    assert src_lines.main([]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code", "docstring", "comment", "blank", "keywords"]
    assert [r[0] for r in rows] == [p.name for p in files] + ["total"]
    *modules, total = [[int(v) for v in r[1:]] for r in rows]
    assert [sum(col) for col in zip(*modules)] == total
    assert total[0] == newlines == sum(total[1:5])


@pytest.mark.parametrize("argv, reason", [
    (["--help"], "unexpected '--help'"),
    (["--markdown", "-x"], "unexpected '-x'"),
    (["src", "tests"], "unexpected 'src tests'"),
])
def test_unknown_option_prints_usage_and_exits_2(argv, reason, capsys):
    assert src_lines.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage: python3 tools/src_lines.py [--markdown] [DIR] ({reason})\n"


@pytest.mark.parametrize("markdown", [[], ["--markdown"]])
def test_dir_without_python_files_prints_usage_and_exits_2(markdown, tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no modules here\n")
    assert src_lines.main([*markdown, str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage: python3 tools/src_lines.py [--markdown] [DIR] " \
        f"(no *.py in {str(tmp_path)!r})\n"
