"""Count the lines of the package source by kind, and its keywords.

    python3 tools/src_lines.py [--markdown] [DIR]

Splits every ``*.py`` file under ``DIR`` (default ``src/nonadd``) into
lines of code, docstring, comment and blank, and prints one row per module
and a total.  A docstring line lies within the string that opens a module,
class or function body (found with ``ast``), blank lines inside it
included; a comment line holds nothing but a ``#`` comment; a blank line
holds only whitespace; every other line is code.  The ``keywords`` column
counts the parameters with a default of the public module-level functions
and of the public methods of public classes (a public name does not start
with ``_``): the options the public API offers.  ``--markdown`` prints the
table in Markdown, for a CI step summary.  Any other option, a second
``DIR`` or a ``DIR`` with no ``*.py`` prints a one-line usage and exits 2.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the docstrings of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Lines of ``text`` (Python source) by kind."""
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif not stripped:
            out["blank"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def keywords(text: str) -> int:
    """Defaulted parameters of the public functions and of the public
    methods of public classes of ``text`` (Python source)."""
    def public(nodes, kind):
        return [n for n in nodes if isinstance(n, kind) and not n.name.startswith("_")]

    body = ast.parse(text).body
    functions = public(body, FUNCTIONS)
    for cls in public(body, ast.ClassDef):
        functions += public(cls.body, FUNCTIONS)
    return sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
               for f in functions)


def usage(reason: str) -> int:
    print(f"usage: python3 tools/src_lines.py [--markdown] [DIR] ({reason})", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    markdown = "--markdown" in argv
    args = [a for a in argv if a != "--markdown"]
    if any(a.startswith("-") for a in args) or len(args) > 1:
        return usage(f"unexpected {' '.join(args)!r}")
    base = Path(args[0]) if args else ROOT / "src" / "nonadd"
    paths = sorted(base.glob("*.py"))
    if not paths:
        return usage(f"no *.py in {str(base)!r}")
    rows = []
    for path in paths:
        text = path.read_text()
        kinds = count(text)
        rows.append([path.name, sum(kinds.values()), *kinds.values(), keywords(text)])
    rows.append(["total", *(sum(col) for col in list(zip(*rows))[1:])])
    header = ("module", "lines") + KINDS + ("keywords",)
    table = [header] + [tuple(map(str, row)) for row in rows]
    if markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in table[1:]:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            print("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                            for i, (cell, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
