"""Count the lines of the package's source by kind.

Run from the repository root, under any Python the package supports:

    python tests/source_lines.py [FILE ...]

With no FILE it counts ``src/snckit/*.py``.  It needs only the standard
library.  Each line is counted once, as the first of these kinds it is:

- docstring: a line of the docstring of a module, class or function, from
  its opening quotes to its closing quotes;
- comment: a line whose first character other than blanks is ``#``;
- blank: a line of blanks only;
- code: every other line.

It prints the total and the four counts on one line, so that a size quoted
anywhere in the project is the one this script prints.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "snckit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The numbers of the lines that docstrings span."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in one module's text."""
    docs = docstring_lines(ast.parse(text))
    kinds = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "comment" if stripped.startswith("#")
                else "blank" if not stripped else "code")
        kinds[kind] += 1
    return kinds


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted(SOURCE.glob("*.py"))
    total = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in paths:
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            total[kind] += n
    print(f"{sum(total.values())} lines: " + ", ".join(f"{n} {kind}"
                                                     for kind, n in total.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
