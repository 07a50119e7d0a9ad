"""List the statements of the package that no CLI run of the fixtures reaches.

Run from the repository root, under any Python the package supports:

    PYTHONPATH=src python tests/unreached.py

It needs only the standard library.  It replays every golden case
(``make_goldens.run_case``) and every error-corpus run
(``make_error_corpus.run_text``) in this process, with a ``sys.settrace``
hook that records the lines run in frames of ``src/snckit``; the package
is imported under the hook, so its module-level statements count too.

It prints, per module, the executable statements that no run reached,
each as its line number and first line, then the total.  Docstrings and
``def``, ``class``, ``import`` and ``global`` lines are left out.  A
statement is reached when a line it spans runs; for a compound statement
(``if``, ``for``, ``try`` ...) those are the lines of its header, or the
lines of the first statement of its body, since some headers (``try:``,
``while True:``) run no code of their own.  What is left is code only
the Python API, the tests or nothing at all reaches.
"""
from __future__ import annotations

import ast
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "snckit"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def _docstrings(tree: ast.Module) -> set[ast.stmt]:
    """The expression statements that are docstrings."""
    return {node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement, or of a compound statement's header."""
    body = getattr(stmt, "body", None)
    if body and isinstance(body, list):
        return range(stmt.lineno, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _reached(stmt: ast.stmt, ran: set[int]) -> bool:
    if any(line in ran for line in _own_lines(stmt)):
        return True
    body = getattr(stmt, "body", None)
    return bool(body) and isinstance(body, list) and _reached(body[0], ran)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, first line's text) of each statement of a module no run reached."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    skip = _docstrings(tree)
    lines = text.splitlines()
    return sorted((stmt.lineno, lines[stmt.lineno - 1].strip())
                  for stmt in ast.walk(tree)
                  if isinstance(stmt, ast.stmt) and not isinstance(stmt, SKIPPED)
                  and stmt not in skip and not _reached(stmt, ran))


def trace_runs() -> dict[str, set[int]]:
    """Line numbers run per file of the package, over every golden case and
    every error-corpus run."""
    ran: dict[str, set[int]] = {}
    # each code file name, relative or not, as the path it names, or None
    # outside the package
    files: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = str(path) if path.parent == SOURCE else None
            if files[name]:
                ran.setdefault(files[name], set())
        return local if files[name] else None

    sys.path.insert(0, str(HERE))
    sys.settrace(hook)
    try:
        from make_error_corpus import CORPUS, document_text, run_text
        from make_goldens import cases, run_case

        for _, path, command in cases():
            run_case(path, command)
        with tempfile.TemporaryDirectory() as tmp:
            for case in json.loads(CORPUS.read_text(encoding="utf-8")):
                text = document_text(case)
                for command in case["runs"]:
                    run_text(text, command, Path(tmp))
    finally:
        sys.settrace(None)
    return ran


def main() -> None:
    ran = trace_runs()
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        missed = unreached(path, ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached")
        for line, text in missed:
            print(f"  {line:4d}  {text}")
    print(f"{total} statements unreached by the golden cases and the error corpus")


if __name__ == "__main__":
    main()
