"""Record the golden CLI outputs that tests/test_goldens.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_goldens.py

It writes the seeded dense-Picard input documents to
``tests/fixtures/golden/inputs/`` and, for every case, the exit code, stdout
and stderr of ``snckit --emit both`` to ``tests/fixtures/golden/``.  The
cases are every fixture document under every command, plus each dense-Picard
document under ``kh-report`` and ``k-report``.  Record goldens only from a
commit whose output is known to be right: the test treats them as the
truth.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden"
INPUTS = GOLDEN / "inputs"
FIXTURE_DOCUMENTS = ("parallel_edges", "sphere4", "triangle_cycle")
DENSE_RANKS = tuple(6 + 2 * (seed % 6) for seed in range(12))
DENSE_COMMANDS = ("kh-report", "k-report")


def cases() -> list[tuple[str, Path, str]]:
    """(case name, input document, command) for every golden case."""
    from snckit.cli import COMMANDS

    out = [(f"{name}.{command}", FIXTURES / f"{name}.json", command)
           for name in FIXTURE_DOCUMENTS for command in COMMANDS]
    for seed in range(len(DENSE_RANKS)):
        name = f"dense-picard-{seed:02d}"
        out.extend((f"{name}.{command}", INPUTS / f"{name}.json", command)
                   for command in DENSE_COMMANDS)
    return out


def run_case(path: Path, command: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    from snckit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--input", str(path), "--command", command, "--emit", "both"])
    return rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def main() -> None:
    sys.path.insert(0, str(HERE))
    from helpers import dense_picard_document

    INPUTS.mkdir(parents=True, exist_ok=True)
    for seed, rank in enumerate(DENSE_RANKS):
        doc = dense_picard_document(random.Random(seed), rank)
        (INPUTS / f"dense-picard-{seed:02d}.json").write_text(
            json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    codes = {}
    for name, path, command in cases():
        rc, out, err = run_case(path, command)
        codes[name] = rc
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
