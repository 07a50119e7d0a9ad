"""Replay the error corpus with the standard library alone.

Run from the repository root, under any Python the package supports:

    PYTHONPATH=src python tests/corpus_check.py [--subprocess]

It needs neither pytest nor hypothesis.  Every run recorded in
``tests/fixtures/error_corpus.json`` goes through the CLI again: in this
process, called from a shallow stack, or with ``--subprocess`` as
``python -m snckit.cli`` under this interpreter.  It prints each run whose
exit code, stderr or stdout digest differs from the record and exits 1 if
any does.  ``tests/test_goldens.py`` replays the corpus inside the suite.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from make_error_corpus import CORPUS, document_text, run_text


def run_subprocess(text: str, command: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stderr and stdout digest of ``python -m snckit.cli``."""
    path = workdir / "doc.json"
    path.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-m", "snckit.cli", "--input", str(path),
                           "--command", command, "--emit", "both"],
                          capture_output=True, env=env)
    return (done.returncode, done.stderr.decode("utf-8"),
            hashlib.sha256(done.stdout).hexdigest())


def main(argv: list[str]) -> int:
    run = run_subprocess if argv == ["--subprocess"] else run_text
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    runs = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in corpus:
            text = document_text(case)
            for command, want in case["runs"].items():
                got = run(text, command, Path(tmp))
                runs += 1
                if got != (want["exit"], want["stderr"], want["stdout_sha256"]):
                    differ += 1
                    print(f"{case['name']}.{command}: got exit {got[0]}, {got[1]!r}; "
                          f"recorded exit {want['exit']}, {want['stderr']!r}")
    print(f"Python {sys.version.split()[0]}: {runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
