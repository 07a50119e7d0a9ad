"""CLI output stays byte-identical to the recorded goldens.

The goldens (exit code, stdout and stderr of ``--emit both``) were recorded
by tests/make_goldens.py; see that script for the cases.
"""
import json

import pytest

from make_goldens import GOLDEN, INPUTS, cases, input_documents, run_case

CASES = cases()
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_has_a_golden():
    assert sorted(name for name, _, _ in CASES) == sorted(EXIT_CODES)


def test_golden_inputs_regenerate_byte_for_byte():
    docs = input_documents()
    assert sorted(docs) == sorted(p.name for p in INPUTS.iterdir())
    for name, text in docs.items():
        assert text.encode("utf-8") == (INPUTS / name).read_bytes(), name


@pytest.mark.parametrize("name,path,command", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, path, command):
    rc, out, err = run_case(path, command)
    assert rc == EXIT_CODES[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()
