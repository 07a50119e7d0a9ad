"""Check the CLI's JSON emitter against the standard library's encoder.

Run from the repository root, under any Python the package supports:

    PYTHONPATH=src python tests/emit_check.py [COUNT] [SEED]

It needs neither pytest nor hypothesis.  It draws COUNT random nested
values (20000 by default, seed 0) of the shapes reports hold and asserts
that ``snckit.cli._json_text`` prints each exactly as
``json.dumps(value, ensure_ascii=False, indent=2)`` does.  Then it runs
every golden ``kh-report`` and ``k-report`` case, whose machine report
holds the report objects, and asserts that ``_json_text`` prints it as
``json.dumps`` prints the nested dicts of ``helpers.report_json``.
``tests/test_emit.py`` runs the same checks inside the suite.
"""
from __future__ import annotations

import json
import random
import sys

from helpers import report_json
from make_goldens import cases
from snckit.cli import MissingBlockError, _json_text, parse_input, run

# Characters the encoder escapes, or passes through although they are
# special somewhere: quote, backslash, controls, DEL, C1, the JavaScript line
# separators, lone surrogates, a BOM, a noncharacter and astral text.
SPECIAL = ('"\\/\b\f\n\r\t\x00\x01\x1f\x7f\x80\x9f\u2028\u2029'
           '\ud800\udbff\udc00\udfff\ufeff\uffff\xe9\u20ac\U0001f600')


def random_string(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randrange(8)):
        r = rng.random()
        if r < 0.4:
            out.append(rng.choice(SPECIAL))
        elif r < 0.7:
            out.append(chr(rng.randrange(0x20, 0x7F)))
        else:
            out.append(chr(rng.randrange(0x110000)))
    return "".join(out)


def random_value(rng: random.Random, depth: int = 0):
    """A str, int, bool or None, or a list, tuple or str-keyed dict of them."""
    kind = rng.choice(("str", "int", "const") + (("list", "tuple", "dict") * 2
                                                 if depth < 4 else ()))
    if kind == "str":
        return random_string(rng)
    if kind == "int":
        bits = rng.choice((3, 31, 63, 64, 65, 200))
        return rng.randrange(-(2 ** bits), 2 ** bits)
    if kind == "const":
        return rng.choice((True, False, None))
    size = rng.randrange(5)
    if kind == "dict":
        return {random_string(rng): random_value(rng, depth + 1) for _ in range(size)}
    items = [random_value(rng, depth + 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


def check(count: int, seed: int) -> None:
    rng = random.Random(seed)
    for i in range(count):
        x = random_value(rng)
        want = json.dumps(x, ensure_ascii=False, indent=2)
        got = _json_text(x)
        assert got == want, f"value {i} of seed {seed}: {x!r}"


def check_reports() -> int:
    """Check the golden kh-report and k-report machine reports; return how
    many were checked."""
    checked = 0
    for name, path, command in cases():
        if command not in ("kh-report", "k-report"):
            continue
        try:
            _, machine = run(command, parse_input(str(path)))
        except (MissingBlockError, ValueError):
            continue  # a golden whose command exits nonzero
        want = json.dumps({k: report_json(v) for k, v in machine.items()},
                          ensure_ascii=False, indent=2)
        assert _json_text(machine) == want, name
        checked += 1
    return checked


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    check(count, seed)
    reports = check_reports()
    print(f"Python {sys.version.split()[0]}: {count} random values (seed {seed}) "
          f"and {reports} golden kh-report and k-report machine reports "
          "print as json.dumps prints them")
