"""Check the CLI's JSON emitter against the standard library's encoder.

Run from the repository root, under any Python the package supports:

    PYTHONPATH=src python tests/emit_check.py [COUNT] [SEED]

It needs neither pytest nor hypothesis.  It draws COUNT random nested
values (20000 by default, seed 0) of the shapes reports hold and asserts
that ``snckit.cli._json_text`` prints each, and each ``FIXED`` value,
matrices of every shape among them, exactly as
``json.dumps(value, ensure_ascii=False, indent=2)`` does, a matrix as the
list of its rows.  It asserts that ``_json_text`` raises TypeError on
subclasses of str, int, list, tuple and dict, which no report holds,
alone or nested in plain values.  Then it runs
every golden case and asserts that ``_json_text`` prints its machine
report as ``json.dumps`` prints ``plain`` of it, the nested dicts of
``helpers.divisor_json``, ``blowup_json`` and ``report_json`` in place of
each divisor, blowup record and report object.  Last, it checks the
divisor writer and the blowup record writer on their own, against
``json.dumps`` of ``divisor_json`` and ``blowup_json``, on seeded divisors
from ``helpers.random_divisor`` and ``parallel_curve_divisor`` (some with
odd id text or shuffled strata), their resolutions and the resolutions'
blowup records.  ``tests/test_emit.py`` runs the same checks inside the
suite.
"""
from __future__ import annotations

import json
import random
import sys
from enum import IntEnum
from typing import Any, NamedTuple

from helpers import (
    blowup_json,
    divisor_json,
    divisor_of,
    is_record,
    no_digit_limit,
    parallel_curve_divisor,
    random_divisor,
    report_json,
    simplex_divisor,
    strata_of,
)
from make_goldens import cases
from snckit import BlowupRecord, IntMatrix, SncDivisor, resolve_to_simplicial
from snckit.cli import MissingBlockError, _divisor_text, _json_text, parse_input, run

# Characters the encoder escapes, or passes through although they are
# special somewhere: quote, backslash, controls, DEL, C1, the JavaScript line
# separators, lone surrogates, a BOM, a noncharacter and astral text.
SPECIAL = ('"\\/\b\f\n\r\t\x00\x01\x1f\x7f\x80\x9f\u2028\u2029'
           '\ud800\udbff\udc00\udfff\ufeff\uffff\xe9\u20ac\U0001f600')


# Subclasses of the JSON types; json.dumps prints each as its base class,
# and _json_text, whose writers go by exact class, raises TypeError.
class Text(str):
    def __str__(self) -> str:
        return "not the text"


class Level(IntEnum):
    LOW = -1
    ZERO = 0
    HIGH = 2 ** 70


class Items(list):
    pass


class Row(tuple):
    pass


class Pair(NamedTuple):
    left: Any
    right: Any


class Table(dict):
    pass


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


# Matrices of every shape: no rows, rows of no entries, negative entries
# and an entry past Python's default limit of 4,300 digits for int-to-str.
MATRICES = [
    IntMatrix([], ncols=0), IntMatrix([], ncols=3), IntMatrix([[], []]),
    IntMatrix([[-1, 0, 7], [0, -2 ** 70, 1]]), IntMatrix([[3, -(10 ** 4400) - 1]]),
]

# Bools in every container, nested in one another, and each matrix alone
# and nested in a list and in a dict.
FIXED = [
    [True, False, None, True], (False, True), {"t": (True, None)},
    {"a": [{"b": ((0, [False]),)}]},
    *MATRICES, *([m] for m in MATRICES), *({"m": m} for m in MATRICES),
]

# Subclass values, alone and nested in plain containers and in one another.
SUBCLASSED = [
    Text('"a '), Level.LOW, Level.HIGH, Items(), Row(), Table(), Pair(1, 2),
    [True, Level.ZERO], (False, Text("x")), {"k": Row()}, Items([True]),
    Pair(Text("l"), [True]), Table({"t": (True, None)}),
    {"a": [{"b": ((Pair(0, [False]),),)}]},
]


def check(count: int, seed: int) -> None:
    rng = random.Random(seed)
    values = FIXED + [random_value(rng) for _ in range(count)]
    # the CLI prints past the digit limit too (see cli.main)
    with no_digit_limit():
        for i, x in enumerate(values):
            want = json.dumps(plain(x), ensure_ascii=False, indent=2)
            got = _json_text(x)
            assert got == want, f"value {i} of seed {seed}: {x!r}"
    for x in SUBCLASSED:
        try:
            _json_text(x)
        except TypeError:
            continue
        raise AssertionError(f"no TypeError on {x!r}")


def plain(x):
    """x with ``divisor_json(d)`` in place of every divisor d,
    ``blowup_json(r)`` in place of every blowup record r, and the nested
    dicts of ``report_json`` in place of every report, group and matrix
    it holds."""
    if isinstance(x, SncDivisor):
        return divisor_json(x)
    if isinstance(x, BlowupRecord):
        return blowup_json(x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)) and not is_record(x):
        return [plain(v) for v in x]
    return report_json(x)


def check_reports() -> dict[str, int]:
    """Check the machine report of every golden case that exits 0; return
    how many were checked per command."""
    checked: dict[str, int] = {}
    for name, path, command in cases():
        try:
            _, machine = run(command, parse_input(str(path)))
        except (MissingBlockError, ValueError):
            continue  # a golden whose command exits nonzero
        want = json.dumps(plain(machine), ensure_ascii=False, indent=2)
        assert _json_text(machine) == want, name
        checked[command] = checked.get(command, 0) + 1
    return checked


# Valid id text the writer must escape or pass through: SPECIAL without its
# lone surrogates, which the parser rejects; "|" ends every piece.
ID_PIECES = [c for c in SPECIAL if not 0xD800 <= ord(c) <= 0xDFFF] + [
    '"\\"', "\x00\u2028\U0001f600", "é€\x7f", ""]


def renamed(d: SncDivisor, rng: random.Random) -> SncDivisor:
    """d with every component and stratum id given odd text, kept unique."""
    ids = list(d.components) + [s.id for s in strata_of(d)]
    new = {x: f"{rng.choice(ID_PIECES)}|{i}" for i, x in enumerate(ids)}
    return SncDivisor.build(d.n, [new[c] for c in d.components], [
        (new[s.id], [new[c] for c in s.subset], {new[c]: new[p] for c, p in s.parents.items()})
        for s in strata_of(d)])


def writer_cases(count: int = 130, seed: int = 16):
    """Seeded valid divisors and their resolutions, some renamed or shuffled:
    three fixed ones and two or three for each of ``count`` draws."""
    rng = random.Random(seed)
    comps = [f"E{i}" for i in range(6)]
    yield SncDivisor.build(3, ("E1", "E2"), ())
    yield SncDivisor.build(5, comps, ())
    yield simplex_divisor(5, comps, 5)
    for k in range(count):
        if k % 2:
            d = random_divisor(rng)
        else:
            m = rng.randrange(3, 7)
            d = parallel_curve_divisor(rng, m, rng.randrange(0, m * (m - 1) // 2))
        if k % 3 == 0:
            d = renamed(d, rng)
        if k % 4 == 1:
            strata = list(strata_of(d))
            rng.shuffle(strata)
            d = divisor_of(d.n, d.components, strata)
        resolved = resolve_to_simplicial(d)[0]
        yield d
        yield resolved
        if k % 3 == 1:
            yield renamed(resolved, rng)


def check_writers(count: int, seed: int) -> tuple[int, int]:
    """Check ``_divisor_text`` and the blowup record writer at two indents
    on ``writer_cases(count, seed)`` and the records of their resolutions;
    return how many divisors and records were checked."""
    divisors = records = 0
    for d in writer_cases(count, seed):
        want = json.dumps(divisor_json(d), ensure_ascii=False, indent=2)
        for nl in ("\n", "\n    "):
            assert _divisor_text(d, nl) == want.replace("\n", nl), d
        divisors += 1
        log = resolve_to_simplicial(d)[1]
        for r in log:
            want = json.dumps(blowup_json(r), ensure_ascii=False, indent=2)
            for nl in ("\n", "\n    "):
                assert _json_text(r, nl) == want.replace("\n", nl), r
        assert _json_text(log) == json.dumps([blowup_json(r) for r in log],
                                             ensure_ascii=False, indent=2)
        records += len(log)
    return divisors, records


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    check(count, seed)
    reports = check_reports()
    divisors, records = check_writers(130, seed)
    print(f"Python {sys.version.split()[0]}: {count} random values and "
          f"{len(FIXED)} fixed ones (seed {seed}) print as json.dumps prints them, "
          f"{len(SUBCLASSED)} subclass values raise TypeError, the machine reports of "
          f"{sum(reports.values())} golden cases ({reports.get('resolve', 0)} of them "
          f"resolve), {divisors} divisor blocks and {records} blowup records "
          "print as json.dumps prints them")
