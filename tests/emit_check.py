"""Check the CLI's JSON emitter against the standard library's encoder.

Run from the repository root, under any Python the package supports:

    PYTHONPATH=src python tests/emit_check.py [COUNT] [SEED]

It needs neither pytest nor hypothesis.  It draws COUNT random nested
values (20000 by default, seed 0) of the shapes reports hold, subclasses
of str, int, list, tuple and dict among them, and asserts that
``snckit.cli._json_text`` prints each exactly as
``json.dumps(value, ensure_ascii=False, indent=2)`` does.  Then it runs
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
    parallel_curve_divisor,
    random_divisor,
    report_json,
    simplex_divisor,
)
from make_goldens import cases
from snckit import BlowupRecord, SncDivisor, resolve_to_simplicial
from snckit.cli import MissingBlockError, _divisor_text, _json_text, parse_input, run

# Characters the encoder escapes, or passes through although they are
# special somewhere: quote, backslash, controls, DEL, C1, the JavaScript line
# separators, lone surrogates, a BOM, a noncharacter and astral text.
SPECIAL = ('"\\/\b\f\n\r\t\x00\x01\x1f\x7f\x80\x9f\u2028\u2029'
           '\ud800\udbff\udc00\udfff\ufeff\uffff\xe9\u20ac\U0001f600')


# Subclasses of the JSON types; json.dumps prints each as its base class.
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
    text = "".join(out)
    return Text(text) if rng.random() < 0.1 else text


def random_value(rng: random.Random, depth: int = 0):
    """A str, int, bool or None, or a list, tuple or str-keyed dict of them;
    about one in ten of each is a subclass instance."""
    kind = rng.choice(("str", "int", "const") + (("list", "tuple", "dict") * 2
                                                 if depth < 4 else ()))
    sub = rng.random() < 0.1
    if kind == "str":
        return random_string(rng)
    if kind == "int":
        if sub:
            return rng.choice(list(Level))
        bits = rng.choice((3, 31, 63, 64, 65, 200))
        return rng.randrange(-(2 ** bits), 2 ** bits)
    if kind == "const":
        return rng.choice((True, False, None))
    size = rng.randrange(5)
    if kind == "dict":
        return (Table if sub else dict)(
            (random_string(rng), random_value(rng, depth + 1)) for _ in range(size))
    items = [random_value(rng, depth + 1) for _ in range(size)]
    if kind == "list":
        return Items(items) if sub else items
    if sub:
        return Pair(*items[:2]) if len(items) == 2 else Row(items)
    return tuple(items)


# Subclass values and bools in every container, nested in one another.
FIXED = [
    Text('"a '), Level.LOW, Level.HIGH, Items(), Row(), Table(),
    [True, False, None, True], (False, True), Items([True, Level.ZERO, Text("x")]),
    Row((Level.HIGH, False)), Pair(Text("l"), [True]), Pair(Items([Row()]), Table()),
    Table({Text("k"): Items([Pair(Level.LOW, Table({"t": (True, None)}))]),
           "p": Row([Pair(False, Text(""))])}),
    {"a": Items([Table({"b": Row((Pair(Level.ZERO, Items([False])),))})])},
]


def check(count: int, seed: int) -> None:
    rng = random.Random(seed)
    values = FIXED + [random_value(rng) for _ in range(count)]
    for i, x in enumerate(values):
        want = json.dumps(x, ensure_ascii=False, indent=2)
        got = _json_text(x)
        assert got == want, f"value {i} of seed {seed}: {x!r}"


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
    ids = list(d.components) + [s.id for s in d.strata]
    new = {x: f"{rng.choice(ID_PIECES)}|{i}" for i, x in enumerate(ids)}
    return SncDivisor.build(d.n, [new[c] for c in d.components], [
        (new[s.id], [new[c] for c in s.subset], {new[c]: new[p] for c, p in s.parents.items()})
        for s in d.strata])


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
            strata = list(d.strata)
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
          f"{len(FIXED)} fixed ones (seed {seed}), the machine reports of "
          f"{sum(reports.values())} golden cases ({reports.get('resolve', 0)} of them "
          f"resolve), {divisors} divisor blocks and {records} blowup records "
          "print as json.dumps prints them")
