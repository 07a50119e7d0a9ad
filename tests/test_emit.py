"""The CLI's JSON emitter prints exactly what ``json.dumps(indent=2)`` prints.

The standard library is the oracle: on random values of every shape a report
holds, on the machine report of every golden case, on the kh-report and
k-report machine reports of seeded dense Picard documents and on resolved
documents larger than any golden, ``cli._json_text(x)`` must equal
``json.dumps(plain(x), ensure_ascii=False, indent=2)``, where ``plain`` puts
the nested dicts of ``helpers.divisor_json``, ``helpers.blowup_json`` and
``helpers.report_json`` in place of each divisor, blowup record and report
object the report holds; the divisor and record writers meet the same
oracle on their own.
"""
import json
import random
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emit_check import (
    ID_PIECES,
    MATRICES,
    SPECIAL,
    SUBCLASSED,
    check,
    check_reports,
    check_writers,
    plain,
    writer_cases,
)
from helpers import (
    blowup_json,
    dense_picard_document,
    divisor_json,
    divisor_of,
    no_digit_limit,
    parallel_curve_divisor,
    simplex_divisor,
    strata_of,
    with_source_torsion,
)
from make_goldens import BRANCH_DOCUMENTS, DENSE_RANKS, cases
from snckit import (
    BlowupRecord,
    FgAbGroup,
    PicardLevel,
    SncDivisor,
    resolve_to_simplicial,
    validate_snc,
)
from snckit.cli import (
    ALGEBRAICALLY_CLOSED,
    InputDocument,
    _divisor_text,
    _json_text,
    parse_document,
    parse_input,
    run,
)
from snckit.nk import KReport


def stdlib(x) -> str:
    return json.dumps(x, ensure_ascii=False, indent=2)


CHARS = st.one_of(st.characters(), st.characters(categories=["Cs"]),
                  st.sampled_from(SPECIAL))
STRINGS = st.text(CHARS, max_size=8)
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 300),
                 st.integers(min_value=-(2 ** 300), max_value=-(2 ** 64)))
VALUES = st.recursive(
    st.one_of(STRINGS, INTS, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=30)
LINE_SEPARATOR, LONE_SURROGATE = chr(0x2028), chr(0xDC00)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(VALUES)
@example({"": [], "a": {}, "b": (), "c": [[], {}, ()]})
@example(['"\\', "\x00\x1f\x7f", LINE_SEPARATOR, LONE_SURROGATE, "é€"])
@example([-1, 0, 2 ** 64, -(2 ** 64) - 1, True, False, None])
@example({LINE_SEPARATOR + '"': {LONE_SURROGATE: [(1, "x"), ()]}})
def test_emitter_prints_as_the_stdlib_does(x):
    assert _json_text(x) == stdlib(x)


def test_plain_script_check_passes():
    # the checks tests/emit_check.py runs under interpreters without pytest;
    # test_golden_machine_reports_print_as_the_stdlib_does runs check_reports
    check(2000, seed=1)
    divisors, records = check_writers(12, seed=2)
    assert divisors >= 30 and records >= 20


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32), rank=st.integers(4, 16),
       source_torsion=st.sampled_from([[], [2], [3], [2, 6], [4, 12]]))
def test_dense_picard_reports_print_as_the_stdlib_prints_their_nested_dicts(
        seed, rank, source_torsion):
    # dense_picard_document puts torsion on the top level for most seeds
    rng = random.Random(seed)
    doc = parse_document(with_source_torsion(dense_picard_document(rng, rank),
                                             source_torsion, rng))
    for command in ("kh-report", "k-report"):
        _, machine = run(command, doc)
        assert _json_text(machine) == stdlib(plain(machine))


def test_golden_machine_reports_print_as_the_stdlib_does():
    checked = check_reports()
    assert set(checked) == {"validate", "dual-complex", "cohomology", "check-simplicial",
                            "resolve", "kh-report", "k-report"}
    assert checked["kh-report"] + checked["k-report"] >= 2 * (len(DENSE_RANKS)
                                                             + len(BRANCH_DOCUMENTS))
    assert checked["resolve"] == 3


def test_resolve_reports_larger_than_any_golden_print_as_the_stdlib_does():
    rng = random.Random(9)
    largest_golden = max(len(stdlib(plain(run(command, parse_input(str(path)))[1])))
                         for _, path, command in cases() if command == "resolve")
    for _ in range(40):
        m = rng.randrange(8, 12)
        d = parallel_curve_divisor(rng, m, rng.randrange(m, m * (m - 1) // 2))
        doc = InputDocument(d, None, None, ALGEBRAICALLY_CLOSED)
        _, machine = run("resolve", doc)
        text = _json_text(machine)
        assert text == stdlib(plain(machine))
        assert len(text) > largest_golden


def test_divisor_writer_prints_what_the_stdlib_prints_of_divisor_json():
    count = 0
    for d in writer_cases():
        validate_snc(d)
        want = stdlib(divisor_json(d))
        for nl in ("\n", "\n    "):
            assert _divisor_text(d, nl) == want.replace("\n", nl)
        block = json.loads(_divisor_text(d, "\n"))
        # the block parses back to d, strata in printed (depth, positions) order
        index = {c: i for i, c in enumerate(d.components)}
        printed = sorted(strata_of(d), key=lambda s: (len(s.subset), [index[c] for c in s.subset]))
        back = parse_document({"version": "1", "divisor": block}).divisor
        assert back == divisor_of(d.n, d.components, printed)
        count += 1
    assert count >= 300


def test_divisor_writer_prints_by_depth_then_positions_then_divisor_order():
    # parallel strata listed against their id order and depths interleaved
    # in the table: the printed order is neither by positions alone (depth
    # decides first) nor by id within a group (divisor order does)
    d = SncDivisor.build(3, ["a", "b", "c"], [
        ("t1", ("a", "b", "c"), {"a": "zc", "b": "y13", "c": "ya"}),
        ("zc", ("b", "c"), {}),
        ("t0", ("a", "b", "c"), {"a": "zc", "b": "y13", "c": "xa"}),
        ("ya", ("a", "b"), {}),
        ("y13", ("a", "c"), {}),
        ("xa", ("a", "b"), {}),
    ])
    # the 3-sphere's strata in reverse, with a later copy of the first curve
    comps = ["E1", "E2", "E3", "E4", "E5"]
    sphere = strata_of(simplex_divisor(4, comps, 4))[::-1]
    e = divisor_of(4, comps, sphere + (sphere[-1]._replace(id="E1+E2~"),))
    want = [(d, [([0, 1], ["ya", "xa"]), ([0, 2], ["y13"]), ([1, 2], ["zc"]),
                 ([0, 1, 2], ["t1", "t0"])]),
            (e, [([0, 1], ["E1+E2", "E1+E2~"])]
             + [(list(s), ["+".join(comps[i] for i in s)])
                for depth in (2, 3, 4) for s in combinations(range(5), depth)][1:])]
    for x, groups in want:
        validate_snc(x)
        text = _divisor_text(x, "\n")
        assert text == stdlib(divisor_json(x))
        printed = [(g["subset"], [m["id"] for m in g["components"]])
                   for g in json.loads(text)["strata"]]
        assert printed == groups


def record_cases():
    """Blowup records with odd id text, empty lists, both flags and big or
    negative decrements, and the records of the writer cases' resolutions."""
    rng = random.Random(19)
    for k in range(200):
        def ids(most):
            return tuple(f"{rng.choice(ID_PIECES)}|{j}" for j in range(rng.randrange(most)))
        yield BlowupRecord(rng.choice(ID_PIECES), f"exc{k}{rng.choice(ID_PIECES)}",
                           ids(4), ids(6), rng.choice((0, 1, 2, -3, 2 ** 70)),
                           point_blowup=bool(k % 2))
    yield BlowupRecord("c", "exc1", (), (), 0, point_blowup=True)
    for d in writer_cases():
        yield from resolve_to_simplicial(d)[1]


def test_blowup_writer_prints_what_the_stdlib_prints_of_blowup_json():
    records = list(record_cases())
    assert any(r.point_blowup and not r.removed for r in records)
    assert sum(not r.point_blowup for r in records) > 300
    for r in records:
        want = stdlib(blowup_json(r))
        for nl in ("\n", "\n    "):
            assert _json_text(r, nl) == want.replace("\n", nl)
    assert _json_text(records) == stdlib([blowup_json(r) for r in records])


def test_a_record_from_a_resolution_is_one_from_the_public_constructor():
    records = [r for d in writer_cases() for r in resolve_to_simplicial(d)[1]]
    records += [r for _, path, command in cases() if command == "resolve"
                for r in run(command, parse_input(str(path)))[1]["blowups"]]
    assert len(records) > 300
    for r in records:
        public = BlowupRecord(r.center, r.new_component, r.removed, r.added,
                              r.bad_decrement)
        assert type(r) is BlowupRecord
        assert r == public and public == r and not r != public
        assert hash(r) == hash(public) and repr(r) == repr(public)
        assert list(r._asdict().items()) == list(public._asdict().items())
        for changes in ({}, {"bad_decrement": r.bad_decrement + 1}, {"point_blowup": True}):
            again = r._replace(**changes)
            assert type(again) is BlowupRecord
            assert again == public._replace(**changes)
        for name in ("center", "point_blowup", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, "x")
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert r == public


class Unlisted(NamedTuple):
    x: int


class Group(FgAbGroup):
    __slots__ = ()


# Writers go by exact class, so a subclass of a JSON type or of a record,
# which json.dumps would print as its base, is no report value either.
NOT_REPORT_VALUES = SUBCLASSED + [Unlisted(1), [Unlisted(1)], PicardLevel(0, FgAbGroup(1), 0),
                                  Group(1), KReport(None, 0, "0", True, True)]


@pytest.mark.parametrize("x", [1.5, 0.0, {1, 2}, frozenset(), {1: "a"}, {None: 0},
                               {("a",): 0}, {True: 0}, [0, {"a": [2.5]}], b"x", object(),
                               *NOT_REPORT_VALUES],
                         ids=["float", "zero-float", "set", "frozenset", "int-key",
                              "none-key", "tuple-key", "bool-key", "nested-float",
                              "bytes", "object",
                              *[type(x).__name__ for x in NOT_REPORT_VALUES]])
def test_other_values_and_keys_raise_type_error(x):
    with pytest.raises(TypeError):
        _json_text(x)


@pytest.mark.parametrize("m", MATRICES, ids=["0x0", "0x3", "2x0", "negative", "past-limit"])
def test_matrices_of_every_shape_print_as_the_stdlib_prints_their_rows(m):
    # the matrix writer joins each row from its ints; the goldens reach it
    # only with the shapes reports happen to hold
    with no_digit_limit():
        for x, rows in ((m, m.to_lists()), ([m, m], [m.to_lists()] * 2),
                        ({"m": m, "n": [m]}, {"m": m.to_lists(), "n": [m.to_lists()]})):
            want = stdlib(rows)
            for nl in ("\n", "\n    "):
                assert _json_text(x, nl) == want.replace("\n", nl)


def test_an_int_past_the_digit_limit_raises_value_error_as_the_stdlib_does():
    # the CLI maps a ValueError while rendering to exit code 1
    with pytest.raises(ValueError):
        stdlib([10 ** 5000])
    with pytest.raises(ValueError):
        _json_text([10 ** 5000])
