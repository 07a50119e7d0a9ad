"""The position-indexed strata table: the parser's reads, ``build``, the
one checker, and the readers that need no valid divisor."""
import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Stratum,
    alt_chain_complex,
    blowup,
    divisor_json,
    divisor_of,
    full_simplex,
    parallel_curve_divisor,
    parallel_edges,
    random_divisor,
    simplex_divisor,
    strata_of,
    triangle_cycle,
)
from make_error_corpus import CORPUS, _random_fault_documents
from snckit import (
    ChainComplex,
    SncDivisor,
    blowup_point_on_double_curve,
    find_bad_intersections,
    resolve_to_simplicial,
)
from snckit.cli import (InputDocument, SchemaError, _divisor_text, _json_text, main,
                        parse_document, run)
from snckit.snc import SncError, _StrataIndex, _StrataTable, validate_snc

FIXTURES = Path(__file__).parent / "fixtures"
SPHERE4 = FIXTURES / "sphere4.json"


def read_with_build(block: dict) -> SncDivisor:
    """The divisor a document's divisor block describes, read through
    ``SncDivisor.build``: a second reader of the parser's output."""
    comps = block["components"]
    return SncDivisor.build(block["n"], comps, [
        (member["id"], [comps[i] for i in group["subset"]],
         {comps[int(key)]: pid for key, pid in member.get("parents", {}).items()})
        for group in block["strata"] for member in group["components"]])


def skeleton(rng: random.Random, n: int, m: int, copies: int) -> SncDivisor:
    """The full (n-1)-skeleton of the (m-1)-simplex with ``copies`` parallel
    copies of random top cells."""
    d = simplex_divisor(n, [f"E{i}" for i in range(m)], n)
    tops = [s for s in strata_of(d) if len(s.subset) == n]
    extra = tuple(Stratum(f"{s.id}~{k}", s.subset, dict(s.parents))
                  for k, s in enumerate(rng.choices(tops, k=copies)))
    return divisor_of(d.n, d.components, strata_of(d) + extra)


def shuffled(block: dict, rng: random.Random) -> dict:
    """The block with its groups, and the members of each, in random order."""
    groups = [{**g, "components": rng.sample(g["components"], len(g["components"]))}
              for g in block["strata"]]
    rng.shuffle(groups)
    return {**block, "strata": groups}


def oracle_blocks() -> list[dict]:
    """Over 300 seeded divisor blocks: random divisors, parallel curves,
    simplex skeletons canonical and shuffled with parallel copies, and
    resolved divisors as the CLI prints them; depth up to 5."""
    rng = random.Random(17)
    blocks = [divisor_json(random_divisor(rng)) for _ in range(120)]
    curves = [parallel_curve_divisor(rng, rng.randint(3, 7), rng.randint(0, 8))
              for _ in range(40)]
    blocks += map(divisor_json, curves)
    for n in range(2, 6):
        for m in range(n + 1, 8):
            for copies in range(4):
                block = divisor_json(skeleton(rng, n, m, copies))
                blocks += [block, shuffled(block, rng)]
    for d in curves[:20] + [random_divisor(rng) for _ in range(40)]:
        resolved, _ = resolve_to_simplicial(d)
        blocks.append(json.loads(_json_text(resolved)))
    return blocks


def test_the_parser_reads_what_build_reads_and_every_route_gives_one_complex():
    blocks = oracle_blocks()
    assert len(blocks) >= 300
    assert max(len(g["subset"]) for b in blocks for g in b["strata"]) == 5
    for block in blocks:
        read = parse_document({"version": "1", "divisor": block}).divisor
        cx = validate_snc(read).chain_complex()
        api = divisor_of(read.n, read.components, strata_of(read))
        assert validate_snc(api).chain_complex() == cx == alt_chain_complex(read)
        assert_carries_its_table(api)
        assert validate_snc(read) == validate_snc(api)
        assert read == read_with_build(block) == api


def _first_error(d: SncDivisor) -> tuple[type, str] | None:
    try:
        validate_snc(d)
    except SncError as e:
        return type(e), str(e)
    return None


def test_the_table_and_the_api_strata_fail_with_the_same_first_error():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    docs = [case["document"] for case in corpus if case["name"].startswith("snc-")]
    docs += [doc for _, doc in _random_fault_documents()]
    errors = []
    for doc in docs:
        read = parse_document(doc).divisor
        error = _first_error(read)
        assert _first_error(divisor_of(read.n, read.components, strata_of(read))) == error
        errors.append(error)
    # a random fault may undo another; the rest raise
    assert len([e for e in errors if e is not None]) > 80


def test_the_random_fault_cases_fail_in_the_checker_the_parser_or_not_at_all():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    where = []
    for case in corpus:
        if case["name"].startswith("snc-random-"):
            try:
                where.append(_first_error(parse_document(case["document"]).divisor))
            except SchemaError:
                where.append("parser")
    assert len(where) == 64
    assert where.count("parser") == 0
    assert where.count(None) == 17
    assert len([e for e in where if type(e) is tuple]) == 47


def test_a_read_divisor_keeps_the_named_tuple_api():
    data = json.loads(SPHERE4.read_text(encoding="utf-8"))
    read = parse_document(data).divisor
    api = read_with_build(data["divisor"])
    assert SncDivisor._fields == ("n", "components", "table")
    assert read == api and repr(read) == repr(api)
    moved = read._replace(n=5)
    assert type(moved) is SncDivisor
    assert (moved.n, moved.components, strata_of(moved)) == (5, api.components, strata_of(api))
    for name in ("n", "strata", "other"):
        with pytest.raises(AttributeError):
            setattr(read, name, ())
    with pytest.raises(TypeError):
        SncDivisor(3, ("a",))       # table has no default


def test_a_dual_complex_gives_the_checked_chain_complex_of_its_cells():
    read = parse_document(json.loads(SPHERE4.read_text(encoding="utf-8"))).divisor
    dc = validate_snc(read)
    ranks = dc.ranks()
    assert ranks == (5, 10, 10, 5)
    explicit = ChainComplex(ranks, dc.chain_complex().boundaries)
    assert explicit == dc.chain_complex()


@pytest.fixture
def skeleton_path(tmp_path) -> Path:
    """A (4, 9) skeleton, one top cell doubled, with sphere4's Picard and
    Du Bois blocks."""
    doc = json.loads(SPHERE4.read_text(encoding="utf-8"))
    doc["divisor"] = divisor_json(skeleton(random.Random(3), 4, 9, 1))
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run(path: Path, command: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["--input", str(path), "--command", command, "--emit", "both"])


@pytest.mark.parametrize("command", ["kh-report", "k-report", "cohomology", "validate",
                                     "check-simplicial", "resolve", "dual-complex"])
def test_every_report_path_runs_on_a_doubled_top_cell(skeleton_path, command):
    for path in (SPHERE4, skeleton_path):
        assert _run(path, command) == 0


def test_the_index_adds_each_stratum_once_in_table_order(monkeypatch):
    rng = random.Random(9)
    divisors = [parallel_curve_divisor(rng, 5, 4), random_divisor(rng)]
    divisors.append(parse_document({"version": "1",
                                    "divisor": divisor_json(divisors[0])}).divisor)
    added: list[str] = []
    real = _StrataIndex.add

    def counting(self, sid, *rest):
        added.append(sid)
        real(self, sid, *rest)

    monkeypatch.setattr(_StrataIndex, "add", counting)
    for d in divisors:
        added.clear()
        _StrataIndex(d)
        assert added == d.table.ids and added


def assert_carries_its_table(d: SncDivisor) -> None:
    """d's ``_StrataTable`` names components by sorted, distinct positions
    below ``len(d.components)``, keys each row's parents by positions of
    that row, and maps through ``d.components`` to ``strata_of(d)`` in order."""
    table = d.table
    comps = d.components
    assert type(table) is _StrataTable
    for pos, parents in zip(table.positions, table.parents):
        assert list(pos) == sorted(set(pos)) and all(0 <= p < len(comps) for p in pos)
        assert set(parents) <= set(pos)
    assert [(s.id, s.subset, s.parents) for s in strata_of(d)] == [
        (sid, tuple([comps[p] for p in pos]), {comps[p]: pid for p, pid in parents.items()})
        for sid, pos, parents in zip(*table)]


def test_the_blowups_and_the_resolution_return_divisors_carrying_a_table():
    rng = random.Random(23)
    divisors = [random_divisor(rng) for _ in range(200)]
    divisors += [parallel_curve_divisor(rng, rng.randint(3, 6), rng.randint(0, 6))
                 for _ in range(60)]
    pointed = []
    for d in divisors:
        curves = [s.id for s in strata_of(d) if len(s.subset) == 2]
        if d.n == 3 and curves:
            after, _ = blowup_point_on_double_curve(d, rng.choice(curves))
            assert_carries_its_table(after)
            pointed.append(after)
    divisors += pointed
    assert len(divisors) >= 300 and len(pointed) >= 60
    for d in divisors:
        resolved, _ = resolve_to_simplicial(d)
        assert_carries_its_table(resolved)
        if strata_of(d):
            after, _ = blowup(d, rng.choice(strata_of(d)).id)
            assert_carries_its_table(after)


def test_validate_counts_the_strata_of_the_table(capsys, skeleton_path):
    assert main(["--input", str(skeleton_path), "--command", "validate",
                 "--emit", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stratum_components"] == 36 + 84 + 126 + 1


@st.composite
def strata_triples(draw) -> tuple[int, tuple[str, ...], list[tuple], list[tuple]]:
    """The n and components of a valid divisor from ``random_divisor`` or
    ``parallel_curve_divisor``, and its strata in their order or shuffled,
    as (id, subset, parents): each subset in random order, as
    ``SncDivisor.build`` takes them, and in component order, as it keeps
    them."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        d = random_divisor(rng)
    else:
        m = rng.randrange(3, 7)
        d = parallel_curve_divisor(rng, m, rng.randrange(0, m * (m - 1) // 2))
    strata = list(strata_of(d))
    if draw(st.booleans()):
        rng.shuffle(strata)
    return (d.n, d.components,
            [(s.id, rng.sample(s.subset, len(s.subset)), s.parents) for s in strata],
            [(s.id, s.subset, s.parents) for s in strata])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(strata_triples())
def test_build_table_strata_build_gives_an_equal_divisor(drawn):
    n, components, triples, kept = drawn
    d = SncDivisor.build(n, components, triples)
    assert [(s.id, s.subset, s.parents) for s in strata_of(d)] == kept
    assert_carries_its_table(d)
    assert SncDivisor(d.n, d.components, d.table) == d
    again = divisor_of(d.n, d.components, strata_of(d))
    assert again == d and again.table is not d.table


def assert_relabelled_consistently(d: SncDivisor, order: list[int]) -> None:
    """``_replace`` of d's components by ``order`` relabels them
    by position: the check accepts it, and ``strata``, the bad
    intersections, the ``dual-complex`` vertices and the written block all
    name the components the table's positions give, and the block parses
    back to the same divisor."""
    relabelled = d._replace(components=tuple([d.components[i] for i in order]))
    comps = relabelled.components
    validate_snc(relabelled)
    on = {sid: tuple([comps[p] for p in pos])
          for sid, pos in zip(relabelled.table.ids, relabelled.table.positions)}
    strata = {s.id: s for s in strata_of(relabelled)}
    assert {sid: s.subset for sid, s in strata.items()} == on
    counts = Counter(on.values())
    assert dict(find_bad_intersections(relabelled).bad) == {
        subset: k for subset, k in counts.items() if k >= 2}
    doc = InputDocument(relabelled, None, None, "algebraically_closed")
    cells = run("dual-complex", doc)[1]["cells_by_dimension"]
    assert {c["id"]: tuple(c["vertices"]) for dim in cells[1:] for c in dim["cells"]} == on
    block = json.loads(_divisor_text(relabelled, "\n"))
    for group in block["strata"]:
        for member in group["components"]:
            s = strata[member["id"]]
            assert tuple([comps[i] for i in group["subset"]]) == s.subset
            assert {comps[int(k)]: pid for k, pid in member["parents"].items()} == s.parents
    back = parse_document({"version": "1", "divisor": block}).divisor
    assert (back.n, back.components) == (relabelled.n, comps)
    assert {s.id: s for s in strata_of(back)} == strata


def test_replacing_the_components_of_a_divisor_relabels_them_by_position():
    d = full_simplex()
    assert_relabelled_consistently(d, [2, 1, 0])
    reversed_ = d._replace(components=d.components[::-1])
    # c12 lies on positions 0 and 1, which now name E3 and E2
    assert {s.id: s.subset for s in strata_of(reversed_)}["c12"] == ("E3", "E2")
    block = json.loads(_divisor_text(reversed_, "\n"))
    assert parse_document({"version": "1", "divisor": block}).divisor == reversed_


def test_components_fewer_than_the_table_positions_raise_snc_error():
    # The triangle was accepted and its chain complex raised IndexError;
    # the simplex raised IndexError inside validate_snc.  c12 is in range
    # and checked first; c13 on positions (0, 2) is the first out of it.
    for d in (triangle_cycle(), full_simplex()):
        short = d._replace(components=("A", "B"))
        with pytest.raises(SncError, match=r"^stratum c13 lies on component position 2, "
                                           r"but the divisor has 2 component\(s\)$"):
            validate_snc(short)
        doc = InputDocument(short, None, None, "algebraically_closed")
        for command in ("validate", "cohomology", "resolve"):
            with pytest.raises(SncError):
                run(command, doc)
    negative = SncDivisor(3, ("A", "B"), _StrataTable(["c"], [(-1, 0)], [{}]))
    with pytest.raises(SncError, match="^stratum c lies on component position -1,"):
        validate_snc(negative)
    # a stratum's depth is its own first rule
    deep = SncDivisor(2, ("A", "B"), _StrataTable(["c"], [(0, 1, 2)], [{}]))
    with pytest.raises(SncError, match="intersects 3 components in ambient dimension 2"):
        validate_snc(deep)


def test_find_bad_intersections_raises_snc_error_on_positions_past_the_components():
    # It raised IndexError naming the bad subset (0, 1) with one component.
    with pytest.raises(SncError, match=r"^stratum ca lies on component position 1, "
                                       r"but the divisor has 1 component\(s\)$"):
        find_bad_intersections(parallel_edges()._replace(components=("1",)))
    # a position out of range on a subset carrying one stratum raises too
    with pytest.raises(SncError, match=r"^stratum c13 lies on component position 2, "
                                       r"but the divisor has 2 component\(s\)$"):
        find_bad_intersections(triangle_cycle()._replace(components=("A", "B")))
    negative = SncDivisor(3, ("A", "B"), _StrataTable(["c", "d"], [(0, 1), (-1, 0)], [{}, {}]))
    with pytest.raises(SncError, match="^stratum d lies on component position -1,"):
        find_bad_intersections(negative)
    # an invalid divisor whose positions are in range is still counted
    shallow = SncDivisor(3, ("A", "B"), _StrataTable(["a", "b"], [(0,), (0,)], [{}, {}]))
    assert find_bad_intersections(shallow) == ([(("A",), 2)], False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_replacing_the_components_by_any_permutation_relabels_them(seed, parallel):
    rng = random.Random(seed)
    if parallel:
        m = rng.randrange(3, 7)
        d = parallel_curve_divisor(rng, m, rng.randrange(0, m * (m - 1) // 2))
    else:
        d = random_divisor(rng)
    assert_relabelled_consistently(d, rng.sample(range(len(d.components)), len(d.components)))
