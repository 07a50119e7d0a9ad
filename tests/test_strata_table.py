"""The position-indexed strata table: the parser's reads, the one checker,
and the strata and cells that only reading code builds."""
import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

import pytest

from helpers import (
    alt_chain_complex,
    divisor_json,
    parallel_curve_divisor,
    random_divisor,
    simplex_divisor,
)
from make_error_corpus import CORPUS, _random_fault_documents
from snckit import (
    SncDivisor,
    Stratum,
    blowup_point_on_double_curve,
    blowup_stratum_component,
    build_dual_complex,
    resolve_to_simplicial,
)
from snckit.cli import SchemaError, UnknownIdError, _json_text, main, parse_document
from snckit.snc import DualCell, DualComplex, SncError, _StrataTable, validate_snc

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
    tops = [s for s in d.strata if len(s.subset) == n]
    extra = tuple(Stratum(f"{s.id}~{k}", s.subset, dict(s.parents))
                  for k, s in enumerate(rng.choices(tops, k=copies)))
    return SncDivisor(d.n, d.components, d.strata + extra)


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
        # the complex first, while the read divisor holds only its table
        cx = build_dual_complex(read).chain_complex()
        api = SncDivisor(read.n, read.components, read.strata)
        assert build_dual_complex(api).chain_complex() == cx == alt_chain_complex(read)
        assert_carries_its_table(api)       # made from its strata once, and kept
        assert build_dual_complex(read).cells == build_dual_complex(api).cells
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
        try:
            read = parse_document(doc).divisor
        except SchemaError:     # a renamed id left a parent unknown
            continue
        error = _first_error(read)
        assert _first_error(SncDivisor(read.n, read.components, read.strata)) == error
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
            except UnknownIdError:
                where.append("parser")
    assert len(where) == 64
    assert where.count("parser") == 11
    assert where.count(None) == 17
    assert len([e for e in where if type(e) is tuple]) == 36


def test_a_read_divisor_keeps_the_dataclass_api():
    data = json.loads(SPHERE4.read_text(encoding="utf-8"))
    read = parse_document(data).divisor
    api = read_with_build(data["divisor"])
    assert [f.name for f in dataclasses.fields(SncDivisor)] == ["n", "components", "strata"]
    assert read == api and repr(read) == repr(api)
    moved = dataclasses.replace(read, n=5)
    assert (moved.n, moved.components, moved.strata) == (5, api.components, api.strata)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.strata = ()
    with pytest.raises(TypeError):
        SncDivisor(3, ("a",))       # strata has no default
    assert read.strata is read.strata       # built once


def test_a_dual_complex_built_from_cells_gives_the_same_chain_complex():
    read = parse_document(json.loads(SPHERE4.read_text(encoding="utf-8"))).divisor
    dc = build_dual_complex(read)
    explicit = DualComplex(dc.cells, dc.boundaries)
    assert explicit == dc
    assert explicit.chain_complex() == dc.chain_complex()
    assert [len(layer) for layer in dc.cells] == [5, 10, 10, 5]


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """The names of the classes whose ``__init__`` ran, of Stratum and DualCell."""
    names: list[str] = []
    for cls in (Stratum, DualCell):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            names.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return names


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
                                     "check-simplicial", "resolve"])
def test_the_report_paths_build_no_stratum_and_no_dual_cell(skeleton_path, built, command):
    assert built == []
    for path in (SPHERE4, skeleton_path):
        assert _run(path, command) == 0
    assert built == []


@pytest.mark.parametrize("command, builds", [
    ("dual-complex", {"DualCell"}),
])
def test_the_commands_that_read_strata_or_cells_build_them(built, command, builds):
    assert _run(SPHERE4, command) == 0
    assert set(built) == builds


def test_the_public_blowups_of_a_read_divisor_build_no_stratum(built):
    block = divisor_json(parallel_curve_divisor(random.Random(5), 5, 4))
    read = parse_document({"version": "1", "divisor": block}).divisor
    built.clear()
    table = _StrataTable.of(read)
    curve = next(sid for sid, subset in zip(table.ids, table.subsets) if len(subset) == 2)
    top = next(sid for sid, subset in zip(table.ids, table.subsets) if len(subset) == 3)
    blown, _ = blowup_stratum_component(read, top)
    blowup_stratum_component(blown, curve)
    pointed, _ = blowup_point_on_double_curve(read, curve)
    resolve_to_simplicial(pointed)
    assert built == []


def assert_carries_its_table(d: SncDivisor) -> None:
    """d keeps one ``_StrataTable``, which ``_StrataTable.of`` returns each
    time, whose positions are its subsets' and whose rows are d.strata in
    order."""
    table = _StrataTable.of(d)
    assert type(table) is _StrataTable
    assert _StrataTable.of(d) is table
    order = {c: i for i, c in enumerate(d.components)}
    assert table.positions == [tuple([order[c] for c in subset]) for subset in table.subsets]
    assert [(s.id, s.subset, s.parents) for s in d.strata] == list(
        zip(table.ids, table.subsets, table.parents))
    assert _StrataTable.of(d) is table


def test_the_blowups_and_the_resolution_return_divisors_carrying_a_table():
    rng = random.Random(23)
    divisors = [random_divisor(rng) for _ in range(200)]
    divisors += [parallel_curve_divisor(rng, rng.randint(3, 6), rng.randint(0, 6))
                 for _ in range(60)]
    pointed = []
    for d in divisors:
        curves = [s.id for s in d.strata if len(s.subset) == 2]
        if d.n == 3 and curves:
            after, _ = blowup_point_on_double_curve(d, rng.choice(curves))
            assert_carries_its_table(after)
            pointed.append(after)
    divisors += pointed
    assert len(divisors) >= 300 and len(pointed) >= 60
    for d in divisors:
        resolved, _ = resolve_to_simplicial(d)
        assert_carries_its_table(resolved)
        if d.strata:
            after, _ = blowup_stratum_component(d, rng.choice(d.strata).id)
            assert_carries_its_table(after)


def test_validate_counts_the_strata_of_the_table(capsys, skeleton_path):
    assert main(["--input", str(skeleton_path), "--command", "validate",
                 "--emit", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stratum_components"] == 36 + 84 + 126 + 1
