"""JSON document parsing, command output, exit codes, and determinism."""
import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    parallel_curve_divisor,
    parallel_edges,
    random_divisor,
    triangle_cycle,
)
from snckit import cli, resolve_to_simplicial, snc
from snckit.cli import (
    COMMANDS,
    InputDocument,
    MissingBlockError,
    SchemaError,
    UnknownIdError,
    VersionError,
    divisor_json,
    document_json,
    main,
    parse_document,
    parse_input,
    run,
)
from snckit.khasm import ComplexViolationError, LevelMismatchError
from snckit.nk import MissingEntryError, NonIsolatedError
from snckit.snc import SncError

FIXTURES = Path(__file__).parent / "fixtures"
TRIANGLE = FIXTURES / "triangle_cycle.json"
PARALLEL = FIXTURES / "parallel_edges.json"
SPHERE4 = FIXTURES / "sphere4.json"


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def write_doc(tmp_path: Path, data: dict, name: str = "doc.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# parsing


def test_parse_triangle_fixture():
    doc = parse_input(str(TRIANGLE))
    assert doc.version == "1"
    assert doc.divisor == triangle_cycle()
    assert doc.picard is not None
    assert [lv.p for lv in doc.picard.levels] == [0, 1]
    assert doc.dubois is not None and doc.dubois.get(0, 2) == 2
    assert doc.field_mode == "algebraically_closed"


def test_parse_parallel_fixture_defaults():
    doc = parse_input(str(PARALLEL))
    assert doc.divisor == parallel_edges()
    assert doc.picard is None
    assert doc.dubois is None
    assert doc.field_mode == "algebraically_closed"


def test_parse_sphere_fixture():
    doc = parse_input(str(SPHERE4))
    assert doc.divisor.n == 4
    assert len(doc.divisor.components) == 5
    assert len(doc.divisor.strata) == 25
    assert doc.picard is not None and len(doc.picard.levels) == 3


def test_document_round_trip():
    for path in (TRIANGLE, PARALLEL, SPHERE4):
        doc = parse_input(str(path))
        assert parse_document(document_json(doc)) == doc


def test_hyphenated_field_mode_is_accepted(tmp_path):
    data = load(TRIANGLE)
    data["field_mode"] = "algebraically-closed"
    doc = parse_input(write_doc(tmp_path, data))
    assert doc.field_mode == "algebraically_closed"


def test_numeric_version_is_tolerated(tmp_path):
    data = load(PARALLEL)
    data["version"] = 1
    assert parse_input(write_doc(tmp_path, data)).version == "1"


# ---------------------------------------------------------------------------
# schema rejection, with field paths


def test_rejects_unknown_and_missing_keys():
    with pytest.raises(SchemaError) as err:
        parse_document({"version": "1", "divisor": {"n": 3, "components": ["A"]},
                        "extra": 1})
    assert err.value.path == "document.extra"
    with pytest.raises(SchemaError) as err:
        parse_document({"version": "1"})
    assert err.value.path == "document"
    with pytest.raises(VersionError):
        parse_document({"version": "2",
                        "divisor": {"n": 3, "components": ["A"]}})


def test_rejects_bad_divisor_blocks():
    base = load(PARALLEL)
    base["divisor"]["strata"][0]["subset"] = [0, 9]
    with pytest.raises(UnknownIdError) as err:
        parse_document(base)
    assert err.value.path == "divisor.strata[0].subset[1]"

    base = load(PARALLEL)
    base["divisor"]["strata"][0]["subset"] = [0, 0]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "divisor.strata[0].subset"

    base = load(PARALLEL)
    del base["divisor"]["strata"][0]["components"]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "divisor.strata[0]"


def test_rejects_bad_parent_references():
    base = load(TRIANGLE)
    base["divisor"]["strata"][0]["components"][0]["parents"] = {"E1": "c23"}
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert "not a component index" in str(err.value)

    base = load(TRIANGLE)
    base["divisor"]["strata"][0]["components"][0]["parents"] = {"2": "c23"}
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert "not in the subset" in str(err.value)

    base = load(TRIANGLE)
    base["divisor"]["strata"][0]["components"][0]["parents"] = {"0": "ghost"}
    with pytest.raises(UnknownIdError) as err:
        parse_document(base)
    assert "unknown parent 'ghost'" in str(err.value)


@pytest.mark.parametrize("key", [" 0", "+1", "0_2", "01", "-0", "1 ", "\u0660"])
def test_rejects_non_canonical_parent_keys(capsys, tmp_path, key):
    # each key names an index of the triple point's subset once passed
    # through int(), so only the canonical-form rule rejects it
    data = load(SPHERE4)
    group = next(g for g in data["divisor"]["strata"] if g["subset"] == [0, 1, 2])
    parents = group["components"][0]["parents"]
    parents[key] = parents.pop(str(int(key)))
    with pytest.raises(SchemaError) as err:
        parse_document(data)
    assert f"key {key!r} is not a component index" in str(err.value)
    assert main(["--input", write_doc(tmp_path, data), "--command", "validate"]) == 1
    assert "not a component index" in capsys.readouterr().err


def test_fixtures_and_resolved_divisors_parse_back():
    def same(a, b):
        return (a.n, a.components) == (b.n, b.components) and (
            {s.id: s for s in a.strata} == {s.id: s for s in b.strata})

    for path in (TRIANGLE, PARALLEL, SPHERE4):
        doc = parse_input(str(path))
        _, machine = run("resolve", doc)
        resolved, _ = resolve_to_simplicial(doc.divisor)
        assert same(parse_document(machine["document"]).divisor, resolved)
    rng = random.Random(40)
    corpus = [random_divisor(rng) for _ in range(60)]
    corpus.append(parallel_curve_divisor(rng, 5, 6))
    for d in corpus:
        for x in (d, resolve_to_simplicial(d)[0]):
            reparsed = parse_document({"version": "1", "divisor": divisor_json(x)})
            assert same(reparsed.divisor, x)


def test_rejects_bad_picard_blocks():
    base = load(TRIANGLE)
    base["picard"]["levels"][0]["ns_torsion"] = [2, 3]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.levels[0].torsion"

    base = load(TRIANGLE)
    base["picard"]["levels"][0]["ns_torsion"] = [1]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.levels[0].torsion[0]"

    base = load(TRIANGLE)
    base["picard"]["ns_maps"] = []
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.ns_maps"

    base = load(TRIANGLE)
    base["picard"]["ns_maps"] = [[[1, -1], [1, 0], [0, 1]]]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.ns_maps[0]"


def test_rejects_bad_dubois_and_field_mode():
    base = load(TRIANGLE)
    base["dubois"]["entries"].append({"p": 0, "q": 2, "b": 1})
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "dubois.entries[1]"

    base = load(TRIANGLE)
    base["dubois"]["isolated"] = "yes"
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "dubois.isolated"

    base = load(TRIANGLE)
    base["field_mode"] = "finite"
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "field_mode"


# ---------------------------------------------------------------------------
# command output


def test_validate_and_cohomology_text():
    doc = parse_input(str(TRIANGLE))
    text, machine = run("validate", doc)
    assert "ok: divisor with 3 component(s) and 3 stratum component(s)" in text
    assert machine["ok"] is True and machine["picard"] is True

    text, machine = run("cohomology", doc)
    assert text.splitlines() == ["H^0 = Z", "H^1 = Z", "H^2 = 0"]
    assert machine["groups"][1] == {"degree": 1, "str": "Z",
                                    "free_rank": 1, "torsion": []}


def test_check_simplicial_text():
    text, machine = run("check-simplicial", parse_input(str(PARALLEL)))
    assert text == "not simplicial; bad: {1,2} × 2"
    assert machine["is_simplicial"] is False
    assert machine["bad"] == [{"subset": ["1", "2"], "count": 2}]

    text, machine = run("check-simplicial", parse_input(str(TRIANGLE)))
    assert text == "simplicial"
    assert machine["bad"] == []


def test_dual_complex_text():
    text, _ = run("dual-complex", parse_input(str(PARALLEL)))
    assert text.splitlines() == [
        "dimension 0: 2 cell(s): 1, 2",
        "dimension 1: 2 cell(s): ca, cb",
    ]


def test_resolve_machine_document_reparses_to_the_resolved_divisor():
    doc = parse_input(str(PARALLEL))
    text, machine = run("resolve", doc)
    assert text.splitlines()[0] == "blowups: 1"
    assert machine["is_simplicial"] is True
    expected, records = resolve_to_simplicial(doc.divisor)
    assert [r["center"] for r in machine["blowups"]] == [r.center for r in records]
    reparsed = parse_document(machine["document"])
    assert reparsed.divisor == expected
    assert run("cohomology", reparsed) == run(
        "cohomology", InputDocument(doc.version, expected, None, None,
                                    doc.field_mode))


def test_kh_report_text_lines():
    text, machine = run("kh-report", parse_input(str(TRIANGLE)))
    lines = text.splitlines()
    assert lines[0] == "kh report: n = 3, field mode algebraically_closed"
    assert lines[1] == "KH_-3(X) = H^2(D(E),Z) = 0"
    assert "  value: Z^2 (exact; split: free quotient)" in lines
    assert "n3 exact: yes" in lines
    assert machine["kh_value"]["total"]["group"]["str"] == "Z^2"
    assert machine["n3_exact"] is True


def test_kh_report_work_is_bounded_by_the_divisor_not_by_n(capsys, tmp_path):
    n = 200000
    data = {
        "version": "1",
        "divisor": {"n": n, "components": ["E1", "E2"], "strata": [
            {"subset": [0, 1], "components": [{"id": "c12", "parents": {}}]}]},
        "picard": {
            "levels": [{"p": n - 4, "ns_rank": 1, "ns_torsion": [], "pic0_dim": 0},
                       {"p": n - 3, "ns_rank": 2, "ns_torsion": [], "pic0_dim": 0},
                       {"p": n - 2, "ns_rank": 2, "ns_torsion": [], "pic0_dim": 0}],
            "ns_maps": [[[0], [0]], [[1, -1], [1, -1]]],
            "coker_pic0_dim": 0,
        },
    }
    argv = ["--input", write_doc(tmp_path, data), "--command", "kh-report",
            "--emit", "both"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 0.5
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"KH_-{n}(X) = H^{n - 1}(D(E),Z) = 0"
    assert "  value: Z (exact)" in lines


def test_k_report_text_and_machine():
    text, machine = run("k-report", parse_input(str(TRIANGLE)))
    assert "  b^{0,2} = 2" in text
    assert "  NK_-2(U) = 2-dim V ⊗ tQ[t]" in text
    assert "  K_-2(X) = extension of KH_-2(X) by a 2-dim k-vector space" in text
    assert machine["v_dim"] == 2
    assert machine["k_equals_kh"] is False
    assert machine["kh"]["n"] == 3


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        run("explode", parse_input(str(PARALLEL)))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(capsys):
    assert main(["--input", str(TRIANGLE), "--command", "validate"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("ok:")
    assert out.err == ""


def test_exit_two_when_a_block_is_missing(capsys, tmp_path):
    assert main(["--input", str(PARALLEL), "--command", "kh-report"]) == 2
    assert "needs the 'picard' block" in capsys.readouterr().err

    data = load(TRIANGLE)
    del data["dubois"]
    assert main(["--input", write_doc(tmp_path, data),
                 "--command", "k-report"]) == 2
    assert "needs the 'dubois' block" in capsys.readouterr().err


def test_exit_one_on_bad_input(capsys, tmp_path):
    assert main(["--input", str(tmp_path / "absent.json"),
                 "--command", "validate"]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["--input", str(bad), "--command", "validate"]) == 1

    data = load(PARALLEL)
    data["version"] = "2"
    assert main(["--input", write_doc(tmp_path, data),
                 "--command", "validate"]) == 1
    assert "version" in capsys.readouterr().err


def test_exit_one_when_an_entry_is_missing_inside_a_block(capsys, tmp_path):
    # the block is present, so this is a data error rather than exit 2
    data = load(TRIANGLE)
    data["dubois"]["entries"] = [{"p": 0, "q": 1, "b": 1}]
    assert main(["--input", write_doc(tmp_path, data),
                 "--command", "k-report"]) == 1
    assert "no entry (0, 2)" in capsys.readouterr().err

    data = load(TRIANGLE)
    data["dubois"]["isolated"] = False
    assert main(["--input", write_doc(tmp_path, data),
                 "--command", "k-report"]) == 1
    assert "isolated" in capsys.readouterr().err


def test_exit_one_on_a_picard_block_below_n_3(capsys, tmp_path):
    # The report needs level n-3 < 0 here, and documents cannot give p < 0.
    data = {"version": "1",
            "divisor": {"n": 2, "components": ["A", "B"],
                        "strata": [{"subset": [0, 1], "components": [{"id": "p"}]}]},
            "picard": {"levels": [{"p": 0, "ns_rank": 2}, {"p": 1, "ns_rank": 1}],
                       "ns_maps": [[[1, -1]]], "coker_pic0_dim": 0}}
    for command in ("kh-report", "validate"):
        assert main(["--input", write_doc(tmp_path, data), "--command", command]) == 1
        err = capsys.readouterr().err
        assert "error: picard: Picard data needs n >= 3, the divisor has n = 2" in err


def test_validate_checks_the_picard_levels_as_the_reports_do(capsys, tmp_path):
    data = load(SPHERE4)
    for level in data["picard"]["levels"]:
        level["p"] += 1
    for command in ("validate", "kh-report"):
        assert main(["--input", write_doc(tmp_path, data), "--command", command]) == 1
        err = capsys.readouterr().err
        assert err == "error: picard: expected levels [0, 1, 2], got [1, 2, 3]\n"


def test_validate_checks_that_the_ns_maps_compose_as_the_reports_do(capsys, tmp_path):
    data = load(SPHERE4)
    for rows in data["picard"]["ns_maps"]:
        rows[0][0] = 1
    for command in ("validate", "kh-report", "k-report"):
        assert main(["--input", write_doc(tmp_path, data), "--command", command]) == 1
        err = capsys.readouterr().err
        assert err == ("error: picard: NS maps do not compose to zero between "
                       "levels 0 and 2\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_validates_the_divisor_once(monkeypatch, capsys, command):
    calls = []
    real = snc.validate_snc

    def counting(d):
        calls.append(d)
        return real(d)

    # every module that imported the name, not only the one defining it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "snckit" and getattr(module, "validate_snc", None) is real:
            monkeypatch.setattr(module, "validate_snc", counting)
    assert main(["--input", str(SPHERE4), "--command", command]) == 0
    assert len(calls) == 1


def test_a_missing_block_is_reported_before_the_divisor_is_checked(capsys, tmp_path):
    data = load(SPHERE4)
    del data["picard"]
    triple = next(g for g in data["divisor"]["strata"] if len(g["subset"]) == 3)
    triple["components"][0]["parents"].popitem()
    path = write_doc(tmp_path, data)
    for command in COMMANDS:
        code = 2 if command in ("kh-report", "k-report") else 1
        assert main(["--input", path, "--command", command]) == code
        err = capsys.readouterr().err
        assert ("needs the 'picard' block" if code == 2
                else "must name one parent per dropped component") in err


@pytest.mark.parametrize("error, code", [
    (SchemaError("divisor", "bad"), 1),
    (VersionError("bad"), 1),
    (SncError("bad"), 1),
    (ComplexViolationError("bad"), 1),
    (LevelMismatchError("bad"), 1),
    (MissingEntryError("bad"), 1),
    (NonIsolatedError("bad"), 1),
    (MissingBlockError("picard", "kh-report"), 2),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
def test_input_errors_exit_one_and_a_missing_block_exits_two(
        monkeypatch, capsys, error, code):
    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    assert main(["--input", str(TRIANGLE), "--command", "validate"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_exit_one_on_deeply_nested_json(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["--input", str(deep), "--command", "validate"]) == 1
    err = capsys.readouterr().err
    assert "nesting is too deep" in err
    assert "internal error" not in err

    text = json.dumps({**load(PARALLEL), "version": "@"})
    deep.write_text(text.replace('"@"', "[" * 100_000 + "]" * 100_000),
                    encoding="utf-8")
    assert main(["--input", str(deep), "--command", "validate"]) == 1
    assert "nesting is too deep" in capsys.readouterr().err


def test_exit_one_when_the_blowup_cap_is_hit(capsys):
    assert main(["--input", str(PARALLEL), "--command", "resolve",
                 "--max-blowups", "0"]) == 1
    assert "blowup" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emission modes and determinism


def test_emit_json_and_both(capsys):
    assert main(["--input", str(PARALLEL), "--command", "check-simplicial",
                 "--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "check-simplicial"

    assert main(["--input", str(PARALLEL), "--command", "check-simplicial",
                 "--emit", "both"]) == 0
    out = capsys.readouterr().out
    text, _, rest = out.partition("\n")
    assert text == "not simplicial; bad: {1,2} × 2"
    assert json.loads(rest)["is_simplicial"] is False


CASES = [(TRIANGLE, c) for c in ("validate", "dual-complex", "cohomology",
                                 "check-simplicial", "resolve", "kh-report",
                                 "k-report")]
CASES += [(PARALLEL, c) for c in ("validate", "dual-complex", "cohomology",
                                  "check-simplicial", "resolve")]
CASES += [(SPHERE4, c) for c in ("validate", "cohomology", "check-simplicial",
                                 "resolve", "kh-report", "k-report")]


@pytest.mark.parametrize("fixture,command", CASES,
                         ids=[f"{p.stem}-{c}" for p, c in CASES])
def test_output_is_byte_identical_across_runs(capsys, fixture, command):
    argv = ["--input", str(fixture), "--command", command, "--emit", "both"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.strip()


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "snckit.cli", "--input", str(PARALLEL),
           "--command", "resolve", "--emit", "both"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"blowups: 1")


# ---------------------------------------------------------------------------
# exit codes on mutated documents

DEEP = "\u0000deep\u0000"
WRONG_TYPES = [None, True, -1, 0, 1.5, "x", "", [], {}, [0, "a"], {"x": 1}]
BAD_KEYS = [" 0", "+1", "0_2", "01", "-1", "99", "x", "", "\u0663", "0", "1", "2"]


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


@st.composite
def mutated_documents(draw, huge):
    """A committed fixture with one to three schema-level mutations.

    ``huge`` lists the large integers that may replace ``n`` or any value.
    """
    data = load(draw(st.sampled_from([TRIANGLE, PARALLEL, SPHERE4])))
    depth = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "index_key", "deep", "huge_n"]))
        nodes = list(_nodes(data))
        if kind == "huge_n":
            if isinstance(data.get("divisor"), dict):
                data["divisor"]["n"] = draw(st.sampled_from(huge))
        elif kind == "index_key":
            dicts = [node for _, node in nodes if isinstance(node, dict) and node]
            if dicts:
                target = draw(st.sampled_from(dicts))
                old_key = draw(st.sampled_from(sorted(target)))
                target[draw(st.sampled_from(BAD_KEYS))] = target.pop(old_key)
        elif len(nodes) > 1:
            path = draw(st.sampled_from([p for p, _ in nodes if p]))
            parent = dict(nodes)[path[:-1]]
            if kind == "drop":
                del parent[path[-1]]
            elif kind == "retype":
                parent[path[-1]] = draw(st.sampled_from(WRONG_TYPES + huge))
            else:
                parent[path[-1]] = DEEP
                depth = draw(st.sampled_from([50, 990, 5000, 100_000]))
    text = json.dumps(data, ensure_ascii=False)
    return text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)


def _exit_code(tmp_path_factory, text: str, command: str) -> int:
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(["--input", str(path), "--command", command, "--emit", "both"])


HUGE = [10 ** 4, 2 ** 63, 10 ** 30]
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@FUZZ
@given(text=mutated_documents(HUGE),
       command=st.sampled_from([c for c in COMMANDS if c != "cohomology"]))
def test_mutated_documents_never_exit_with_an_internal_error(tmp_path_factory,
                                                             text, command):
    assert _exit_code(tmp_path_factory, text, command) in (0, 1, 2)


@FUZZ
@given(text=mutated_documents(HUGE[:1]))
def test_mutated_documents_never_exit_with_an_internal_error_in_cohomology(
        tmp_path_factory, text):
    # the cohomology command prints one line per degree below n, so its
    # run time grows with n (ROADMAP item 5) and n stops at 10^4 here
    assert _exit_code(tmp_path_factory, text, "cohomology") in (0, 1, 2)
