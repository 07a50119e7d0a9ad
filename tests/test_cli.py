"""JSON document parsing, command output, exit codes, and determinism."""
import contextlib
import copy
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from helpers import (
    digit_limit,
    divisor_json,
    middle_homology,
    no_digit_limit,
    parallel_curve_divisor,
    parallel_edges,
    random_divisor,
    random_picard_document,
    strata_of,
    triangle_cycle,
)
from make_error_corpus import CORPUS, document_text, run_text
from make_goldens import GOLDEN, INPUTS
from make_goldens import cases as golden_cases
from make_goldens import run_case
from snckit import (
    FgAbGroup,
    Hom,
    IntMatrix,
    cli,
    presentation_matrix,
    resolve_to_simplicial,
    snc,
)
from snckit.cli import (
    COMMANDS,
    InputDocument,
    MissingBlockError,
    SchemaError,
    document_json,
    main,
    parse_document,
    parse_input,
    run,
)
from snckit.snc import SncError, validate_snc

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
    assert doc.dubois is not None and doc.dubois.entries.get((0, 2)) == 2
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
    assert len(strata_of(doc.divisor)) == 25
    assert doc.picard is not None and len(doc.picard.levels) == 3


def test_document_round_trip():
    for path in (TRIANGLE, PARALLEL, SPHERE4):
        doc = parse_input(str(path))
        assert parse_document(json.loads(cli._json_text(document_json(doc)))) == doc


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
    with pytest.raises(ValueError, match=r"^unsupported document version '2'; this build "
                                          r"reads version 1$"):
        parse_document({"version": "2",
                        "divisor": {"n": 3, "components": ["A"]}})


def _parses_then_fails_validation(data: dict, message: str) -> None:
    # a structural rule: the parser takes the document, validate_snc names
    # the fault
    divisor = parse_document(data).divisor
    with pytest.raises(SncError) as err:
        validate_snc(divisor)
    assert str(err.value) == message


def test_rejects_bad_divisor_blocks():
    base = load(PARALLEL)
    base["divisor"]["components"] = ["1", "1"]
    _parses_then_fails_validation(base, "duplicate component id")

    base = load(PARALLEL)
    base["divisor"]["strata"][0]["subset"] = [0, 9]
    _parses_then_fails_validation(
        base, "stratum ca lies on component position 9, but the divisor has 2 component(s)")

    base = load(PARALLEL)
    base["divisor"]["n"] = 1
    _parses_then_fails_validation(
        base, "stratum ca intersects 2 components in ambient dimension 1")

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

    base = load(SPHERE4)
    _triple_parents(base)["0"] = "ghost"
    _parses_then_fails_validation(
        base, "stratum c012: parent 'ghost' for dropped 'E1' is not a stratum on ('E2', 'E3')")


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


@pytest.mark.parametrize("doc, message", [
    ({}, "document: missing required key 'version'"),
    ({"version": "1", "divisor": {"n": 3, "components": ["A", "B"], "strata": [{}]}},
     "divisor.strata[0]: missing required key 'subset'"),
    ({"version": "1", "divisor": {"n": 3, "components": ["A", "B"], "strata": [
        {"subset": [0, 1], "components": [{"id": "c"}]}]},
      "dubois": {"entries": [{}]}},
     "dubois.entries[0]: missing required key 'p'"),
])
def test_a_missing_key_error_does_not_depend_on_string_hashing(tmp_path, doc, message):
    # Several required keys are missing: the first in schema order is named
    # whatever order a set of the key names would iterate in.
    path = write_doc(tmp_path, doc)
    for seed in ("1", "2", "3", "4"):
        done = subprocess.run([sys.executable, "-m", "snckit.cli", "--input", path,
                               "--command", "validate"], capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert (seed, done.stderr) == (seed, f"error: {message}\n".encode())


def test_fixtures_and_resolved_divisors_parse_back():
    def same(a, b):
        return (a.n, a.components) == (b.n, b.components) and (
            {s.id: s for s in strata_of(a)} == {s.id: s for s in strata_of(b)})

    with_ker_beta = load(SPHERE4)
    with_ker_beta["picard"]["ker_beta"] = {"free_rank": 1, "torsion": [3]}
    docs = [parse_input(str(path)) for path in (TRIANGLE, PARALLEL, SPHERE4)]
    docs.append(parse_document(with_ker_beta))
    for doc in docs:
        _, machine = run("resolve", doc)
        machine = json.loads(cli._json_text(machine))
        echoed = parse_document(machine["document"])
        resolved, _ = resolve_to_simplicial(doc.divisor)
        assert same(echoed.divisor, resolved)
        assert (echoed.picard, echoed.dubois) == (doc.picard, doc.dubois)
    assert machine["document"]["picard"]["ker_beta"] == {"free_rank": 1, "torsion": [3]}
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
    assert err.value.path == "picard.levels[0].ns_torsion"

    base = load(TRIANGLE)
    base["picard"]["levels"][0]["ns_torsion"] = [1]
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.levels[0].ns_torsion[0]"

    base = load(TRIANGLE)
    base["picard"]["levels"][1]["ns_rank"] = -1
    with pytest.raises(SchemaError) as err:
        parse_document(base)
    assert err.value.path == "picard.levels[1].ns_rank"

    # ker_beta is a group block, whose keys are free_rank and torsion
    for key, value, path in (("free_rank", "1", "free_rank"), ("torsion", [0], "torsion[0]")):
        base = load(TRIANGLE)
        base["picard"]["ker_beta"] = {"free_rank": 1, "torsion": [3], key: value}
        with pytest.raises(SchemaError) as err:
            parse_document(base)
        assert err.value.path == f"picard.ker_beta.{path}"

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
    machine = json.loads(cli._json_text(machine))
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
    machine = json.loads(cli._json_text(machine))
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


@pytest.mark.parametrize("n", [cli.COHOMOLOGY_LISTED_DEGREES,
                               cli.COHOMOLOGY_LISTED_DEGREES + 1, 200000, 10 ** 30])
def test_cohomology_work_is_bounded_by_the_divisor_not_by_n(capsys, tmp_path, n):
    data = {"version": "1", "divisor": {"n": n, "components": ["E1", "E2"], "strata": [
        {"subset": [0, 1], "components": [{"id": "c12", "parents": {}}]}]}}
    argv = ["--input", write_doc(tmp_path, data), "--command", "cohomology",
            "--emit", "both"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr().out
    text = out[:out.index("\n{")].splitlines()
    machine = json.loads(out[out.index("\n{"):])
    assert text[:2] == ["H^0 = Z", "H^1 = 0"]
    if n <= cli.COHOMOLOGY_LISTED_DEGREES:
        assert text == [f"H^{i} = {'Z' if i == 0 else 0}" for i in range(n)]
        assert len(machine["groups"]) == n and "zero_degrees" not in machine
    else:
        # the dual complex is an interval: H^i = 0 from degree 1 up, and
        # the degrees above its dimension 1 print as one line
        assert text[2:] == [f"H^i = 0 for 2 <= i <= {n - 1}"]
        assert [g["degree"] for g in machine["groups"]] == [0, 1]
        assert machine["zero_degrees"] == {"first": 2, "last": n - 1}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_takes_time_flat_in_n(capsys, tmp_path, command):
    # sphere4.json with n raised 1000x, its Picard levels and Du Bois entry
    # moved to match: the divisor is the same, so the work must be too.
    def argv(factor: int) -> list[str]:
        data = load(SPHERE4)
        shift = data["divisor"]["n"] * (factor - 1)
        data["divisor"]["n"] += shift
        for level in data["picard"]["levels"]:
            level["p"] += shift
        for entry in data["dubois"]["entries"]:
            entry["q"] += shift
        return ["--input", write_doc(tmp_path, data, f"n{factor}.json"), "--command", command,
                "--emit", "both"]

    def seconds(args: list[str]) -> float:
        start = time.process_time()
        assert main(args) == 0
        took = time.process_time() - start
        capsys.readouterr()
        return took

    # CPU time, the two runs interleaved, so that load on the host weighs
    # on both alike
    small, large = argv(1), argv(1000)
    base = wide = float("inf")
    for _ in range(3):
        base = min(base, seconds(small))
        wide = min(wide, seconds(large))
    assert wide <= 4 * base + 0.01, (wide, base)


def test_k_report_text_and_machine():
    text, machine = run("k-report", parse_input(str(TRIANGLE)))
    machine = json.loads(cli._json_text(machine))
    assert "  b^{0,2} = 2" in text
    assert "  NK_-2(U) = 2-dim V ⊗ tQ[t]" in text
    assert "  K_-2(X) = extension of KH_-2(X) by a 2-dim k-vector space" in text
    assert machine["v_dim"] == 2
    assert machine["k_equals_kh"] is False
    assert machine["kh"]["n"] == 3


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        run("explode", parse_input(str(PARALLEL)))


def test_the_benchmark_tracer_leaves_stdout_alone(capsys, monkeypatch):
    # perfbench/tracer.py wraps the layer modules' functions and looks up
    # IntMatrix.transpose, IntMatrix.__matmul__ and DualComplex.chain_complex
    # by name, so deleting any of them breaks the traced benchmark here.
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    from tracer import Tracer

    def outputs() -> list[str]:
        out = []
        for path, command in ((SPHERE4, "kh-report"), (PARALLEL, "resolve")):
            argv = ["--input", str(path), "--command", command, "--emit", "both"]
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    matmul = IntMatrix.__matmul__
    plain = outputs()
    tracer = Tracer()
    tracer.install()
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.snapshot()
    assert spans["khasm.kh_report"][0] == spans["snc.resolve_to_simplicial"][0] == 1
    assert spans["snc.DualComplex.chain_complex"][0] >= 1
    assert IntMatrix.__matmul__ is matmul


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


def _triple_parents(data: dict) -> dict:
    triple = next(g for g in data["divisor"]["strata"] if len(g["subset"]) == 3)
    return triple["components"][0]["parents"]


def _add_stratum(data: dict, subset: list) -> None:
    data["divisor"]["strata"].append({"subset": subset, "components": [{"id": "cx"}]})


@pytest.mark.parametrize("fault, message", [
    (lambda data: _triple_parents(data).popitem(),
     "stratum c012 must name one parent per dropped component"),
    (lambda data: data["divisor"]["components"].append("E1"), "duplicate component id"),
    (lambda data: _add_stratum(data, [0, 9]),
     "stratum cx lies on component position 9, but the divisor has 5 component(s)"),
    (lambda data: _add_stratum(data, [0, 1, 2, 3, 4]),
     "stratum cx intersects 5 components in ambient dimension 4"),
    (lambda data: _triple_parents(data).update({"0": "ghost"}),
     "stratum c012: parent 'ghost' for dropped 'E1' is not a stratum on ('E2', 'E3')"),
], ids=["missing-parent", "repeated-component", "index-out-of-range", "deeper-than-n",
        "unknown-parent"])
def test_a_missing_block_is_reported_before_the_divisor_is_checked(
        capsys, tmp_path, fault, message):
    data = load(SPHERE4)
    del data["picard"]
    fault(data)
    path = write_doc(tmp_path, data)
    for command in COMMANDS:
        code = 2 if command in ("kh-report", "k-report") else 1
        assert main(["--input", path, "--command", command]) == code
        err = capsys.readouterr().err
        assert err == (f"error: command {command!r} needs the 'picard' block\n"
                       if code == 2 else f"error: {message}\n")


@pytest.mark.parametrize("error, code", [
    (SchemaError("divisor", "bad"), 1),
    (SncError("bad"), 1),
    (ValueError("bad"), 1),
    (MissingBlockError("picard", "kh-report"), 2),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
def test_input_errors_exit_one_and_a_missing_block_exits_two(
        monkeypatch, capsys, error, code):
    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    assert main(["--input", str(TRIANGLE), "--command", "validate"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def _set(keys: tuple, value: object):
    def edit(data: dict) -> None:
        *head, last = keys
        for key in head:
            data = data[key]
        data[last] = value
    return edit


def _drop_level_zero(data: dict) -> None:
    del data["picard"]["levels"][0], data["picard"]["ns_maps"][0]


def _compose_to_nonzero(data: dict) -> None:
    first, second = data["picard"]["ns_maps"]
    first[0][0] = second[0][0] = 1


@pytest.mark.parametrize("edit, message", [
    (_set(("version",), "2"),
     "unsupported document version '2'; this build reads version 1"),
    (_drop_level_zero, "picard: expected levels [0, 1, 2], got [1, 2]"),
    (_compose_to_nonzero, "picard: NS maps do not compose to zero between levels 0 and 2"),
    (_set(("dubois", "entries", 0, "q"), 2), "Du Bois table has no entry (0, 3)"),
    (_set(("dubois", "isolated"), False),
     "NK in degree 1-n is only computed for isolated singular points"),
], ids=["version", "levels", "maps-compose", "missing-entry", "non-isolated"])
def test_each_value_error_of_a_real_document_exits_one(capsys, tmp_path, edit, message):
    data = load(SPHERE4)
    edit(data)
    path = write_doc(tmp_path, data)
    assert main(["--input", path, "--command", "k-report"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def _run_quietly(path: Path) -> tuple[int, str]:
    """Exit code and stderr of one in-process ``validate`` run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--input", str(path), "--command", "validate", "--emit", "both"])
    return code, err.getvalue()


def _from_a_deep_stack(spare: int, call):
    """``call()`` made with only ``spare`` frames left below the recursion limit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def down(k):
        return call() if k <= 0 else down(k - 1)

    return down(sys.getrecursionlimit() - spare - depth)


def _deep_documents(depth: int) -> dict[str, str]:
    """Documents holding arrays ``depth`` deep where the schema wants other values."""
    deep = "[" * depth + "]" * depth
    sphere = json.dumps(load(SPHERE4))
    # the last "c01" is a parent value, as in the corpus's drawn cases
    head, _, tail = sphere.rpartition('"c01"')
    return {
        "whole": deep,
        "version": json.dumps({**load(PARALLEL), "version": "@"}).replace('"@"', deep),
        "n": sphere.replace('"n": 4', f'"n": {deep}', 1),
        "parent": head + deep + tail,
    }


@pytest.mark.parametrize("depth", [990, 5000, 100_000])
def test_deep_documents_fail_alike_from_a_shallow_and_a_deep_stack(tmp_path, depth):
    # json.load's reach and the error text's depend on the interpreter and
    # the caller's stack; past MAX_NESTING the error is the nesting alone
    for name, text in _deep_documents(depth).items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        want = (1, "error: document: nesting is too deep\n")
        assert _run_quietly(path) == want, name
        assert _from_a_deep_stack(100, lambda: _run_quietly(path)) == want, name


def test_a_document_past_max_nesting_that_decodes_is_too_deep(tmp_path):
    for name, text in _deep_documents(600).items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        json.loads(text)        # it decodes on every supported Python
        assert _run_quietly(path) == (1, "error: document: nesting is too deep\n"), name


def test_nesting_up_to_max_nesting_keeps_the_schema_error(tmp_path):
    path = tmp_path / "doc.json"
    for depth, err in ((cli.MAX_NESTING, "document: expected an object, got list"),
                       (cli.MAX_NESTING + 1, "document: nesting is too deep")):
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        assert _run_quietly(path) == (1, f"error: {err}\n")
    for name, text in _deep_documents(50).items():
        path.write_text(text, encoding="utf-8")
        code, err = _run_quietly(path)
        assert code == 1 and "nesting is too deep" not in err, (name, err)


def test_exit_one_when_the_blowup_cap_is_hit(capsys):
    assert main(["--input", str(PARALLEL), "--command", "resolve",
                 "--max-blowups", "0"]) == 1
    assert "blowup" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--max-blowups", "-1"], "expected a non-negative integer, got '-1'"),
    (["--max-blowups", "x"], "expected a non-negative integer, got 'x'"),
    (["--max-blowups", "1.5"], "expected a non-negative integer, got '1.5'"),
    # digits of other scripts, which int() reads but the flag does not take
    (["--max-blowups", "\u0663"], "expected a non-negative integer, got '\u0663'"),
    (["--max-blowups", "\uff13"], "expected a non-negative integer, got '\uff13'"),
    (["--emit", "yaml"], "invalid choice"),
    (["--command", "nope"], "invalid choice")])
def test_usage_errors_exit_two_before_the_document_is_read(capsys, tmp_path, flags,
                                                           message):
    argv = ["--input", str(tmp_path / "absent.json"), "--command", "resolve", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flags[0]}: {message}" in captured.err


@pytest.mark.parametrize("error,code", [(ValueError, 1), (RuntimeError, 3), (TypeError, 3)])
def test_a_rendering_failure_prints_nothing_and_sets_the_exit_code(
        monkeypatch, capsys, error, code):
    def fail(machine):
        raise error("cannot render")

    monkeypatch.setattr(cli, "_json_text", fail)
    assert main(["--input", str(PARALLEL), "--command", "resolve", "--emit", "both"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot render" in captured.err


def test_an_id_that_stdout_cannot_encode_exits_one_without_a_traceback(tmp_path):
    # a lone surrogate parses from a JSON escape but has no UTF-8 encoding
    path = tmp_path / "doc.json"
    path.write_text('{"version": "1", "divisor": {"n": 2, "components": ["\\ud800"]}}',
                    encoding="ascii")
    done = subprocess.run([sys.executable, "-m", "snckit.cli", "--input", str(path),
                           "--command", "dual-complex", "--emit", "both"],
                          capture_output=True, env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.startswith(b"error: ") and b"Traceback" not in done.stderr


def test_a_lone_surrogate_id_exits_one_whatever_stdout_encodes(tmp_path):
    # Under a C locale stdout escapes surrogates back to raw bytes, so only
    # rejecting them while parsing keeps the output a function of the document.
    path = tmp_path / "doc.json"
    path.write_text('{"version": "1", "divisor": {"n": 2, "components": ["\\udc80"]}}',
                    encoding="ascii")
    base = {k: v for k, v in os.environ.items()
            if k not in ("LC_ALL", "LANG", "PYTHONIOENCODING", "PYTHONUTF8")}
    for env in ({"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8"}):
        done = subprocess.run([sys.executable, "-m", "snckit.cli", "--input", str(path),
                               "--command", "dual-complex", "--emit", "both"],
                              capture_output=True, env={**base, **env})
        assert (env, done.returncode, done.stdout) == (env, 1, b"")
        assert done.stderr.startswith(b"error: divisor.components[0]: ")


@pytest.mark.parametrize("path, edit", [
    ("divisor.components[1]",
     lambda doc: doc["divisor"]["components"].__setitem__(1, "E\udc80")),
    ("divisor.strata[0].components[0].id",
     lambda doc: doc["divisor"]["strata"][0]["components"][0].__setitem__("id", "\ud800")),
    ("divisor.strata[0].components[0].parents['0']",
     lambda doc: doc["divisor"]["strata"][0]["components"][0].__setitem__(
         "parents", {"0": "c\udfff"})),
    ("field_mode", lambda doc: doc.__setitem__("field_mode", "\udc80")),
])
def test_rejects_strings_with_a_lone_surrogate(path, edit):
    doc = load(TRIANGLE)
    edit(doc)
    with pytest.raises(SchemaError) as err:
        parse_document(doc)
    assert err.value.path == path
    assert "lone surrogate" in str(err.value)


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


def test_resolve_output_does_not_depend_on_string_hashing(tmp_path):
    # The index the blowups run on builds and walks sets of ids.
    d = parallel_curve_divisor(random.Random(19), 10, 20)
    generated = write_doc(tmp_path, {"version": "1", "divisor": divisor_json(d)})
    for path in (str(PARALLEL), generated):
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            done = subprocess.run([sys.executable, "-m", "snckit.cli", "--input", path,
                                   "--command", "resolve", "--emit", "both"],
                                  capture_output=True, check=True,
                                  env={**os.environ, "PYTHONHASHSEED": seed})
            outputs.add(done.stdout)
        assert len(outputs) == 1, path
    assert b"blowups: 0" not in done.stdout


# ---------------------------------------------------------------------------
# the cyclic garbage collector


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_runs_with_the_collector_off_and_restores_the_callers_state(
        monkeypatch, capsys, tmp_path, enabled):
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return run(*args)

    def explode(*args):
        raise RuntimeError("boom")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with monkeypatch.context() as m:
            m.setattr(cli, "run", spy)
            for argv, code in [
                    (["--input", str(TRIANGLE), "--command", "validate"], 0),
                    (["--input", str(tmp_path / "absent.json"), "--command", "validate"], 1),
                    (["--input", str(PARALLEL), "--command", "kh-report"], 2)]:
                assert main(argv) == code
                assert gc.isenabled() is enabled
            assert seen == [False, False]   # the absent file fails before run
            m.setattr(cli, "run", explode)
            assert main(["--input", str(TRIANGLE), "--command", "validate"]) == 3
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["--input", str(TRIANGLE), "--command", "nope"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_runs_leave_no_garbage_for_the_collector(tmp_path):
    # Evidence that turning the collector off in main cannot grow memory:
    # reference counting alone frees what every golden run and every error
    # corpus run makes.  The warm-up call makes the parser's one-time
    # objects, some of them cyclic.
    run_case(TRIANGLE, "validate")
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _, path, command in golden_cases():
            run_case(path, command)
        for case in json.loads(CORPUS.read_text(encoding="utf-8")):
            text = document_text(case)
            for command in case["runs"]:
                run_text(text, command, tmp_path)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_a_run_formats_each_distinct_group_once_and_keeps_no_memo(monkeypatch, capsys):
    # A k-report holds 5 distinct groups in 38 places of its text and JSON.
    # Each is formatted once per main() call; the next call formats them
    # again, since nothing of the first call's memo is left.
    argv = ["--input", str(INPUTS / "dense-picard-00.json"),
            "--command", "k-report", "--emit", "both"]
    formatted = []
    plain_str = FgAbGroup.__str__

    def counted(g):
        formatted.append(g)
        return plain_str(g)

    monkeypatch.setattr(FgAbGroup, "__str__", counted)
    want = (GOLDEN / "dense-picard-00.k-report.stdout").read_text(encoding="utf-8")
    runs = []
    for _ in range(2):
        formatted.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert len(formatted) == len(set(formatted)) == 5
        assert cli._texts is None
        runs.append(list(formatted))
    assert runs[1] == runs[0]


# ---------------------------------------------------------------------------
# Python's limit on the digits of an int converted from or to a string


def test_an_answer_past_the_digit_limit_prints_and_the_callers_limit_comes_back(
        monkeypatch, capsys, tmp_path):
    # Each input has about 3,000 digits, within the default limit of 4,300;
    # coker(NS) = Z/ab has about 6,000.  An input past the limit still
    # fails, since documents are decoded under the caller's limit, and the
    # error names its path.
    a, b = 10 ** 2999 + 1, 2 ** 9960
    data = load(TRIANGLE)
    del data["dubois"]
    data["picard"] = {"levels": [{"p": 0, "ns_rank": 2, "ns_torsion": [], "pic0_dim": 0},
                                 {"p": 1, "ns_rank": 2, "ns_torsion": [], "pic0_dim": 0}],
                      "ns_maps": [[[a, 0], [0, b]]], "coker_pic0_dim": 0}
    path = write_doc(tmp_path, data)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(load(TRIANGLE)).replace(
        "[[[1, -1, 0]", "[[[1" + "0" * 5000 + ", -1, 0]"), encoding="utf-8")
    caller = digit_limit()
    assert main(["--input", path, "--command", "kh-report", "--emit", "json"]) == 0
    out = capsys.readouterr().out
    assert digit_limit() == caller
    if caller:
        assert main(["--input", str(huge), "--command", "kh-report"]) == 1
        assert capsys.readouterr().err == (
            "error: picard.ns_maps[0][0][0]: integer has 5001 digits, more than "
            f"the limit of {caller} for integer string conversion\n")
        assert digit_limit() == caller
    monkeypatch.setattr(cli, "run", lambda *_: 1 / 0)
    assert main(["--input", path, "--command", "kh-report"]) == 3
    assert digit_limit() == caller
    with no_digit_limit():
        coker_ns = json.loads(out)["units_cohomology"]["coker_ns"]
        assert coker_ns == {"str": str(FgAbGroup.from_factors(0, (a, b))),
                            "free_rank": 0, "torsion": [a * b]}


def test_an_input_integer_past_the_digit_limit_is_named_at_its_path(capsys, tmp_path):
    # the first such integer in document order, its sign not counted
    caller = digit_limit()
    if not caller:
        pytest.skip("this Python has no digit limit")
    big = "1" + "0" * caller
    documents = {
        '{"version": "1", "divisor": {"n": BIG, "components": ["E1"], '
        '"strata": [{"subset": [-BIG]}]}}': "divisor.n",
        '{"version": "1", "divisor": {"n": 3, "components": ["E1"], '
        '"strata": [{"subset": [0, -BIG, BIG]}]}}': "divisor.strata[0].subset[1]",
        '[0, {"a": [1, BIG]}, BIG]': "document[1].a[1]",
        "-BIG": "document",
        # a repeated key keeps its last value, so the document is checked
        '{"version": "1", "divisor": {"n": BIG, "n": 0, "components": ["E1"]}}':
            "divisor.n: must be >= 1, got 0",
    }
    for text, where in documents.items():
        path = tmp_path / "doc.json"
        path.write_text(text.replace("BIG", big), encoding="utf-8")
        assert main(["--input", str(path), "--command", "validate"]) == 1
        err = capsys.readouterr().err
        if ":" in where:
            assert err == f"error: {where}\n"
        else:
            assert err == (f"error: {where}: integer has {caller + 1} digits, more than "
                           f"the limit of {caller} for integer string conversion\n")


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
                # a copy: a later mutation of this draw may edit the value
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES + huge)))
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
@given(text=mutated_documents(HUGE))
def test_mutated_documents_never_exit_with_an_internal_error_in_cohomology(
        tmp_path_factory, text):
    # past COHOMOLOGY_LISTED_DEGREES the zero degrees above the dual
    # complex print as one line, so n may be as huge here as elsewhere
    assert _exit_code(tmp_path_factory, text, "cohomology") in (0, 1, 2)


# ---------------------------------------------------------------------------
# exit codes on generated valid documents


@st.composite
def generated_documents(draw):
    """A document of a valid divisor from ``random_divisor`` (parallel
    members among its clones) or ``parallel_curve_divisor``, with n drawn
    from the deepest stratum's depth (at least 2) to 5, and the groups and
    their members in shuffled order."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        d = random_divisor(rng)
    else:
        m = rng.randrange(3, 7)
        d = parallel_curve_divisor(rng, m, rng.randrange(0, m * (m - 1) // 2))
    block = divisor_json(d)
    block["n"] = draw(st.integers(max([2] + [len(s.subset) for s in strata_of(d)]), 5))
    rng.shuffle(block["strata"])
    for group in block["strata"]:
        rng.shuffle(group["components"])
    return {"version": "1", "divisor": block}


def _run_json(path: Path, command: str, *flags: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", str(path), "--command", command, "--emit", "json", *flags])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=generated_documents(), cap=st.sampled_from([0, 1, 3, None]))
def test_generated_documents_keep_the_documented_exit_codes(tmp_path_factory, doc, cap):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    reports = {}
    for command in ("validate", "dual-complex", "cohomology", "check-simplicial"):
        code, out, err = _run_json(path, command)
        assert code == 0, (command, err)
        reports[command] = json.loads(out)
    code, out, err = _run_json(path, "resolve",
                               *([] if cap is None else ["--max-blowups", str(cap)]))
    if code == 1:
        # only the blowup cap may stop a valid document
        assert cap is not None and f" after {cap} blowups" in err, err
        assert not reports["check-simplicial"]["is_simplicial"]
        return
    assert code == 0, err
    resolved = json.loads(out)["document"]
    assert parse_document(resolved).divisor.n == doc["divisor"]["n"]
    path = tmp_path_factory.getbasetemp() / "generated-resolved.json"
    path.write_text(json.dumps(resolved), encoding="utf-8")
    code, out, err = _run_json(path, "check-simplicial")
    assert code == 0 and json.loads(out)["is_simplicial"] is True, err
    code, out, err = _run_json(path, "cohomology")
    assert code == 0 and json.loads(out) == reports["cohomology"], err


def _sympy_cokernel(h: Hom) -> FgAbGroup:
    """coker(h) from sympy's Smith form of [matrix | target relations]."""
    stacked = h.matrix.hstack(presentation_matrix(h.target))
    diag = []
    if stacked.nrows and stacked.ncols:
        snf = sympy_snf(sympy.Matrix(stacked.to_lists()), domain=sympy.ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(stacked.shape))]
    return FgAbGroup.from_factors(h.target.ngens - sum(1 for x in diag if x),
                                  [x for x in diag if x > 1])


def _group_json(g: FgAbGroup) -> dict:
    return {"str": str(g), "free_rank": g.free_rank, "torsion": list(g.torsion)}


def _check_picard_document(path: Path, doc: dict) -> set[str]:
    """Run kh-report and k-report on ``doc``; both must exit 0 with the
    oracles' coker(NS), ker(NS) and Gamma.  Returns what the document
    covers.  Answers may have more digits than Python's default limit for
    converting an int to str, which the CLI lifts for its output."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    picard = doc["picard"]
    groups = [FgAbGroup(lv["ns_rank"], tuple(lv["ns_torsion"])) for lv in picard["levels"]]
    homs = [Hom(a, b, IntMatrix(rows, ncols=a.ngens))
            for a, b, rows in zip(groups, groups[1:], picard["ns_maps"])]
    main = homs[-1]
    below = homs[0].matrix if len(homs) == 2 else IntMatrix.zero(main.source.ngens, 0)
    ker_ns = middle_homology(main, IntMatrix.zero(main.source.ngens, 0))
    gamma = middle_homology(main, below)
    outs = {}
    for command in ("kh-report", "k-report"):
        code, outs[command], err = _run_json(path, command)
        assert code == 0, (command, err)
    with no_digit_limit():
        want = {"coker_ns": _group_json(_sympy_cokernel(main)),
                "lattice_lprime": _group_json(ker_ns), "lattice_l": _group_json(gamma)}
        for command, out in outs.items():
            report = json.loads(out)
            report = report["kh"] if command == "k-report" else report
            assert report["units_cohomology"]["coker_ns"] == want["coker_ns"]
            assert report["one_motive"]["lattice_lprime"] == want["lattice_lprime"]
            assert report["one_motive"]["lattice_l"] == want["lattice_l"]
    entries = [x for h in homs for row in h.matrix.rows() for x in row]
    covers = {
        "n = 4": len(homs) == 2,
        "torsion on every level": all(g.torsion for g in groups),
        "a zero level": any(g.ngens == 0 for g in groups),
        "a map with no rows": any(h.matrix.nrows == 0 for h in homs),
        "a map with no columns": any(h.matrix.ncols == 0 for h in homs),
        "Gamma a proper quotient": gamma != ker_ns,
        "entries above 200 digits": any(abs(x) > 10 ** 200 for x in entries),
    }
    return {name for name, holds in covers.items() if holds}


def test_generated_picard_documents_exit_zero_with_the_oracle_groups(tmp_path):
    # Two- and three-level Picard complexes whose maps compose to zero by
    # construction, with entries of up to a few hundred digits.
    rng = random.Random(25)
    seen = set()
    for k in range(200):
        doc = random_picard_document(rng, 3 + k % 2, rng.choice((1, 2, 30, 300)))
        seen |= _check_picard_document(tmp_path / "picard.json", doc)
    assert seen == {"n = 4", "torsion on every level", "a zero level", "a map with no rows",
                    "a map with no columns", "Gamma a proper quotient",
                    "entries above 200 digits"}


@pytest.mark.parametrize("seed,levels", [
    (1, [(2, (2,)), (2, (4,))]),
    (2, [(1, (2,)), (3, ()), (2, (3,))]),
    (3, [(2, ()), (2, (2,)), (1, (2, 6))]),
])
def test_picard_documents_with_3000_digit_entries_exit_zero(tmp_path, seed, levels):
    groups = [FgAbGroup(free, torsion) for free, torsion in levels]
    doc = random_picard_document(random.Random(seed), len(groups) + 1, 3000, groups=groups)
    seen = _check_picard_document(tmp_path / "picard.json", doc)
    assert "entries above 200 digits" in seen
