"""Acceptance suite: one test per shipped claim, each at its stated budget.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Corpus-based criteria share one seeded corpus, so their checks
see the same divisors.
"""
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from helpers import (
    Z,
    ZERO_GROUP,
    brute_force_bad,
    complex_from_matrices,
    det,
    minors_invariant_factors,
    one_row_page,
    random_divisor,
    random_matrix,
    triangle_cycle,
    triangle_picard,
)
from snckit import (
    ChainComplex,
    DuBoisTable,
    IntMatrix,
    SncDivisor,
    blowup_point_on_double_curve,
    build_dual_complex,
    cohomology,
    e2_page,
    find_bad_intersections,
    k_report,
    kh_report,
    resolve_to_simplicial,
    smith_normal_form,
    validate_snc,
)
from snckit.abgroup import FgAbGroup
from snckit.cli import _json_text, main, parse_document, parse_input, run

FIXTURES = Path(__file__).parent / "fixtures"
INPUT_FIXTURES = {
    "triangle_cycle.json": ("validate", "dual-complex", "cohomology",
                            "check-simplicial", "resolve", "kh-report",
                            "k-report"),
    "parallel_edges.json": ("validate", "dual-complex", "cohomology",
                            "check-simplicial", "resolve"),
    "sphere4.json": ("validate", "dual-complex", "cohomology",
                     "check-simplicial", "resolve", "kh-report", "k-report"),
}


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(97)
    return [random_divisor(rng) for _ in range(120)]


def cohomology_profile(d: SncDivisor, up_to: int) -> tuple:
    cx = build_dual_complex(d).chain_complex()
    return tuple(cohomology(cx, i) for i in range(up_to))


def test_criterion_1_smith_form_bulk_and_minors_oracle():
    start = time.perf_counter()
    rng = random.Random(10001)
    oracle_hits = 0
    for _ in range(10_000):
        a = random_matrix(rng, max_dim=6, span=9)
        f = smith_normal_form(a)
        assert f.u @ a @ f.v == f.d
        assert det(f.u) in (1, -1)
        assert det(f.v) in (1, -1)
        diag = f.diagonal
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert not (x == 0 and y != 0)
            assert x == 0 or y % x == 0
        if max(a.shape, default=0) <= 4:
            assert [x for x in f.diagonal if x] == minors_invariant_factors(a)
            oracle_hits += 1
    elapsed = time.perf_counter() - start
    assert oracle_hits >= 2_000
    assert elapsed < 30.0, f"SNF bulk check took {elapsed:.1f}s"


def test_criterion_2_cohomology_oracle_suite():
    def simplex_boundary(n: int, full: bool = False) -> ChainComplex:
        top = n + 1 if full else n
        cells = [list(itertools.combinations(range(n + 1), d + 1))
                 for d in range(top)]
        boundaries = []
        for d in range(1, top):
            pos = {c: i for i, c in enumerate(cells[d - 1])}
            m = [[0] * len(cells[d]) for _ in cells[d - 1]]
            for col, cell in enumerate(cells[d]):
                for k in range(len(cell)):
                    m[pos[cell[:k] + cell[k + 1:]]][col] += (-1) ** k
            boundaries.append(IntMatrix(m, ncols=len(cells[d])))
        return complex_from_matrices(0, [len(c) for c in cells], boundaries)

    start = time.perf_counter()
    suite = [
        (simplex_boundary(2), (Z, Z)),                      # circle
        (simplex_boundary(2, full=True), (Z, ZERO_GROUP, ZERO_GROUP)),
        (simplex_boundary(3), (Z, ZERO_GROUP, Z)),          # 2-sphere
        (simplex_boundary(4), (Z, ZERO_GROUP, ZERO_GROUP, Z)),
        (complex_from_matrices(0, (2, 2), [IntMatrix([[-1, -1], [1, 1]])]), (Z, Z)),
        (complex_from_matrices(0, (1, 2, 1), [IntMatrix.zero(1, 2),
                                              IntMatrix.zero(2, 1)]),
         (Z, FgAbGroup(2), Z)),                             # 2-torus
    ]
    for cx, expected in suite:
        got = tuple(cohomology(cx, i) for i in range(len(expected)))
        assert got == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle suite took {elapsed:.2f}s"


def test_criterion_3_one_row_page_agrees_with_dual_complex_cohomology(corpus):
    assert len(corpus) >= 100
    start = time.perf_counter()
    for d in corpus:
        cx = build_dual_complex(d).chain_complex()
        degrees = range(len(cx.ranks))
        page = e2_page(one_row_page(cx), [(p, 0) for p in degrees])
        for p in degrees:
            assert page.entries.get((p, 0), ZERO_GROUP) == cohomology(cx, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"corpus comparison took {elapsed:.1f}s"


def test_criterion_4_bad_intersections_match_brute_force(corpus):
    for d in corpus:
        dup, brute_simplicial = brute_force_bad(d)
        bad, simplicial = find_bad_intersections(d)
        assert simplicial == brute_simplicial
        assert {frozenset(subset): count for subset, count in bad} == dup


def test_criterion_5_resolution_terminates_monotonically_and_fixes_cohomology(corpus):
    for d in corpus:
        top = max(d.n, 5) + 1
        before = cohomology_profile(d, top)
        resolved, records = resolve_to_simplicial(d, max_blowups=500)
        validate_snc(resolved)
        assert find_bad_intersections(resolved).is_simplicial
        assert all(rec.bad_decrement >= 1 for rec in records)
        assert cohomology_profile(resolved, top) == before


def test_criterion_6_point_blowup_intersection_table_replay():
    m = 5
    comps = [f"E{i}" for i in range(1, m + 1)]
    strata = [(f"c1{i}", ("E1", f"E{i}"), {}) for i in range(2, m + 1)]
    d = SncDivisor.build(3, comps, strata)
    validate_snc(d)
    before = cohomology_profile(d, 3)

    after, record = blowup_point_on_double_curve(d, "c12")
    validate_snc(after)
    new = record.new_component

    pairs = {s.subset for s in after.strata if len(s.subset) == 2}
    assert {("E1", f"E{i}") for i in range(2, m + 1)} <= pairs
    assert ("E1", new) in pairs and ("E2", new) in pairs
    # every other pairwise intersection with the new wall is empty
    assert all((f"E{i}", new) not in pairs for i in range(3, m + 1))
    assert [s.subset for s in after.strata if len(s.subset) == 3] \
        == [("E1", "E2", new)]
    assert cohomology_profile(after, 3) == before


def test_criterion_7_triangle_cycle_report_matches_committed_hand_computation():
    start = time.perf_counter()
    expected = json.loads(
        (FIXTURES / "triangle_cycle_expected.json").read_text(encoding="utf-8"))

    d = triangle_cycle()
    cx = build_dual_complex(d).chain_complex()
    assert str(cohomology(cx, 0)) == expected["h0"]
    assert str(cohomology(cx, 1)) == expected["h1"]

    rep = kh_report(d, triangle_picard())
    assert str(rep.kh_top) == expected["kh_top"]
    assert str(rep.one_motive.lattice_lprime) == expected["ker_ns"]
    assert str(rep.units_cohomology.coker_ns) == expected["coker_ns"]
    assert str(rep.one_motive.lattice_l) == expected["gamma"]
    assert rep.units_cohomology.torus.rank == expected["torus_rank"]
    assert str(rep.units_cohomology.coker_pic.group) == expected["coker_pic"]
    assert rep.units_cohomology.coker_pic.exact

    assert str(rep.kh_value.total.group) == expected["kh_value_total"]
    assert rep.kh_value.split == expected["kh_split"]
    assert rep.kh_value.total.exact == expected["kh_exact"]
    assert rep.kh_is_finitely_generated == expected["kh_finitely_generated"]
    assert rep.n3_exact == expected["n3_exact"]

    assert str(rep.ker_alpha.ses.total.group) == expected["ker_alpha_total"]
    assert rep.ker_alpha.ses.total.exact == expected["ker_alpha_exact"]
    assert str(rep.ker_alpha.ker_ns_bound) == expected["ker_alpha_standing_bound"]
    assert str(rep.coker_alpha.total.group) == expected["coker_alpha_total"]
    assert rep.coker_alpha.total.exact == expected["coker_alpha_exact"]

    k = k_report(rep, DuBoisTable({(0, 2): expected["v_dim"]}))
    assert k.v_dim == expected["v_dim"]
    assert str(k.nk_shape) == expected["nk_shape"]
    assert k.k_equals_kh == expected["k_equals_kh"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"


def test_criterion_8_opaque_differential_markers_only_when_honest():
    unknown_markers = ("modulo the image of the degree-2 differential",
                       "opaque map out of H^{n-3}")

    # n = 3: the top differential vanishes structurally
    for mode in ("algebraically_closed", "general"):
        rep = kh_report(triangle_cycle(), triangle_picard(), mode)
        assert rep.d2_top_known_zero
        _, machine = run("kh-report", parse_document({
            "version": "1",
            "divisor": json.loads(
                (FIXTURES / "triangle_cycle.json").read_text())["divisor"],
            "picard": json.loads(
                (FIXTURES / "triangle_cycle.json").read_text())["picard"],
            "field_mode": mode,
        }))
        blob = _json_text(machine)
        assert not any(marker in blob for marker in unknown_markers)

    # n = 4 with H^1(D(E)) = 0: every unknown is forced to zero
    doc = parse_input(str(FIXTURES / "sphere4.json"))
    rep = kh_report(doc.divisor, doc.picard, doc.field_mode)
    assert rep.n == 4
    assert rep.h_n_minus_3.is_trivial()
    assert rep.d2_top_known_zero
    assert rep.ker_alpha.ses.quotient.exact
    blob = _json_text(run("kh-report", doc)[1])
    assert not any(marker in blob for marker in unknown_markers)

    # contrast: n = 4 with H^1 = Z really is opaque and must say so
    square = SncDivisor.build(4, ["E1", "E2", "E3", "E4"], [
        ("c12", ("E1", "E2"), {}), ("c23", ("E2", "E3"), {}),
        ("c34", ("E3", "E4"), {}), ("c14", ("E1", "E4"), {})])
    loop_rep = kh_report(square, parse_document({
        "version": "1",
        "divisor": {"n": 4, "components": ["E1", "E2", "E3", "E4"]},
        "picard": {"levels": [{"p": 0, "ns_rank": 1}, {"p": 1, "ns_rank": 1},
                              {"p": 2, "ns_rank": 1}],
                   "ns_maps": [[[0]], [[0]]], "coker_pic0_dim": 0},
    }).picard)
    assert not loop_rep.d2_top_known_zero
    assert unknown_markers[0] in loop_rep.kh_value.sub.note


def test_criterion_9_cli_determinism_and_resolve_round_trip(capsys):
    for name, commands in INPUT_FIXTURES.items():
        path = str(FIXTURES / name)
        for command in commands:
            argv = ["--input", path, "--command", command, "--emit", "both"]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first

        doc = parse_input(path)
        _, machine = run("resolve", doc)
        reparsed = parse_document(json.loads(_json_text(machine))["document"])
        resolved, _ = resolve_to_simplicial(doc.divisor)
        assert reparsed.divisor == resolved
        assert reparsed.picard == doc.picard
        assert reparsed.dubois == doc.dubois
