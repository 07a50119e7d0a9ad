"""Picard-side analysis and the KH report in degrees -n and 1-n."""
import json
import random
from pathlib import Path

import pytest

from helpers import (
    Z,
    ZERO_GROUP,
    alt_chain_complex,
    dense_picard_document,
    descent_page,
    divisor_of,
    e3_top_corner,
    four_cycle,
    full_simplex,
    hom_analyze,
    homology,
    kernel_basis,
    kh_top,
    parallel_curve_divisor,
    random_divisor,
    random_picard_document,
    reference_ns_analysis,
    rp2_divisor,
    scan_blowup,
    simplex_divisor,
    smith_surjection,
    sphere4,
    strata_of,
    triangle_cycle,
    triangle_picard,
    with_source_torsion,
    zero_picard,
)
from snckit import (
    FgAbGroup,
    Hom,
    IntMatrix,
    PicardInput,
    PicardLevel,
    SncDivisor,
    cohomology,
    kh_report,
    ns_analysis,
    presentation_matrix,
    subquotient,
    validate_snc,
)
from snckit import abgroup, intmat, khasm
from snckit.cli import parse_document
from snckit.khasm import (
    ALGEBRAICALLY_CLOSED,
    GENERAL_FIELD,
    GroupValue,
    assemble_extension,
    torus_descriptor,
)
from snckit.snc import SncError


# ---------------------------------------------------------------------------
# torus descriptors


def test_torus_descriptor_free_part_only():
    td = torus_descriptor(FgAbGroup(2), ALGEBRAICALLY_CLOSED)
    assert td.rank == 2
    assert td.mu_part.is_trivial()
    assert not td.mu_ambiguous
    assert td.determined
    assert str(td) == "torus rank 2"
    assert not td.is_trivial_group()


def test_torus_descriptor_torsion_is_flagged_ambiguous():
    td = torus_descriptor(FgAbGroup(1, (3,)), ALGEBRAICALLY_CLOSED)
    assert td.rank == 1
    assert td.mu_part == FgAbGroup(0, (3,))
    assert td.mu_ambiguous
    assert str(td) == "torus rank 1, mu-part Z/3 [ambiguous]"


def test_torus_descriptor_general_field_needs_torsion_free_homology():
    # torsion in H^{n-1} is torsion in H_{n-2}
    td = torus_descriptor(FgAbGroup(1, (2,)), GENERAL_FIELD)
    assert not td.determined
    assert str(td) == "undetermined (general field, torsion obstructs)"
    assert not td.is_trivial_group()
    ok = torus_descriptor(FgAbGroup(1), GENERAL_FIELD)
    assert ok.determined and ok.rank == 1


def test_torus_descriptor_trivial_group():
    td = torus_descriptor(ZERO_GROUP, ALGEBRAICALLY_CLOSED)
    assert td.is_trivial_group()
    assert str(td) == "torus rank 0"
    with pytest.raises(ValueError):
        torus_descriptor(Z, "finite")


def test_general_field_torus_is_determined_exactly_when_h_n_minus_2_is_free():
    # The descriptor reads H^{n-1} only; the oracle reads H_{n-2} off the
    # dense boundaries.  rp2_divisor and its blowups carry Z/2 in H_1; the
    # shuffled copies sweep their cells in another order.
    rng = random.Random(43)
    rp2 = rp2_divisor()
    corpus = [rp2, rp2._replace(n=4)]
    corpus += [scan_blowup(rp2, s.id)[0] for s in rng.sample(strata_of(rp2), 6)]
    corpus += [divisor_of(d.n, d.components, rng.sample(strata_of(d), len(strata_of(d))))
               for d in corpus]
    corpus += [random_divisor(rng) for _ in range(150)]
    corpus += [parallel_curve_divisor(rng, rng.randint(3, 6), rng.randint(0, 6))
               for _ in range(40)]
    obstructed = 0
    for d in corpus:
        cx = validate_snc(d).chain_complex()
        free = homology(cx, d.n - 2).is_free()
        assert torus_descriptor(cohomology(cx, d.n - 1), GENERAL_FIELD).determined == free
        obstructed += not free
    assert obstructed >= 14


# ---------------------------------------------------------------------------
# Picard input validation


def test_picard_input_rejects_malformed_levels():
    with pytest.raises(ValueError):
        PicardLevel(0, Z, -1)
    lv0, lv1 = PicardLevel(0, Z, 0), PicardLevel(1, Z, 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv0,), (), 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv1, lv0), (Hom.zero(Z, Z),), 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv0, PicardLevel(2, Z, 0)), (Hom.zero(Z, Z),), 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv0, lv1), (), 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv0, lv1), (Hom.zero(FgAbGroup(2), Z),), 0)
    with pytest.raises(ValueError):
        PicardInput(3, (lv0, lv1), (Hom.zero(Z, Z),), -1)


def test_expected_levels_depend_on_dimension():
    for n, want in ((3, [0, 1]), (4, [0, 1, 2]), (6, [2, 3, 4])):
        pi = zero_picard(n, dict.fromkeys(want, Z))
        assert [lv.p for lv in pi.levels] == want
        shifted = [p + 1 for p in want]
        with pytest.raises(ValueError) as err:
            zero_picard(n, dict.fromkeys(shifted, Z))
        assert str(err.value) == f"expected levels {want}, got {shifted}"


# ---------------------------------------------------------------------------
# NS analysis


def test_ns_analysis_triangle():
    ker_ns, coker_ns, gamma, _ = ns_analysis(triangle_picard())
    assert ker_ns == Z
    assert coker_ns == Z
    # only one map, so nothing cuts the kernel lattice down
    assert gamma == Z


def test_ns_analysis_zero_maps():
    pi = zero_picard(4, {0: FgAbGroup(2), 1: FgAbGroup(3), 2: Z})
    ker_ns, coker_ns, gamma, _ = ns_analysis(pi)
    assert ker_ns == FgAbGroup(3)
    assert coker_ns == Z
    assert gamma == ker_ns


def test_ns_analysis_lower_map_cuts_gamma():
    l0, l1, l2 = Z, FgAbGroup(2), Z
    below = Hom(l0, l1, IntMatrix([[2], [0]]))
    main = Hom(l1, l2, IntMatrix([[0, 1]]))
    pi = PicardInput(4, (PicardLevel(0, l0, 0), PicardLevel(1, l1, 0),
                         PicardLevel(2, l2, 0)), (below, main), 0)
    ker_ns, coker_ns, gamma, _ = ns_analysis(pi)
    assert ker_ns == Z
    assert coker_ns.is_trivial()
    assert gamma == FgAbGroup(0, (2,))
    assert gamma == subquotient(main, below)


def test_ns_analysis_rejects_non_complex():
    l0, l1, l2 = Z, FgAbGroup(2), Z
    below = Hom(l0, l1, IntMatrix([[1], [1]]))
    main = Hom(l1, l2, IntMatrix([[0, 1]]))
    # the maps are checked when the input is built, before ns_analysis runs
    with pytest.raises(ValueError, match="^NS maps do not compose to zero between levels 0 "
                                         "and 2$"):
        PicardInput(4, (PicardLevel(0, l0, 0), PicardLevel(1, l1, 0),
                        PicardLevel(2, l2, 0)), (below, main), 0)


def test_ns_analysis_gamma_matches_subquotient_on_random_input():
    rng = random.Random(20260814)
    for _ in range(150):
        a, b, c = (rng.randrange(1, 5) for _ in range(3))
        main_m = IntMatrix([[rng.randrange(-3, 4) for _ in range(b)]
                            for _ in range(c)])
        ker = kernel_basis(main_m)
        mix = (IntMatrix([[rng.randrange(-2, 3) for _ in range(a)]
                          for _ in range(ker.ncols)])
               if ker.ncols else IntMatrix.zero(0, a))
        below_m = ker @ mix
        l0, l1, l2 = (FgAbGroup(k) for k in (a, b, c))
        below, main = Hom(l0, l1, below_m), Hom(l1, l2, main_m)
        pi = PicardInput(4, (PicardLevel(0, l0, 0), PicardLevel(1, l1, 0),
                             PicardLevel(2, l2, 0)), (below, main), 0)
        ker_ns, coker_ns, gamma, surjection = ns_analysis(pi)
        got = hom_analyze(main)
        assert ker_ns == got.kernel
        assert coker_ns == got.cokernel
        assert gamma == subquotient(main, below)
        assert surjection.source == ker_ns and surjection.target == gamma
        assert hom_analyze(surjection).cokernel.is_trivial()


def test_ns_analysis_equals_the_presentation_reference():
    """Tracking U^{-1} alone on ker(NS) and carrying its lift through
    Gamma's elimination gives the groups and the surjection matrix of
    ``reference_ns_analysis``, which tracks both on each lattice, and the
    surjection is the product U_Gamma[order] * U_ker^{-1}[:, order] of two
    full Smith forms (``smith_surjection``).  A torsion source gives ker(NS)
    relations, so its lift is carried; a lower map gives Gamma more
    relations."""
    rng = random.Random(28)
    docs = [random_picard_document(rng, 3 + k % 2, rng.choice((1, 2, 30)))
            for k in range(400)]
    docs += [with_source_torsion(dense_picard_document(rng, rank), [2, 6], rng)
             for rank in (4, 8, 12)]
    seen = {"torsion source": 0, "and a lower map": 0, "and not the identity": 0}
    for doc in docs:
        pi = parse_document(doc).picard
        got = ns_analysis(pi)
        assert got == reference_ns_analysis(pi)
        assert got[3].matrix == smith_surjection(pi)
        if pi.maps[-1].source.torsion:
            seen["torsion source"] += 1
            seen["and a lower map"] += len(pi.maps) == 2
            seen["and not the identity"] += got[3].matrix != IntMatrix.identity(got[2].ngens)
    assert seen["torsion source"] >= 200 and min(seen.values()) >= 50, seen


GOLDEN_INPUTS = Path(__file__).resolve().parent / "fixtures" / "golden" / "inputs"


@pytest.mark.parametrize("source", ["torsion-source golden", "dense Picard"])
def test_ns_analysis_tracks_only_the_transforms_it_reads(monkeypatch, source):
    """Every elimination of a kh-report that tracks a transform, in order,
    with the transforms it tracks: V on [NS | relations], U's slot carried
    on the kernel lattice's spanning rows, U^{-1} on ker(NS)'s relations,
    only when there are any, then U's slot carried on Gamma's relations."""
    if source == "dense Picard":
        raw = dense_picard_document(random.Random(3), 12)
    else:
        raw = json.loads((GOLDEN_INPUTS / "torsion-source.json").read_text(encoding="utf-8"))
    doc = parse_document(raw)
    main = doc.picard.maps[-1]
    incoming = doc.picard.maps[0].matrix
    stacked = main.matrix.hstack(presentation_matrix(main.target))
    kernel_rows = kernel_basis(stacked).take_rows(range(main.source.ngens))
    rels_gamma, _, _ = abgroup.kernel_coordinates(main, incoming)
    rels_ker = rels_gamma.take_columns(range(incoming.ncols, rels_gamma.ncols))
    assert rels_gamma.ncols and bool(rels_ker.ncols) == (source != "dense Picard")
    u, v, u_inv = (True, False, False), (False, True, False), (False, False, True)
    expected = [(stacked, v), (kernel_rows, u)]
    if rels_ker.ncols:
        expected.append((rels_ker, u_inv))
    expected.append((rels_gamma, u))

    calls = []
    real_eliminate = intmat._eliminate

    def eliminate(m, nr, nc, u_rows, v_t, u_inv_t):
        calls.append((IntMatrix(m, ncols=nc),
                      (u_rows is not None, v_t is not None, u_inv_t is not None)))
        real_eliminate(m, nr, nc, u_rows, v_t, u_inv_t)

    monkeypatch.setattr(intmat, "_eliminate", eliminate)
    kh_report(doc.divisor, doc.picard, doc.field_mode)
    assert [call for call in calls if any(call[1])] == expected


def test_one_motive_surjection_is_onto():
    l0, l1, l2 = Z, FgAbGroup(2), Z
    below = Hom(l0, l1, IntMatrix([[2], [0]]))
    main = Hom(l1, l2, IntMatrix([[0, 1]]))
    pi = PicardInput(4, (PicardLevel(0, l0, 0), PicardLevel(1, l1, 0),
                         PicardLevel(2, l2, 0)), (below, main), 1)
    om = kh_report(four_cycle(), pi).one_motive
    assert om.lattice_lprime == Z
    assert om.lattice_l == FgAbGroup(0, (2,))
    assert om.abelian_dim == 1
    assert om.map_status == "opaque"
    # Hom validates the matrix's shape and torsion against the two lattices.
    surjection = Hom(om.lattice_lprime, om.lattice_l, om.surjection_matrix)
    assert hom_analyze(surjection).cokernel.is_trivial()


def test_one_motive_surjection_identity_when_no_lower_map():
    om = kh_report(triangle_cycle(), triangle_picard()).one_motive
    assert om.lattice_lprime == om.lattice_l == Z
    analysis = hom_analyze(Hom(om.lattice_lprime, om.lattice_l, om.surjection_matrix))
    assert analysis.kernel.is_trivial()
    assert analysis.cokernel.is_trivial()


# ---------------------------------------------------------------------------
# extension assembly


def test_assemble_extension_trivial_ends_split():
    a = GroupValue(FgAbGroup(1, (2,)), True)
    zero = GroupValue(ZERO_GROUP, True)
    ses = assemble_extension(a, zero)
    assert ses.split and ses.total.exact and ses.total.group == a.group
    ses = assemble_extension(zero, a)
    assert ses.split and ses.total.exact and ses.total.group == a.group


def test_assemble_extension_free_quotient_splits():
    ses = assemble_extension(GroupValue(FgAbGroup(0, (2,)), True),
                             GroupValue(Z, True))
    assert ses.split
    assert ses.total.exact
    assert ses.total.group == FgAbGroup(1, (2,))
    assert ses.total.note == "split: free quotient"


def test_assemble_extension_torsion_quotient_stays_bound():
    ses = assemble_extension(GroupValue(Z, True),
                             GroupValue(FgAbGroup(0, (2,)), True))
    assert not ses.split
    assert not ses.total.exact
    assert ses.total.group == FgAbGroup(1, (2,))
    assert ses.total.note == "extension unresolved; rank exact"


def test_assemble_extension_propagates_inexactness():
    fuzzy = GroupValue(Z, False, "who knows")
    ses = assemble_extension(fuzzy, GroupValue(Z, True))
    assert not ses.split
    assert not ses.total.exact
    assert ses.total.note == "an end is not exact"
    assert str(ses.total) == "Z^2 (bound; an end is not exact)"
    assert str(GroupValue(Z, True)) == "Z (exact)"


# ---------------------------------------------------------------------------
# the top degree


def test_kh_top_examples():
    assert kh_top(triangle_cycle()).is_trivial()
    assert kh_top(full_simplex()).is_trivial()
    assert kh_top(sphere4()) == Z


# ---------------------------------------------------------------------------
# full reports


def test_kh_report_triangle_cycle():
    rep = kh_report(triangle_cycle(), triangle_picard())
    assert rep.n == 3
    assert rep.kh_top.is_trivial()
    assert rep.h_n_minus_3 == Z
    assert rep.h_n_minus_2 == Z
    assert rep.n3_exact
    assert rep.d2_top_known_zero
    assert rep.kh_is_finitely_generated

    units = rep.units_cohomology
    assert units.torus.is_trivial_group()
    assert units.coker_ns == Z
    assert units.ker_beta.exact and units.ker_beta.group.is_trivial()
    assert units.coker_pic.exact and units.coker_pic.group == Z

    # 0 -> coker(NS) -> KH_{1-n} -> H^{n-2} -> 0 with free quotient
    assert rep.kh_value.sub.exact and rep.kh_value.sub.group == Z
    assert rep.kh_value.quotient.group == Z
    assert rep.kh_value.split
    assert rep.kh_value.total.exact
    assert rep.kh_value.total.group == FgAbGroup(2)

    assert rep.ker_alpha.ses.total.exact
    assert rep.ker_alpha.ses.total.group.is_trivial()
    assert rep.ker_alpha.ker_ns_bound == Z
    assert rep.coker_alpha.total.exact
    assert rep.coker_alpha.total.group == FgAbGroup(2)


def test_kh_report_contractible_divisor_is_trivial():
    rep = kh_report(full_simplex(), zero_picard(3, {0: Z, 1: ZERO_GROUP}))
    assert rep.kh_top.is_trivial()
    assert rep.kh_value.total.exact
    assert rep.kh_value.total.group.is_trivial()
    assert rep.ker_alpha.ses.total.group.is_trivial()
    assert rep.coker_alpha.total.group.is_trivial()


def test_kh_report_general_field_downgrades_to_bounds():
    rep = kh_report(triangle_cycle(), triangle_picard(), GENERAL_FIELD)
    assert rep.field_mode == GENERAL_FIELD
    assert not rep.kh_is_finitely_generated
    units = rep.units_cohomology
    assert not units.ker_beta.exact
    assert units.ker_beta.group == Z
    assert "quotient of ker(NS)" in units.ker_beta.note
    assert not units.coker_pic.exact
    assert "finitely generated part only" in units.coker_pic.note
    assert not rep.kh_value.sub.exact
    assert "finitely generated part only" in rep.kh_value.sub.note
    assert not rep.kh_value.total.exact
    # the n = 3 structural facts do not depend on the field
    assert rep.n3_exact and rep.d2_top_known_zero


def test_kh_report_supplied_kernel_is_taken_exactly():
    base = triangle_picard()
    pi = PicardInput(base.n, base.levels, base.maps, base.coker_pic0_dim,
                     ker_beta_known=FgAbGroup(0, (2,)))
    rep = kh_report(triangle_cycle(), pi, GENERAL_FIELD)
    units = rep.units_cohomology
    assert units.ker_beta.exact
    assert units.ker_beta.group == FgAbGroup(0, (2,))
    assert units.ker_beta.note == "supplied with input"
    ses = rep.ker_alpha.ses
    assert ses.sub.group == FgAbGroup(0, (2,))
    assert ses.total.exact and ses.total.group == FgAbGroup(0, (2,))


def test_kh_report_positive_divisible_dimension_blocks_exactness():
    base = triangle_picard()
    pi = PicardInput(base.n, base.levels, base.maps, coker_pic0_dim=2)
    rep = kh_report(triangle_cycle(), pi)
    assert rep.units_cohomology.coker_pic0_dim == 2
    assert not rep.kh_is_finitely_generated
    assert not rep.units_cohomology.ker_beta.exact
    assert not rep.kh_value.total.exact


def test_kh_report_opaque_differential_in_dimension_four():
    d = four_cycle()
    rep = kh_report(d, zero_picard(4, {0: Z, 1: Z, 2: Z}))
    assert rep.h_n_minus_3 == Z
    assert not rep.d2_top_known_zero
    assert rep.n3_exact is False
    assert not rep.kh_value.sub.exact
    assert "degree-2 differential" in rep.kh_value.sub.note
    ses = rep.ker_alpha.ses
    assert not ses.quotient.exact
    assert "opaque map out of H^{n-3}" in ses.quotient.note
    assert not ses.total.exact


def test_kh_report_vanishing_h1_restores_exactness_above_three():
    rep = kh_report(sphere4(), zero_picard(
        4, {0: FgAbGroup(5), 1: FgAbGroup(10),
            2: FgAbGroup(10)}))
    assert rep.h_n_minus_3.is_trivial()
    assert rep.d2_top_known_zero
    assert not rep.n3_exact
    ses = rep.ker_alpha.ses
    assert ses.quotient.exact and ses.quotient.group.is_trivial()
    assert "vanishes" in ses.quotient.note
    # the torus is a whole G_m, so KH_{1-n} itself is not finitely generated
    assert rep.units_cohomology.torus.rank == 1
    assert not rep.kh_is_finitely_generated
    assert not rep.kh_value.sub.exact
    assert rep.kh_value.sub.note == "finitely generated part only"


def test_kh_report_level_and_mode_mismatches():
    with pytest.raises(ValueError, match="^Picard data is for n = 4, divisor has n = 3$"):
        kh_report(triangle_cycle(), zero_picard(4, {0: Z, 1: Z, 2: Z}))
    with pytest.raises(ValueError, match=r"^expected levels \[0, 1, 2\], got \[1, 2\]$"):
        kh_report(four_cycle(), zero_picard(4, {1: Z, 2: Z}))
    with pytest.raises(ValueError):
        kh_report(triangle_cycle(), triangle_picard(), "perfect")


def test_kh_report_validates_the_divisor():
    # a stratum on one component
    broken = SncDivisor.build(3, ("A", "B"), [("s", ("A",), {})])
    with pytest.raises(SncError):
        kh_report(broken, triangle_picard())


def test_kh_report_takes_few_smith_forms_and_none_of_a_transform(monkeypatch):
    """Each lattice on the Picard path goes through one elimination.

    Each elimination tracks only the transforms its caller reads, U^{-1} is
    tracked inside it, the kernel lattice is built once from an
    elimination of its spanning rows that tracks U alone, and coker(NS) is
    read off the diagonal of the elimination that gives ker(NS).  So a
    dense-Picard report runs at most 4 eliminations that track a transform,
    none of them both V and a row transform (U or U^{-1}), the first of
    those that track U alone the lattice's (Gamma's relations come next);
    it eliminates [NS | relations] exactly once,
    never eliminates an earlier elimination's U, V or U^{-1}, and solves
    against the lattice once: one call of ``kernel_coordinates``, which
    makes one solve.
    """
    doc = parse_document(dense_picard_document(random.Random(3), 12))
    main = doc.picard.maps[-1]
    stacked = main.matrix.hstack(presentation_matrix(main.target))
    kernel_rows = kernel_basis(stacked).take_rows(range(main.source.ngens))
    tracked, u_alone, diagonal_only, transforms, solves = [], [], [], [], []
    real_eliminate = intmat._eliminate
    real_sweep = intmat.unit_sweep
    real_kernel = abgroup.kernel_coordinates

    def eliminate(m, nr, nc, u, v_t, u_inv_t):
        a = IntMatrix(m, ncols=nc)
        real_eliminate(m, nr, nc, u, v_t, u_inv_t)
        if (u, v_t, u_inv_t) != (None, None, None):
            assert v_t is None or (u, u_inv_t) == (None, None)
            tracked.append(a)
            if (v_t, u_inv_t) == (None, None):
                u_alone.append(a)
            # U's slot may carry rows of its own width, such as [incoming | relations]
            transforms.extend(IntMatrix(t, ncols=len(t[0]) if t else k) for t, k in
                              ((u, nr), (v_t, nc), (u_inv_t, nr)) if t is not None)

    def sweep(rows, ncols):
        dense = [[0] * ncols for _ in rows]
        for dense_row, row in zip(dense, rows):
            for j, x in row.items():
                dense_row[j] = x
        diagonal_only.append(IntMatrix(dense, ncols=ncols))
        return real_sweep(rows, ncols)

    def kernel(outgoing, incoming):
        solves.append(incoming)
        return real_kernel(outgoing, incoming)

    monkeypatch.setattr(intmat, "_eliminate", eliminate)
    monkeypatch.setattr(intmat, "unit_sweep", sweep)
    monkeypatch.setattr(abgroup, "kernel_coordinates", kernel)
    monkeypatch.setattr(khasm, "kernel_coordinates", kernel)
    kh_report(doc.divisor, doc.picard, doc.field_mode)
    assert 0 < len(tracked) <= 4
    assert u_alone[0] == kernel_rows
    assert (tracked + diagonal_only).count(stacked) == 1
    assert not any(a == t for a in tracked for t in transforms)
    assert len(solves) == 1


def test_kh_value_sub_is_the_e3_corner_of_the_descent_page():
    """The direct corner rule agrees with the corner of the assembled page.

    The oracle builds the two-row page from an independently assembled
    complex and decides exactness itself: it is told only the structural
    n = 3 vanishing, and finds a trivial source at (n-3, 1) on its own.
    """
    rng = random.Random(97)
    # Picard data needs n >= 3: the report reads level n-3.
    divisors = ([d for d in (random_divisor(rng) for _ in range(120)) if d.n >= 3]
                + [four_cycle(), rp2_divisor()])
    tops = (ZERO_GROUP, Z, FgAbGroup(0, (2,)), FgAbGroup(1, (3,)))
    seen = set()
    for k, d in enumerate(divisors):
        n = d.n
        levels = {n - 3, n - 2} if n == 3 else {n - 4, n - 3, n - 2}
        pi = zero_picard(n, {p: Z for p in levels} | {n - 2: tops[k % len(tops)]})
        page = descent_page(alt_chain_complex(d), n, pi.levels[-1].ns)
        corner = e3_top_corner(page, n, d2_known_zero=n == 3)
        for mode in (ALGEBRAICALLY_CLOSED, GENERAL_FIELD):
            rep = kh_report(d, pi, mode)
            sub = rep.kh_value.sub
            assert corner.group == sub.group
            assert corner.exact == rep.d2_top_known_zero
            assert sub.exact == (corner.exact and rep.kh_is_finitely_generated)
            assert (("modulo the image of the degree-2 differential" in sub.note)
                    == (not corner.exact))
            seen.add((corner.exact, corner.group.is_trivial()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_kh_report_asks_only_for_the_degrees_it_reports(monkeypatch):
    """No cohomology beyond H^{n-3}, H^{n-2} and H^{n-1} is computed."""
    n = 5
    d = simplex_divisor(n, [f"E{i}" for i in range(n + 1)], n)
    asked = []
    real = khasm.cohomology

    def counting(cx, i):
        asked.append(i)
        return real(cx, i)

    monkeypatch.setattr(khasm, "cohomology", counting)
    kh_report(d, zero_picard(n, {1: Z, 2: Z, 3: Z}))
    assert sorted(asked) == [n - 3, n - 2, n - 1]
