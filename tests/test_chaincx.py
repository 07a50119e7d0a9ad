"""Free chain complexes, integral (co)homology, and spectral pages."""
import itertools
import random
from pathlib import Path

import pytest

from helpers import (
    NonComplexError,
    TaggedGroup,
    boundary_matrix,
    complex_from_matrices,
    dualize,
    e3_top_corner,
    euler_characteristic,
    minors_invariant_factors,
    one_row_page,
    validate_complex,
)
from snckit import (
    ChainComplex,
    FgAbGroup,
    Hom,
    IntMatrix,
    SpectralPage,
    SupportViolationError,
    build_dual_complex,
    chaincx,
    cohomology,
    e2_page,
    homology,
    kh_report,
)
from snckit.abgroup import Z, ZERO_GROUP
from snckit.cli import parse_input
from snckit.intmat import kernel_basis

SPHERE4 = Path(__file__).parent / "fixtures" / "sphere4.json"


def simplex_boundary_complex(n: int, full: bool = False) -> ChainComplex:
    """Simplicial chains of bd(Delta^n) on vertices 0..n (or all of Delta^n)."""
    top = n + 1 if full else n
    cells = [list(itertools.combinations(range(n + 1), d + 1)) for d in range(top)]
    boundaries = []
    for d in range(1, top):
        pos = {c: i for i, c in enumerate(cells[d - 1])}
        m = [[0] * len(cells[d]) for _ in cells[d - 1]]
        for col, cell in enumerate(cells[d]):
            for k in range(len(cell)):
                face = cell[:k] + cell[k + 1:]
                m[pos[face]][col] += (-1) ** k
        boundaries.append(IntMatrix(m, ncols=len(cells[d])))
    return complex_from_matrices(0, [len(c) for c in cells], boundaries)


def circle_cw() -> ChainComplex:
    return complex_from_matrices(0, (1, 1), [IntMatrix.zero(1, 1)])


def torus_cw() -> ChainComplex:
    # one vertex, the two loops, one square glued along aba^-1 b^-1
    return complex_from_matrices(0, (1, 2, 1),
                                 [IntMatrix.zero(1, 2), IntMatrix.zero(2, 1)])


def projective_plane_cw() -> ChainComplex:
    return complex_from_matrices(0, (1, 1, 1), [IntMatrix.zero(1, 1), IntMatrix([[2]])])


def random_complex(rng: random.Random, length: int = 4) -> ChainComplex:
    ranks = [rng.randint(1, 4) for _ in range(length)]
    boundaries = []
    prev = None
    for k in range(1, length):
        if prev is None:
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(ranks[k])]
                           for _ in range(ranks[k - 1])], ncols=ranks[k])
        else:
            ker = kernel_basis(prev)
            mix = IntMatrix([[rng.randint(-2, 2) for _ in range(ranks[k])]
                             for _ in range(ker.ncols)], ncols=ranks[k])
            m = ker @ mix
        boundaries.append(m)
        prev = m
    return complex_from_matrices(0, ranks, boundaries)


def test_validate_accepts_named_small_complexes():
    validate_complex(circle_cw())
    validate_complex(complex_from_matrices(0, (2, 1), [IntMatrix([[-1], [1]])]))
    validate_complex(simplex_boundary_complex(3))
    validate_complex(torus_cw())


def test_validate_reports_failing_degree():
    good = simplex_boundary_complex(3)
    rows = boundary_matrix(good, 2).to_lists()
    rows[0][0] = -rows[0][0]
    broken = complex_from_matrices(0, good.ranks, [boundary_matrix(good, 1),
                                                   IntMatrix(rows, ncols=4)])
    with pytest.raises(NonComplexError) as err:
        validate_complex(broken)
    assert err.value.degree == 2


def test_cohomology_of_named_complexes():
    circle = simplex_boundary_complex(2)
    assert cohomology(circle, 0) == Z
    assert cohomology(circle, 1) == Z

    disk = simplex_boundary_complex(2, full=True)
    assert [cohomology(disk, i) for i in range(3)] == [Z, ZERO_GROUP, ZERO_GROUP]

    sphere2 = simplex_boundary_complex(3)
    assert [cohomology(sphere2, i) for i in range(3)] == [Z, ZERO_GROUP, Z]

    sphere3 = simplex_boundary_complex(4)
    assert [cohomology(sphere3, i) for i in range(4)] == [Z, ZERO_GROUP,
                                                          ZERO_GROUP, Z]

    parallel = complex_from_matrices(0, (2, 2), [IntMatrix([[-1, -1], [1, 1]])])
    assert cohomology(parallel, 0) == Z
    assert cohomology(parallel, 1) == Z

    torus = torus_cw()
    assert [cohomology(torus, i) for i in range(3)] == [Z, FgAbGroup.free(2), Z]

    point = ChainComplex(0, (1,), ())
    assert cohomology(point, 0) == Z
    assert cohomology(point, 1) == ZERO_GROUP


def test_torsion_moves_up_one_degree_in_cohomology():
    rp2 = projective_plane_cw()
    assert homology(rp2, 1) == FgAbGroup.cyclic(2)
    assert homology(rp2, 2) == ZERO_GROUP
    assert cohomology(rp2, 1) == ZERO_GROUP
    assert cohomology(rp2, 2) == FgAbGroup.cyclic(2)


def test_universal_coefficients_on_random_complexes():
    rng = random.Random(21)
    for _ in range(150):
        c = random_complex(rng, length=rng.randint(2, 4))
        validate_complex(c)
        top = len(c.ranks)
        for i in range(top + 1):
            hi = homology(c, i)
            ci = cohomology(c, i)
            assert ci.free_rank == hi.free_rank
            assert ci.torsion == homology(c, i - 1).torsion


def torsion_complex(rng: random.Random) -> ChainComplex:
    """A random complex at a random lowest degree, often with torsion.

    Scaling one boundary by 2 or 3 keeps every composite zero and puts
    invariant factors above 1 into that boundary.
    """
    c = random_complex(rng, length=rng.randint(1, 4))
    boundaries = [boundary_matrix(c, d) for d in c.degrees[1:]]
    if boundaries and rng.random() < 0.5:
        k = rng.randrange(len(boundaries))
        boundaries[k] = boundaries[k].scale(rng.choice((2, 3)))
    return complex_from_matrices(rng.randint(-3, 3), c.ranks, boundaries)


def fresh(c: ChainComplex) -> ChainComplex:
    """An equal complex with nothing cached yet."""
    return ChainComplex(c.lowest_degree, c.ranks, c.boundaries)


def test_cohomology_matches_the_transposed_complex():
    rng = random.Random(23)
    complexes = [projective_plane_cw(), complex_from_matrices(-2, (1, 1, 1), [
        IntMatrix.zero(1, 1), IntMatrix([[6]])])]
    complexes += [torsion_complex(rng) for _ in range(150)]
    seen_torsion = seen_shift = 0
    for c in complexes:
        validate_complex(c)
        dual = dualize(c)
        seen_shift += c.lowest_degree != 0
        for i in range(c.lowest_degree - 1, c.degrees.stop + 1):
            ci = cohomology(c, i)
            assert ci == homology(dual, -i)
            minors = minors_invariant_factors(boundary_matrix(c, i).transpose())
            assert ci.torsion == tuple(f for f in minors if f > 1)
            seen_torsion += bool(ci.torsion)
    assert seen_torsion >= 20 and seen_shift >= 100


def test_degree_order_does_not_change_the_groups():
    rng = random.Random(24)
    for _ in range(60):
        c = torsion_complex(rng)
        degrees = list(range(c.lowest_degree - 1, c.degrees.stop + 1))
        in_order = [(homology(fresh(c), i), cohomology(fresh(c), i))
                    for i in degrees]
        shuffled = fresh(c)
        order = degrees[:]
        rng.shuffle(order)
        got = {}
        for i in order:
            if rng.random() < 0.5:
                h = homology(shuffled, i)
                co = cohomology(shuffled, i)
            else:
                co = cohomology(shuffled, i)
                h = homology(shuffled, i)
            got[i] = (h, co)
        assert [got[i] for i in degrees] == in_order


def test_cached_diagonals_leave_equality_hash_and_repr_alone():
    c = projective_plane_cw()
    before = (hash(c), repr(c))
    assert cohomology(c, 2) == FgAbGroup.cyclic(2)
    assert c == fresh(c)
    assert (hash(c), repr(c)) == before


def test_kh_report_takes_each_smith_diagonal_once(monkeypatch):
    doc = parse_input(str(SPHERE4))
    calls = []
    real = chaincx.sparse_smith_diagonal

    def counting(rows, ncols):
        calls.append(id(rows))
        return real(rows, ncols)

    monkeypatch.setattr(chaincx, "sparse_smith_diagonal", counting)
    kh_report(doc.divisor, doc.picard, doc.field_mode)
    boundaries = len(build_dual_complex(doc.divisor).chain_complex().boundaries)
    assert 0 < len(calls) <= boundaries
    assert len(set(calls)) == len(calls)


def test_dualize_is_an_involution():
    rng = random.Random(22)
    for _ in range(50):
        c = random_complex(rng, 3)
        assert dualize(dualize(c)) == c


def test_shifted_degrees():
    c = complex_from_matrices(-2, (1, 1), [IntMatrix.zero(1, 1)])
    assert homology(c, -2) == Z
    assert homology(c, -1) == Z
    assert homology(c, 0) == ZERO_GROUP
    assert list(c.degrees) == [-2, -1]


def test_euler_characteristic():
    assert euler_characteristic(simplex_boundary_complex(4)) == 0
    assert euler_characteristic(simplex_boundary_complex(2, full=True)) == 1
    assert euler_characteristic(torus_cw()) == 0


def test_e2_of_one_row_page_is_cohomology():
    for cx in (simplex_boundary_complex(2), simplex_boundary_complex(4),
               torus_cw(), circle_cw()):
        page = e2_page(one_row_page(cx), [(p, 0) for p in range(len(cx.ranks))])
        for p in range(len(cx.ranks)):
            assert page.entry(p, 0) == cohomology(cx, p)


def test_e2_two_term_row():
    two = complex_from_matrices(0, (1, 1), [IntMatrix([[2]])])
    page = e2_page(one_row_page(two), [(0, 0), (1, 0)])
    assert page.entry(0, 0) == ZERO_GROUP
    assert page.entry(1, 0) == FgAbGroup.cyclic(2)
    assert (0, 0) not in page.entries


def test_e2_of_zero_page_is_zero():
    empty = SpectralPage(1, {}, {}, frozenset({(0, 0)}))
    out = e2_page(empty, [(0, 0)])
    assert out.entries == {}
    assert out.page_no == 2


def test_e2_requires_page_one_and_support():
    cx = simplex_boundary_complex(2)
    page = one_row_page(cx)
    with pytest.raises(SupportViolationError) as err:
        e2_page(page, [(0, 0)])  # H^1 = Z lives at (1, 0), outside
    assert err.value.position == (1, 0)
    bad = SpectralPage(2, {}, {}, frozenset())
    with pytest.raises(ValueError):
        e2_page(bad, [])


def test_page_validate_rejects_broken_differentials():
    g = FgAbGroup.free(1)
    ok = SpectralPage(1, {(0, 0): g, (1, 0): g},
                      {(0, 0): Hom(g, g, IntMatrix([[1]]))},
                      frozenset({(0, 0), (1, 0)}))
    ok.validate()
    offsup = SpectralPage(1, {(5, 5): g}, {}, frozenset({(0, 0)}))
    with pytest.raises(SupportViolationError):
        offsup.validate()
    shapewrong = SpectralPage(1, {(0, 0): g, (1, 0): FgAbGroup.free(2)},
                              {(0, 0): Hom(g, g, IntMatrix([[1]]))},
                              frozenset({(0, 0), (1, 0)}))
    with pytest.raises(ValueError):
        shapewrong.validate()
    notcx = SpectralPage(
        1, {(0, 0): g, (1, 0): g, (2, 0): g},
        {(0, 0): Hom(g, g, IntMatrix([[1]])),
         (1, 0): Hom(g, g, IntMatrix([[1]]))},
        frozenset({(0, 0), (1, 0), (2, 0)}))
    with pytest.raises(ValueError):
        notcx.validate()


def test_e3_corner_exact_when_flagged_or_source_trivial():
    corner = FgAbGroup.free(2)
    page = SpectralPage(2, {(3, 0): corner, (1, 1): Z}, {},
                        frozenset({(3, 0), (1, 1)}))
    flagged = e3_top_corner(page, 4, d2_known_zero=True)
    assert flagged == TaggedGroup.exactly(corner)
    assert str(flagged) == "Z^2"

    no_source = SpectralPage(2, {(3, 0): corner}, {}, frozenset({(3, 0)}))
    assert e3_top_corner(no_source, 4, d2_known_zero=False).exact


def test_e3_corner_bounded_by_opaque_differential():
    corner = FgAbGroup.free(2)
    page = SpectralPage(2, {(3, 0): corner, (1, 1): Z}, {},
                        frozenset({(3, 0), (1, 1)}))
    tag = e3_top_corner(page, 4, d2_known_zero=False)
    assert not tag.exact
    assert tag.group == corner
    assert tag.source_bound == Z
    assert tag.min_rank == 1  # rank can drop by at most rank of the source
    assert "bound" in str(tag)


def test_e3_corner_input_guards():
    g = FgAbGroup.free(1)
    with pytest.raises(ValueError):
        e3_top_corner(SpectralPage(1, {}, {}, frozenset()), 3, True)
    threerow = SpectralPage(2, {(0, 2): g}, {}, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        e3_top_corner(threerow, 3, True)
    with pytest.raises(ValueError):
        TaggedGroup(g, True, source_bound=g)


def test_complex_constructor_shape_guard():
    ChainComplex(0, (2, 1), ((((0, -1), (1, 1)),),))
    for columns in ((), (((0, 1),), ((1, 1),))):  # one column too few, too many
        with pytest.raises(ValueError):
            ChainComplex(0, (2, 1), (columns,))
    with pytest.raises(ValueError):
        ChainComplex(0, (2, 1), ())  # no boundary for two degrees


@pytest.mark.parametrize("column", [
    ((2, 1),),                # a face at ranks[0]
    ((0, 1), (3, 1)),         # a face past ranks[0]
    ((-1, 1),),               # a negative face
    ((0, 0),),                # a zero coefficient
    ((1, 1), (1, -1)),        # a repeated face
    ((1, 1), (0, -1)),        # unsorted faces
], ids=["face-at-rank", "face-past-rank", "negative-face", "zero-coefficient",
        "repeated-face", "unsorted-faces"])
def test_complex_constructor_rejects_non_canonical_columns(column):
    with pytest.raises(ValueError):
        ChainComplex(0, (2, 1), ((column,),))
