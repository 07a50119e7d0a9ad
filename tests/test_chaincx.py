"""Free chain complexes, integral (co)homology, and spectral pages."""
import copy
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NonComplexError,
    TaggedGroup,
    Z,
    ZERO_GROUP,
    boundary_matrix,
    complex_from_matrices,
    divisor_of,
    dualize,
    e3_top_corner,
    euler_characteristic,
    homology,
    kernel_basis,
    minors_invariant_factors,
    moore_family,
    one_row_page,
    parallel_curve_divisor,
    random_divisor,
    rp2_divisor,
    scale,
    simplex_divisor,
    strata_of,
    validate_complex,
)
from snckit import (
    ChainComplex,
    DualComplex,
    FgAbGroup,
    Hom,
    IntMatrix,
    SncDivisor,
    SpectralPage,
    SupportViolationError,
    chaincx,
    cohomology,
    e2_page,
    kh_report,
    resolve_to_simplicial,
    validate_snc,
)
from snckit.cli import parse_input
from snckit.intmat import unit_sweep

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
    return complex_from_matrices([len(c) for c in cells], boundaries)


def circle_cw() -> ChainComplex:
    return complex_from_matrices((1, 1), [IntMatrix.zero(1, 1)])


def torus_cw() -> ChainComplex:
    # one vertex, the two loops, one square glued along aba^-1 b^-1
    return complex_from_matrices((1, 2, 1),
                                 [IntMatrix.zero(1, 2), IntMatrix.zero(2, 1)])


def projective_plane_cw() -> ChainComplex:
    return complex_from_matrices((1, 1, 1), [IntMatrix.zero(1, 1), IntMatrix([[2]])])


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
    return complex_from_matrices(ranks, boundaries)


def test_validate_accepts_named_small_complexes():
    validate_complex(circle_cw())
    validate_complex(complex_from_matrices((2, 1), [IntMatrix([[-1], [1]])]))
    validate_complex(simplex_boundary_complex(3))
    validate_complex(torus_cw())


def test_validate_reports_failing_degree():
    good = simplex_boundary_complex(3)
    rows = boundary_matrix(good, 2).to_lists()
    rows[0][0] = -rows[0][0]
    broken = complex_from_matrices(good.ranks, [boundary_matrix(good, 1),
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

    parallel = complex_from_matrices((2, 2), [IntMatrix([[-1, -1], [1, 1]])])
    assert cohomology(parallel, 0) == Z
    assert cohomology(parallel, 1) == Z

    torus = torus_cw()
    assert [cohomology(torus, i) for i in range(3)] == [Z, FgAbGroup(2), Z]

    point = ChainComplex((1,), ())
    assert cohomology(point, 0) == Z
    assert cohomology(point, 1) == ZERO_GROUP


def test_torsion_moves_up_one_degree_in_cohomology():
    rp2 = projective_plane_cw()
    assert homology(rp2, 1) == FgAbGroup(0, (2,))
    assert homology(rp2, 2) == ZERO_GROUP
    assert cohomology(rp2, 1) == ZERO_GROUP
    assert cohomology(rp2, 2) == FgAbGroup(0, (2,))


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
    """A random complex, often with torsion.

    Scaling one boundary by 2 or 3 keeps every composite zero and puts
    invariant factors above 1 into that boundary.
    """
    c = random_complex(rng, length=rng.randint(1, 4))
    boundaries = [boundary_matrix(c, d) for d in range(1, len(c.ranks))]
    if boundaries and rng.random() < 0.5:
        k = rng.randrange(len(boundaries))
        boundaries[k] = scale(boundaries[k], rng.choice((2, 3)))
    return complex_from_matrices(c.ranks, boundaries)


def fresh(c: ChainComplex) -> ChainComplex:
    """An equal complex with nothing cached yet."""
    return ChainComplex(c.ranks, c.boundaries)


def test_cohomology_matches_the_transposed_complex():
    rng = random.Random(23)
    complexes = [projective_plane_cw(), complex_from_matrices((1, 1, 1), [
        IntMatrix.zero(1, 1), IntMatrix([[6]])])]
    complexes += [torsion_complex(rng) for _ in range(150)]
    seen_torsion = 0
    for c in complexes:
        validate_complex(c)
        dual = dualize(c)
        top = len(c.ranks) - 1
        for i in range(-1, top + 2):
            ci = cohomology(c, i)
            assert ci == homology(dual, top - i)
            minors = minors_invariant_factors(boundary_matrix(c, i).transpose())
            assert ci.torsion == tuple(f for f in minors if f > 1)
            seen_torsion += bool(ci.torsion)
    assert seen_torsion >= 20


def test_degree_order_does_not_change_the_groups():
    rng = random.Random(24)
    for _ in range(60):
        c = torsion_complex(rng)
        degrees = list(range(-1, len(c.ranks) + 1))
        in_order = [(fresh(c).diagonal(i + 1), cohomology(fresh(c), i))
                    for i in degrees]
        shuffled = fresh(c)
        order = degrees[:]
        rng.shuffle(order)
        got = {}
        for i in order:
            if rng.random() < 0.5:
                h = shuffled.diagonal(i + 1)
                co = cohomology(shuffled, i)
            else:
                co = cohomology(shuffled, i)
                h = shuffled.diagonal(i + 1)
            got[i] = (h, co)
        assert [got[i] for i in degrees] == in_order


def test_cached_diagonals_leave_equality_and_repr_alone():
    c = projective_plane_cw()
    before = repr(c)
    assert cohomology(c, 2) == FgAbGroup(0, (2,))
    assert c == fresh(c)
    assert repr(c) == before
    with pytest.raises(TypeError):
        hash(c)


def tensor(c: ChainComplex, e: ChainComplex) -> ChainComplex:
    """The tensor product complex: d(a x b) = da x b + (-1)^|a| a x db.

    The face row of a x b holds its cofaces: a' x b for each coface a' of a,
    and a x b' with the sign (-1)^|a| for each coface b' of b.
    """
    top = len(c.ranks) + len(e.ranks) - 1
    cells = [[(p, a, t - p, b) for p in range(len(c.ranks)) if 0 <= t - p < len(e.ranks)
              for a in range(c.ranks[p]) for b in range(e.ranks[t - p])]
             for t in range(top)]
    pos = [{cell: i for i, cell in enumerate(layer)} for layer in cells]
    boundaries = []
    for t in range(1, top):
        rows = []
        for p, a, q, b in cells[t - 1]:
            row = {}
            if p + 1 < len(c.ranks):
                for coface, x in c.boundaries[p][a].items():
                    row[pos[t][(p + 1, coface, q, b)]] = x
            if q + 1 < len(e.ranks):
                for coface, x in e.boundaries[q][b].items():
                    row[pos[t][(p, a, q + 1, coface)]] = (-1) ** p * x
            rows.append(row)
        boundaries.append(tuple(rows))
    return ChainComplex(tuple(map(len, cells)), tuple(boundaries))


def shuffled_divisor(d: SncDivisor, rng: random.Random) -> SncDivisor:
    strata = list(strata_of(d))
    rng.shuffle(strata)
    return divisor_of(d.n, d.components, strata)


def divisor_corpus() -> list[SncDivisor]:
    """The rp2 divisor, simplex skeletons canonical and shuffled, resolved
    divisors, and the Moore divisors with their resolutions, canonical and
    shuffled."""
    rng = random.Random(31)
    out = [rp2_divisor()]
    for n, m in ((2, 6), (3, 7), (4, 9)):
        d = simplex_divisor(n, [f"E{i}" for i in range(m)], n)
        out += [d, shuffled_divisor(d, rng), shuffled_divisor(d, rng)]
    for _ in range(8):
        out.append(resolve_to_simplicial(
            parallel_curve_divisor(rng, rng.randint(4, 6), rng.randint(0, 6)))[0])
    for _ in range(20):
        out.append(resolve_to_simplicial(random_divisor(rng))[0])
    for d in moore_family():
        out += [d, shuffled_divisor(d, rng)]
    return out


def test_dual_complexes_compose_to_zero():
    # The precondition clearing rests on, for every way the system builds a
    # complex: skeletons, the rp2 divisor and resolved divisors.
    for d in divisor_corpus():
        validate_complex(validate_snc(d).chain_complex())


def api_and_shuffled(d: SncDivisor, rng: random.Random) -> tuple[SncDivisor, SncDivisor]:
    """The divisor built through the API from its strata, and again with
    its strata shuffled."""
    strata = list(strata_of(d))
    api = divisor_of(d.n, d.components, strata)
    rng.shuffle(strata)
    return api, divisor_of(d.n, d.components, strata)


def test_validate_snc_returns_the_dual_complex_of_its_checked_rows():
    rng = random.Random(36)
    for d in divisor_corpus():
        for dd in api_and_shuffled(d, rng):
            dc = validate_snc(dd)
            assert type(dc) is DualComplex and dc == validate_snc(dd)
            ranks = dc.ranks()
            depths = Counter(len(s.subset) for s in strata_of(dd))
            assert ranks == (len(dd.components),
                             *[depths[k] for k in range(2, len(ranks) + 1)])
            assert depths.total() == sum(ranks[1:])
            boundaries = tuple(tuple(dc.rows(k)) for k in range(len(ranks) - 1))
            assert dc.chain_complex() == ChainComplex(ranks, boundaries)


def uncleared_diagonal(c: ChainComplex, d: int) -> tuple[int, ...]:
    """The diagonal of the whole boundary out of d, its face rows
    transposed so that the sweep takes its cells as rows."""
    if not 0 < d < len(c.ranks):
        return ()
    cells: list[dict[int, int]] = [{} for _ in range(c.ranks[d])]
    for face, row in enumerate(c.boundaries[d - 1]):
        for cell, x in row.items():
            cells[cell][face] = x
    return unit_sweep(cells, c.ranks[d - 1])[0]


def test_cleared_diagonals_equal_uncleared_ones_in_any_degree_order():
    rng = random.Random(32)
    rp2 = projective_plane_cw()
    product = tensor(tensor(rp2, rp2), simplex_boundary_complex(4))
    complexes = [product, tensor(rp2, simplex_boundary_complex(5))]
    complexes += [random_complex(rng, rng.randint(1, 5)) for _ in range(150)]
    complexes += [torsion_complex(rng) for _ in range(150)]
    complexes += [validate_snc(d).chain_complex() for d in divisor_corpus()]
    for c in complexes[:2]:
        validate_complex(c)
    # Clearing runs next to a dense block: a boundary with torsion sits on
    # one whose unit pivots clear its rows.
    assert sum(product.ranks) == 270
    assert any(max(product.diagonal(d), default=0) > 1 and 1 in product.diagonal(d - 1)
               for d in range(len(product.ranks)))
    for c in complexes:
        degrees = list(range(-1, len(c.ranks) + 2))
        want = [uncleared_diagonal(c, d) for d in degrees]
        for _ in range(2):
            order = list(range(len(degrees)))
            rng.shuffle(order)
            got = fresh(c)
            diagonals = {i: got.diagonal(degrees[i]) for i in order}
            assert [diagonals[i] for i in range(len(degrees))] == want


def test_kh_report_takes_each_smith_diagonal_once(monkeypatch):
    doc = parse_input(str(SPHERE4))
    c = validate_snc(doc.divisor).chain_complex()
    entries = [{(face, cell, x) for face, row in enumerate(b) for cell, x in row.items()}
               for b in c.boundaries]
    calls = []  # (boundary index, empty rows, unit pivot columns)
    real = chaincx.unit_sweep

    def counting(rows, ncols):
        seen = {(face, cell, x) for face, row in enumerate(rows) for cell, x in row.items()}
        k, = (k for k, e in enumerate(entries)
              if (len(rows), ncols) == c.ranks[k:k + 2] and seen <= e)
        empty = {face for face, row in enumerate(rows) if not row}
        result = real(rows, ncols)
        calls.append((k, empty, result[1]))
        return result

    monkeypatch.setattr(chaincx, "unit_sweep", counting)
    kh_report(doc.divisor, doc.picard, doc.field_mode)
    swept = [k for k, _, _ in calls]
    assert 0 < len(calls) <= len(c.boundaries)
    assert len(set(swept)) == len(swept)
    # Bottom-up, and each boundary above the lowest goes in without the
    # rows of the cells the boundary below paired: its non-empty rows
    # number ranks[k] minus the unit pivots below (every face of the
    # 3-sphere has a coface).
    assert swept == list(range(len(calls))) and len(calls) >= 2
    for (k, empty, _), (_, _, below) in zip(calls[1:], calls):
        assert below and empty == set(below)


def assert_sweeps_leave_the_rows_alone(d: SncDivisor, order: list[int]) -> None:
    """Cohomology of the dual complex's chain complex and the diagonal of
    the boundary above, taken in degree order ``order``, leave its face
    rows as they were: after each degree they equal a deep copy taken
    before the sweeps, and the checked complex on them equals it and gives
    the same, uncleared, diagonal."""
    cx = validate_snc(d).chain_complex()
    before = copy.deepcopy(cx.boundaries)
    degrees = list(range(-1, len(cx.ranks) + 1))
    for i in order:
        cx.diagonal(degrees[i] + 1)
        cohomology(cx, degrees[i])
        assert cx.boundaries == before
        checked = ChainComplex(cx.ranks, cx.boundaries)
        assert checked == cx
        assert checked.diagonal(degrees[i]) == cx.diagonal(degrees[i]) == uncleared_diagonal(
            checked, degrees[i])


def test_sweeps_leave_the_dual_complex_rows_alone():
    rng = random.Random(34)
    for d in divisor_corpus():
        for dd in api_and_shuffled(d, rng):
            order = list(range(len(validate_snc(dd).ranks()) + 2))
            rng.shuffle(order)
            assert_sweeps_leave_the_rows_alone(dd, order)


@st.composite
def drawn_divisors(draw):
    """A simplex skeleton, canonical or shuffled, the rp2 divisor, or a
    resolved parallel-curve or random divisor."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["skeleton", "shuffled", "rp2", "parallel", "random"]))
    if kind == "rp2":
        return rp2_divisor()
    if kind == "parallel":
        return resolve_to_simplicial(
            parallel_curve_divisor(rng, rng.randint(3, 6), rng.randint(0, 6)))[0]
    if kind == "random":
        return resolve_to_simplicial(random_divisor(rng))[0]
    n = draw(st.integers(2, 4))
    d = simplex_divisor(n, [f"E{i}" for i in range(draw(st.integers(n, 7)))], n)
    return shuffled_divisor(d, rng) if kind == "shuffled" else d


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=drawn_divisors(), data=st.data())
def test_sweeps_leave_drawn_dual_complex_rows_alone(d, data):
    order = data.draw(st.permutations(range(len(validate_snc(d).ranks()) + 2)))
    assert_sweeps_leave_the_rows_alone(d, order)


def test_dualize_is_an_involution():
    rng = random.Random(22)
    for _ in range(50):
        c = random_complex(rng, 3)
        assert dualize(dualize(c)) == c


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
    two = complex_from_matrices((1, 1), [IntMatrix([[2]])])
    page = e2_page(one_row_page(two), [(0, 0), (1, 0)])
    assert page.entry(0, 0) == ZERO_GROUP
    assert page.entry(1, 0) == FgAbGroup(0, (2,))
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
    g = FgAbGroup(1)
    ok = SpectralPage(1, {(0, 0): g, (1, 0): g},
                      {(0, 0): Hom(g, g, IntMatrix([[1]]))},
                      frozenset({(0, 0), (1, 0)}))
    ok.validate()
    offsup = SpectralPage(1, {(5, 5): g}, {}, frozenset({(0, 0)}))
    with pytest.raises(SupportViolationError):
        offsup.validate()
    shapewrong = SpectralPage(1, {(0, 0): g, (1, 0): FgAbGroup(2)},
                              {(0, 0): Hom(g, g, IntMatrix([[1]]))},
                              frozenset({(0, 0), (1, 0)}))
    with pytest.raises(ValueError, match=r"^differential at \(0, 0\) has wrong target$"):
        shapewrong.validate()
    sourcewrong = SpectralPage(1, {(0, 0): g, (1, 0): g},
                               {(0, 0): Hom(FgAbGroup(2), g, IntMatrix([[1, 0]]))},
                               frozenset({(0, 0), (1, 0)}))
    with pytest.raises(ValueError, match=r"^differential at \(0, 0\) has wrong source$"):
        sourcewrong.validate()
    notcx = SpectralPage(
        1, {(0, 0): g, (1, 0): g, (2, 0): g},
        {(0, 0): Hom(g, g, IntMatrix([[1]])),
         (1, 0): Hom(g, g, IntMatrix([[1]]))},
        frozenset({(0, 0), (1, 0), (2, 0)}))
    with pytest.raises(ValueError):
        notcx.validate()


def test_e3_corner_exact_when_flagged_or_source_trivial():
    corner = FgAbGroup(2)
    page = SpectralPage(2, {(3, 0): corner, (1, 1): Z}, {},
                        frozenset({(3, 0), (1, 1)}))
    flagged = e3_top_corner(page, 4, d2_known_zero=True)
    assert flagged == TaggedGroup.exactly(corner)
    assert str(flagged) == "Z^2"

    no_source = SpectralPage(2, {(3, 0): corner}, {}, frozenset({(3, 0)}))
    assert e3_top_corner(no_source, 4, d2_known_zero=False).exact


def test_e3_corner_bounded_by_opaque_differential():
    corner = FgAbGroup(2)
    page = SpectralPage(2, {(3, 0): corner, (1, 1): Z}, {},
                        frozenset({(3, 0), (1, 1)}))
    tag = e3_top_corner(page, 4, d2_known_zero=False)
    assert not tag.exact
    assert tag.group == corner
    assert tag.source_bound == Z
    assert tag.min_rank == 1  # rank can drop by at most rank of the source
    assert "bound" in str(tag)


def test_e3_corner_input_guards():
    g = FgAbGroup(1)
    with pytest.raises(ValueError):
        e3_top_corner(SpectralPage(1, {}, {}, frozenset()), 3, True)
    threerow = SpectralPage(2, {(0, 2): g}, {}, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        e3_top_corner(threerow, 3, True)
    with pytest.raises(ValueError):
        TaggedGroup(g, True, source_bound=g)


# the one message every malformed boundary out of degree 1 (ranks (2, 1)) gives
BAD_ROWS = "boundary out of degree 1 is not 2 rows of nonzero ints on cells below 1"


def test_complex_constructor_shape_guard():
    ChainComplex((2, 1), (({0: -1}, {0: 1}),))
    for rows in (({0: 1},), ({0: 1}, {0: 1}, {})):  # one row too few, too many
        with pytest.raises(ValueError) as caught:
            ChainComplex((2, 1), (rows,))
        assert str(caught.value) == BAD_ROWS
    with pytest.raises(ValueError) as caught:
        ChainComplex((2, 1), ())  # no boundary for two degrees
    assert str(caught.value) == "0 boundary maps for 2 ranks"


@pytest.mark.parametrize("row", [
    {1: 1},                   # a cell at ranks[1]
    {0: 1, 3: 1},             # a cell past ranks[1]
    {-1: 1},                  # a negative cell
    {0: 0},                   # a zero coefficient
    {0: 3.0},                 # a float coefficient
    {0: True},                # a bool coefficient
    {0.0: 1},                 # a float cell
    {False: 1},               # a bool cell
    ((0, 1),),                # a row that is not a dict
], ids=["cell-at-rank", "cell-past-rank", "negative-cell", "zero-coefficient",
        "float-coefficient", "bool-coefficient", "float-cell", "bool-cell", "pairs"])
def test_complex_constructor_rejects_malformed_rows(row):
    with pytest.raises(ValueError) as caught:
        ChainComplex((2, 1), ((row, {}),))
    assert str(caught.value) == BAD_ROWS
    # the same row after a good one, in the boundary above a good one
    with pytest.raises(ValueError) as caught:
        ChainComplex((1, 2, 1), (({0: 1, 1: -1},), ({0: 1}, row)))
    assert str(caught.value) == ("boundary out of degree 2 is not 2 rows of nonzero "
                                 "ints on cells below 1")
    # ranks that are not non-negative ints: a bool, a negative int, a float
    for ranks in ((True,), (-1,), (2.0,)):
        with pytest.raises(ValueError) as caught:
            ChainComplex(ranks, ())
        assert str(caught.value) == f"ranks {ranks!r} are not non-negative ints"


@pytest.mark.parametrize("ranks,boundaries", [
    ([1, 1], (({},),)),
    ((1, 1), [({},)]),
    ((1, 1), ([{}],)),
    ([], ()),
], ids=["list-ranks", "list-boundaries", "list-boundary", "empty-list-ranks"])
def test_complex_constructor_takes_only_tuples(ranks, boundaries):
    # A list would compare unequal to the same complex built from tuples.
    with pytest.raises(ValueError, match="must be tuples"):
        ChainComplex(ranks, boundaries)


def test_complex_constructor_accepts_empty_and_edge_rows():
    c = ChainComplex((2, 2, 1), (({1: -1}, {1: 1}), ({0: 3}, {0: -2})))
    assert c.ranks == (2, 2, 1)
    ChainComplex((0, 1), ((),))      # no rows over one cell
    ChainComplex((1, 0), (({},),))   # an empty row over no cells
