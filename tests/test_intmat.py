"""Exact integer matrices and Smith normal form against independent oracles."""
import heapq
import itertools
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from helpers import (
    add,
    cofactor_det,
    column,
    column_lattice_basis,
    det,
    diagonal,
    divisor_of,
    is_zero,
    minors_invariant_factors,
    random_matrix,
    rank,
    reference_eliminate,
    scale,
    simplex_divisor,
    solve_exact,
    strata_of,
    unimodular_inverse,
    unimodular_rows,
    verify,
    vstack,
    wide_random_matrix,
)
from snckit import (
    IntMatrix,
    SmithForm,
    SncDivisor,
    cohomology,
    smith_normal_form,
    validate_snc,
)
from snckit import intmat
from snckit.intmat import eliminate, unit_sweep


def test_spec_example_diag_2_4():
    sf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert sf.diagonal == (2, 4)
    verify(sf, IntMatrix([[2, 4], [6, 8]]))


def test_degenerate_shapes():
    assert smith_normal_form(IntMatrix([[0]])).diagonal == (0,)
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    for a in (IntMatrix([], ncols=0), IntMatrix([], ncols=4),
              IntMatrix([[], [], []], ncols=0)):
        sf = smith_normal_form(a)
        verify(sf, a)
        assert sf.diagonal == ()
        assert rank(sf) == 0


def test_snf_verifies_on_random_matrices():
    rng = random.Random(1)
    for _ in range(1500):
        a = random_matrix(rng)
        verify(smith_normal_form(a), a)


def test_snf_deterministic():
    rng = random.Random(2)
    mats = [random_matrix(rng) for _ in range(200)]
    first = [smith_normal_form(a) for a in mats]
    second = [smith_normal_form(IntMatrix(a.to_lists(), ncols=a.ncols))
              for a in mats]
    assert first == second


def test_invariant_factors_match_minors_oracle():
    rng = random.Random(3)
    for _ in range(800):
        a = random_matrix(rng, max_dim=4, span=7)
        got = [x for x in smith_normal_form(a).diagonal if x]
        assert got == minors_invariant_factors(a)


def test_snf_matches_sympy():
    rng = random.Random(4)
    checked = 0
    while checked < 300:
        a = random_matrix(rng)
        if a.nrows == 0 or a.ncols == 0:
            continue
        theirs = sympy_snf(sympy.Matrix(a.to_lists()), domain=sympy.ZZ)
        diag = [abs(int(theirs[i, i])) for i in range(min(*a.shape))]
        ours = list(smith_normal_form(a).diagonal)
        assert ours == diag
        checked += 1


def sweep_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The sweep's diagonal of a dense matrix, handed over row by row."""
    return unit_sweep([{j: x for j, x in enumerate(row) if x} for row in a.rows()],
                      a.ncols)[0]


def test_smith_diagonal_agrees_with_full_form():
    # Chain complexes hand their boundaries to the sweep column by column,
    # that is as the transpose, so the transpose must give A's diagonal too.
    rng = random.Random(5)
    named = [IntMatrix.zero(0, 0), IntMatrix.zero(0, 3), IntMatrix.zero(3, 0),
             IntMatrix.zero(2, 4), IntMatrix([[2, 4, 6], [6, 8, 10]]),
             IntMatrix([[0, 3], [6, 0], [0, 9]]), IntMatrix([[1, 2, 3, 4]])]
    matrices = named + [random_matrix(rng, span=12) for _ in range(800)]
    for a in matrices:
        want = smith_normal_form(a).diagonal
        assert sweep_diagonal(a) == want
        assert sweep_diagonal(a.transpose()) == want
        columns = [{i: x for i, x in enumerate(column(a, j)) if x}
                   for j in range(a.ncols)]
        assert unit_sweep(columns, a.nrows)[0] == want
    assert sum(a.nrows != a.ncols for a in matrices) >= 500
    assert sum(any(x > 1 for x in sweep_diagonal(a)) for a in matrices) >= 100


def test_det_against_cofactor_expansion():
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(0, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
                      ncols=n)
        assert det(a) == cofactor_det(a.to_lists())
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2]]))


def test_kernel_basis_spans_saturated_kernel():
    rng = random.Random(7)
    for _ in range(300):
        a = random_matrix(rng)
        diag, _, v, _ = eliminate(a, v=True)
        k = v.take_columns(j for j in range(a.ncols) if j >= len(diag) or diag[j] == 0)
        assert is_zero(a @ k)
        assert (rank(smith_normal_form(k)) == k.ncols
                == a.ncols - rank(smith_normal_form(a)))
        # saturated: the basis extends to a basis of Z^ncols
        assert all(x == 1 for x in sweep_diagonal(k))


def test_solve_exact_roundtrip_and_failure():
    rng = random.Random(8)
    for _ in range(300):
        a = random_matrix(rng, max_dim=5)
        x = IntMatrix([[rng.randint(-4, 4) for _ in range(2)]
                       for _ in range(a.ncols)], ncols=2)
        b = a @ x
        got = solve_exact(a, b)
        assert got is not None
        assert a @ got == b
    assert solve_exact(IntMatrix([[2]]), IntMatrix([[1]])) is None
    assert solve_exact(IntMatrix.zero(1, 1), IntMatrix([[3]])) is None
    with pytest.raises(ValueError):
        solve_exact(IntMatrix([[1, 0]]), IntMatrix([[1], [2]]))


def test_unimodular_inverse():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = IntMatrix.identity(n).to_lists()
        for _ in range(3 * n):
            i, k = rng.randrange(n), rng.randrange(n)
            if i != k:
                q = rng.randint(-2, 2)
                m[i] = [x + q * y for x, y in zip(m[i], m[k])]
        a = IntMatrix(m, ncols=n)
        assert a @ unimodular_inverse(a) == IntMatrix.identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2]]))


def _tracked_inverse_cases():
    rng = random.Random(11)
    cases = [IntMatrix([], ncols=0), IntMatrix([], ncols=3),
             IntMatrix([[], [], []], ncols=0), IntMatrix.zero(3, 4),
             IntMatrix.zero(4, 2), IntMatrix([[2, 4, 6], [1, 2, 3], [3, 6, 9]])]
    for _ in range(150):
        cases.append(random_matrix(rng, span=12))
    for _ in range(60):
        # rank-deficient: a product through a narrower middle
        k, nr, nc = rng.randint(1, 3), rng.randint(2, 6), rng.randint(2, 6)
        left = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(nr)])
        right = IntMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(k)])
        cases.append(left @ right)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(IntMatrix([[rng.randint(-2 ** 64, 2 ** 64) for _ in range(nc)]
                                for _ in range(nr)], ncols=nc))
    return cases


def test_tracked_inverse_matches_the_two_pass_oracle():
    for a in _tracked_inverse_cases():
        sf = smith_normal_form(a)
        verify(sf, a)
        assert sf.u @ sf.u_inv == IntMatrix.identity(a.nrows)
        assert sf.u_inv == unimodular_inverse(sf.u)


def test_verify_rejects_a_wrong_inverse():
    a = IntMatrix([[2, 4], [6, 8]])
    sf = smith_normal_form(a)
    wrong = SmithForm(sf.u, sf.d, sf.v, scale(sf.u_inv, -1))
    with pytest.raises(AssertionError, match="U_inv"):
        verify(wrong, a)


def test_column_lattice_basis_spans_same_lattice():
    rng = random.Random(10)
    for _ in range(200):
        a = random_matrix(rng, max_dim=5)
        diag, u, _, _ = eliminate(a, u=IntMatrix.identity(a.nrows))
        factors = [x for x in diag if x]
        basis = column_lattice_basis(a)
        r = len(factors)
        # (U, factors) is a Smith form of the basis U^{-1} D_r, with V = I
        assert u @ basis == diagonal(factors, a.nrows, r)
        assert det(u) in (1, -1)
        assert r == rank(smith_normal_form(a))
        # every column of a lies in the lattice of the basis and conversely
        assert solve_exact(basis, a) is not None
        assert solve_exact(a, basis) is not None


TRACKING = list(itertools.product((False, True), repeat=3))


def _assert_reads_the_full_form(a: IntMatrix, sf: SmithForm, u: bool, v: bool,
                                u_inv: bool) -> None:
    assert eliminate(a, u=IntMatrix.identity(a.nrows) if u else None, v=v, u_inv=u_inv) == (
        sf.diagonal, sf.u if u else None, sf.v if v else None, sf.u_inv if u_inv else None)


@pytest.mark.parametrize("u,v,u_inv", TRACKING)
def test_trimmed_eliminations_read_what_the_full_form_returns(u, v, u_inv):
    # Pivots depend on the matrix alone, so an elimination that leaves a
    # transform untracked must give the same diagonal and the same tracked
    # transforms as smith_normal_form, and None for each untracked one.
    rng = random.Random(41)
    seen = set()
    fixed = [IntMatrix([], ncols=0), IntMatrix([], ncols=3), IntMatrix([[], []], ncols=0),
             IntMatrix([[6, 10], [10, 15], [15, 6]])]
    for a in fixed + [wide_random_matrix(rng) for _ in range(250)]:
        sf = smith_normal_form(a)
        _assert_reads_the_full_form(a, sf, u, v, u_inv)
        seen.update(("no rows",) * (a.nrows == 0) + ("no columns",) * (a.ncols == 0)
                    + ("torsion",) * any(x > 1 for x in sf.diagonal)
                    + ("above 2^64",) * any(abs(x) > 2 ** 64 for row in a.rows()
                                            for x in row))
    assert seen == {"no rows", "no columns", "torsion", "above 2^64"}


@st.composite
def _unit_free_matrices(draw):
    # No entry is +-1, so pivots start above 1: the column pass meets
    # remainders and swaps them in, and a pivot that divides its row and
    # column but not the rest of the block folds a row in.
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.sampled_from([0, 0, 2, -2, 3, 4, -6, 9, 10, -15, 25, 2 ** 70 + 6])
    return IntMatrix(draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                   min_size=nr, max_size=nr)), ncols=nc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_unit_free_matrices())
@example(IntMatrix([[2, 3]]))           # a remainder in the column pass
@example(IntMatrix([[2, 0], [0, 3]]))   # a pivot that does not divide the block
@example(IntMatrix([[6, 10], [10, 15], [15, 6]]))
def test_the_column_pass_with_remainders_keeps_the_transforms_exact(a):
    sf = smith_normal_form(a)
    verify(sf, a)   # U*A*V = D, U and V unimodular, U*U_inv = I
    for tracking in TRACKING:
        _assert_reads_the_full_form(a, sf, *tracking)


@st.composite
def _elimination_cases(draw):
    # Up to 8 x 8 with entries in +-64.  Units are drawn often, so rows
    # hold both a 1 and a -1; a common factor of the entries leaves no
    # unit, so pivots start above 1 and remainders force restarts; zeroed
    # rows and columns, and zeros drawn as entries, make empty lines and
    # blocks.  B has a row per row of A, to carry through U's slot.
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    f = draw(st.sampled_from((1, 1, 2, 3, 6)))
    entry = st.one_of(st.just(0), st.sampled_from((1, -1)),
                      st.integers(-64 // f, 64 // f)).map(lambda x: f * x)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=3))
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    width = draw(st.integers(0, 4))
    b = draw(st.lists(st.lists(st.integers(-64, 64), min_size=width, max_size=width),
                      min_size=nr, max_size=nr))
    return IntMatrix(rows, ncols=nc), IntMatrix(b, ncols=width)


def _ns_with_relations(rng: random.Random, nr: int, ns_cols: int, rank: int,
                       rel_cols: int) -> IntMatrix:
    """[NS | relations] of the size a Picard report eliminates.

    NS = P*D*Q has the given rank and a chain D of multiples of 4, so each
    nonzero entry has at least 3 bits, none is +-1, and a draw is kept
    only when every entry is below 2^13.  Each relation column holds one
    torsion order on a row of its own, not always a multiple of 4, so
    pivots meet remainders and rows that they do not divide.
    """
    chain = [4]
    while len(chain) < rank:
        chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
    while True:
        ns = (unimodular_rows(rng, nr, 2 * nr)[0] @ diagonal(chain, nr, ns_cols)
              @ unimodular_rows(rng, ns_cols, 2 * ns_cols)[0])
        if all(abs(x) < 2 ** 13 for row in ns.rows() for x in row):
            break
    rel_rows = rng.sample(range(nr), rel_cols)
    return ns.hstack(IntMatrix(
        [[rng.choice((5, 6, 9, 10, 12, 25)) if r == i else 0 for r in rel_rows]
         for i in range(nr)], ncols=rel_cols))


def _picard_sized_cases() -> list[tuple[IntMatrix, IntMatrix]]:
    """Seeded (A, B) pairs wider than the drawn ones, where a move over the
    nonzeros of the row it adds differs most from a move over the width:
    [NS | relations] at 10 x 16 and 16 x 28, a 16 x 8 kernel block that
    carries a 16 x 6 B, an 8 x 6 block that carries the identity, torsion
    relations P*diag(2, 6, 12, 36)*Q, and unit-free blocks whose smallest
    |entry|, 4, ties across rows and columns with both signs."""
    rng = random.Random(38)
    cases = []
    for nr, ns_cols, rank, rel_cols in ((10, 12, 7, 4), (16, 22, 12, 6)):
        cases.append((_ns_with_relations(rng, nr, ns_cols, rank, rel_cols),
                      IntMatrix([[rng.randint(-64, 64) for _ in range(3)] for _ in range(nr)])))
    cases.append((unimodular_rows(rng, 16, 48)[0].take_columns(range(8)),
                   IntMatrix([[rng.randint(-2 ** 12, 2 ** 12) if rng.random() < 0.5 else 0
                               for _ in range(6)] for _ in range(16)])))
    cases.append((unimodular_rows(rng, 8, 16)[0] @ diagonal((1, 1, 3, 6), 8, 6)
                  @ unimodular_rows(rng, 6, 12)[0], IntMatrix.identity(8)))
    cases.append((unimodular_rows(rng, 6, 12)[0] @ diagonal((2, 6, 12, 36), 6, 5)
                  @ unimodular_rows(rng, 5, 10)[0],
                  IntMatrix([[rng.randint(-9, 9)] for _ in range(6)])))
    for nr, nc in ((4, 4), (5, 7), (7, 5), (6, 6)):
        cases.append((IntMatrix([[rng.choice((0, 4, -4, 4, -4, 6, -6, 10, -15, 25))
                                  for _ in range(nc)] for _ in range(nr)]),
                      IntMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(nr)])))
    return cases


def _with_picard_sized_examples(test):
    for case in _picard_sized_cases():
        test = example(case)(test)
    return test


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_elimination_cases())
@_with_picard_sized_examples
@example((IntMatrix([], ncols=0), IntMatrix([], ncols=0)))
@example((IntMatrix([[0, 0], [0, 0]]), IntMatrix([[1], [2]])))
@example((IntMatrix([[3], [5]]), IntMatrix([[1, 0], [0, 1]])))   # a row-pass remainder
@example((IntMatrix([[3, 5]]), IntMatrix([[7]])))                 # a column-pass remainder
@example((IntMatrix([[2, 0], [0, 3]]), IntMatrix([[1], [1]])))   # a row folded into row t
@example((IntMatrix([[0, 0, 0], [0, -4, 6], [0, 10, -64]]), IntMatrix([[1], [2], [3]])))
@example((IntMatrix([[5, 0], [3, -1], [1, 1]]), IntMatrix([[1], [2], [3]])))
@example((IntMatrix([[4, -1, 1], [1, 2, 3]]), IntMatrix([[1], [2]])))    # -1 before 1
def test_eliminate_keeps_the_reference_pivot_history(case):
    # tests/helpers.py keeps the elimination as it was before its moves
    # were inlined; every pivot and every move must be the same, which the
    # three transforms and the diagonal pin down exactly.  Carrying B in
    # U's slot makes the same row moves on B, so it ends as U*B.
    a, b = case
    diag, u, v, u_inv = eliminate(a, u=IntMatrix.identity(a.nrows), v=True, u_inv=True)
    assert (diag, u, v, u_inv) == reference_eliminate(a)
    assert eliminate(a, u=b) == (diag, u @ b, None, None)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_elimination_cases())
@_with_picard_sized_examples
def test_eliminate_leaves_the_matrices_it_is_handed_alone(case):
    # The moves change the rows they work on in place, so every row that
    # starts as a row of A or B, or of an identity, must be a copy.
    a, b = case
    snapshots = [IntMatrix(x.to_lists(), ncols=x.ncols) for x in (a, b)]
    identities = {k: IntMatrix(IntMatrix.identity(k).to_lists(), ncols=k)
                  for k in (a.nrows, a.ncols)}
    first = eliminate(a, u=b, v=True, u_inv=True)
    assert [a, b] == snapshots
    assert all(IntMatrix.identity(k) == x for k, x in identities.items())
    assert eliminate(a, u=b, v=True, u_inv=True) == first


def test_eliminate_carries_only_a_matrix_with_a_row_per_row():
    with pytest.raises(ValueError, match="cannot carry 1 rows through 2 rows"):
        eliminate(IntMatrix([[1], [2]]), u=IntMatrix([[1, 2]]))


def test_constructor_takes_only_a_non_negative_int_width():
    for ncols in (-1, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="ncols must be a non-negative int"):
            IntMatrix([], ncols=ncols)
    with pytest.raises(ValueError, match="ncols must be a non-negative int"):
        IntMatrix([[5]], ncols=True)
    assert IntMatrix([], ncols=3).shape == (0, 3)
    assert IntMatrix([], ncols=0) != IntMatrix([], ncols=1)


def test_identity_and_zero_take_only_non_negative_int_sizes():
    for size in (-1, 2.0, "3", True, False):
        with pytest.raises(ValueError, match=r"^n must be a non-negative int"):
            IntMatrix.identity(size)
        with pytest.raises(ValueError, match=r"^nrows must be a non-negative int"):
            IntMatrix.zero(size, 2)
        with pytest.raises(ValueError, match=r"^ncols must be a non-negative int"):
            IntMatrix.zero(2, size)
    assert IntMatrix.identity(0).shape == (0, 0)
    assert IntMatrix.zero(0, 3) == IntMatrix([], ncols=3)
    assert IntMatrix.zero(2, 0).shape == (2, 0)


def test_constructor_takes_only_integers():
    for rows in ([[1.5, 7]], [[1, "7"]], [[2.0]], [[None]], [[1], [2j]]):
        with pytest.raises(ValueError, match="must be integers"):
            IntMatrix(rows)
    with pytest.raises(ValueError, match="must be integers"):
        diagonal([0.5])
    with pytest.raises(ValueError, match="must be integers"):
        scale(IntMatrix([[1]]), 0.5)
    entry = IntMatrix([[True, 2]])[0, 0]
    assert entry == 1 and type(entry) is int


def test_matrix_algebra_shape_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a @ IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        add(a, IntMatrix([[1]]))
    assert a.transpose().transpose() == a
    assert a.hstack(IntMatrix.zero(2, 1)).shape == (2, 3)
    assert vstack(a, IntMatrix.zero(1, 2)).shape == (3, 2)


# ---------------------------------------------------------------------------
# the sparse sweep: order-free results and work bounded by the matrix


@st.composite
def _mostly_unit_matrices(draw):
    # zeros make empty rows and columns, and entries of 2, 3 and 6 leave a
    # block for the dense routine, with torsion in it
    nr, nc = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -3, 6])
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    a = IntMatrix(rows, ncols=nc)
    return a, draw(st.permutations(range(nr))), draw(st.permutations(range(nc)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mostly_unit_matrices())
def test_sweep_matches_the_full_form_under_permutations(case):
    a, row_order, col_order = case
    want = smith_normal_form(a).diagonal
    permuted = a.take_rows(row_order).take_columns(col_order)
    for b in (a, permuted, a.transpose(), permuted.transpose()):
        assert sweep_diagonal(b) == want


def _reference_unit_pivots(work: list[dict[int, int]], ncols: int) -> list[int]:
    """The unit pivots of the sweep as its docstring defines them.

    A plain restatement of the sweep's rule: every target row marks all of
    its columns touched after each update, the pivot row is picked by one
    ``min`` over every +-1 row of the column, and the heap is drained to
    its last key.
    """
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(work):
        for j in row:
            cols[j].add(i)
    heap = [(len(c), True, j) for j, c in enumerate(cols) if c]
    heapq.heapify(heap)
    touched, pivots = set(), []
    while heap:
        count, untouched, j = heapq.heappop(heap)
        col = cols[j]
        if untouched and j in touched:
            continue
        if count != len(col):
            if col:
                heapq.heappush(heap, (len(col), untouched, j))
            continue
        i = min((k for k in col if work[k][j] in (1, -1)), default=None, key=lambda k: (
            len(work[k]), -sum(len(cols[jj]) for jj in work[k]), k))
        if i is None:
            continue
        pivot_row, work[i] = work[i], {}
        for k in col - {i}:
            target = work[k]
            q = target[j] * pivot_row[j]
            for jj, x in pivot_row.items():
                new = target.get(jj, 0) - q * x
                if new == 0:
                    del target[jj]
                    cols[jj].discard(k)
                    continue
                cols[jj].add(k)
                target[jj] = new
            for jj in target:
                if jj not in touched:
                    touched.add(jj)
                    heapq.heappush(heap, (len(cols[jj]), False, jj))
        for jj in pivot_row:
            cols[jj].discard(i)
        pivots.append(j)
    return pivots


@st.composite
def _sparse_unit_rows(draw):
    # Mostly +-1, so most pivots are units and rows tie on length; hub rows,
    # dense in +-1, are targeted by many pivots and lose every length tie.
    nr, nc = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    entry = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -3])
    hub = st.sampled_from([0, 1, -1, 1, -1, 2])
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    for _ in range(draw(st.integers(0, min(nr, 3)))):
        rows[draw(st.integers(0, nr - 1))] = draw(st.lists(hub, min_size=nc, max_size=nc))
    return IntMatrix(rows, ncols=nc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sparse_unit_rows())
def test_the_sweep_takes_the_pivots_its_rule_names(a):
    def rows():
        return [{j: x for j, x in enumerate(row) if x} for row in a.rows()]

    assert unit_sweep(rows(), a.ncols) == (smith_normal_form(a).diagonal,
                                           _reference_unit_pivots(rows(), a.ncols))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_unit_rows())
def test_the_sweep_leaves_the_rows_it_is_handed_alone(a):
    rows = [{j: x for j, x in enumerate(row) if x} for row in a.rows()]
    snapshot = [dict(row) for row in rows]
    handed = list(rows)
    unit_sweep(handed, a.ncols)
    assert all(x is y for x, y in zip(handed, rows)) and len(handed) == len(rows)
    assert rows == snapshot


def _shuffled(d: SncDivisor, seed: int) -> SncDivisor:
    strata = list(strata_of(d))
    random.Random(seed).shuffle(strata)
    return divisor_of(d.n, d.components, strata)


def test_shuffled_strata_give_the_same_diagonals_and_cohomology():
    for n, m in ((2, 6), (3, 7), (4, 8), (4, 10)):
        d = simplex_divisor(n, [f"E{i}" for i in range(m)], n)
        canonical = validate_snc(d).chain_complex()
        for seed in range(3):
            c = validate_snc(_shuffled(d, seed)).chain_complex()
            for i in range(len(canonical.ranks)):
                assert c.diagonal(i) == canonical.diagonal(i)
                assert cohomology(c, i) == cohomology(canonical, i)


def test_the_dense_routine_gets_no_zero_block_on_torsion_free_skeletons(monkeypatch):
    # Unit pivots reduce these boundaries completely; what remains are
    # zero lines, which the sweep drops instead of handing them on.
    blocks = []
    eliminate = intmat._eliminate

    def spy(m, nr, nc, *transforms):
        blocks.append((nr, nc))
        eliminate(m, nr, nc, *transforms)

    monkeypatch.setattr(intmat, "_eliminate", spy)
    for n, m in ((3, 7), (4, 11)):
        d = simplex_divisor(n, [f"E{i}" for i in range(m)], n)
        for dd in (d, _shuffled(d, 1)):
            c = validate_snc(dd).chain_complex()
            for i in range(len(c.ranks)):
                assert set(c.diagonal(i)) <= {0, 1}
    assert blocks and all(0 in shape for shape in blocks)


def test_shuffled_strata_cost_about_what_canonical_strata_cost():
    # n = 4, m = 16: 2,516 cells.  A first-found pivot order filled the
    # shuffled top boundary in and took about 90 times the canonical time.
    d = simplex_divisor(4, [f"E{i}" for i in range(16)], 4)
    canonical, shuffled = (validate_snc(x) for x in (d, _shuffled(d, 5)))

    def sweep_seconds(dc) -> float:
        ranks = dc.ranks()
        start = time.process_time()
        for k, boundary in enumerate(dc.chain_complex().boundaries):
            unit_sweep(list(map(dict, boundary)), ranks[k + 1])
        return time.process_time() - start

    # CPU time, the two orders interleaved, so that load on the host
    # weighs on both alike
    base = took = float("inf")
    for _ in range(3):
        base = min(base, sweep_seconds(canonical))
        took = min(took, sweep_seconds(shuffled))
    assert took <= 4 * base, (took, base)


def _hub_graph(leaves: int, hubs: int = 8) -> tuple[list[dict[int, int]], int]:
    """Vertex-edge incidence rows of a graph whose leaves all hang off a few hubs.

    Leaf k joins the previous leaf and hubs k and k + 1 (mod ``hubs``), so
    each hub row holds about a quarter of the edges.
    """
    edges = []
    for k in range(leaves):
        leaf = hubs + k
        edges += [(leaf - 1, leaf)] * (k > 0) + [(k % hubs, leaf), ((k + 1) % hubs, leaf)]
    rows = [{} for _ in range(hubs + leaves)]
    for j, (tail, head) in enumerate(edges):
        rows[tail][j], rows[head][j] = 1, -1
    return rows, len(edges)


def test_the_sweep_costs_what_it_changes_on_hub_rows():
    # Each pivot on a leaf edge targets a hub row.  A sweep that walked the
    # whole target row, or summed over each hub candidate's columns, paid
    # the hub's length per pivot: 11 to 15 times the time for 4 times the
    # leaves.  Paying for the entries that change takes 4.5 to 5.5.
    def sweep_seconds(leaves: int) -> float:
        rows, ncols = _hub_graph(leaves)
        start = time.process_time()
        diag, pivots = unit_sweep(rows, ncols)
        took = time.process_time() - start
        assert len(pivots) == leaves + 7 and diag.count(1) == leaves + 7
        return took

    # CPU time, the two sizes interleaved, so that load on the host weighs
    # on both alike
    small = large = float("inf")
    for _ in range(3):
        small = min(small, sweep_seconds(1000))
        large = min(large, sweep_seconds(4000))
    assert large <= 8 * small, (large, small)
