"""Exact integer matrices and Smith normal form against independent oracles."""
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from helpers import (
    cofactor_det,
    column_lattice_basis,
    minors_invariant_factors,
    random_matrix,
    solve_exact,
    unimodular_inverse,
)
from snckit import IntMatrix, SmithForm, smith_diagonal, smith_normal_form
from snckit.intmat import column_lattice, kernel_basis, sparse_smith_diagonal


def test_spec_example_diag_2_4():
    sf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert sf.diagonal == (2, 4)
    sf.verify(IntMatrix([[2, 4], [6, 8]]))


def test_degenerate_shapes():
    assert smith_normal_form(IntMatrix([[0]])).diagonal == (0,)
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    for a in (IntMatrix([], ncols=0), IntMatrix([], ncols=4),
              IntMatrix([[], [], []], ncols=0)):
        sf = smith_normal_form(a)
        sf.verify(a)
        assert sf.diagonal == ()
        assert sf.rank == 0


def test_snf_verifies_on_random_matrices():
    rng = random.Random(1)
    for _ in range(1500):
        a = random_matrix(rng)
        smith_normal_form(a).verify(a)


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
        got = list(smith_normal_form(a).invariant_factors())
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
        assert smith_diagonal(a) == want
        assert smith_diagonal(a.transpose()) == want
        columns = [[(i, x) for i, x in enumerate(a.column(j)) if x]
                   for j in range(a.ncols)]
        assert sparse_smith_diagonal(columns, a.nrows) == want
    assert sum(a.nrows != a.ncols for a in matrices) >= 500
    assert sum(any(x > 1 for x in smith_diagonal(a)) for a in matrices) >= 100


def test_det_against_cofactor_expansion():
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(0, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
                      ncols=n)
        assert a.det() == cofactor_det(a.to_lists())
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).det()


def test_kernel_basis_spans_saturated_kernel():
    rng = random.Random(7)
    for _ in range(300):
        a = random_matrix(rng)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert (smith_normal_form(k).rank == k.ncols
                == a.ncols - smith_normal_form(a).rank)
        # saturated: the basis extends to a basis of Z^ncols
        assert all(x == 1 for x in smith_diagonal(k))


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
        sf.verify(a)
        assert sf.u @ sf.u_inv == IntMatrix.identity(a.nrows)
        assert sf.u_inv == unimodular_inverse(sf.u)


def test_verify_rejects_a_wrong_inverse():
    a = IntMatrix([[2, 4], [6, 8]])
    sf = smith_normal_form(a)
    wrong = SmithForm(sf.u, sf.d, sf.v, sf.u_inv.scale(-1))
    with pytest.raises(AssertionError, match="U_inv"):
        wrong.verify(a)


def test_column_lattice_basis_spans_same_lattice():
    rng = random.Random(10)
    for _ in range(200):
        a = random_matrix(rng, max_dim=5)
        basis, form = column_lattice(a)
        assert basis == column_lattice_basis(a)
        form.verify(basis)
        assert basis.ncols == smith_normal_form(a).rank
        # every column of a lies in the lattice of the basis and conversely
        assert solve_exact(basis, a) is not None
        assert solve_exact(a, basis) is not None


def test_matrix_algebra_shape_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a @ IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        a + IntMatrix([[1]])
    assert a.transpose().transpose() == a
    assert a.hstack(IntMatrix.zero(2, 1)).shape == (2, 3)
    assert a.vstack(IntMatrix.zero(1, 2)).shape == (3, 2)
