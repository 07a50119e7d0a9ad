"""Canonical forms, presentations, and maps of finitely generated groups."""
import random

import pytest

from helpers import (
    Z,
    ZERO_GROUP,
    cokernel,
    complex_from_matrices,
    from_columns,
    hom_analyze,
    kernel_basis,
    kernel_lattice,
    kernel_presentation,
    presentation_lift,
    presented_group,
    prime_power_chain,
    random_matrix,
    solve_exact,
    wide_random_matrix,
)
from snckit import (
    FgAbGroup,
    Hom,
    IntMatrix,
    compose,
    direct_sum,
    presentation_matrix,
    subquotient,
)
from snckit.abgroup import _canonical_rows, kernel_coordinates
from snckit.intmat import eliminate, smith_normal_form


def random_group(rng: random.Random) -> FgAbGroup:
    free = rng.randint(0, 3)
    torsion = [rng.choice((2, 2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(0, 3))]
    return FgAbGroup.from_factors(free, torsion)


def orders(g: FgAbGroup) -> tuple[int, ...]:
    """The order of each canonical generator, 0 for a free one."""
    return (0,) * g.free_rank + g.torsion


def random_hom(rng: random.Random, source: FgAbGroup, target: FgAbGroup) -> Hom:
    cols = []
    for s in orders(source):
        col = []
        for t in orders(target):
            if s == 0:
                col.append(rng.randint(-4, 4))
            elif t == 0:
                col.append(0)
            else:
                # smallest legal step for a generator of order s into Z/t
                step = t // __import__("math").gcd(s, t)
                col.append(step * rng.randint(-3, 3))
        cols.append(col)
    return Hom(source, target, from_columns(cols, target.ngens))


def test_canonical_form_examples():
    assert presented_group(IntMatrix([[2]]), 1) == FgAbGroup(0, (2,))
    assert presented_group(IntMatrix.zero(3, 0), 3) == FgAbGroup(3)
    g = presented_group(IntMatrix([[2, 4], [6, 8]]), 2)
    assert g == FgAbGroup(0, (2, 4))
    assert str(g) == "Z/2 ⊕ Z/4"
    assert str(FgAbGroup(2, (3,))) == "Z^2 ⊕ Z/3"
    assert str(Z) == "Z"
    assert str(ZERO_GROUP) == "0"


def test_from_factors_normalizes_to_divisibility_chain():
    assert FgAbGroup.from_factors(0, [2, 3]).torsion == (6,)
    assert FgAbGroup.from_factors(0, [4, 6]).torsion == (2, 12)
    assert FgAbGroup.from_factors(1, []) == Z
    assert FgAbGroup.from_factors(0, [-4, 6]).torsion == (2, 12)
    with pytest.raises(ValueError):
        FgAbGroup.from_factors(0, [0])
    rng = random.Random(11)
    for _ in range(300):
        factors = [rng.randint(2, 30) for _ in range(rng.randint(0, 5))]
        assert FgAbGroup.from_factors(0, factors).torsion == prime_power_chain(factors)


@pytest.mark.parametrize("make", [
    lambda: FgAbGroup.from_factors(0, [2.5]),
    lambda: FgAbGroup.from_factors(0, [2, True]),
    lambda: FgAbGroup(0, (3.0,)),
    lambda: FgAbGroup(0, (True,)),
    lambda: FgAbGroup(1.0),
    lambda: FgAbGroup(True),
    lambda: FgAbGroup(1, [2]),
    lambda: FgAbGroup(1, []),
], ids=["float-factor", "bool-factor", "float-order", "bool-order", "float-rank",
        "bool-rank", "list-orders", "empty-list-orders"])
def test_groups_reject_non_int_ranks_and_orders(make):
    # A list of orders would compare unequal to the same orders as a tuple
    # and leave the group unhashable.
    with pytest.raises(ValueError):
        make()


def test_direct_sum_examples_and_oracle():
    assert direct_sum([FgAbGroup(0, (2,)), FgAbGroup(0, (3,))]) == FgAbGroup(0, (6,))
    assert direct_sum([Z, ZERO_GROUP]) == Z
    assert direct_sum([]) == ZERO_GROUP
    rng = random.Random(12)
    for _ in range(200):
        gs = [random_group(rng) for _ in range(rng.randint(0, 4))]
        total = direct_sum(gs)
        assert total.free_rank == sum(g.free_rank for g in gs)
        orders = [t for g in gs for t in g.torsion]
        assert total.torsion == prime_power_chain(orders)


def test_presentation_invariant_under_unimodular_change():
    rng = random.Random(13)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4)
        sf = smith_normal_form(a)
        b = sf.u @ a @ sf.v
        assert (presented_group(a, a.nrows)
                == presented_group(b, b.nrows))


def test_tracked_transforms_compose_to_identity():
    # ns_analysis tracks U^{-1} alone on ker(NS) and carries its columns
    # through Gamma's elimination in U's slot: U and U^{-1}, each tracked
    # alone, must be inverse, and U^{-1}'s columns of the canonical
    # generators must be the lift that a second Smith form gives.
    rng = random.Random(14)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4)
        diag, u, _, _ = eliminate(a, u=IntMatrix.identity(a.nrows))
        _, _, _, u_inv = eliminate(a, u_inv=True)
        assert u @ u_inv == IntMatrix.identity(a.nrows)
        _, order = _canonical_rows(diag, a.nrows)
        assert u_inv.take_columns(order) == presentation_lift(a)


def _random_target(rng: random.Random, generators: int) -> FgAbGroup:
    chain = [rng.choice((2, 3, 4, 2 ** 65))]
    k = rng.randint(0, generators)
    while len(chain) < k:
        chain.append(chain[-1] * rng.choice((1, 2, 3)))
    return FgAbGroup(generators - k, tuple(chain[:k]))


def test_single_transforms_and_kernels_read_what_the_full_form_returns():
    # ns_analysis carries rows in U's slot or tracks U^{-1} alone, and
    # kernel_coordinates reads the cokernel off the elimination that gives
    # its kernel; all must agree with the full Smith form of the same input.
    rng = random.Random(43)
    for _ in range(250):
        a = wide_random_matrix(rng)
        sf = smith_normal_form(a)
        diag = sf.diagonal
        free = [i for i in range(a.nrows) if i >= len(diag) or diag[i] == 0]
        order = free + [i for i in range(len(diag)) if diag[i] > 1]
        assert eliminate(a, u=IntMatrix.identity(a.nrows)) == (diag, sf.u, None, None)
        assert eliminate(a, u_inv=True) == (diag, None, None, sf.u_inv)
        assert _canonical_rows(diag, a.nrows) == (presented_group(a, a.nrows),
                                                  order)

        target = _random_target(rng, a.nrows)
        h = Hom(FgAbGroup(a.ncols), target, a)
        stacked = a.hstack(presentation_matrix(target))
        coords, size, coker = kernel_coordinates(h, IntMatrix.zero(a.ncols, 0))
        assert coker == presented_group(stacked, target.ngens) == cokernel(h)
        assert size == kernel_lattice(h).ncols and coords == IntMatrix.zero(size, 0)


def test_kernel_coordinates_solve_as_the_oracle_does():
    # The kernel lattice's basis is U^{-1} D_r for the U of its spanning
    # rows, and its coordinates agree with the oracle solve_exact on that
    # basis, which takes a Smith form of the basis itself: on the lattice
    # both give the same coordinates, off it both give None.  A column of
    # U^{-1} whose row of D is zero or above 1 lies off the lattice.
    rng = random.Random(41)
    seen = set()
    for k in range(400):
        if k % 2:
            a = wide_random_matrix(rng)
            h = Hom(FgAbGroup(a.ncols), _random_target(rng, a.nrows), a)
        else:
            h = random_hom(rng, random_group(rng), random_group(rng))
        source = h.source.ngens
        spanning = kernel_basis(h.matrix.hstack(presentation_matrix(h.target)))
        kernel_rows = spanning.take_rows(range(source))
        sf = smith_normal_form(kernel_rows)
        basis = kernel_lattice(h)
        r = basis.ncols
        relations = presentation_matrix(h.source)
        coords = IntMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(r)], ncols=2)
        on = basis @ coords
        probes = [kernel_rows, on] + [on.hstack(sf.u_inv.take_columns([j]))
                                      for j in range(source) if j >= r or sf.diagonal[j] > 1]
        for b in probes:
            got, size, _ = kernel_coordinates(h, b)
            assert size == r
            assert got == solve_exact(basis, b.hstack(relations))
            seen.add("on the lattice" if got is not None else "off the lattice")
        assert kernel_coordinates(h, on)[0].take_columns(range(2)) == coords
        seen.update(("no rows",) * (h.matrix.nrows == 0) + ("no columns",) * (source == 0)
                    + ("source torsion",) * bool(h.source.torsion)
                    + ("target torsion",) * bool(h.target.torsion)
                    + ("above 2^64",) * any(abs(x) > 2 ** 64 for row in h.matrix.rows()
                                            for x in row))
    assert seen == {"no rows", "no columns", "source torsion", "target torsion",
                    "above 2^64", "on the lattice", "off the lattice"}


def test_presentation_matrix_roundtrip():
    g = FgAbGroup(2, (2, 6))
    assert presented_group(presentation_matrix(g), g.ngens) == g


def test_hom_analyze_spec_examples():
    mult2 = Hom(Z, Z, IntMatrix([[2]]))
    assert hom_analyze(mult2) == (ZERO_GROUP, Z, FgAbGroup(0, (2,)))

    zero = Hom.zero(FgAbGroup(2), Z)
    assert hom_analyze(zero) == (FgAbGroup(2), ZERO_GROUP, Z)

    diff = Hom(FgAbGroup(3), FgAbGroup(3),
               IntMatrix([[1, -1, 0], [1, 0, -1], [0, 1, -1]]))
    assert hom_analyze(diff) == (Z, FgAbGroup(2), Z)


def test_hom_rejects_torsion_violations():
    with pytest.raises(ValueError):
        Hom(FgAbGroup(0, (2,)), Z, IntMatrix([[1]]))
    with pytest.raises(ValueError):
        Hom(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), IntMatrix([[1]]))
    # the error names the first bad entry, column by column
    mixed = FgAbGroup(1, (2,)), FgAbGroup(1, (4,))
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) = 3 sends a generator of "
                                         r"order 2 to a free generator$"):
        Hom(*mixed, IntMatrix([[5, 3], [1, 1]]))
    with pytest.raises(ValueError, match=r"^entry \(1, 1\) = 1 violates torsion: "
                                         r"2 \* 1 is nonzero mod 4$"):
        Hom(*mixed, IntMatrix([[5, 0], [1, 1]]))
    # 2 * 2 = 0 in Z/4, fine
    h = Hom(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), IntMatrix([[2]]))
    assert not h.is_zero()
    assert Hom(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), IntMatrix([[4]])).is_zero()
    with pytest.raises(ValueError):
        Hom(Z, Z, IntMatrix([[1, 2]]))


def test_rank_nullity_on_free_groups():
    rng = random.Random(15)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4)
        h = Hom(FgAbGroup(a.ncols), FgAbGroup(a.nrows), a)
        kernel, image, cokernel = hom_analyze(h)
        assert kernel.is_free()
        assert kernel.free_rank + image.free_rank == a.ncols
        assert cokernel.free_rank == a.nrows - image.free_rank


def test_hom_analyze_with_torsion_targets():
    # projection Z -> Z/4 is onto with kernel 4Z = Z
    p = Hom(Z, FgAbGroup(0, (4,)), IntMatrix([[1]]))
    assert hom_analyze(p) == (Z, FgAbGroup(0, (4,)), ZERO_GROUP)
    # doubling on Z/4 has kernel and cokernel Z/2
    d = Hom(FgAbGroup(0, (4,)), FgAbGroup(0, (4,)), IntMatrix([[2]]))
    assert hom_analyze(d) == (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)),
                              FgAbGroup(0, (2,)))


def test_kernel_lattice_and_presentation_agree():
    rng = random.Random(16)
    for _ in range(150):
        src = random_group(rng)
        tgt = random_group(rng)
        h = random_hom(rng, src, tgt)
        lattice = kernel_lattice(h)
        pres = kernel_presentation(h)
        assert pres.group == hom_analyze(h).kernel
        assert pres.to_canonical @ pres.lift == IntMatrix.identity(pres.group.ngens)
        # the lattice's basis U^{-1} D_r is the oracle's: its coordinates
        # on it are the identity
        coords, size, _ = kernel_coordinates(h, lattice)
        assert size == lattice.ncols
        assert coords.take_columns(range(size)) == IntMatrix.identity(size)
        # every lattice vector really dies in the target
        img = h.matrix @ lattice
        for j in range(img.ncols):
            for i, t in enumerate(orders(tgt)):
                v = img[i, j]
                assert v == 0 if t == 0 else v % t == 0


def test_compose_and_identity():
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = (random_group(rng) for _ in range(3))
        f = random_hom(rng, b, c)
        g = random_hom(rng, a, b)
        fg = compose(f, g)
        assert fg.source == a and fg.target == c
        assert compose(Hom(c, c, IntMatrix.identity(c.ngens)), f).matrix == f.matrix
    with pytest.raises(ValueError):
        compose(Hom(Z, Z, IntMatrix.identity(1)),
                Hom(FgAbGroup(2), FgAbGroup(2), IntMatrix.identity(2)))


def entrywise_zero(h: Hom) -> bool:
    """Every entry is zero modulo the order of its target generator, and
    zero itself in the row of a free generator."""
    return all(e == 0 if t == 0 else e % t == 0
               for t, row in zip(orders(h.target), h.matrix.rows()) for e in row)


def test_is_zero_agrees_with_the_entrywise_rule():
    rng = random.Random(23)
    seen = set()
    homs = [Hom.zero(a, b) for a in (ZERO_GROUP, Z, FgAbGroup(0, (2,)))
            for b in (ZERO_GROUP, Z, FgAbGroup(0, (2,)))]
    for _ in range(600):
        source = random_group(rng)
        target = random_group(rng) if rng.random() < 0.5 else FgAbGroup(rng.randint(0, 3))
        h = random_hom(rng, source, target)
        # most entries a multiple of the order of their target generator
        rows = [[t * rng.randint(-2, 2) if rng.random() < 0.9
                 else e for e in row] for t, row in zip(orders(target), h.matrix.rows())]
        homs += [h, Hom(source, target, IntMatrix(rows, ncols=source.ngens))]
    for h in homs:
        assert h.is_zero() == entrywise_zero(h), h
        seen.add((h.target.is_free(), h.is_zero(), 0 in h.matrix.shape))
    assert {(free, zero) for free, zero, _ in seen} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert (True, True, True) in seen and (False, True, True) in seen


def test_no_relations_shortcut_reads_what_the_elimination_gives():
    # ns_analysis skips the elimination of a lattice without relations and
    # takes it free on the identity, which is what the elimination returns
    for g in range(6):
        relations = IntMatrix.zero(g, 0)
        diag, u, v, u_inv = eliminate(relations, u=IntMatrix.identity(g), u_inv=True)
        assert diag == () and v is None
        assert u == u_inv == IntMatrix.identity(g)
        assert _canonical_rows(diag, g) == (FgAbGroup(g), list(range(g)))


def test_subquotient_is_middle_homology():
    # build short complexes Z^a -g-> Z^b -f-> Z^c with f g = 0 and compare
    # against the rank-and-torsion computation done directly from matrices
    from snckit import homology
    rng = random.Random(18)
    for _ in range(150):
        f_mat = random_matrix(rng, max_dim=4)
        ker = kernel_basis(f_mat)
        w = rng.randint(0, 3)
        mix = IntMatrix([[rng.randint(-2, 2) for _ in range(w)]
                         for _ in range(ker.ncols)], ncols=w)
        g_mat = ker @ mix
        b, c = f_mat.ncols, f_mat.nrows
        outgoing = Hom(FgAbGroup(b), FgAbGroup(c), f_mat)
        incoming = Hom(FgAbGroup(g_mat.ncols), FgAbGroup(b), g_mat)
        cx = complex_from_matrices((c, b, g_mat.ncols), [f_mat, g_mat])
        assert subquotient(outgoing, incoming) == homology(cx, 1)


def test_subquotient_rejects_image_outside_kernel():
    outgoing = Hom(Z, Z, IntMatrix([[1]]))
    incoming = Hom(Z, Z, IntMatrix([[1]]))
    with pytest.raises(ValueError):
        subquotient(outgoing, incoming)


def test_group_accessors():
    g = FgAbGroup(1, (2, 4))
    assert g.ngens == 3
    assert not g.is_trivial() and not g.is_free()
    assert ZERO_GROUP.is_trivial() and ZERO_GROUP.is_free()
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())
