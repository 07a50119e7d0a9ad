"""Canonical forms, presentations, and maps of finitely generated groups."""
import random

import pytest

from helpers import (
    complex_from_matrices,
    hom_analyze,
    kernel_lattice,
    kernel_presentation,
    presentation_lift,
    prime_power_chain,
    random_matrix,
)
from snckit import (
    FgAbGroup,
    Hom,
    IntMatrix,
    compose,
    direct_sum,
    group_from_presentation,
    presentation,
    presentation_matrix,
    subquotient,
)
from snckit.abgroup import Z, ZERO_GROUP, preimage_lattice
from snckit.intmat import kernel_basis, smith_normal_form


def random_group(rng: random.Random) -> FgAbGroup:
    free = rng.randint(0, 3)
    torsion = [rng.choice((2, 2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(0, 3))]
    return FgAbGroup.from_factors(free, torsion)


def random_hom(rng: random.Random, source: FgAbGroup, target: FgAbGroup) -> Hom:
    cols = []
    for j in range(source.ngens):
        s = source.order_of_generator(j)
        col = []
        for i in range(target.ngens):
            t = target.order_of_generator(i)
            if s == 0:
                col.append(rng.randint(-4, 4))
            elif t == 0:
                col.append(0)
            else:
                # smallest legal step for a generator of order s into Z/t
                step = t // __import__("math").gcd(s, t)
                col.append(step * rng.randint(-3, 3))
        cols.append(col)
    return Hom(source, target, IntMatrix.from_columns(cols, nrows=target.ngens))


def test_canonical_form_examples():
    assert group_from_presentation(IntMatrix([[2]]), 1) == FgAbGroup.cyclic(2)
    assert group_from_presentation(IntMatrix.zero(3, 0), 3) == FgAbGroup.free(3)
    g = group_from_presentation(IntMatrix([[2, 4], [6, 8]]), 2)
    assert g == FgAbGroup(0, (2, 4))
    assert str(g) == "Z/2 ⊕ Z/4"
    assert str(FgAbGroup(2, (3,))) == "Z^2 ⊕ Z/3"
    assert str(Z) == "Z"
    assert str(ZERO_GROUP) == "0"


def test_from_factors_normalizes_to_divisibility_chain():
    assert FgAbGroup.from_factors(0, [2, 3]).torsion == (6,)
    assert FgAbGroup.from_factors(0, [4, 6]).torsion == (2, 12)
    assert FgAbGroup.from_factors(1, []) == Z
    with pytest.raises(ValueError):
        FgAbGroup.from_factors(0, [0])
    rng = random.Random(11)
    for _ in range(300):
        factors = [rng.randint(2, 30) for _ in range(rng.randint(0, 5))]
        assert FgAbGroup.from_factors(0, factors).torsion == prime_power_chain(factors)


def test_direct_sum_examples_and_oracle():
    assert direct_sum([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)]) == FgAbGroup.cyclic(6)
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
        assert (group_from_presentation(a, a.nrows)
                == group_from_presentation(b, b.nrows))


def test_presentation_maps_compose_to_identity():
    rng = random.Random(14)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4)
        pres = presentation(a, a.nrows)
        n = pres.group.ngens
        assert pres.to_canonical @ pres.lift == IntMatrix.identity(n)
        assert pres.lift == presentation_lift(a)


def test_presentation_matrix_roundtrip():
    g = FgAbGroup(2, (2, 6))
    assert group_from_presentation(presentation_matrix(g), g.ngens) == g


def test_hom_analyze_spec_examples():
    mult2 = Hom(Z, Z, IntMatrix([[2]]))
    assert hom_analyze(mult2) == (ZERO_GROUP, Z, FgAbGroup.cyclic(2))

    zero = Hom.zero(FgAbGroup.free(2), Z)
    assert hom_analyze(zero) == (FgAbGroup.free(2), ZERO_GROUP, Z)

    diff = Hom(FgAbGroup.free(3), FgAbGroup.free(3),
               IntMatrix([[1, -1, 0], [1, 0, -1], [0, 1, -1]]))
    assert hom_analyze(diff) == (Z, FgAbGroup.free(2), Z)


def test_hom_rejects_torsion_violations():
    with pytest.raises(ValueError):
        Hom(FgAbGroup.cyclic(2), Z, IntMatrix([[1]]))
    with pytest.raises(ValueError):
        Hom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), IntMatrix([[1]]))
    # 2 * 2 = 0 in Z/4, fine
    h = Hom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), IntMatrix([[2]]))
    assert not h.is_zero()
    assert Hom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), IntMatrix([[4]])).is_zero()
    with pytest.raises(ValueError):
        Hom(Z, Z, IntMatrix([[1, 2]]))


def test_rank_nullity_on_free_groups():
    rng = random.Random(15)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4)
        h = Hom(FgAbGroup.free(a.ncols), FgAbGroup.free(a.nrows), a)
        kernel, image, cokernel = hom_analyze(h)
        assert kernel.is_free()
        assert kernel.free_rank + image.free_rank == a.ncols
        assert cokernel.free_rank == a.nrows - image.free_rank


def test_hom_analyze_with_torsion_targets():
    # projection Z -> Z/4 is onto with kernel 4Z = Z
    p = Hom(Z, FgAbGroup.cyclic(4), IntMatrix([[1]]))
    assert hom_analyze(p) == (Z, FgAbGroup.cyclic(4), ZERO_GROUP)
    # doubling on Z/4 has kernel and cokernel Z/2
    d = Hom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(4), IntMatrix([[2]]))
    assert hom_analyze(d) == (FgAbGroup.cyclic(2), FgAbGroup.cyclic(2),
                              FgAbGroup.cyclic(2))


def test_kernel_lattice_and_presentation_agree():
    rng = random.Random(16)
    for _ in range(150):
        src = random_group(rng)
        tgt = random_group(rng)
        h = random_hom(rng, src, tgt)
        lattice = kernel_lattice(h)
        pres = kernel_presentation(h)
        assert pres.group == hom_analyze(h).kernel
        assert preimage_lattice(h).basis == lattice
        # every lattice vector really dies in the target
        img = h.matrix @ lattice
        for j in range(img.ncols):
            for i in range(tgt.ngens):
                t = tgt.order_of_generator(i)
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
        assert compose(Hom.identity(c), f).matrix == f.matrix
    with pytest.raises(ValueError):
        compose(Hom.identity(Z), Hom.identity(FgAbGroup.free(2)))


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
        outgoing = Hom(FgAbGroup.free(b), FgAbGroup.free(c), f_mat)
        incoming = Hom(FgAbGroup.free(g_mat.ncols), FgAbGroup.free(b), g_mat)
        cx = complex_from_matrices(0, (c, b, g_mat.ncols), [f_mat, g_mat])
        assert subquotient(outgoing, incoming) == homology(cx, 1)


def test_subquotient_rejects_image_outside_kernel():
    outgoing = Hom(Z, Z, IntMatrix([[1]]))
    incoming = Hom(Z, Z, IntMatrix([[1]]))
    with pytest.raises(ValueError):
        subquotient(outgoing, incoming)


def test_group_accessors():
    g = FgAbGroup(1, (2, 4))
    assert g.ngens == 3
    assert [g.order_of_generator(i) for i in range(3)] == [0, 2, 4]
    assert g.torsion_order() == 8
    assert not g.is_trivial() and not g.is_free()
    assert ZERO_GROUP.is_trivial() and ZERO_GROUP.is_free()
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())
