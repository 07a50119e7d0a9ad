"""Finitely generated abelian groups, exactly.

A group is stored in canonical form (free rank plus a divisibility chain of
torsion orders), so structural equality coincides with isomorphism.  Groups
are read off the Smith diagonal that :func:`~snckit.intmat.eliminate` gives
for an integer presentation matrix, and homomorphisms between them are matrices on canonical generators, validated
against torsion at construction time.  One function,
:func:`kernel_coordinates`, builds the lattice of a kernel, rewrites
vectors on its basis and presents the cokernel; subquotients and the
Picard analysis both read it.

The canonical generator order is: free generators first, then torsion
generators with ascending order.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mod
from typing import Iterable, NamedTuple

from .intmat import IntMatrix, _Checked, eliminate


def _divisibility_chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Sort torsion orders into a chain t_1 | t_2 | ... by gcd/lcm exchange.

    Each exchange preserves the isomorphism class of the direct sum of
    cyclic groups (Z/a ⊕ Z/b ≅ Z/gcd ⊕ Z/lcm) and strictly decreases the
    smaller factor unless the pair already divides, so the loop terminates.
    """
    vals = list(factors)
    if not all(type(t) is int and t for t in vals):
        raise ValueError(f"torsion orders {vals} are not all nonzero ints")
    vals = [v for v in map(abs, vals) if v != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a != 0:
                    vals[i], vals[j] = gcd(a, b), lcm(a, b)
                    changed = True
    return tuple(v for v in sorted(vals) if v != 1)


class FgAbGroup(_Checked, NamedTuple("FgAbGroup", [
        ("free_rank", int), ("torsion", tuple[int, ...])])):
    """A finitely generated abelian group Z^r ⊕ Z/t_1 ⊕ ... ⊕ Z/t_k.

    The torsion orders, a tuple, satisfy t_i ≥ 2 and t_i | t_{i+1}, which
    makes the representation unique: two values compare equal exactly when
    the groups are isomorphic.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()) -> FgAbGroup:
        self = tuple.__new__(cls, (free_rank, torsion))
        # Each rule is one builtin pass; only a failing one walks the
        # orders, to name the first that breaks it.
        if type(torsion) is not tuple:
            raise ValueError(f"torsion orders must be a tuple, got {torsion!r}")
        if type(free_rank) is not int or {*map(type, torsion)} - {int}:
            raise ValueError("free rank and torsion orders must be ints, got "
                             f"{free_rank!r} and {torsion!r}")
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        if torsion and min(torsion) < 2:
            t = next(t for t in torsion if t < 2)
            raise ValueError(f"torsion order {t} < 2; use canonical form")
        if any(map(mod, torsion[1:], torsion)):
            raise ValueError(f"torsion {torsion} is not a divisibility chain")
        return self

    @classmethod
    def from_factors(cls, free_rank: int, factors: Iterable[int]) -> "FgAbGroup":
        return cls(free_rank, _divisibility_chain(factors))

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def presentation_matrix(g: FgAbGroup) -> IntMatrix:
    """The canonical relation matrix of g on its canonical generators.

    One column per torsion generator, carrying its order; free generators
    get no relations.
    """
    k = len(g.torsion)
    zeros = (0,) * k
    rows = (zeros,) * g.free_rank + tuple(
        zeros[:i] + (t,) + zeros[i + 1:] for i, t in enumerate(g.torsion))
    return IntMatrix._of(rows, k)


def _canonical_rows(diag: tuple[int, ...], size: int) -> tuple[FgAbGroup, list[int]]:
    """The cokernel of relations on ``size`` generators, from their Smith
    diagonal, and which rows of U (columns of U^{-1}) are its canonical
    generators: the free ones first, then torsion in ascending order."""
    free = [i for i in range(size) if i >= len(diag) or diag[i] == 0]
    torsion = [i for i, x in enumerate(diag) if x > 1]
    return FgAbGroup(len(free), tuple(diag[i] for i in torsion)), free + torsion


class Hom(_Checked, NamedTuple("Hom", [
        ("source", FgAbGroup), ("target", FgAbGroup), ("matrix", IntMatrix)])):
    """A homomorphism between groups in canonical form.

    The matrix has one column per source generator and one row per target
    generator; column j holds the image of the j-th canonical generator.
    Construction fails when some column violates the torsion of its
    generator, i.e. when the assignment does not define a homomorphism.
    """

    __slots__ = ()

    def __new__(cls, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix) -> Hom:
        self = tuple.__new__(cls, (source, target, matrix))
        if tuple(map(type, self)) != (FgAbGroup, FgAbGroup, IntMatrix):
            raise ValueError("source and target must be FgAbGroups and matrix an IntMatrix, "
                             f"got {', '.join([type(x).__name__ for x in self])}")
        if self.matrix.shape != (self.target.ngens, self.source.ngens):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not map "
                f"{self.source.ngens} generators to {self.target.ngens}")
        # only the images of torsion generators are constrained
        orders = (0,) * self.target.free_rank + self.target.torsion
        for j, s in enumerate(self.source.torsion, self.source.free_rank):
            for i, (t, row) in enumerate(zip(orders, self.matrix.rows())):
                e = row[j]
                if t == 0 and e != 0:
                    raise ValueError(f"entry ({i}, {j}) = {e} sends a generator of "
                                     f"order {s} to a free generator")
                if t != 0 and (s * e) % t != 0:
                    raise ValueError(f"entry ({i}, {j}) = {e} violates torsion: "
                                     f"{s} * {e} is nonzero mod {t}")
        return self

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "Hom":
        return cls(source, target, IntMatrix.zero(target.ngens, source.ngens))

    def is_zero(self) -> bool:
        """Whether every generator maps to zero in the target."""
        if not self.target.torsion:
            return not any(map(any, self.matrix.rows()))
        orders = (0,) * self.target.free_rank + self.target.torsion
        return all(e % t == 0 if t else e == 0
                   for t, row in zip(orders, self.matrix.rows()) for e in row)


def compose(f: Hom, g: Hom) -> Hom:
    """The composite f ∘ g (apply g first)."""
    if g.target != f.source:
        raise ValueError(f"cannot compose: {g.target} is not {f.source}")
    return Hom(g.source, f.target, f.matrix @ g.matrix)


def kernel_coordinates(outgoing: Hom, incoming: IntMatrix
                       ) -> tuple[IntMatrix | None, int, FgAbGroup]:
    """Coordinates on a basis of ker(outgoing), the basis size, and coker(outgoing).

    The coordinates are those of [incoming | source relations], or None
    when a column leaves the kernel lattice {x : outgoing.matrix·x = 0 in
    the target}.  The lattice is spanned by K, the source rows of the free
    columns of V from one elimination of [matrix | target relations] that
    tracks V alone; its diagonal presents the cokernel, the target modulo
    the image.  A second elimination, of K, gives U*K*V' = D of rank r.  K
    spans what the first r columns of U^{-1} D span, and those are
    independent: they are the basis.  Solving B = U^{-1} D_r X needs U*B
    and the r invariant factors alone, and the elimination carries the
    rows of B in U's slot, so each of its row moves lands on B: neither U,
    nor V', nor the basis, whose entries are large, is ever built.  The
    solve works column by column, so the columns of the source relations
    are the relations of the kernel on that basis.
    """
    stacked = outgoing.matrix.hstack(presentation_matrix(outgoing.target))
    diag, _, v, _ = eliminate(stacked, v=True)
    coker = _canonical_rows(diag, outgoing.target.ngens)[0]
    free = [j for j in range(stacked.ncols) if j >= len(diag) or diag[j] == 0]
    kernel = IntMatrix._of(tuple(tuple(map(row.__getitem__, free))
                                 for row in v.rows()[:outgoing.source.ngens]), len(free))
    b = incoming.hstack(presentation_matrix(outgoing.source))
    kernel_diag, ub, _, _ = eliminate(kernel, u=b)
    factors = [x for x in kernel_diag if x]
    r = len(factors)
    c = ub.rows()
    if any(map(any, c[r:])) or any(x % p for row, p in zip(c, factors) for x in row):
        return None, r, coker
    coords = tuple(tuple(x // p for x in row) for row, p in zip(c, factors))
    return IntMatrix._of(coords, b.ncols), r, coker


def subquotient(outgoing: Hom, incoming: Hom) -> FgAbGroup:
    """ker(outgoing) / im(incoming) at the shared middle group.

    Raises when the image of ``incoming`` does not land in the kernel of
    ``outgoing``, which is exactly the failure of the two maps to compose
    to zero.
    """
    if incoming.target != outgoing.source:
        raise ValueError(
            f"maps do not meet: incoming lands in {incoming.target}, "
            f"outgoing leaves from {outgoing.source}")
    coords, size, _ = kernel_coordinates(outgoing, incoming.matrix)
    if coords is None:
        raise ValueError("incoming image does not lie in the outgoing kernel")
    return _canonical_rows(eliminate(coords)[0], size)[0]


def direct_sum(gs: Iterable[FgAbGroup]) -> FgAbGroup:
    """Direct sum in canonical form.

    >>> str(direct_sum([FgAbGroup(0, (2,)), FgAbGroup(1, (3,))]))
    'Z ⊕ Z/6'
    """
    free = 0
    factors: list[int] = []
    for g in gs:
        free += g.free_rank
        factors.extend(g.torsion)
    return FgAbGroup.from_factors(free, factors)
