"""Bounded chain complexes of free abelian groups and spectral pages.

A complex stores one free rank per degree on a contiguous range, plus the
boundary maps between adjacent degrees as sparse signed incidence: one
column of (face, coefficient) pairs per cell.  The boundaries must compose
to zero.  Homology and cohomology come out in canonical form.  Both are
read off the Smith diagonals of the boundaries, which each complex computes
once, bottom-up with clearing, and keeps; cohomology follows from them by
universal coefficients, with no transposed complex.

Spectral pages are finite: a dictionary of nonzero entries together with an
explicit support region.  Only the E_1 → E_2 step is implemented; the one
E_3 entry that the KH report reads is the direct corner rule in ``khasm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .abgroup import FgAbGroup, Hom, compose, subquotient
from .intmat import unit_sweep


class SupportViolationError(Exception):
    """A nonzero spectral entry sits outside the declared support region."""

    def __init__(self, position: tuple[int, int], message: str | None = None):
        self.position = position
        super().__init__(message or f"nonzero entry outside support at {position}")


@dataclass(frozen=True)
class ChainComplex:
    """Free chain complex on degrees lowest_degree .. lowest_degree + len - 1.

    ``boundaries[k]`` is the boundary map out of degree lowest_degree + k + 1
    into degree lowest_degree + k: one column per cell of the upper degree,
    each a tuple of (face, coefficient) pairs with faces strictly increasing
    and below ranks[k], and coefficients nonzero.  That form is canonical,
    so equality and hashing mean equality of the maps.

    Each boundary composed with the one below it must be zero.  The
    constructor does not check it; the diagonals, read bottom-up with
    clearing, rely on it.
    """

    lowest_degree: int
    ranks: tuple[int, ...]
    boundaries: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    # (Smith diagonal, unit pivot columns) per boundary, filled bottom-up on
    # first use; not part of the value, so equality, hashing and
    # construction ignore it.
    _sweeps: list[tuple[tuple[int, ...], list[int]]] = field(
        default_factory=list, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        expected = max(len(self.ranks) - 1, 0)
        if len(self.boundaries) != expected:
            raise ValueError(
                f"{len(self.boundaries)} boundary maps for {len(self.ranks)} degrees")
        for k, columns in enumerate(self.boundaries):
            below = self.ranks[k]
            bad = len(columns) != self.ranks[k + 1]
            for col in () if bad else columns:
                last = -1
                for f, x in col:
                    if x == 0 or f <= last:
                        last = below        # marks the column bad
                        break
                    last = f
                if last >= below:
                    bad = True
                    break
            if bad:
                raise ValueError(
                    f"boundary out of degree {self.lowest_degree + k + 1} is not "
                    f"{self.ranks[k + 1]} columns of nonzero entries on faces "
                    f"increasing below {below}")

    @property
    def degrees(self) -> range:
        return range(self.lowest_degree, self.lowest_degree + len(self.ranks))

    def rank(self, d: int) -> int:
        if d in self.degrees:
            return self.ranks[d - self.lowest_degree]
        return 0

    def diagonal(self, d: int) -> tuple[int, ...]:
        """Smith diagonal of the boundary out of degree d, computed once.

        Outside the range the boundary is zero and its diagonal is empty.
        The first call sweeps every boundary from the lowest up to this
        one, each once, with faces as rows.  A unit pivot of the sweep below,
        in the column of cell c, is a cochain whose coboundary has a unit at
        c; trading c for that coboundary is a unimodular change of basis in
        which row c of this boundary is zero, as the boundaries compose to
        zero.  So the rows of paired cells go in empty, and the diagonal,
        zero padding included, is that of the whole boundary.
        """
        k = d - self.lowest_degree - 1
        if not 0 <= k < len(self.boundaries):
            return ()
        sweeps = self._sweeps
        while len(sweeps) <= k:
            j = len(sweeps)
            rows: list[dict[int, int]] = [{} for _ in range(self.ranks[j])]
            for cell, column in enumerate(self.boundaries[j]):
                for face, x in column:
                    rows[face][cell] = x
            for face in sweeps[-1][1] if sweeps else ():
                rows[face] = {}
            sweeps.append(unit_sweep(rows, self.ranks[j + 1]))
        return sweeps[k][0]


def _group(c: ChainComplex, i: int, torsion_from: int) -> FgAbGroup:
    """Free rank rank_i - r_i - r_{i+1}; torsion from one boundary's diagonal."""
    free = c.rank(i) - sum(1 for d in (i, i + 1) for x in c.diagonal(d) if x != 0)
    return FgAbGroup(free, tuple(x for x in c.diagonal(torsion_from) if x > 1))


def homology(c: ChainComplex, i: int) -> FgAbGroup:
    """H_i = ker(boundary out of i) / im(boundary into i), canonical form.

    For a free complex the answer reads off two Smith diagonals: the free
    rank is rank_i minus the two boundary ranks, and the torsion is the list
    of invariant factors of the incoming boundary that exceed 1.
    """
    return _group(c, i, i + 1)


def cohomology(c: ChainComplex, i: int) -> FgAbGroup:
    """H^i with integer coefficients, in canonical form.

    Read off the same cached Smith diagonals as homology, by universal
    coefficients: the free rank is that of H_i, and the torsion is that of
    H_{i-1}, the invariant factors above 1 of the boundary out of degree i,
    whose transpose is the coboundary into degree i.

    >>> circle = ChainComplex(0, (1, 1), (((),),))
    >>> str(cohomology(circle, 1))
    'Z'
    >>> rp2 = ChainComplex(0, (1, 1, 1), (((),), (((0, 2),),)))
    >>> [str(cohomology(rp2, i)) for i in range(3)]
    ['Z', '0', 'Z/2']
    """
    return _group(c, i, i)


@dataclass
class SpectralPage:
    """One page of a first-quadrant spectral sequence, finitely supported.

    ``entries`` holds the nonzero groups; anything absent is zero.  The
    differentials on page r have bidegree (r, 1 - r) and are keyed by their
    source position.  ``support`` is the region where nonzero entries are
    allowed at all; it never grows when passing to a later page.
    """

    page_no: int
    entries: dict[tuple[int, int], FgAbGroup] = field(default_factory=dict)
    differentials: dict[tuple[int, int], Hom] = field(default_factory=dict)
    support: frozenset[tuple[int, int]] = frozenset()

    def entry(self, p: int, q: int) -> FgAbGroup:
        return self.entries.get((p, q), FgAbGroup(0))

    def differential(self, p: int, q: int) -> Hom:
        d = self.differentials.get((p, q))
        if d is not None:
            return d
        r = self.page_no
        return Hom.zero(self.entry(p, q), self.entry(p + r, q - r + 1))

    def validate(self) -> None:
        """Check support, differential shapes, and d ∘ d = 0."""
        r = self.page_no
        for (p, q), g in self.entries.items():
            if not g.is_trivial() and (p, q) not in self.support:
                raise SupportViolationError((p, q))
        for (p, q), d in self.differentials.items():
            if d.source != self.entry(p, q):
                raise ValueError(f"differential at {(p, q)} has wrong source")
            if d.target != self.entry(p + r, q - r + 1):
                raise ValueError(f"differential at {(p, q)} has wrong target")
        for (p, q) in self.differentials:
            nxt = (p + r, q - r + 1)
            if nxt in self.differentials:
                if not compose(self.differentials[nxt], self.differentials[(p, q)]).is_zero():
                    raise ValueError(f"differentials fail d∘d = 0 at {(p, q)}")


def e2_page(e1: SpectralPage, support: Iterable[tuple[int, int]]) -> SpectralPage:
    """Homology of the d_1 differentials: ker(d_1)/im(d_1) at each position.

    The result carries no differentials; whatever is known about d_2 enters
    later through explicit flags.  A nonzero result outside the declared
    support region raises SupportViolationError rather than being silently
    dropped.
    """
    if e1.page_no != 1:
        raise ValueError(f"expected a page 1, got page {e1.page_no}")
    e1.validate()
    region = frozenset(support)
    entries: dict[tuple[int, int], FgAbGroup] = {}
    for (p, q) in sorted(e1.entries):
        outgoing = e1.differential(p, q)
        incoming = e1.differential(p - 1, q)
        group = subquotient(outgoing, incoming)
        if group.is_trivial():
            continue
        if (p, q) not in region:
            raise SupportViolationError((p, q))
        entries[(p, q)] = group
    return SpectralPage(2, entries, {}, region)
