"""Bounded chain complexes of free abelian groups and spectral pages.

A complex stores one free rank per degree from degree 0, plus the boundary
map out of each degree above 0 as sparse signed incidence: one face row
{cell: coefficient} per cell of the degree below.  The boundaries must
compose to zero.  Cohomology comes out in canonical form, read by
universal coefficients off the Smith diagonals of the boundaries, which
each complex computes once, bottom-up with clearing, and keeps; no
transposed complex is built.  The dual complex of a checked divisor hands
its rows in through ``ChainComplex._of``, which skips the row check.

Spectral pages are finite: a dictionary of nonzero entries together with an
explicit support region.  Only the E_1 → E_2 step is implemented; the one
E_3 entry that the KH report reads is the direct corner rule in ``khasm``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .abgroup import FgAbGroup, Hom, compose, subquotient
from .intmat import _Checked, unit_sweep


class SupportViolationError(Exception):
    """A nonzero spectral entry sits outside the declared support region."""

    def __init__(self, position: tuple[int, int]):
        self.position = position
        super().__init__(f"nonzero entry outside support at {position}")


class ChainComplex(_Checked, NamedTuple("ChainComplex", [
        ("ranks", tuple[int, ...]), ("boundaries", tuple[tuple[dict[int, int], ...], ...])])):
    """Free chain complex in degree 0 through len(ranks) - 1; ranks are ints >= 0.

    The ranks, the boundaries and each boundary are tuples, so that equal
    complexes compare equal however they were built.

    ``boundaries[k]`` is the boundary map out of degree k + 1 into degree
    k as face rows: one dict {cell of degree k + 1: coefficient} per cell
    of degree k, its cells ints below ranks[k + 1] and its coefficients
    nonzero ints.  Equality is equality of the maps; the rows are dicts,
    so a complex is not hashable.

    Each boundary composed with the one below it must be zero.  The
    constructor does not check it; the diagonals, read bottom-up with
    clearing, rely on it.  ``_of`` makes a complex from rows its caller
    has checked, as ``validate_snc`` has, and skips the checks.
    """

    __hash__ = None  # type: ignore[assignment]
    # (Smith diagonal, unit pivot columns, rank) per boundary, filled
    # bottom-up on first use.  It lives in the instance dict, as the class
    # has no __slots__, and is no field, so equality and repr ignore it.
    _sweeps: list[tuple[tuple[int, ...], list[int], int]]

    def __new__(cls, ranks: tuple[int, ...],
                boundaries: tuple[tuple[dict[int, int], ...], ...]) -> ChainComplex:
        self = cls._of(ranks, boundaries)
        if type(self.ranks) is not tuple or type(self.boundaries) is not tuple or not all(
                type(rows) is tuple for rows in self.boundaries):
            raise ValueError("ranks, boundaries and each boundary must be tuples, got "
                             f"{self.ranks!r} and {self.boundaries!r}")
        if not all(type(r) is int and r >= 0 for r in self.ranks):
            raise ValueError(f"ranks {self.ranks!r} are not non-negative ints")
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            raise ValueError(
                f"{len(self.boundaries)} boundary maps for {len(self.ranks)} ranks")
        for k, rows in enumerate(self.boundaries):
            cells = range(self.ranks[k + 1])
            if len(rows) != self.ranks[k] or not all(
                    type(row) is dict and all(type(c) is type(x) is int and x and c in cells
                                              for c, x in row.items()) for row in rows):
                raise ValueError(
                    f"boundary out of degree {k + 1} is not {self.ranks[k]} rows of "
                    f"nonzero ints on cells below {len(cells)}")
        return self

    def rank(self, d: int) -> int:
        return self.ranks[d] if 0 <= d < len(self.ranks) else 0

    @classmethod
    def _of(cls, ranks: tuple[int, ...],
            boundaries: tuple[tuple[dict[int, int], ...], ...]) -> ChainComplex:
        """A complex on face rows its caller has checked, unchecked here."""
        out = tuple.__new__(cls, (ranks, boundaries))
        out._sweeps = []
        return out

    def diagonal(self, d: int) -> tuple[int, ...]:
        """Smith diagonal of the boundary out of degree d, computed once.

        Outside the range the boundary is zero and its diagonal is empty.
        The first call sweeps every boundary from degree 1 up to this one,
        each once.  A unit pivot of the sweep below, in the column of cell
        c, is a cochain whose coboundary has a unit at c; trading c for
        that coboundary is a unimodular change of basis in which row c of
        this boundary is zero, as the boundaries compose to zero.  So the
        rows of paired cells go in empty, and the diagonal, zero padding
        included, is that of the whole boundary.
        """
        return self._swept(d)[0]

    def _swept(self, d: int) -> tuple[tuple[int, ...], list[int], int]:
        """The sweep of the boundary out of degree d: its diagonal, unit
        pivot columns and rank, or an empty one outside the range."""
        if not 0 < d < len(self.ranks):
            return (), [], 0
        sweeps = self._sweeps
        while len(sweeps) < d:
            j = len(sweeps)
            rows = list(self.boundaries[j])
            for face in sweeps[-1][1] if sweeps else ():
                rows[face] = {}
            diag, pivots = unit_sweep(rows, self.ranks[j + 1])
            sweeps.append((diag, pivots, len(diag) - diag.count(0)))
        return sweeps[d - 1]


def cohomology(c: ChainComplex, i: int) -> FgAbGroup:
    """H^i with integer coefficients, in canonical form.

    Read off the cached Smith diagonals by universal coefficients: the free
    rank is that of H_i, rank_i minus the ranks of the boundaries out of
    degrees i and i + 1, and the torsion is that of H_{i-1}, the invariant
    factors above 1 of the boundary out of degree i, whose transpose is
    the coboundary into degree i.

    >>> circle = ChainComplex((1, 1), (({},),))
    >>> str(cohomology(circle, 1))
    'Z'
    >>> rp2 = ChainComplex((1, 1, 1), (({},), ({0: 2},)))
    >>> [str(cohomology(rp2, i)) for i in range(3)]
    ['Z', '0', 'Z/2']
    """
    free = c.rank(i) - c._swept(i)[2] - c._swept(i + 1)[2]
    return FgAbGroup(free, tuple(x for x in c.diagonal(i) if x > 1))


class SpectralPage(_Checked, NamedTuple("SpectralPage", [
        ("page_no", int), ("entries", dict[tuple[int, int], FgAbGroup]),
        ("differentials", dict[tuple[int, int], Hom]),
        ("support", frozenset[tuple[int, int]])])):
    """One page of a first-quadrant spectral sequence, finitely supported.

    ``entries`` holds the nonzero groups; anything absent is zero.  The
    differentials on page r have bidegree (r, 1 - r) and are keyed by their
    source position.  ``support`` is the region where nonzero entries are
    allowed at all; it never grows when passing to a later page.  Left out,
    ``entries`` and ``differentials`` are fresh empty dicts.  The dicts
    make a page unhashable.  A field of the wrong type raises ``ValueError``.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __new__(cls, page_no: int,
                entries: dict[tuple[int, int], FgAbGroup] | None = None,
                differentials: dict[tuple[int, int], Hom] | None = None,
                support: frozenset[tuple[int, int]] = frozenset()) -> SpectralPage:
        self = tuple.__new__(cls, (page_no, {} if entries is None else entries,
                                   {} if differentials is None else differentials, support))
        if (tuple(map(type, self)) != (int, dict, dict, frozenset)
                or {*map(type, self.entries.values())} - {FgAbGroup}
                or {*map(type, self.differentials.values())} - {Hom}
                or not all(type(k) is tuple and tuple(map(type, k)) == (int, int)
                           for k in (*self.entries, *self.differentials, *self.support))):
            raise ValueError("page_no must be an int, entries a dict from pairs of ints to "
                             "FgAbGroup, differentials one to Hom and support a frozenset of "
                             f"pairs of ints, got {self!r}")
        return self

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
