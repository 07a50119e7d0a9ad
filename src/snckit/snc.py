"""Combinatorics of simple normal crossing divisors and their dual complexes.

A divisor is a list of component ids plus, for every index set I of size at
least two, the stratum components of the intersection of the E_i with i in
I.  Each stratum component of depth three or more records which component
of each facet intersection contains it; that containment data is exactly
what the dual complex needs to glue cells.

Blowing up a stratum component is modeled as stellar subdivision of its
dual cell, and the resolution loop repeats deepest-first blowups until no
intersection has two components left.

Every blowup goes through one private, mutable index of the strata: by id
in divisor order, ids by subset, children by parent id, and the bad
subsets with a running count of the stratum components on them.  The
resolution loop builds it once and applies each blowup to it in place, so
a step touches only the blowup's star and the cells it adds; the public
single-step blowups build an index, apply one step and return the new
divisor.  ``find_bad_intersections`` stays the full scan that reports a
divisor's bad intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .chaincx import ChainComplex


class SncError(ValueError):
    """Base class for malformed or inconsistent divisor data."""


class DuplicateIdError(SncError):
    pass


class DimensionBoundError(SncError):
    pass


class ClosureViolationError(SncError):
    pass


class ContainmentMismatchError(SncError):
    pass


class UnknownCenterError(SncError):
    pass


class UnknownCurveError(SncError):
    pass


class WrongDimensionError(SncError):
    pass


class ResolutionLimitError(SncError):
    """The resolution loop hit its iteration cap; carries the partial state."""

    def __init__(self, message: str, divisor: "SncDivisor",
                 records: list["BlowupRecord"]):
        super().__init__(message)
        self.divisor = divisor
        self.records = records


@dataclass(frozen=True)
class Stratum:
    """One irreducible component of an intersection of divisor components.

    ``subset`` lists the components being intersected, sorted by their
    position in the divisor's component list.  ``parents`` maps each
    dropped component id to the id of the stratum component of the facet
    intersection that contains this one; it is empty when the subset has
    exactly two elements (the facets are then the components themselves).
    """

    id: str
    subset: tuple[str, ...]
    parents: dict[str, str] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class SncDivisor:
    n: int
    components: tuple[str, ...]
    strata: tuple[Stratum, ...]

    @classmethod
    def build(cls, n: int, components: Sequence[str],
              strata: Iterable[tuple[str, Sequence[str], Mapping[str, str]]],
              ) -> "SncDivisor":
        """Assemble a divisor, sorting each subset by component order."""
        comps = tuple(components)
        order = {c: i for i, c in enumerate(comps)}
        out = []
        for sid, subset, parents in strata:
            for c in subset:
                if c not in order:
                    raise SncError(f"stratum {sid} references unknown component {c!r}")
            out.append(Stratum(sid, tuple(sorted(subset, key=order.__getitem__)),
                               dict(parents)))
        return cls(n, comps, tuple(out))

    def component_order(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.components)}

    def stratum(self, sid: str) -> Stratum:
        for s in self.strata:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def by_subset(self) -> dict[tuple[str, ...], list[Stratum]]:
        out: dict[tuple[str, ...], list[Stratum]] = {}
        for s in self.strata:
            out.setdefault(s.subset, []).append(s)
        return out


def validate_snc(d: SncDivisor) -> None:
    """Check every structural invariant, raising on the first violation."""
    order = d.component_order()
    if len(order) != len(d.components):
        raise DuplicateIdError("duplicate component id")
    seen = set(d.components)
    for s in d.strata:
        if s.id in seen:
            raise DuplicateIdError(f"id {s.id!r} used more than once")
        seen.add(s.id)

    by_id = {s.id: s for s in d.strata}
    subsets = {s.subset for s in d.strata}
    for s in d.strata:
        if len(s.subset) < 2:
            raise DimensionBoundError(
                f"stratum {s.id} intersects {len(s.subset)} component(s); need at least 2")
        if len(s.subset) > d.n:
            raise DimensionBoundError(
                f"stratum {s.id} intersects {len(s.subset)} components in ambient "
                f"dimension {d.n}")
        for c in s.subset:
            if c not in order:
                raise SncError(f"stratum {s.id} references unknown component {c!r}")
        if len(set(s.subset)) != len(s.subset):
            raise SncError(f"stratum {s.id} repeats a component in its subset")
        if list(s.subset) != sorted(s.subset, key=order.__getitem__):
            raise SncError(f"stratum {s.id} subset is not in component order")

        if s.depth == 2:
            if s.parents:
                raise ContainmentMismatchError(
                    f"stratum {s.id} of depth 2 must not list parents")
            continue

        if set(s.parents) != set(s.subset):
            raise ContainmentMismatchError(
                f"stratum {s.id} must name one parent per dropped component")
        for drop, pid in s.parents.items():
            facet = tuple(c for c in s.subset if c != drop)
            if facet not in subsets:
                raise ClosureViolationError(
                    f"stratum {s.id} needs a stratum on {facet}, found none")
            parent = by_id.get(pid)
            if parent is None or parent.subset != facet:
                raise ContainmentMismatchError(
                    f"stratum {s.id}: parent {pid!r} for dropped {drop!r} is not a "
                    f"stratum on {facet}")

    # Grandparent consistency: dropping two components in either order must
    # land on the same stratum component.  Only meaningful at depth >= 4,
    # where the grandparents are still strata rather than components.
    for s in d.strata:
        if s.depth < 4:
            continue
        for a, b in combinations(s.subset, 2):
            via_a = by_id[by_id[s.parents[a]].parents[b]]
            via_b = by_id[by_id[s.parents[b]].parents[a]]
            if via_a.id != via_b.id:
                raise ContainmentMismatchError(
                    f"stratum {s.id}: dropping {a!r} then {b!r} gives {via_a.id!r} "
                    f"but {b!r} then {a!r} gives {via_b.id!r}")


@dataclass(frozen=True)
class DualCell:
    id: str
    vertices: tuple[str, ...]


@dataclass(frozen=True)
class DualComplex:
    """CW model of the divisor: cells per dimension plus signed incidence.

    ``boundaries[k]`` lists, for each cell of dimension k + 1 in order, its
    faces as (position in ``cells[k]``, sign) pairs sorted by position: the
    face opposite the m-th vertex carries the sign (-1)^m.  This is the
    boundary form ``ChainComplex`` takes, so ``chain_complex`` copies
    nothing.
    """

    cells: tuple[tuple[DualCell, ...], ...]
    boundaries: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    def chain_complex(self) -> ChainComplex:
        return ChainComplex(0, tuple(len(layer) for layer in self.cells),
                            self.boundaries)


def _face_cell(by_id: Mapping[str, Stratum], s: Stratum, keep: Sequence[str]) -> str:
    """Id of the face of s spanned by ``keep`` (a vertex id when |keep| = 1)."""
    keep_set = frozenset(keep)
    cur = s
    while len(cur.subset) > len(keep_set):
        if len(cur.subset) == 2:
            (v,) = keep_set
            return v
        drop = next(c for c in cur.subset if c not in keep_set)
        cur = by_id[cur.parents[drop]]
    return cur.id


def build_dual_complex(d: SncDivisor) -> DualComplex:
    """One vertex per component, one (|I|-1)-cell per stratum component.

    The divisor is checked with ``validate_snc`` first, so an invalid one
    raises ``SncError`` rather than giving a wrong complex.
    """
    validate_snc(d)
    layers = [tuple(DualCell(c, (c,)) for c in d.components)]
    boundaries = []
    max_depth = max((s.depth for s in d.strata), default=1)
    for depth in range(2, max_depth + 1):
        pos = {cell.id: i for i, cell in enumerate(layers[-1])}
        layer = [s for s in d.strata if s.depth == depth]
        boundaries.append(tuple(
            tuple(sorted((pos[s.subset[1 - m] if depth == 2 else s.parents[c]],
                          (-1) ** m) for m, c in enumerate(s.subset)))
            for s in layer))
        layers.append(tuple(DualCell(s.id, s.subset) for s in layer))
    return DualComplex(tuple(layers), tuple(boundaries))


class BadIntersections(NamedTuple):
    bad: list[tuple[tuple[str, ...], int]]
    is_simplicial: bool


def find_bad_intersections(d: SncDivisor) -> BadIntersections:
    """Index sets whose intersection has two or more components.

    The divisor is simplicial (its dual complex has at most one cell per
    vertex set) exactly when the list is empty.
    """
    order = d.component_order()
    bad = [(subset, len(group)) for subset, group in d.by_subset().items()
           if len(group) >= 2]
    bad.sort(key=lambda item: (len(item[0]), tuple(order[c] for c in item[0])))
    return BadIntersections(bad, not bad)


@dataclass(frozen=True)
class BlowupRecord:
    """What one combinatorial blowup did, enough to replay or audit it.

    ``bad_decrement`` records how much the total count of stratum
    components sitting in bad intersections went down; it is recorded, not
    asserted to be 1, because symmetric configurations can drop faster.
    """

    center: str
    new_component: str
    removed: tuple[str, ...]
    added: tuple[str, ...]
    bad_decrement: int
    point_blowup: bool = False


def _fresh_component_id(existing: Container[str]) -> str:
    k = 1
    while f"exc{k}" in existing:
        k += 1
    return f"exc{k}"


class _StrataIndex:
    """The strata of a divisor, indexed for a run of blowups.

    It keeps the strata by id in divisor order, the ids on each subset, the
    children of each stratum (the strata naming it as a parent), the bad
    subsets (those carrying two or more ids) and the running count of
    stratum components on bad subsets.  ``add`` and ``remove`` keep all of
    these current, so a blowup costs time in the size of its star and of
    the cells it adds, not in the size of the divisor.  It runs
    ``validate_snc`` on the divisor it is built from, so the blowups and the
    resolution loop raise ``SncError`` on an invalid one.
    """

    def __init__(self, d: SncDivisor):
        validate_snc(d)
        self.n = d.n
        self.components = list(d.components)
        self.order = d.component_order()
        self.by_id: dict[str, Stratum] = {}
        self.seq: dict[str, int] = {}
        self.by_subset: dict[tuple[str, ...], set[str]] = {}
        self.children: dict[str, set[str]] = {}
        self.bad: set[tuple[str, ...]] = set()
        self.bad_total = 0
        self._next_seq = 0
        for s in d.strata:
            self.add(s)

    def divisor(self) -> SncDivisor:
        return SncDivisor(self.n, tuple(self.components), tuple(self.by_id.values()))

    def add(self, s: Stratum) -> None:
        self.by_id[s.id] = s
        self.seq[s.id] = self._next_seq
        self._next_seq += 1
        ids = self.by_subset.setdefault(s.subset, set())
        ids.add(s.id)
        if len(ids) == 2:
            self.bad.add(s.subset)
            self.bad_total += 2
        elif len(ids) > 2:
            self.bad_total += 1
        for pid in s.parents.values():
            self.children.setdefault(pid, set()).add(s.id)

    def remove(self, s: Stratum) -> None:
        del self.by_id[s.id]
        del self.seq[s.id]
        ids = self.by_subset[s.subset]
        ids.discard(s.id)
        if len(ids) == 1:
            self.bad.discard(s.subset)
            self.bad_total -= 2
        elif len(ids) > 1:
            self.bad_total -= 1
        elif not ids:
            del self.by_subset[s.subset]
        for pid in s.parents.values():
            kids = self.children.get(pid)
            if kids is not None:  # None once the parent itself is removed
                kids.discard(s.id)
        self.children.pop(s.id, None)

    def deepest_bad(self) -> str:
        """The resolve loop's next center: see ``resolve_to_simplicial``."""
        order = self.order
        deepest = max(len(subset) for subset in self.bad)
        subset = min((s for s in self.bad if len(s) == deepest),
                     key=lambda s: tuple(order[c] for c in s))
        return min(self.by_subset[subset])

    def blowup(self, center: str) -> BlowupRecord:
        """Apply ``blowup_stratum_component`` in place and return its record."""
        s0 = self.by_id.get(center)
        if s0 is None:
            raise UnknownCenterError(f"no stratum component with id {center!r}")
        i0 = frozenset(s0.subset)
        order = self.order

        # A stratum whose face on the center's subset is the center has a
        # parent with that face too (faces do not depend on the order of
        # the drops, by validate_snc's grandparent check), so the star is
        # the center's closure under children.
        star_ids = {center}
        todo = [center]
        while todo:
            for child in self.children.get(todo.pop(), ()):
                if child not in star_ids:
                    star_ids.add(child)
                    todo.append(child)
        star = [self.by_id[sid] for sid in sorted(star_ids, key=self.seq.__getitem__)]

        entries: list[tuple[Stratum, tuple[str, ...], tuple[str, ...], str]] = []
        for t in star:
            l_part = tuple(c for c in t.subset if c not in i0)
            for r in range(len(s0.subset)):
                for k_part in combinations(s0.subset, r):
                    keep = tuple(sorted(k_part + l_part, key=order.__getitem__))
                    if not keep:
                        continue
                    fcid = keep[0] if len(keep) == 1 else _face_cell(self.by_id, t, keep)
                    entries.append((t, k_part, keep, fcid))
        entries.sort(key=lambda e: (
            len(e[2]), tuple(order[c] for c in e[2]), e[3], e[0].id))

        before = self.bad_total
        for t in star:
            self.remove(t)
        new_comp = _fresh_component_id(order)
        order[new_comp] = len(self.components)
        self.components.append(new_comp)

        # Ids follow the coned face; parallel cones over the same face get a
        # deterministic suffix, and ids of the removed star are free again.
        # Two entries share a face cell only when their star cells are
        # components of the same intersection.  A cone's parents are cones
        # over smaller faces, which sort earlier.
        cone_id: dict[tuple[str, tuple[str, ...]], str] = {}
        added: list[str] = []
        for t, k_part, keep, fcid in entries:
            cid = f"{new_comp}|{fcid}"
            n = 0
            while cid in self.by_id or cid in order:
                cid = f"{new_comp}|{fcid}~{n}"
                n += 1
            cone_id[(t.id, k_part)] = cid
            subset = keep + (new_comp,)
            parents: dict[str, str] = {}
            if len(subset) >= 3:
                parents[new_comp] = fcid
                for x in keep:
                    if x in i0:
                        rest = tuple(c for c in k_part if c != x)
                        parents[x] = cone_id[(t.id, rest)]
                    else:
                        parents[x] = cone_id[(t.parents[x], k_part)]
            self.add(Stratum(cid, subset, parents))
            added.append(cid)
        return BlowupRecord(
            center=center,
            new_component=new_comp,
            removed=tuple(t.id for t in star),
            added=tuple(added),
            bad_decrement=before - self.bad_total,
        )


def blowup_stratum_component(d: SncDivisor, center: str,
                             ) -> tuple[SncDivisor, BlowupRecord]:
    """Stellar subdivision of the dual cell of one stratum component.

    Every stratum component having the center as an iterated parent is
    removed.  A new divisor component takes the center's place, and every
    removed cell is refilled by cones: one new cell per pair (removed cell
    t, proper face K of the center), joining the new vertex to K and to
    the face of t opposite the center.  Enumerating per removed cell
    rather than per face keeps parallel cells (several components over one
    vertex set) from collapsing onto a shared interior, which would change
    the homotopy type of the dual complex.
    """
    index = _StrataIndex(d)
    record = index.blowup(center)
    return index.divisor(), record


def blowup_point_on_double_curve(d: SncDivisor, curve: str,
                                 ) -> tuple[SncDivisor, BlowupRecord]:
    """Blow up a point lying on a double curve of a threefold divisor.

    The curve itself survives as its strict transform; the exceptional
    component meets exactly the curve's two components, and the strict
    transform of the curve pierces the exceptional component in one new
    triple point.
    """
    if d.n != 3:
        raise WrongDimensionError(f"point blowup needs ambient dimension 3, got {d.n}")
    index = _StrataIndex(d)
    c = index.by_id.get(curve)
    if c is None or c.depth != 2:
        raise UnknownCurveError(f"{curve!r} is not a double-curve stratum component")
    i, j = c.subset
    new_comp = _fresh_component_id(index.order)
    edge_i = Stratum(f"{new_comp}|{i}", (i, new_comp))
    edge_j = Stratum(f"{new_comp}|{j}", (j, new_comp))
    triple = Stratum(f"{new_comp}|{curve}", (i, j, new_comp), {
        new_comp: curve,
        i: edge_j.id,
        j: edge_i.id,
    })
    added = (edge_i, edge_j, triple)
    before = index.bad_total
    for s in added:
        index.add(s)
    result = SncDivisor(d.n, d.components + (new_comp,), d.strata + added)
    record = BlowupRecord(
        center=curve,
        new_component=new_comp,
        removed=(),
        added=tuple(s.id for s in added),
        bad_decrement=before - index.bad_total,
        point_blowup=True,
    )
    return result, record


def resolve_to_simplicial(d: SncDivisor, max_blowups: int = 10000,
                          ) -> tuple[SncDivisor, list[BlowupRecord]]:
    """Blow up bad intersections, deepest first, until none remain.

    Within the deepest bad level the first intersection (by component
    order) is processed, one stratum component at a time in id order, so a
    bad intersection with k components takes k - 1 blowups and keeps its
    last component untouched.  The cap exists because shallower levels are
    not proven immune to new bad intersections; hitting it raises with the
    partial result attached rather than looping forever.

    The divisor is indexed once (strata by id, ids by subset, children by
    parent, the bad subsets); each blowup then updates the index in place,
    touching only its star and the cells it adds, so the loop never
    rescans the whole divisor.
    """
    index = _StrataIndex(d)
    records: list[BlowupRecord] = []
    while index.bad:
        if len(records) >= max_blowups:
            raise ResolutionLimitError(
                f"still {len(index.bad)} bad intersection(s) after {len(records)} blowups",
                index.divisor(), records)
        records.append(index.blowup(index.deepest_bad()))
    return index.divisor(), records
