"""Combinatorics of simple normal crossing divisors and their dual complexes.

A divisor is a list of component ids plus, for every index set I of size at
least two, the stratum components of the intersection of the E_i with i in
I.  Each stratum component of depth three or more records which component
of each facet intersection contains it; that containment data is exactly
what the dual complex needs to glue cells.

A divisor holds its strata as one table: per stratum its id, its subset
as component positions, and its parents keyed by the position of the
component each drops.  An id is looked up in ``components`` only where
it is printed.  The CLI parser reads a document straight into that table,
``SncDivisor.build`` fills one from (id, subset, parents) triples of ids,
and the blowups leave one.  Every check raises ``SncError``; its message
tells one failure from another.
The check walks the table twice: the first walk finds each stratum's row
by id and its position among the strata of its depth, and the first
stratum breaking its own rules; the second checks parents, and keeps the
rows of the parents it finds.  Past the parent checks, the drops of two
components are compared only where a subset carries two strata, since
elsewhere both orders land on its one stratum.  The check's result is the
dual complex itself, and the dual complex reads each boundary's face rows
straight from the parents and positions the check returns; the Smith
sweep takes them as they are, with no second check.
Error text is formatted only where a check fails, and the first error
raised is the one the order of the checks names, whatever order the
strata arrive in.

Blowing up a stratum component is modeled as stellar subdivision of its
dual cell, and the resolution loop repeats deepest-first blowups until no
intersection has two components left.

Every blowup goes through one private, mutable index, which adds the rows
of the table ``validate_snc`` checked one by one, as a blowup adds its
cones: its rows by id in divisor order, each carrying its place in that
order, ids by positions, children by parent id, and a heap of the bad
positions with a running count of the stratum components on them.  The
resolution loop builds it once and applies each blowup to it in place,
ordering the cones by positions; a new component takes the last
position.  The next center is the top of the heap, deepest first, and the
new component's name comes from a counter that only moves forward, so a
step touches only the blowup's star and the cells it adds; the public
single-step blowups build an index, apply one step and return the new
divisor.  Every divisor a blowup returns carries the index's rows as its
table, so the CLI writes the resolved block from the table too.
``find_bad_intersections`` stays the full count that reports a divisor's
bad intersections.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

from .chaincx import ChainComplex

# The default cap on the blowups of one resolution.
MAX_BLOWUPS = 10000


class SncError(ValueError):
    """Base class for malformed or inconsistent divisor data."""


class ResolutionLimitError(SncError):
    """The resolution loop hit its iteration cap; carries the partial state."""

    def __init__(self, message: str, divisor: "SncDivisor",
                 records: list["BlowupRecord"]):
        super().__init__(message)
        self.divisor = divisor
        self.records = records


class _StrataTable(NamedTuple):
    """A divisor's strata by position in divisor order, as the parser
    reads them, ``SncDivisor.build`` fills them or a blowup leaves them.

    Per stratum: ``ids``, the id; ``positions``, its subset as sorted,
    distinct component positions; ``parents``, the parent's id keyed by
    the position of the component it drops.  The parser shares one
    positions tuple among the members of a group.
    """

    ids: list[str]
    positions: list[tuple[int, ...]]
    parents: list[dict[int, str]]


class SncDivisor(NamedTuple):
    """A divisor: ambient dimension, component ids and strata table.

    The table names components by position only, so ``components[p]`` is
    the id of position p wherever it is read; ``_replace`` of
    ``components`` alone relabels the components by position.
    """

    n: int
    components: tuple[str, ...]
    table: _StrataTable

    @classmethod
    def build(cls, n: int, components: Sequence[str],
              strata: Iterable[tuple[str, Sequence[str], Mapping[str, str]]],
              ) -> "SncDivisor":
        """Assemble a divisor, sorting each subset by component order and
        keying each parent by the position of the component it drops.

        Raises ``SncError`` on a subset that names an unknown component or
        repeats one, or on a parent dropping an unknown component: the
        table has no positions for them.
        """
        comps = tuple(components)
        order = {c: i for i, c in enumerate(comps)}
        table = _StrataTable([], [], [])
        for sid, subset, parents in strata:
            for c in subset:
                if c not in order:
                    raise SncError(f"stratum {sid} references unknown component {c!r}")
            positions = tuple(sorted([order[c] for c in subset]))
            if len(set(positions)) != len(positions):
                raise SncError(f"stratum {sid} repeats a component in its subset")
            if not order.keys() >= parents.keys():
                raise SncError(f"stratum {sid} must name one parent per dropped component")
            table.ids.append(sid)
            table.positions.append(positions)
            table.parents.append({order[c]: pid for c, pid in parents.items()})
        return cls(n, comps, table)


class DualComplex(NamedTuple):
    """CW model of a valid divisor, as ``validate_snc`` returns it: one
    vertex per component, one (|I|-1)-cell per stratum component.

    The fields are what the check found: the divisor's components and
    strata table, whose ids and positions name the cells and their vertices;
    ``counts[k]``, the number of strata on k components, for every k up to
    the deepest stratum (0 for k < 2); ``slot``, each stratum's position
    among the strata of its depth; and ``found[k]``, for each stratum on
    k >= 3 components in divisor order, the table rows of its parents in
    subset order.  ``rows`` makes the boundaries' face rows from these.
    """

    components: tuple[str, ...]
    table: _StrataTable
    counts: list[int]
    slot: list[int]
    found: list[list[list[int]]]

    def ranks(self) -> tuple[int, ...]:
        return (len(self.components), *self.counts[2:])

    def rows(self, k: int) -> list[dict[int, int]]:
        """Fresh face rows {cell: sign} of the boundary out of dimension
        k + 1; the face opposite the m-th vertex carries the sign (-1)^m."""
        rows: list[dict[int, int]] = [{} for _ in range(self.ranks()[k])]
        # parents in subset order: an edge's are its vertices reversed
        parents = self.found[k + 2] if k else [p[::-1] for p in self.table.positions if len(p) == 2]
        face, signs = self.slot if k else range(len(rows)), (1, -1) * len(self.counts)
        for cell, ps in enumerate(parents):
            for p, x in zip(ps, signs):
                rows[face[p]][cell] = x
        return rows

    def chain_complex(self) -> ChainComplex:
        """The cellular chain complex on the face rows, which the check has
        made sound: ``boundaries[k]`` holds, for each k-cell in divisor
        order, its cofaces among the (k + 1)-cells as {position: sign}."""
        ranks = self.ranks()
        return ChainComplex._of(
            ranks, tuple(tuple(self.rows(k)) for k in range(len(ranks) - 1)))


def validate_snc(d: SncDivisor) -> DualComplex:
    """Check every structural invariant, raising on the first violation,
    and return the dual complex, made of what the check found on the way
    (see the module docstring).

    The order of the checks decides which error is raised: distinct
    component ids; distinct stratum ids, none reusing a component id; then
    stratum by stratum, its own rules (depth between 2 and n, then its
    first and last positions within ``components``) followed by its parents
    (none at depth 2, else one per component, each a stratum on the facet
    that drops it); last, at depth 4 and up, that dropping two components
    in either order lands on the same stratum.  Unknown or repeated subset
    components are ``SncDivisor.build``'s errors, and a repeated subset
    index is the parser's; every rule above is checked here only, so a
    parsed divisor may have positions out of range, as may one whose
    ``components`` were replaced by a shorter tuple.
    """
    components = d.components
    order = {c: i for i, c in enumerate(components)}
    if len(order) != len(components):
        raise SncError("duplicate component id")
    n = d.n
    ids, positions, parents_of = d.table
    by_id = {sid: i for i, sid in enumerate(ids)}
    if len(by_id) != len(ids) or not order.keys().isdisjoint(by_id):
        seen: set[str] = set()
        for sid in ids:
            if sid in seen or sid in order:
                raise SncError(f"id {sid!r} used more than once")
            seen.add(sid)
    # A valid stratum's depth is at most min(n, #components); the counts
    # are trimmed to the deepest stratum below.
    size = len(components)
    counts = [0] * (min(n, size) + 1)    # strata so far on k components
    slot: list[int] = []    # each stratum's position among those of its depth
    first_bad = len(ids)    # position of the first stratum breaking its own rules
    for i, pos in enumerate(positions):
        # positions are sorted, so the ends bound them all
        if not 2 <= len(pos) <= n or pos[0] < 0 or pos[-1] >= size:
            first_bad = i
            break
        depth = len(pos)
        slot.append(counts[depth])
        counts[depth] += 1
    while len(counts) > 2 and not counts[-1]:
        counts.pop()

    found: list[list[list[int]]] = [[] for _ in counts]
    for i in range(first_bad):
        pos, parents = positions[i], parents_of[i]
        depth = len(pos)
        if depth == 2:
            if parents:
                raise SncError(f"stratum {ids[i]} of depth 2 must not list parents")
            continue
        try:
            ps = [by_id.get(parents[p]) for p in pos]
        except KeyError:
            ps = None
        if ps is None or len(parents) != depth:
            raise SncError(f"stratum {ids[i]} must name one parent per dropped component")
        # the facets dropping the last, ..., the first component
        if None in ps or [positions[p] for p in reversed(ps)] != list(
                combinations(pos, depth - 1)):
            _raise_parent_error(ids[i], pos, parents, positions, by_id, components)
        found[depth].append(ps)
    if first_bad < len(ids):
        _raise_own_error(ids[first_bad], positions[first_bad], n, size)
    # Every parent is now on its facet, so dropping two components in
    # either order lands on a stratum on the same subset, two below the
    # stratum's depth: the two can differ only where that subset carries
    # two strata.  Below depth 4 the grandparents are components.
    low = [pos for pos in positions if len(pos) <= len(counts) - 3]
    if len(set(low)) < len(low):
        for i, pos in enumerate(positions):
            if len(pos) >= 4:
                grand = [parents_of[by_id[parents_of[i][p]]] for p in pos]
                _raise_if_drops_differ(ids[i], pos, grand, components)
    return DualComplex(components, d.table, counts, slot, found)


def _raise_own_error(sid: str, pos: tuple[int, ...], n: int, size: int) -> NoReturn:
    """Raise the error of a stratum on positions ``pos`` whose depth is
    outside 2..n or that has a position outside 0..size-1."""
    depth = len(pos)
    if depth < 2:
        raise SncError(f"stratum {sid} intersects {depth} component(s); need at least 2")
    if depth > n:
        raise SncError(f"stratum {sid} intersects {depth} components in ambient dimension {n}")
    raise _position_error(sid, pos, size)


def _position_error(sid: str, pos: tuple[int, ...], size: int) -> SncError:
    """The error of a stratum on sorted positions ``pos``, one of them
    outside 0..size-1."""
    p = pos[0] if pos[0] < 0 else pos[-1]
    return SncError(f"stratum {sid} lies on component position {p}, but the divisor "
                    f"has {size} component(s)")


def _raise_parent_error(sid: str, pos: tuple[int, ...], parents: Mapping[int, str],
                        positions: list[tuple[int, ...]], by_id: Mapping[str, int],
                        components: Sequence[str]) -> NoReturn:
    """Raise the error of the first of the stratum's parents, in its
    order, that is wrong; ``positions`` and ``by_id`` cover every stratum."""
    present = set(positions)
    for drop, pid in parents.items():
        facet = tuple([q for q in pos if q != drop])
        names = tuple([components[q] for q in facet])
        if facet not in present:
            raise SncError(f"stratum {sid} needs a stratum on {names}, found none")
        p = by_id.get(pid)
        if p is None or positions[p] != facet:
            raise SncError(
                f"stratum {sid}: parent {pid!r} for dropped {components[drop]!r} is not "
                f"a stratum on {names}")
    raise AssertionError(f"stratum {sid} has no wrong parent")


def _raise_if_drops_differ(sid: str, pos: tuple[int, ...], grand: list[dict[int, str]],
                           components: Sequence[str]) -> None:
    """Raise for the first pair of components whose two drop orders land
    on different strata; ``grand[m]`` holds the parents of the stratum's
    parent that drops its m-th component, each already checked."""
    for i, j in combinations(range(len(pos)), 2):
        via_a, via_b = grand[i][pos[j]], grand[j][pos[i]]
        if via_a != via_b:
            a, b = components[pos[i]], components[pos[j]]
            raise SncError(
                f"stratum {sid}: dropping {a!r} then {b!r} gives {via_a!r} "
                f"but {b!r} then {a!r} gives {via_b!r}")


class BadIntersections(NamedTuple):
    bad: list[tuple[tuple[str, ...], int]]
    is_simplicial: bool


def find_bad_intersections(d: SncDivisor) -> BadIntersections:
    """Index sets whose intersection has two or more components.

    The divisor is simplicial (its dual complex has at most one cell per
    vertex set) exactly when the list is empty.  The subsets are counted
    by positions in the divisor's strata table, sorted by size and then by
    positions, and named by component id.  The divisor need not pass
    ``validate_snc``, but a position outside ``components`` raises
    ``SncError``, as the check does.
    """
    comps = d.components
    size = len(comps)
    counts = Counter(d.table.positions)
    for pos in counts:
        if pos and (pos[0] < 0 or pos[-1] >= size):
            ids, positions, _ = d.table
            raise _position_error(ids[positions.index(pos)], pos, size)
    bad = [(pos, count) for pos, count in counts.items() if count >= 2]
    bad.sort(key=lambda item: (len(item[0]), item[0]))
    named = [(tuple([comps[p] for p in pos]), count) for pos, count in bad]
    return BadIntersections(named, not named)


class BlowupRecord(NamedTuple):
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


class _StrataIndex:
    """The strata of a divisor, as rows of its ``_StrataTable``, indexed
    for a run of blowups.

    It is built by ``add``ing each row of the table ``validate_snc``
    returns, so the blowups and the resolution loop raise ``SncError`` on
    an invalid divisor.  It keeps each stratum's row, (positions, parents
    keyed by position, place in divisor order), by id in divisor order;
    the ids on each positions tuple; the children of each stratum (the
    strata naming it as a parent); the bad positions tuples (those
    carrying two or more ids) and the running count of stratum components
    on them.  ``add`` and ``remove`` keep all of these current, so a
    blowup costs time in the size of its star and of the cells it adds,
    not in the size of the divisor.

    Two more pieces keep the resolution loop's own choices off the whole
    divisor.  A heap holds (-depth, positions) for every positions tuple
    that turned bad in ``add``; ``deepest_bad`` drops the tops that are
    clean again and reads the next.  A component's position never changes,
    so the top is the subset a full scan of the bad set would pick.
    Components are never removed, so the first ``exc{k}`` that is not a
    component never goes down, and ``new_component`` keeps k between
    calls.  A new component takes the last position.
    """

    def __init__(self, d: SncDivisor):
        table = validate_snc(d).table
        self.n = d.n
        self.components = list(d.components)
        self.names = set(d.components)
        self.rows: dict[str, tuple[tuple[int, ...], dict[int, str], int]] = {}
        self._next_seq = 0
        self.by_positions: dict[tuple[int, ...], set[str]] = {}
        self.children: dict[str, set[str]] = {}
        self.bad: set[tuple[int, ...]] = set()
        self.bad_total = 0
        self._bad_heap: list[tuple[int, tuple[int, ...]]] = []
        self._exc = 1
        for row in zip(*table):
            self.add(*row)

    def divisor(self) -> SncDivisor:
        rows = self.rows.values()
        return SncDivisor(self.n, tuple(self.components), _StrataTable(
            list(self.rows), [r[0] for r in rows], [r[1] for r in rows]))

    def add(self, sid: str, positions: tuple[int, ...], parents: dict[int, str]) -> None:
        self.rows[sid] = (positions, parents, self._next_seq)
        self._next_seq += 1
        on = self.by_positions.get(positions)
        if on is None:
            self.by_positions[positions] = {sid}
        else:
            on.add(sid)
            if len(on) == 2:
                self.bad.add(positions)
                self.bad_total += 2
                heappush(self._bad_heap, (-len(positions), positions))
            else:
                self.bad_total += 1
        children = self.children
        for pid in parents.values():
            kids = children.get(pid)
            if kids is None:
                children[pid] = {sid}
            else:
                kids.add(sid)

    def remove(self, sid: str) -> None:
        positions, parents, _ = self.rows.pop(sid)
        on = self.by_positions[positions]
        on.discard(sid)
        if len(on) == 1:
            self.bad.discard(positions)
            self.bad_total -= 2
        elif len(on) > 1:
            self.bad_total -= 1
        elif not on:
            del self.by_positions[positions]
        children = self.children
        for pid in parents.values():
            kids = children.get(pid)
            if kids is not None:  # None once the parent itself is removed
                kids.discard(sid)
        children.pop(sid, None)

    def deepest_bad(self) -> str:
        """The resolve loop's next center (see ``resolve_to_simplicial``);
        the bad set must not be empty.  A subset that turned clean, and
        maybe bad again since, leaves a stale copy that is dropped here."""
        heap = self._bad_heap
        while heap[0][1] not in self.bad:
            heappop(heap)
        return min(self.by_positions[heap[0][1]])

    def new_component(self) -> str:
        """Append the first ``exc{k}`` that is neither a component id nor a
        stratum id, and return it.

        The kept k skips components only: a stratum's name may be freed by
        a later blowup.  Stratum ids of that form come only from the input,
        since every id a blowup makes holds a ``|``, so they are few.
        """
        names, rows = self.names, self.rows
        k = self._exc
        while (name := f"exc{k}") in names or name in rows:
            if k == self._exc and name in names:
                self._exc += 1
            k += 1
        if k == self._exc:  # the name is a component from here on
            self._exc += 1
        names.add(name)
        self.components.append(name)
        return name

    def free_id(self, base: str) -> str:
        """``base``, or ``base~0``, ``base~1``, ... if it is taken: the first
        that is neither a stratum id nor a component id."""
        cid, n = base, 0
        while cid in self.rows or cid in self.names:
            cid = f"{base}~{n}"
            n += 1
        return cid

    def blowup(self, center: str) -> BlowupRecord:
        """Apply ``blowup_stratum_component`` in place and return its record."""
        rows, children, components = self.rows, self.children, self.components
        row = rows.get(center)
        if row is None:
            raise SncError(f"no stratum component with id {center!r}")
        i0 = row[0]

        # A stratum whose face on the center's subset is the center has a
        # parent with that face too (faces do not depend on the order of
        # the drops, by validate_snc's grandparent check), so the star is
        # the center's closure under children.
        if children.get(center):
            star_ids = {center}
            todo = [center]
            while todo:
                for child in children.get(todo.pop(), ()):
                    if child not in star_ids:
                        star_ids.add(child)
                        todo.append(child)
            star = sorted(star_ids, key=lambda tid: rows[tid][2])
        else:
            star = [center]
        # The center's proper faces K, each with its facets by dropped
        # position and the positions of the center it leaves off.  Plain
        # loops: up to Python 3.11 each comprehension is a call (3.12
        # inlines them).
        faces = [((), (), i0)]
        for r in range(1, len(i0)):
            for k_part in combinations(i0, r):
                if r == 1:
                    facets = [(k_part[0], ())]
                else:
                    facets = []
                    for j in range(r):
                        facets.append((k_part[j], k_part[:j] + k_part[j + 1:]))
                off = []
                for p in i0:
                    if p not in k_part:
                        off.append(p)
                faces.append((k_part, facets, off))

        # (len(keep), keep, face id, star id) is the order of the cones;
        # (star id, keep) fixes the rest, which never decides it.  The face
        # of t on keep drops what K leaves off the center, in subset order;
        # both sides of keep are sorted already.
        entries = []
        for tid in star:
            t_positions, t_parents, _ = rows[tid]
            l_part = ()
            for p in t_positions:
                if p not in i0:
                    l_part += (p,)
            for k_part, facets, off in faces:
                keep = (l_part if not k_part else k_part if not l_part
                        else tuple(sorted(k_part + l_part)))
                depth = len(keep)
                if depth == 1:
                    entries.append((1, keep, components[keep[0]], tid, k_part, facets,
                                    l_part, t_parents))
                elif depth:
                    fcid = tid
                    for x in off:
                        fcid = rows[fcid][1][x]
                    entries.append((depth, keep, fcid, tid, k_part, facets, l_part,
                                    t_parents))
        entries.sort()

        before = self.bad_total
        for tid in star:
            self.remove(tid)
        new_comp = self.new_component()
        new_pos = len(components) - 1
        names = self.names

        # Ids follow the coned face; parallel cones over the same face get a
        # deterministic suffix, and ids of the removed star are free again.
        # Two entries share a face cell only when their star cells are
        # components of the same intersection.  A cone's parents are the
        # face and cones over smaller faces, which sort earlier.
        cone_id: dict[tuple[str, tuple[int, ...]], str] = {}
        added: list[str] = []
        for depth, keep, fcid, tid, k_part, facets, l_part, t_parents in entries:
            cid = f"{new_comp}|{fcid}"
            if cid in rows or cid in names:
                cid = self.free_id(cid)
            cone_id[tid, k_part] = cid
            if depth == 1:
                self.add(cid, keep + (new_pos,), {})
            else:
                parents = {new_pos: fcid}
                for x, rest in facets:
                    parents[x] = cone_id[tid, rest]
                for x in l_part:
                    parents[x] = cone_id[t_parents[x], k_part]
                self.add(cid, keep + (new_pos,), parents)
            added.append(cid)
        return BlowupRecord(center, new_comp, tuple(star), tuple(added),
                            before - self.bad_total)


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
    triple point.  The three new strata are named as cones are: after the
    new component and the cell they follow, with a ``~n`` suffix where that
    id is taken.
    """
    if d.n != 3:
        raise SncError(f"point blowup needs ambient dimension 3, got {d.n}")
    index = _StrataIndex(d)
    row = index.rows.get(curve)
    if row is None or len(row[0]) != 2:
        raise SncError(f"{curve!r} is not a double-curve stratum component")
    pi, pj = row[0]
    i, j = index.components[pi], index.components[pj]
    before = index.bad_total
    new_comp = index.new_component()
    new_pos = len(index.components) - 1
    # each id is taken before the next is chosen, so they cannot collide
    edge_i = index.free_id(f"{new_comp}|{i}")
    index.add(edge_i, (pi, new_pos), {})
    edge_j = index.free_id(f"{new_comp}|{j}")
    index.add(edge_j, (pj, new_pos), {})
    triple = index.free_id(f"{new_comp}|{curve}")
    index.add(triple, (pi, pj, new_pos), {new_pos: curve, pi: edge_j, pj: edge_i})
    record = BlowupRecord(
        center=curve,
        new_component=new_comp,
        removed=(),
        added=(edge_i, edge_j, triple),
        bad_decrement=before - index.bad_total,
        point_blowup=True,
    )
    return index.divisor(), record


def resolve_to_simplicial(d: SncDivisor, max_blowups: int = MAX_BLOWUPS,
                          ) -> tuple[SncDivisor, list[BlowupRecord]]:
    """Blow up bad intersections, deepest first, until none remain.

    Within the deepest bad level the first intersection (by component
    order) is processed, one stratum component at a time in id order, so a
    bad intersection with k components takes k - 1 blowups and keeps its
    last component untouched.  The cap exists because shallower levels are
    not proven immune to new bad intersections; hitting it raises with the
    partial result attached rather than looping forever.

    The divisor's checked table is indexed once (rows by id, ids by
    positions, children by parent, the bad positions); each blowup then
    updates the index in place, touching only its star and the cells it
    adds.  The center comes from the index's heap of bad positions, the
    returned divisor carries the index's rows as its table, and the new
    component's name comes from its running ``exc{k}`` counter, so no step
    rescans the whole divisor, the bad set or the names used so far.
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
