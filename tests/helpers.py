"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: invariant
factors come from minors and cofactor determinants, direct sums from prime
factorization, simpliciality from raw vertex sets of the dual complex,
cohomology from the homology of the explicitly transposed complex,
blowups and resolution from full rescans of the divisor, inverses of
Smith transforms from a second Smith form instead of the tracked inverse,
the pivot history of the elimination from a copy of it as it stood before
its moves were inlined (``reference_eliminate``),
kernels, kernel lattices and exact solves from the U and V of the full
Smith form instead of the eliminations that track one transform, the
group a relation matrix presents from the full form's diagonal
(``presented_group``),
the Picard analysis from ``presentation``, one elimination per lattice
that tracks both U and U^{-1} (``reference_ns_analysis``), chain
complexes straight off the strata, the E_3 corner of the KH report from
an assembled two-row descent page, and a document's divisor
block, a resolve report's blowup records and the reports of kh-report and
k-report from nested dicts (``divisor_json``, ``blowup_json`` and
``report_json``, which ``json.dumps`` prints as the CLI's writers must).
Small conveniences that
only tests call (``hom_analyze``, ``cokernel``, ``validate_complex``,
``euler_characteristic``, ``kh_top``, the groups ``Z`` and ``ZERO_GROUP``,
and matrix arithmetic such as ``det``, ``diagonal``, or ``rank`` and
``verify`` for a Smith form) live here too, as do the view of a
divisor's strata with components named by id (``strata_of``, a tuple of
``Stratum``) and the dense view of sparse boundaries:
``complex_from_matrices`` builds a complex from dense matrices and
``boundary_matrix`` reads a boundary back as one.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Sequence

from snckit import (
    BlowupRecord,
    ChainComplex,
    FgAbGroup,
    Hom,
    IntMatrix,
    PicardInput,
    PicardLevel,
    SncDivisor,
    SpectralPage,
    blowup_point_on_double_curve,
    cohomology,
    find_bad_intersections,
    validate_snc,
)
from snckit.abgroup import kernel_coordinates, presentation_matrix
from snckit.intmat import SmithForm, eliminate, smith_normal_form
from snckit.snc import MAX_BLOWUPS, ResolutionLimitError, SncError

Z = FgAbGroup(1)
ZERO_GROUP = FgAbGroup(0)


# ---------------------------------------------------------------------------
# integer-matrix oracles


def cofactor_det(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion; fine for the tiny oracle sizes."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minors_invariant_factors(a: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k-by-k minors (use only on dims <= 4)."""
    nr, nc = a.shape
    rows = a.to_lists()
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def diagonal(entries: list[int] | tuple[int, ...], nrows: int | None = None,
             ncols: int | None = None) -> IntMatrix:
    """The nrows x ncols matrix (square by default) with ``entries`` on its diagonal."""
    k = len(entries)
    nrows = k if nrows is None else nrows
    ncols = k if ncols is None else ncols
    return IntMatrix([[entries[i] if i == j and i < k else 0 for j in range(ncols)]
                      for i in range(nrows)], ncols=ncols)


def column(a: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in a.rows())


def is_zero(a: IntMatrix) -> bool:
    return not any(map(any, a.rows()))


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} + {b.shape}")
    return IntMatrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.rows(), b.rows())],
                     ncols=a.ncols)


def scale(a: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix([[c * x for x in row] for row in a.rows()], ncols=a.ncols)


def vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.ncols != b.ncols:
        raise ValueError(f"column mismatch {a.shape} / {b.shape}")
    return IntMatrix(a.rows() + b.rows(), ncols=a.ncols)


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    Exact for any square integer matrix; all intermediate divisions are
    known to be exact, so nothing ever leaves the integers.
    """
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    m = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def verify(sf: SmithForm, a: IntMatrix) -> None:
    """Check U*A*V = D, unimodularity and the tracked inverse of a Smith form of A."""
    if sf.u @ a @ sf.v != sf.d:
        raise AssertionError("U*A*V != D")
    if det(sf.u) not in (1, -1):
        raise AssertionError("U not unimodular")
    if det(sf.v) not in (1, -1):
        raise AssertionError("V not unimodular")
    if sf.u @ sf.u_inv != IntMatrix.identity(sf.u.nrows):
        raise AssertionError("U*U_inv != I")


def rank(sf: SmithForm) -> int:
    """The rank of the matrix that ``sf`` is a Smith form of."""
    return sum(1 for x in sf.diagonal if x)


def _reference_pick_pivot(m: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int] | None:
    """Smallest nonzero entry (by absolute value) of the trailing block.

    Ties go to the lowest row index, then the lowest column index, so that
    the whole computation is reproducible.  An entry of absolute value 1
    cannot be beaten and later ties would lose anyway, so the scan stops at
    the first one it sees.
    """
    best: tuple[int, int] | None = None
    best_val = 0
    for i in range(t, nr):
        for j in range(t, nc):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < best_val):
                if v in (1, -1):
                    return (i, j)
                best = (i, j)
                best_val = abs(v)
    return best


def _reference_eliminate(m: list[list[int]], nr: int, nc: int,
               u: list[list[int]] | None, v_t: list[list[int]] | None,
               u_inv_t: list[list[int]] | None) -> None:
    """Diagonalize ``m`` in place; mirror the moves into the transforms given.

    ``v_t`` holds the transpose of V, so each column move on V is a move
    of whole rows.  ``u_inv_t`` holds the transpose of U^{-1}.  Each row
    move E on U is mirrored as U^{-1} <- U^{-1} E^{-1}, a column move on
    U^{-1}, which on the transpose is again a row move.

    Pivots are always chosen with minimal absolute value to keep
    intermediate entries small; this is the classical guard against
    coefficient blow-up in fraction-free elimination.

    While the column pass clears row t, column t of ``m`` is zero outside
    row t: the row pass has just cleared it below, and every earlier row
    is already diagonal.  So subtracting a multiple of column t from
    another column changes a single entry of ``m``.
    """

    def swap_rows(i: int, k: int) -> None:
        m[i], m[k] = m[k], m[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if u_inv_t is not None:
            u_inv_t[i], u_inv_t[k] = u_inv_t[k], u_inv_t[i]

    def swap_cols(j: int, k: int) -> None:
        for row in m:
            row[j], row[k] = row[k], row[j]
        if v_t is not None:
            v_t[j], v_t[k] = v_t[k], v_t[j]

    def row_sub(i: int, k: int, q: int) -> None:
        # row i -= q * row k; its inverse adds q * column i to column k
        m[i] = [x - q * y for x, y in zip(m[i], m[k])]
        if u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        if u_inv_t is not None:
            u_inv_t[k] = [x + q * y for x, y in zip(u_inv_t[k], u_inv_t[i])]

    def col_sub(j: int, k: int, q: int) -> None:
        # column j -= q * column k, where column k of m is zero outside row k
        m[k][j] -= q * m[k][k]
        if v_t is not None:
            v_t[j] = [x - q * y for x, y in zip(v_t[j], v_t[k])]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        piv = _reference_pick_pivot(m, t, nr, nc)
        if piv is None:
            break
        if piv != (t, t):
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])

        # Clear the pivot column and row.  Whenever a division leaves a
        # remainder, the remainder is strictly smaller than the pivot, so
        # swapping it into the pivot position makes progress.
        while True:
            restart = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    if q != 0:
                        row_sub(i, t, q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    if q != 0:
                        col_sub(j, t, q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            break

        # The pivot must divide every entry of the remaining block; if it
        # does not, folding an offending row into row t and re-eliminating
        # strictly shrinks the pivot.
        # A unit pivot divides everything, so its scan would find nothing.
        p = m[t][t]
        if p not in (1, -1):
            bad_row = None
            for i in range(t + 1, nr):
                if any(m[i][j] % p != 0 for j in range(t + 1, nc)):
                    bad_row = i
                    break
            if bad_row is not None:
                row_sub(t, bad_row, -1)
                continue

        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
            if u_inv_t is not None:
                u_inv_t[t] = [-x for x in u_inv_t[t]]
        t += 1


def reference_eliminate(a: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix, IntMatrix]:
    """The Smith diagonal of A with U, V and U^{-1}, move for move as
    ``intmat._eliminate`` made them before its moves were inlined.

    ``_reference_pick_pivot`` and ``_reference_eliminate`` keep that
    elimination as it stood, scan and per-move closures included, so a
    faster elimination can be checked against its pivot history: the same
    diagonal and the same three transforms, entry for entry.
    """
    nr, nc = a.shape
    m = a.to_lists()
    u = IntMatrix.identity(nr).to_lists()
    v_t = IntMatrix.identity(nc).to_lists()
    u_inv_t = IntMatrix.identity(nr).to_lists()
    _reference_eliminate(m, nr, nc, u, v_t, u_inv_t)
    return (tuple(m[t][t] for t in range(min(nr, nc))),
            IntMatrix(u, ncols=nr), IntMatrix(list(zip(*v_t)), ncols=nc),
            IntMatrix(list(zip(*u_inv_t)), ncols=nr))


def random_matrix(rng: random.Random, max_dim: int = 6, span: int = 9) -> IntMatrix:
    nr = rng.randint(0, max_dim)
    nc = rng.randint(0, max_dim)
    return IntMatrix([[rng.randint(-span, span) for _ in range(nc)]
                      for _ in range(nr)], ncols=nc)


def from_columns(columns: list[list[int]], nrows: int) -> IntMatrix:
    """The matrix whose columns are ``columns``, each ``nrows`` entries long."""
    return IntMatrix([[col[i] for col in columns] for i in range(nrows)],
                     ncols=len(columns))


def wide_random_matrix(rng: random.Random) -> IntMatrix:
    """A random matrix of up to 6 x 6 for checks against the full Smith form.

    Shapes include 0 rows and 0 columns; about a third of the matrices hold
    entries above 2^64, and about a third are scaled by a common factor, so
    that their cokernel has torsion.
    """
    nr, nc = rng.randint(0, 6), rng.randint(0, 6)
    kind = rng.randrange(3)
    scale = rng.choice((2, 3, 4, 6, 12)) if kind == 2 else 1

    def entry() -> int:
        if rng.random() < 0.3:
            return 0
        if kind == 1 and rng.random() < 0.5:
            return rng.choice((-1, 1)) * rng.randint(2 ** 64 + 1, 2 ** 70)
        return scale * rng.randint(-9, 9)

    return IntMatrix([[entry() for _ in range(nc)] for _ in range(nr)], ncols=nc)


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer solution X of A X = B, or None when none exists.

    With U*A*V = D of rank r, Y with D_r Y = U B exists when the rows of
    U B past r are zero and each row above divides by its invariant
    factor; then X = V [Y; 0].
    """
    sf = smith_normal_form(a)
    factors = [x for x in sf.diagonal if x]
    c = (sf.u @ b).rows()
    if any(map(any, c[len(factors):])) or any(
            x % p for row, p in zip(c, factors) for x in row):
        return None
    y = IntMatrix([[x // p for x in row] for row, p in zip(c, factors)], ncols=b.ncols)
    return sf.v @ vstack(y, IntMatrix.zero(a.ncols - y.nrows, b.ncols))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A saturated basis of the integer kernel of A: the free columns of V."""
    sf = smith_normal_form(a)
    diag = sf.diagonal
    return sf.v.take_columns(j for j in range(a.ncols) if j >= len(diag) or diag[j] == 0)


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """The exact inverse of a unimodular matrix, by solving A X = I.

    This takes a Smith form of A itself, the two-pass route that the
    tracked ``SmithForm.u_inv`` replaces.
    """
    inv = solve_exact(a, IntMatrix.identity(a.nrows))
    if inv is None:
        raise ValueError("matrix is not unimodular")
    return inv


def column_lattice_basis(a: IntMatrix) -> IntMatrix:
    """Nonzero columns of U^{-1} D, with U^{-1} from ``unimodular_inverse``."""
    sf = smith_normal_form(a)
    uinv = unimodular_inverse(sf.u)
    cols = [[x * d for x in column(uinv, j)]
            for j, d in enumerate(sf.diagonal) if d != 0]
    return from_columns(cols, a.nrows)


def presented_group(relations: IntMatrix, generators: int) -> FgAbGroup:
    """The cokernel Z^generators / (column span of relations), read off the
    diagonal of the full Smith form: one free generator per zero or missing
    entry, one cyclic factor per entry above 1."""
    if relations.nrows != generators:
        raise ValueError(
            f"relation matrix has {relations.nrows} rows for {generators} generators")
    diag = smith_normal_form(relations).diagonal
    return FgAbGroup(generators - sum(map(bool, diag)), tuple(x for x in diag if x > 1))


def canonical_order(diag: Sequence[int], generators: int) -> list[int]:
    """The rows of U (columns of U^{-1}) of a cokernel's canonical
    generators: the free ones first, then torsion in ascending order."""
    free = [i for i in range(generators) if i >= len(diag) or diag[i] == 0]
    return free + [i for i in range(len(diag)) if diag[i] > 1]


def presentation_lift(relations: IntMatrix) -> IntMatrix:
    """The ``lift`` of ``presentation``: the columns of U^{-1} of the
    canonical generators, free first, with U^{-1} from a second Smith form."""
    sf = smith_normal_form(relations)
    return unimodular_inverse(sf.u).take_columns(canonical_order(sf.diagonal, relations.nrows))


def kernel_lattice(h: Hom) -> IntMatrix:
    """Basis (as columns) of the vectors on source generators killed by h."""
    stacked = h.matrix.hstack(presentation_matrix(h.target))
    return column_lattice_basis(kernel_basis(stacked).take_rows(range(h.source.ngens)))


class Presentation(NamedTuple):
    """A cokernel with coordinates on its canonical generators.

    ``to_canonical`` rewrites a vector on the presenting generators as a
    vector on the canonical generators of ``group``; ``lift`` is a section
    of it (to_canonical @ lift is the identity).
    """

    group: FgAbGroup
    to_canonical: IntMatrix
    lift: IntMatrix


def presentation(relations: IntMatrix, generators: int) -> Presentation:
    """The cokernel of ``relations`` with both changes of coordinates: rows
    of U and columns of U^{-1}, free generators first, from one elimination
    that tracks the two, or the identity when there are no relations."""
    if not relations.ncols:
        identity = IntMatrix.identity(generators)
        return Presentation(FgAbGroup(generators), identity, identity)
    diag, u, _, u_inv = eliminate(relations, u=IntMatrix.identity(generators), u_inv=True)
    order = canonical_order(diag, generators)
    return Presentation(presented_group(relations, generators),
                        u.take_rows(order), u_inv.take_columns(order))


def lattice_relations(pi: PicardInput) -> tuple[IntMatrix, IntMatrix, int, FgAbGroup]:
    """The relations of Gamma and of ker(NS) on the kernel lattice's basis,
    its size and coker(NS), as ``ns_analysis`` reads them."""
    main = pi.maps[-1]
    incoming = (pi.maps[0].matrix if len(pi.maps) == 2
                else IntMatrix.zero(main.source.ngens, 0))
    rels_gamma, size, coker_ns = kernel_coordinates(main, incoming)
    rels_ker = rels_gamma.take_columns(range(incoming.ncols, rels_gamma.ncols))
    return rels_gamma, rels_ker, size, coker_ns


def reference_ns_analysis(pi: PicardInput) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup, Hom]:
    """``ns_analysis`` with each lattice read through ``presentation``, which
    tracks U and U^{-1} on both: the surjection is Gamma's ``to_canonical``
    times ker(NS)'s ``lift``."""
    rels_gamma, rels_ker, size, coker_ns = lattice_relations(pi)
    pres_ker = presentation(rels_ker, size)
    pres_gamma = presentation(rels_gamma, size)
    surjection = Hom(pres_ker.group, pres_gamma.group,
                     pres_gamma.to_canonical @ pres_ker.lift)
    return pres_ker.group, coker_ns, pres_gamma.group, surjection


def smith_surjection(pi: PicardInput) -> IntMatrix:
    """The matrix of ker(NS) -> Gamma as U_Gamma[order] * U_ker^{-1}[:, order],
    each transform from ``smith_normal_form`` of that lattice's relations
    and each order its canonical generators."""
    rels_gamma, rels_ker, size, _ = lattice_relations(pi)
    sf_gamma, sf_ker = smith_normal_form(rels_gamma), smith_normal_form(rels_ker)
    return (sf_gamma.u.take_rows(canonical_order(sf_gamma.diagonal, size))
            @ sf_ker.u_inv.take_columns(canonical_order(sf_ker.diagonal, size)))


def kernel_presentation(h: Hom) -> Presentation:
    """The kernel of h, with coordinates on the ``kernel_lattice`` basis."""
    lat = kernel_lattice(h)
    rels = solve_exact(lat, presentation_matrix(h.source))
    if rels is None:
        raise AssertionError("source relations escaped the kernel lattice")
    return presentation(rels, lat.ncols)


class HomAnalysis(NamedTuple):
    kernel: FgAbGroup
    image: FgAbGroup
    cokernel: FgAbGroup


def cokernel(h: Hom) -> FgAbGroup:
    """The target of h modulo the image of h, from its own Smith diagonal."""
    return presented_group(
        h.matrix.hstack(presentation_matrix(h.target)), h.target.ngens)


def middle_homology(outgoing: Hom, incoming: IntMatrix) -> FgAbGroup:
    """ker(outgoing) modulo the span of ``incoming``'s columns, from the
    coordinates of [incoming | source relations] on the ``kernel_lattice``
    basis."""
    lat = kernel_lattice(outgoing)
    rels = solve_exact(lat, incoming.hstack(presentation_matrix(outgoing.source)))
    if rels is None:
        raise AssertionError("incoming image escaped the kernel lattice")
    return presented_group(rels, lat.ncols)


def hom_analyze(h: Hom) -> HomAnalysis:
    """Kernel, image, and cokernel of a homomorphism, all canonical."""
    # The image is the source modulo the lattice, which holds its relations.
    return HomAnalysis(middle_homology(h, IntMatrix.zero(h.source.ngens, 0)),
                       presented_group(kernel_lattice(h), h.source.ngens),
                       cokernel(h))


def prime_power_chain(orders: list[int]) -> tuple[int, ...]:
    """Divisibility chain of a torsion product, recomputed via factorization."""
    powers: dict[int, list[int]] = {}
    for t in orders:
        assert t >= 2
        d = 2
        while d * d <= t:
            if t % d == 0:
                e = 0
                while t % d == 0:
                    t //= d
                    e += 1
                powers.setdefault(d, []).append(d ** e)
            d += 1
        if t > 1:
            powers.setdefault(t, []).append(t)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = []
    for slot in range(depth):
        piece = 1
        for p in sorted(powers):
            ranked = sorted(powers[p], reverse=True)
            if slot < len(ranked):
                piece *= ranked[slot]
        chain.append(piece)
    return tuple(reversed(chain))


# ---------------------------------------------------------------------------
# strata named by id


class Stratum(NamedTuple):
    """One stratum of a divisor with its components named by id: ``subset``
    in component order, ``parents`` keyed by the id of the component each
    drops."""

    id: str
    subset: tuple[str, ...]
    parents: dict[str, str]


def strata_of(d: SncDivisor) -> tuple[Stratum, ...]:
    """The rows of a divisor's strata table, in its order, with every
    component position read as its id."""
    comps = d.components
    return tuple(Stratum(sid, tuple(comps[p] for p in pos),
                         {comps[p]: pid for p, pid in parents.items()})
                 for sid, pos, parents in zip(*d.table))


# ---------------------------------------------------------------------------
# document blocks


def divisor_json(d: SncDivisor) -> dict:
    """Emit a divisor block that parses back to an equal divisor."""
    index = {c: i for i, c in enumerate(d.components)}
    groups: dict[tuple[str, ...], list[Stratum]] = {}
    for s in strata_of(d):
        groups.setdefault(s.subset, []).append(s)
    out = []
    for _, idx, subset in sorted((len(sub), [index[c] for c in sub], sub) for sub in groups):
        members = []
        for s in groups[subset]:
            parents = {str(i): pid
                       for i, pid in sorted((index[c], pid) for c, pid in s.parents.items())}
            members.append({"id": s.id, "parents": parents})
        out.append({"subset": idx, "components": members})
    return {"n": d.n, "components": list(d.components), "strata": out}


def blowup_json(r: BlowupRecord) -> dict:
    """A blowup record as the dict of its fields, in field order."""
    return {"center": r.center, "new_component": r.new_component,
            "removed": list(r.removed), "added": list(r.added),
            "bad_decrement": r.bad_decrement, "point_blowup": r.point_blowup}


def is_record(x: Any) -> bool:
    """Whether x is one of snckit's records: a NamedTuple whose class a
    module of snckit defines, rather than a plain or other tuple."""
    return (isinstance(x, tuple) and hasattr(x, "_fields")
            and type(x).__module__.startswith("snckit."))


def digit_limit() -> int | None:
    """The interpreter's digit limit, or None where it has none (3.10.0-3.10.6)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@contextlib.contextmanager
def no_digit_limit():
    """Lift the digit limit inside the block, and put the caller's back."""
    caller = digit_limit()
    if caller is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if caller is not None:
            sys.set_int_max_str_digits(caller)


def report_json(x: Any) -> Any:
    """A report as nested dicts: one key per field of each snckit record,
    in field order, a group as its text, free rank and torsion, and a
    matrix as its rows; any other value as it is."""
    if isinstance(x, FgAbGroup):
        return {"str": str(x), "free_rank": x.free_rank, "torsion": list(x.torsion)}
    if isinstance(x, IntMatrix):
        return x.to_lists()
    if is_record(x):
        return {name: report_json(v) for name, v in x._asdict().items()}
    return x


# ---------------------------------------------------------------------------
# named divisors


def divisor_of(n: int, components: Sequence[str], strata: Iterable[Stratum]) -> SncDivisor:
    """The divisor on ``strata`` in their order, through ``SncDivisor.build``."""
    return SncDivisor.build(n, components, [(s.id, s.subset, s.parents) for s in strata])


def triangle_cycle() -> SncDivisor:
    """Three surfaces meeting pairwise in one curve, no triple point."""
    return SncDivisor.build(3, ["E1", "E2", "E3"], [
        ("c12", ("E1", "E2"), {}),
        ("c13", ("E1", "E3"), {}),
        ("c23", ("E2", "E3"), {}),
    ])


def parallel_edges() -> SncDivisor:
    """Two surfaces whose intersection has two curve components."""
    return SncDivisor.build(3, ["1", "2"], [
        ("ca", ("1", "2"), {}),
        ("cb", ("1", "2"), {}),
    ])


def interval_divisor() -> SncDivisor:
    return SncDivisor.build(3, ["1", "2"], [("c", ("1", "2"), {})])


def full_simplex() -> SncDivisor:
    """Triangle cycle plus the triple point filling the 2-cell."""
    return SncDivisor.build(3, ["E1", "E2", "E3"], [
        ("c12", ("E1", "E2"), {}),
        ("c13", ("E1", "E3"), {}),
        ("c23", ("E2", "E3"), {}),
        ("t", ("E1", "E2", "E3"), {"E1": "c23", "E2": "c13", "E3": "c12"}),
    ])


def simplex_divisor(n: int, comps: list[str], max_depth: int) -> SncDivisor:
    """One stratum component per subset of size 2..max_depth (full skeleton)."""
    strata = []
    ids: dict[tuple[str, ...], str] = {}
    for size in range(2, max_depth + 1):
        for subset in itertools.combinations(comps, size):
            sid = "+".join(subset)
            ids[subset] = sid
            parents = {}
            if size >= 3:
                parents = {c: ids[tuple(x for x in subset if x != c)]
                           for c in subset}
            strata.append((sid, subset, parents))
    return SncDivisor.build(n, comps, strata)


def four_cycle() -> SncDivisor:
    """Four surfaces in a fourfold whose double loci close up into a loop."""
    return SncDivisor.build(4, ["E1", "E2", "E3", "E4"], [
        (f"c{i}{j}", (f"E{i}", f"E{j}"), {})
        for i, j in ((1, 2), (2, 3), (3, 4), (1, 4))])


def rp2_divisor() -> SncDivisor:
    """Six surfaces whose dual complex is the 6-vertex projective plane.

    H^2 of the dual complex is Z/2 and H_1 is Z/2, so the torus carries a
    root-of-unity part and the general-field reading is obstructed.
    """
    triangles = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))
    edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
    strata = [(f"c{i}{j}", (f"E{i}", f"E{j}"), {}) for i, j in edges]
    for t in triangles:
        strata.append(("t" + "".join(map(str, t)), tuple(f"E{i}" for i in t),
                       {f"E{c}": "c" + "".join(str(x) for x in t if x != c)
                        for c in t}))
    return SncDivisor.build(3, [f"E{i}" for i in range(1, 7)], strata)


def sphere4() -> SncDivisor:
    """Five fourfold components whose dual complex is the 3-sphere bd(Delta^4)."""
    return simplex_divisor(4, ["E1", "E2", "E3", "E4", "E5"], 4)


def random_divisor(rng: random.Random, max_components: int = 8) -> SncDivisor:
    """A valid divisor with random strata, duplicates, and sometimes blowups.

    Starts from a downward-closed family of index subsets (one stratum
    component each), clones some strata to create bad intersections, rewires
    triple-point parents between clones when no deeper strata constrain
    them, and occasionally applies a blowup to the result.  Every return
    value passes validate_snc.
    """
    n = rng.randint(2, 5)
    m = rng.randint(1, min(max_components - 2, 6))
    comps = [f"E{i + 1}" for i in range(m)]
    top = min(n, m)

    family: set[tuple[int, ...]] = set()
    if top >= 2:
        for _ in range(rng.randint(0, m + 2)):
            size = rng.randint(2, top)
            family.add(tuple(sorted(rng.sample(range(m), size))))
        queue = list(family)
        while queue:
            sub = queue.pop()
            if len(sub) <= 2:
                continue
            for drop in sub:
                face = tuple(x for x in sub if x != drop)
                if face not in family:
                    family.add(face)
                    queue.append(face)

    primary: dict[tuple[int, ...], str] = {}
    copies: dict[tuple[int, ...], list[str]] = {}
    strata: list[tuple[str, tuple[str, ...], dict[str, str]]] = []
    max_depth = max((len(s) for s in family), default=0)
    for sub in sorted(family, key=lambda s: (len(s), s)):
        base = "+".join(comps[i] for i in sub)
        # clones are safe at any depth: deeper strata only ever name the
        # primary copy as parent, so nothing dangles
        names = [base]
        names += [f"{base}~{k}" for k in range(rng.choice((0, 0, 0, 1, 1, 2)))]
        primary[sub] = base
        copies[sub] = names
        for name in names:
            parents = {}
            if len(sub) >= 3:
                parents = {comps[i]: primary[tuple(x for x in sub if x != i)]
                           for i in sub}
            strata.append((name, tuple(comps[i] for i in sub), parents))

    if max_depth == 3:
        # parent commutation is only pinned down from depth 4 up, so triple
        # points at the top may attach to any copy of their double curves
        rewired = []
        for name, subset, parents in strata:
            if len(subset) == 3 and rng.random() < 0.5:
                idx = tuple(comps.index(c) for c in subset)
                parents = {c: rng.choice(copies[tuple(x for x in idx
                                                      if comps[x] != c)])
                           for c in subset}
            rewired.append((name, subset, parents))
        strata = rewired

    d = SncDivisor.build(n, comps, strata)
    validate_snc(d)

    for _ in range(2):
        if len(d.components) >= max_components or rng.random() > 0.3:
            break
        curves = [s for s in strata_of(d) if len(s.subset) == 2]
        if not curves:
            break
        if d.n == 3 and rng.random() < 0.4:
            d, _ = blowup_point_on_double_curve(d, rng.choice(curves).id)
        else:
            d, _ = scan_blowup(d, rng.choice([s.id for s in strata_of(d)]))
        validate_snc(d)
    return d


def parallel_curve_divisor(rng: random.Random, m: int, extra: int,
                           comps: list[str] | None = None) -> SncDivisor:
    """A threefold whose components meet pairwise in 1 to 4 parallel curves.

    ``extra`` curves go beyond one per pair; a quarter of the triangles
    carry a triple point (some two), attached to random curve copies, so
    resolving it takes many blowups that create and clear bad subsets.
    The m components are ``comps`` in that order, ``E0``, ``E1``, ... if
    it is not given.
    """
    comps = comps if comps is not None else [f"E{i}" for i in range(m)]
    pairs = list(itertools.combinations(comps, 2))
    counts = dict.fromkeys(pairs, 1)
    for _ in range(extra):
        counts[rng.choice([p for p in pairs if counts[p] < 4])] += 1
    curves = {p: [f"c{p[0]}{p[1]}_{k}" for k in range(counts[p])] for p in pairs}
    strata = [(cid, p, {}) for p in pairs for cid in curves[p]]
    triangles = list(itertools.combinations(comps, 3))
    for tri in rng.sample(triangles, len(triangles) // 4):
        for t in range(rng.choice((1, 1, 1, 2))):
            parents = {c: rng.choice(curves[tuple(x for x in tri if x != c)])
                       for c in tri}
            strata.append((f"t{''.join(tri)}_{t}", tri, parents))
    d = SncDivisor.build(3, comps, strata)
    validate_snc(d)
    return d


# ---------------------------------------------------------------------------
# blowup and resolution oracles: full rescans of the divisor at every step


def _scan_face_cell(by_id: dict[str, Stratum], s: Stratum, keep) -> str:
    keep_set = frozenset(keep)
    cur = s
    while len(cur.subset) > len(keep_set):
        if len(cur.subset) == 2:
            (v,) = keep_set
            return v
        drop = next(c for c in cur.subset if c not in keep_set)
        cur = by_id[cur.parents[drop]]
    return cur.id


def _bad_component_count(d: SncDivisor) -> int:
    return sum(count for _, count in find_bad_intersections(d).bad)


def scan_blowup(d: SncDivisor, center: str) -> tuple[SncDivisor, BlowupRecord]:
    """Stellar subdivision with the star found by scanning every stratum.

    The star is every stratum over the center's subset whose face there is
    the center, the new component is the first ``exc{k}`` that no component
    and no stratum left after removing the star uses, and the bad decrement
    is a recount before and after.
    """
    by_id = {s.id: s for s in strata_of(d)}
    if center not in by_id:
        raise SncError(f"no stratum component with id {center!r}")
    s0 = by_id[center]
    i0 = frozenset(s0.subset)
    order = {c: i for i, c in enumerate(d.components)}

    star = [s for s in strata_of(d)
            if i0 <= frozenset(s.subset)
            and _scan_face_cell(by_id, s, s0.subset) == center]

    entries = []
    for t in star:
        l_part = tuple(c for c in t.subset if c not in i0)
        for r in range(len(s0.subset)):
            for k_part in itertools.combinations(s0.subset, r):
                keep = tuple(sorted(k_part + l_part, key=order.__getitem__))
                if not keep:
                    continue
                fcid = keep[0] if len(keep) == 1 else _scan_face_cell(by_id, t, keep)
                entries.append((t, k_part, keep, fcid))
    entries.sort(key=lambda e: (
        len(e[2]), tuple(order[c] for c in e[2]), e[3], e[0].id))

    removed_ids = {t.id for t in star}
    kept = [s for s in strata_of(d) if s.id not in removed_ids]
    taken = set(d.components) | {s.id for s in kept}
    k = 1
    while f"exc{k}" in taken:
        k += 1
    new_comp = f"exc{k}"
    cone_id = {}
    for t, k_part, keep, fcid in entries:
        cid = f"{new_comp}|{fcid}"
        n = 0
        while cid in taken:
            cid = f"{new_comp}|{fcid}~{n}"
            n += 1
        taken.add(cid)
        cone_id[(t.id, k_part)] = cid

    added = []
    for t, k_part, keep, fcid in entries:
        subset = keep + (new_comp,)
        parents = {}
        if len(subset) >= 3:
            parents[new_comp] = fcid
            for x in keep:
                if x in i0:
                    rest = tuple(c for c in k_part if c != x)
                    parents[x] = cone_id[(t.id, rest)]
                else:
                    parents[x] = cone_id[(by_id[t.parents[x]].id, k_part)]
        added.append(Stratum(cone_id[(t.id, k_part)], subset, parents))
    result = divisor_of(d.n, d.components + (new_comp,), kept + added)
    record = BlowupRecord(
        center=center,
        new_component=new_comp,
        removed=tuple(s.id for s in strata_of(d) if s.id in removed_ids),
        added=tuple(s.id for s in added),
        bad_decrement=_bad_component_count(d) - _bad_component_count(result),
    )
    return result, record


def scan_resolve(d: SncDivisor, max_blowups: int = MAX_BLOWUPS,
                 ) -> tuple[SncDivisor, list[BlowupRecord]]:
    """The resolve loop with a full ``find_bad_intersections`` every step."""
    records: list[BlowupRecord] = []
    current = d
    while True:
        bad, simplicial = find_bad_intersections(current)
        if simplicial:
            return current, records
        if len(records) >= max_blowups:
            raise ResolutionLimitError(
                f"still {len(bad)} bad intersection(s) after {len(records)} blowups",
                current, records)
        order = {c: i for i, c in enumerate(current.components)}
        deepest = max(len(subset) for subset, _ in bad)
        subset = min((s for s, _ in bad if len(s) == deepest),
                      key=lambda s: tuple(order[c] for c in s))
        target = min(s.id for s in strata_of(current) if s.subset == subset)
        current, rec = scan_blowup(current, target)
        records.append(rec)


# ---------------------------------------------------------------------------
# dual-complex oracles


def brute_force_bad(d: SncDivisor) -> tuple[dict[frozenset[str], int], bool]:
    """Count duplicate vertex sets among the cells of the dual complex."""
    validate_snc(d)
    seen: dict[frozenset[str], int] = {}
    for s in strata_of(d):
        key = frozenset(s.subset)
        seen[key] = seen.get(key, 0) + 1
    dup = {k: v for k, v in seen.items() if v >= 2}
    return dup, not dup


def complex_from_matrices(ranks, matrices) -> ChainComplex:
    """A ChainComplex whose boundaries are given as dense integer matrices.

    Each matrix becomes the face rows ``ChainComplex`` takes: one dict per
    row, holding its nonzero entries by column.
    """
    return ChainComplex(tuple(ranks), tuple(
        tuple({j: x for j, x in enumerate(row) if x} for row in m.rows())
        for m in matrices))


def boundary_matrix(c: ChainComplex, d: int) -> IntMatrix:
    """The boundary out of degree d as a dense matrix (zero outside the range)."""
    m = [[0] * c.rank(d) for _ in range(c.rank(d - 1))]
    if 0 < d < len(c.ranks):
        for i, row in enumerate(c.boundaries[d - 1]):
            for j, x in row.items():
                m[i][j] = x
    return IntMatrix(m, ncols=c.rank(d))


def alt_chain_complex(d: SncDivisor) -> ChainComplex:
    """The alternating-face chain complex read straight off the strata.

    Degree p counts the stratum components of depth p + 1 (degree 0 counts
    the divisor components); the boundary drops one component at a time
    with alternating signs.  It is a second build of
    ``DualComplex.chain_complex``, with a dict stratum lookup per cell,
    and must agree with it entry for entry.
    """
    if not d.components:
        return ChainComplex((), ())
    max_depth = max((len(s.subset) for s in strata_of(d)), default=1)
    layer_ids: list[list[str]] = [list(d.components)]
    for depth in range(2, max_depth + 1):
        layer_ids.append([s.id for s in strata_of(d) if len(s.subset) == depth])
    ranks = tuple(len(layer) for layer in layer_ids)
    by_id = {s.id: s for s in strata_of(d)}
    boundaries = []
    for p in range(1, len(layer_ids)):
        pos = {cid: i for i, cid in enumerate(layer_ids[p - 1])}
        m = [[0] * len(layer_ids[p]) for _ in range(len(layer_ids[p - 1]))]
        for col, sid in enumerate(layer_ids[p]):
            s = by_id[sid]
            for k, dropped in enumerate(s.subset):
                face = s.subset[1 - k] if len(s.subset) == 2 else s.parents[dropped]
                m[pos[face]][col] += (-1) ** k
        boundaries.append(IntMatrix(m, ncols=len(layer_ids[p])))
    return complex_from_matrices(ranks, boundaries)


class NonComplexError(Exception):
    """Composite of two consecutive boundaries is nonzero."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"boundary composite nonzero at degree {degree}")


def validate_complex(c: ChainComplex) -> None:
    """Raise NonComplexError at the first degree whose composite is nonzero.

    The reported degree is the upper one: degree d means the composite
    boundary(d - 1) @ boundary(d) failed.
    """
    for d in range(len(c.ranks)):
        if not is_zero(boundary_matrix(c, d - 1) @ boundary_matrix(c, d)):
            raise NonComplexError(d)


def euler_characteristic(c: ChainComplex) -> int:
    return sum((-1) ** d * r for d, r in enumerate(c.ranks))


def kh_top(d: SncDivisor) -> FgAbGroup:
    """H^{n-1}(D(E), Z), which is the whole of KH in degree -n."""
    validate_snc(d)
    return cohomology(validate_snc(d).chain_complex(), d.n - 1)


def dualize(c: ChainComplex) -> ChainComplex:
    """The transposed complex, reindexed so that H^i(c) = H_{top - i}(dualize(c))
    with top = len(c.ranks) - 1.

    An oracle for cohomology: it builds the cochain complex explicitly,
    where snckit reads cohomology off the boundary diagonals instead.
    """
    top = len(c.ranks) - 1
    return complex_from_matrices(tuple(reversed(c.ranks)), [
        boundary_matrix(c, top - j).transpose() for j in range(top)])


def one_row_page(cx: ChainComplex) -> SpectralPage:
    """The Cech page of the cover: degree-p cells along the row q = 0."""
    entries: dict[tuple[int, int], FgAbGroup] = {}
    diffs: dict[tuple[int, int], Hom] = {}
    ranks = cx.ranks
    for p, r in enumerate(ranks):
        if r:
            entries[(p, 0)] = FgAbGroup(r)
    for p in range(len(ranks) - 1):
        delta = boundary_matrix(cx, p + 1).transpose()
        diffs[(p, 0)] = Hom(FgAbGroup(ranks[p]),
                            FgAbGroup(ranks[p + 1]), delta)
    support = frozenset((p, 0) for p in range(len(ranks)))
    return SpectralPage(1, entries, diffs, support)


# ---------------------------------------------------------------------------
# the descent-page corner


@dataclass(frozen=True)
class TaggedGroup:
    """A group known exactly, or an upper bound when a differential is opaque.

    When ``exact`` is false, ``group`` is the bound: the true value is a
    quotient of it by some image of ``source_bound``, so its free rank lies
    between ``min_rank`` and the rank of the bound.
    """

    group: FgAbGroup
    exact: bool
    source_bound: FgAbGroup = FgAbGroup(0)
    min_rank: int = 0

    def __post_init__(self) -> None:
        if self.exact and not self.source_bound.is_trivial():
            raise ValueError("exact value cannot carry a source bound")

    @classmethod
    def exactly(cls, group: FgAbGroup) -> "TaggedGroup":
        return cls(group, True, FgAbGroup(0), group.free_rank)

    def __str__(self) -> str:
        if self.exact:
            return str(self.group)
        return f"{self.group} (bound; quotient by an image of {self.source_bound})"


def e3_top_corner(e2: SpectralPage, n: int, d2_known_zero: bool) -> TaggedGroup:
    """E_3 at position (n-1, 0) of a two-row page with rows q in {0, 1}.

    The only differential that can touch the corner on page 2 arrives from
    (n-3, 1).  With the flag set, or with a trivial source, the corner is
    exact and equal to its E_2 value; otherwise the E_2 value is an upper
    bound and the rank can drop by at most the rank of the source.
    """
    if e2.page_no != 2:
        raise ValueError(f"expected a page 2, got page {e2.page_no}")
    for (p, q), g in e2.entries.items():
        if not g.is_trivial() and q not in (0, 1):
            raise ValueError(f"two-row page has an entry at q = {q}")
    corner = e2.entry(n - 1, 0)
    source = e2.entry(n - 3, 1)
    if d2_known_zero or source.is_trivial():
        return TaggedGroup.exactly(corner)
    min_rank = max(0, corner.free_rank - source.free_rank)
    return TaggedGroup(corner, False, source, min_rank)


def descent_page(cx: ChainComplex, n: int, coker_ns: FgAbGroup) -> SpectralPage:
    """The finitely generated shadow of the descent page 2 of a KH report.

    Row q = 1 is the integral cohomology of the dual complex in every degree
    below n, stopping at the top degree of the complex, above which every
    group is 0; the corner (n-1, 0) carries coker(NS), the finitely
    generated part of the units cohomology.  ``kh_report`` reads the corner
    without building this page.
    """
    entries: dict[tuple[int, int], FgAbGroup] = {}
    support = {(n - 1, 0)}
    for p in range(min(n, len(cx.ranks))):
        support.add((p, 1))
        g = cohomology(cx, p)
        if not g.is_trivial():
            entries[(p, 1)] = g
    if not coker_ns.is_trivial():
        entries[(n - 1, 0)] = coker_ns
    return SpectralPage(2, entries, {}, frozenset(support))


# ---------------------------------------------------------------------------
# Picard inputs


def zero_picard(n: int, ranks: dict[int, FgAbGroup], coker_pic0_dim: int = 0,
                pic0: dict[int, int] | None = None) -> PicardInput:
    """Picard data with zero pullback maps between the given level groups."""
    ps = sorted(ranks)
    levels = tuple(PicardLevel(p, ranks[p], (pic0 or {}).get(p, 0)) for p in ps)
    maps = tuple(Hom.zero(ranks[ps[k]], ranks[ps[k + 1]])
                 for k in range(len(ps) - 1))
    return PicardInput(n, levels, maps, coker_pic0_dim)


def triangle_picard() -> PicardInput:
    """Three plane-like components: NS maps Z^3 -> Z^3 by pairwise differences."""
    ns0 = FgAbGroup(3)
    ns1 = FgAbGroup(3)
    restriction = Hom(ns0, ns1, IntMatrix([[1, -1, 0], [1, 0, -1], [0, 1, -1]]))
    return PicardInput(3, (PicardLevel(0, ns0, 0), PicardLevel(1, ns1, 0)),
                       (restriction,), 0)


def unimodular_rows(rng: random.Random, k: int, moves: int) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular k×k matrix and its inverse, from row moves."""
    a = IntMatrix.identity(k).to_lists()
    inv = IntMatrix.identity(k).to_lists()
    for _ in range(moves if k >= 2 else 0):
        i, j = rng.sample(range(k), 2)
        q = rng.choice((-1, 1))
        # a <- E a with E = I + q e_ij; inv <- inv E^-1
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= q * row[i]
    return IntMatrix(a, ncols=k), IntMatrix(inv, ncols=k)


def _chain_factors(rng: random.Random, count: int) -> list[int]:
    out, cur = [], 1
    for _ in range(count):
        if rng.random() < 0.2:
            cur *= rng.choice((2, 3, 5, 7))
        out.append(cur)
    return out


def dense_picard_document(rng: random.Random, rank: int, moves: int = 3) -> dict:
    """A kh-report / k-report document on bd(Δ^4) with dense NS maps.

    The middle level has free rank ``rank``.  The main map is P·D·Q over
    the free part of the top level, with invariant factors that carry
    torsion; the top level also has torsion generators, whose rows are
    W·Q with W vanishing modulo the order on the kernel directions.  The
    lower map is K·B with K the kernel basis of the main map and
    B = P2·D2·Q2 of smaller rank, so the two maps compose to zero and
    Gamma is a proper quotient of ker(NS).  Every unimodular factor takes
    ``moves`` row moves per row, which sets the size of the entries.
    """
    n, m = 4, 5
    kdim = rank // 2
    k = rank - kdim
    r2 = k + 2
    r0 = max(2, (3 * kdim) // 4)
    top_torsion = rng.choice(([], [2], [3], [2, 4], [2, 6]))
    p_mat, _ = unimodular_rows(rng, r2, moves * r2)
    q_mat, q_inv = unimodular_rows(rng, rank, moves * rank)
    main = p_mat @ diagonal(_chain_factors(rng, k), r2, rank) @ q_mat
    tors_rows = []
    for t in top_torsion:
        w = [rng.randint(-4, 4) if j < k else t * rng.randint(-2, 2)
             for j in range(rank)]
        tors_rows.append(list((IntMatrix([w]) @ q_mat).rows()[0]))
    main = vstack(main, IntMatrix(tors_rows, ncols=rank))

    p2, _ = unimodular_rows(rng, kdim, moves * kdim)
    q2, _ = unimodular_rows(rng, r0, moves * r0)
    b = p2 @ diagonal(_chain_factors(rng, r0 - 1), kdim, r0) @ q2
    lower = q_inv.take_columns(range(k, rank)) @ b

    ids: dict[tuple[int, ...], str] = {}
    strata = []
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(m), size):
            ids[subset] = "c" + "".join(map(str, subset))
            parents = {}
            if size >= 3:
                parents = {str(c): ids[tuple(x for x in subset if x != c)]
                           for c in subset}
            strata.append({"subset": list(subset),
                           "components": [{"id": ids[subset], "parents": parents}]})
    return {
        "version": "1",
        "divisor": {"n": n, "components": [f"E{i}" for i in range(m)],
                    "strata": strata},
        "picard": {
            "levels": [{"p": 0, "ns_rank": r0, "ns_torsion": [], "pic0_dim": 0},
                       {"p": 1, "ns_rank": rank, "ns_torsion": [], "pic0_dim": 0},
                       {"p": 2, "ns_rank": r2, "ns_torsion": top_torsion,
                        "pic0_dim": 0}],
            "ns_maps": [lower.to_lists(), main.to_lists()],
            "coker_pic0_dim": rng.randint(0, 1),
        },
        "dubois": {"entries": [{"p": 0, "q": n - 1, "b": rng.randint(0, 3)}],
                   "isolated": True},
    }


def random_picard_document(rng: random.Random, n: int, digits: int, max_gens: int = 4,
                           groups: list[FgAbGroup] | None = None) -> dict:
    """A kh-report / k-report document on bd(Δ^n) with a random Picard complex.

    n is 3 (levels 0 and 1) or 4 (levels 0, 1 and 2).  The levels' groups
    are ``groups``, or random with up to ``max_gens`` generators, free and
    torsion, and possibly zero.  Built like ``dense_picard_document``: on
    the free generators of its source the main map is W·Q, with Q
    unimodular, W = P·D on the free rows of its target and D diagonal, and
    W vanishing (modulo the order, on a torsion row) on the last kd
    columns.  Its other entries are random
    multiples of what the torsion allows, of about ``digits`` digits, as
    are the entries of D.  The lower map sends a free generator to a
    combination of the last kd columns of Q^{-1}, plus multiples of the
    orders of the middle level's torsion generators, and a torsion
    generator of order o to a multiple of a torsion generator of order t:
    one that o kills and the main map sends to zero, if it is one, or else
    one that is zero in the middle level.  So the two maps compose to zero.
    """
    def entry() -> int:
        return rng.randint(-10 ** digits, 10 ** digits)

    def group() -> FgAbGroup:
        free = rng.randint(0, max_gens)
        chain: list[int] = []
        for _ in range(rng.randint(0, max_gens - free)):
            chain.append((chain[-1] if chain else 1) * rng.choice((2, 3, 4, 6)))
        return FgAbGroup(free, tuple(chain))

    if groups is None:
        groups = [group() for _ in range(n - 1)]
    source, target = groups[-2], groups[-1]
    sf, tf = source.free_rank, target.free_rank
    kd = rng.randint(0, sf)
    q_mat, q_inv = unimodular_rows(rng, sf, 3 * sf)
    p_mat, _ = unimodular_rows(rng, tf, 3 * tf)
    d = IntMatrix([[entry() if i == j < sf - kd else 0 for j in range(sf)]
                   for i in range(tf)], ncols=sf)
    w = IntMatrix([[t * rng.randint(-3, 3) if j >= sf - kd else entry() for j in range(sf)]
                   for t in target.torsion], ncols=sf)
    orders = (0,) * tf + target.torsion
    tors_cols = [[0 if t == 0 else t // math.gcd(s, t) * entry() for t in orders]
                 for s in source.torsion]
    main = vstack(p_mat @ d, w) @ q_mat
    main = main.hstack(from_columns(tors_cols, target.ngens))
    maps = [main]
    if n == 4:
        kernel = q_inv.take_columns(range(sf - kd, sf))
        cols = []
        for o in (0,) * groups[0].free_rank + groups[0].torsion:
            if o == 0:
                b = IntMatrix([[rng.randint(-3, 3)] for _ in range(kd)], ncols=1)
                cols.append([row[0] for row in (kernel @ b).rows()]
                            + [t * rng.randint(-2, 2) for t in source.torsion])
                continue
            col = [0] * source.ngens
            if source.torsion:
                i = rng.randrange(len(source.torsion))
                t, c = source.torsion[i], rng.randint(-3, 3)
                col[sf + i] = t // math.gcd(o, t) * c
                if any(col[sf + i] * row[sf + i] % u
                       for u, row in zip(orders, main.rows()) if u):
                    col[sf + i] = t * c
            cols.append(col)
        maps.insert(0, from_columns(cols, source.ngens))
    return {
        "version": "1",
        "divisor": divisor_json(simplex_divisor(n, [f"E{i}" for i in range(n + 1)], n)),
        "picard": {
            "levels": [{"p": p, "ns_rank": g.free_rank, "ns_torsion": list(g.torsion),
                        "pic0_dim": 0} for p, g in enumerate(groups)],
            "ns_maps": [m.to_lists() for m in maps],
            "coker_pic0_dim": rng.randint(0, 1),
        },
        "dubois": {"entries": [{"p": 0, "q": n - 1, "b": rng.randint(0, 3)}],
                   "isolated": True},
    }


def with_source_torsion(doc: dict, torsion: list[int], rng: random.Random) -> dict:
    """A ``dense_picard_document`` with ``torsion`` added to level n-3, the
    source of the main map, which sends the new generators to zero; the
    lower map gets a row of small entries for each.  The maps still compose
    to zero, and ker(NS) gains ``torsion``."""
    lower, main = doc["picard"]["ns_maps"]
    doc["picard"]["levels"][1]["ns_torsion"] = torsion
    for row in main:
        row.extend([0] * len(torsion))
    lower.extend([rng.randint(-3, 3) for _ in lower[0]] for _ in torsion)
    return doc
