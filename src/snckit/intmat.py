"""Exact integer matrices and their Smith normal form.

Everything in this module works with arbitrary-precision Python integers;
there is deliberately no floating point and no fixed-width arithmetic
anywhere, since the downstream group computations are only meaningful when
every intermediate value is exact.  The public constructor accepts only
integer entries; matrices the module builds itself skip that check.

One elimination, ``_eliminate``, diagonalizes an integer matrix A as
U*A*V = D with U, V unimodular and the diagonal entries forming a
divisibility chain.  It keeps U^{-1} up to date by mirroring every row move
on U as the inverse column move, so no caller ever inverts U with a second
Smith form.  Its pivots depend on A alone, so each caller tracks only the
transforms it reads, and what it reads is what the full form would give.
:func:`eliminate` is the one entry point that tracks transforms: it
returns the diagonal with each of U, V and U^{-1} that the caller asks
for, and None for the others.  :func:`smith_normal_form` asks for all
three and checks them as a :class:`SmithForm`.

Callers that need only the invariant factors use :func:`unit_sweep`, which
builds no transforms, takes sparse rows and also names its unit pivots, or
:func:`smith_diagonal`, which hands it the rows of a dense matrix.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import add, index, mul
from typing import Any, Iterable, NamedTuple, Sequence


class IntMatrix:
    """An immutable rectangular matrix of Python integers.

    Rows are stored as a tuple of tuples.  The number of columns is kept
    explicitly so that matrices with zero rows or zero columns (an empty
    relation matrix, a Picard map from a zero group) behave sensibly.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> a @ IntMatrix.identity(2) == a
    True
    >>> a.transpose()[0, 1]
    3
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        try:
            data = tuple(tuple(map(index, row)) for row in rows)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be integers: {exc}") from None
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self._rows = data
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """A matrix on rows this module built: exact ints, each ``ncols`` long."""
        out = object.__new__(cls)
        out._rows = rows
        out.nrows = len(rows)
        out.ncols = ncols
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        zeros = (0,) * n
        return cls._of(tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls._of(((0,) * ncols,) * nrows, ncols)

    # -- shape and access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    # -- arithmetic ------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # A row that is mostly zeros accumulates the rows of B that its
        # nonzero entries pick, at a cost of nonzeros x columns; any other
        # row takes one dot product per column of B.
        n = other.ncols
        brows = other._rows
        zeros = (0,) * n
        cols = None
        out = []
        for row in self._rows:
            if 2 * row.count(0) >= len(row):
                acc = None
                for a, brow in zip(row, brows):
                    if a:
                        term = map(mul, brow, repeat(a))
                        acc = tuple(term) if acc is None else tuple(map(add, acc, term))
                out.append(zeros if acc is None else acc)
            else:
                if cols is None:
                    cols = tuple(zip(*brows))
                out.append(tuple(sum(map(mul, row, col)) for col in cols))
        return IntMatrix._of(tuple(out), n)

    def transpose(self) -> "IntMatrix":
        rows = tuple(zip(*self._rows)) if self._rows else ((),) * self.ncols
        return IntMatrix._of(rows, self.nrows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError(f"row mismatch {self.shape} | {other.shape}")
        return IntMatrix._of(tuple(map(add, self._rows, other._rows)),
                             self.ncols + other.ncols)

    def take_rows(self, indices: Iterable[int]) -> "IntMatrix":
        return IntMatrix._of(tuple(self._rows[i] for i in indices), self.ncols)

    def take_columns(self, indices: Iterable[int]) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix._of(tuple(tuple(map(row.__getitem__, idx)) for row in self._rows),
                             len(idx))

    # -- protocol --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.shape, self._rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r}, ncols={self.ncols})"


class _Checked:
    """Mixin of a NamedTuple subclass whose ``__new__`` checks the fields:
    ``_make``, and so ``_replace``, build through that ``__new__`` rather
    than straight from the tuple, so they check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


class SmithForm(_Checked, NamedTuple("SmithForm", [
        ("u", IntMatrix), ("d", IntMatrix), ("v", IntMatrix), ("u_inv", IntMatrix)])):
    """Result of a Smith normal form computation: U*A*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries forming
    a divisibility chain (every nonzero entry divides the next one, and
    zeros come after all nonzero entries).  ``u_inv`` is the exact inverse
    of U, tracked move by move during the same elimination, so reading it
    costs no second Smith form.
    """

    __slots__ = ()

    def __new__(cls, u: IntMatrix, d: IntMatrix, v: IntMatrix,
                u_inv: IntMatrix) -> SmithForm:
        self = tuple.__new__(cls, (u, d, v, u_inv))
        diag = self.diagonal
        for i, row in enumerate(self.d.rows()):
            if any(row[:i]) or any(row[i + 1:]):
                j = next(j for j, x in enumerate(row) if x and j != i)
                raise ValueError(f"D not diagonal at ({i}, {j})")
        for x in diag:
            if x < 0:
                raise ValueError("negative diagonal entry in Smith form")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero diagonal entry before a nonzero one")
            if a != 0 and b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")
        return self

    @property
    def diagonal(self) -> tuple[int, ...]:
        rows = self.d.rows()
        return tuple(rows[i][i] for i in range(min(self.d.shape)))

def _pick_pivot(m: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int] | None:
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


def _eliminate(m: list[list[int]], nr: int, nc: int,
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
        piv = _pick_pivot(m, t, nr, nc)
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


def eliminate(a: IntMatrix, u: bool = False, v: bool = False, u_inv: bool = False
              ) -> tuple[tuple[int, ...], IntMatrix | None, IntMatrix | None,
                         IntMatrix | None]:
    """The Smith diagonal of A, then U, V and U^{-1}, each None unless asked for.

    Every transform asked for is the one smith_normal_form returns.  The
    free columns of V, whose diagonal entry is zero or missing, span the
    integer kernel of A as a saturated sublattice.

    >>> eliminate(IntMatrix([[2, 4], [6, 8]]), u=True)
    ((2, 4), IntMatrix([[1, 0], [3, -1]], ncols=2), None, None)
    """
    nr, nc = a.shape
    m = a.to_lists()
    u_rows = IntMatrix.identity(nr).to_lists() if u else None
    v_t = IntMatrix.identity(nc).to_lists() if v else None
    u_inv_t = IntMatrix.identity(nr).to_lists() if u_inv else None
    _eliminate(m, nr, nc, u_rows, v_t, u_inv_t)
    return (tuple(m[t][t] for t in range(min(nr, nc))),
            None if u_rows is None else IntMatrix._of(tuple(map(tuple, u_rows)), nr),
            None if v_t is None else IntMatrix._of(tuple(zip(*v_t)), nc),
            None if u_inv_t is None else IntMatrix._of(tuple(zip(*u_inv_t)), nr))


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    >>> smith_normal_form(IntMatrix([[0]])).diagonal
    (0,)
    """
    diag, u, v, u_inv = eliminate(a, u=True, v=True, u_inv=True)
    d = [[0] * a.ncols for _ in range(a.nrows)]
    for t, x in enumerate(diag):
        d[t][t] = x
    return SmithForm(u, IntMatrix._of(tuple(map(tuple, d)), a.ncols), v, u_inv)


def unit_sweep(work: list[dict[int, int]], ncols: int) -> tuple[tuple[int, ...], list[int]]:
    """The Smith diagonal of sparse rows, and the columns of its unit pivots.

    Row i maps each column below ``ncols`` where it is nonzero to its
    entry; the sweep consumes the rows.  The diagonal is canonical
    (invariant factors are unique), which frees this path to run a cheaper
    elimination than smith_normal_form, in any pivot order: unit entries
    split off a diag(1) summand each, and only the leftover block goes
    through the dense routine.

    Unit pivots go in Markowitz order.  A heap keyed by each column's live
    entry count, re-keyed lazily when a popped count is stale, gives the
    shortest column holding a +-1; among equal counts, columns that share a
    row with an earlier pivot go first.  In that column the +-1 in the
    shortest row is the pivot, ties going to the row whose other entries
    sit in the longest columns.  Both ties keep the sweep next to where it
    last worked, so fill lands in columns already too long to be picked:
    on a simplex skeleton this finds a cone collapse, with no fill, however
    the cells are ordered.  The pivot column is cleared from the other rows,
    then the pivot row and column are deleted.  A column with no unit waits
    until fill writes one into it.

    The sweep costs what it changes.  A pivot costs the length of its
    column, plus the length of the pivot row for each other row in that
    column, which bounds the entries it writes or cancels, plus a heap
    step for each column it touches first.  A row's own length is paid
    once, when a pivot first targets it, and the tie-break sums column
    lengths only over the +-1 rows of least length.  So a long row that
    many pivots target, such as an original component after blowups,
    costs its length once rather than once per pivot.  The sweep stops
    when no row holds an entry, rather than popping the stale keys of the
    columns it emptied.

    Afterwards only rows and columns that still hold a nonzero entry go to
    the dense routine; the lines dropped as empty stand for the zeros that
    pad the diagonal to min(rows, ncols) entries.

    The pivot columns come back in the order taken.  Each pivot row is then
    an integer combination of the input rows with a +-1 in its own column
    and 0 in the columns of every earlier pivot, so those combinations
    replace the pivot columns' unit rows by a unimodular, triangular change
    of basis.  ``chaincx`` reads this to clear rows of the next boundary.
    """
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(work):
        for j in row:
            cols[j].add(i)
    heap = [(len(c), True, j) for j, c in enumerate(cols) if c]
    heapq.heapify(heap)
    touched: set[int] = set()
    targeted = [False] * len(work)
    waiting: set[int] = set()
    pivots: list[int] = []
    # Rows that hold an entry; once none does, every key left is stale.
    live = sum(map(bool, work))
    while heap and live:
        count, untouched, j = heapq.heappop(heap)
        col = cols[j]
        if untouched and j in touched:
            continue
        if count != len(col):
            if col:
                heapq.heappush(heap, (len(col), untouched, j))
            continue
        units = [k for k in col if work[k][j] in (1, -1)]
        if not units:
            waiting.add(j)
            continue
        i = units[0]
        if len(units) > 1:
            shortest = min(len(work[k]) for k in units)
            i = min((k for k in units if len(work[k]) == shortest), key=lambda k: (
                -sum(len(cols[jj]) for jj in work[k]), k))
        pivot_row = work[i]
        work[i] = {}
        val = pivot_row[j]
        for k in col - {i}:
            target = work[k]
            q = target[j] * val
            added = []
            for jj, x in pivot_row.items():
                new = target.get(jj, 0) - q * x
                if new == 0:
                    del target[jj]
                    cols[jj].discard(k)
                    continue
                if jj not in target:
                    cols[jj].add(k)
                    added.append(jj)
                target[jj] = new
                if new in (1, -1) and jj in waiting:
                    waiting.discard(jj)
                    heapq.heappush(heap, (len(cols[jj]), jj not in touched, jj))
            # Every column of a row that a pivot has targeted is touched,
            # so after its first time only the columns it gains can be new.
            for jj in added if targeted[k] else target:
                if jj not in touched:
                    touched.add(jj)
                    heapq.heappush(heap, (len(cols[jj]), False, jj))
            targeted[k] = True
            if not target:
                live -= 1
        for jj in pivot_row:
            cols[jj].discard(i)
        pivots.append(j)
        live -= 1
    sub_cols = [j for j, c in enumerate(cols) if c]
    m = [[row.get(j, 0) for j in sub_cols] for row in work if row]
    _eliminate(m, len(m), len(sub_cols), None, None, None)
    diag = (1,) * len(pivots) + tuple(m[t][t] for t in range(min(len(m), len(sub_cols))))
    return diag + (0,) * (min(len(work), ncols) - len(diag)), pivots


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith form of a dense matrix, without transforms."""
    return unit_sweep([{j: x for j, x in enumerate(row) if x} for row in a.rows()],
                      a.ncols)[0]
