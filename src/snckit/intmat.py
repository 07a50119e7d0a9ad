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
Each pivot is the first +-1 of the trailing block, which ``in`` and
``index`` find row by row, or else its smallest nonzero entry.  A move
costs the nonzeros of the row it adds rather than the width, except on
U^{-1}, whose moves stay dense.  U's slot carries whatever rows it is
given through every row move: the identity ends as U, and the rows of a
matrix B end as U*B, which is how a system is solved against the
elimination without building U.
:func:`eliminate` is the one entry point for a dense matrix: it returns
the diagonal with U*B for the rows B it is handed, V and U^{-1} as the
caller asks, and None for the others.  :func:`smith_normal_form` hands
it the identity, asks for all three and checks them as a
:class:`SmithForm`.

Sparse rows go through :func:`unit_sweep`, which builds no transforms
and also names its unit pivots.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import add, index, mul
from typing import Any, Iterable, NamedTuple, Sequence


def _check_size(name: str, value: object) -> None:
    """Raise unless a matrix dimension is a non-negative int (not a bool)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


def _width(rows: tuple[tuple[int, ...], ...], ncols: int | None) -> int:
    """The common length of ``rows``, which must be ``ncols`` when given;
    with no rows, ``ncols`` or 0."""
    if not rows:
        return 0 if ncols is None else ncols
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows in matrix")
    if ncols is not None and ncols != width:
        raise ValueError(f"ncols={ncols} does not match row width {width}")
    return width


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
        if ncols is not None:
            _check_size("ncols", ncols)
        try:
            data = tuple(tuple(map(index, row)) for row in rows)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be integers: {exc}") from None
        self._rows = data
        self.nrows = len(data)
        self.ncols = _width(data, ncols)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """A matrix on rows this module built: exact ints, each ``ncols`` long."""
        out = object.__new__(cls)
        out._rows = rows
        out.nrows = len(rows)
        out.ncols = ncols
        return out

    @classmethod
    def _of_ints(cls, rows: Iterable[Sequence[int]], ncols: int) -> "IntMatrix":
        """A matrix on rows whose entries the caller has checked are exact
        ints; only the shape is checked, with the constructor's errors."""
        data = tuple(map(tuple, rows))
        return cls._of(data, _width(data, ncols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_size("n", n)
        zeros = (0,) * n
        return cls._of(tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        _check_size("nrows", nrows)
        _check_size("ncols", ncols)
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
        if not other.ncols:
            return self
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
    """The first +-1 of the trailing block, else its smallest nonzero entry.

    "First" is row by row, then column by column; ties for the smallest
    absolute value go to the lowest row index, then the lowest column
    index, so that the whole computation is reproducible.  Left of column
    t every row from t on is zero, so the first of those rows that holds a
    +-1 anywhere holds it in the block, and its lowest +-1, which ``in``
    and ``index`` find without a loop in Python, is the block's first.
    Nothing beats an entry of absolute value 1, so the full scan runs only
    on a block without one.  It is one Python pass over the block: a
    builtin pass per row, ``min(filter(None, map(abs, row)))``, also
    reads the zeros left of column t and pays its set-up on every row,
    and is slower on the few-row blocks that elimination meets.
    """
    for i in range(t, nr):
        row = m[i]
        if 1 in row:
            j = row.index(1)
            return (i, row.index(-1)) if -1 in row[:j] else (i, j)
        if -1 in row:
            return (i, row.index(-1))
    best: tuple[int, int] | None = None
    best_val = 0
    for i in range(t, nr):
        row = m[i]
        for j in range(t, nc):
            v = row[j]
            if v and (best is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
    return best


def _nonzeros(row: Sequence[int]) -> list[tuple[int, int]]:
    """The (column, entry) pairs of a row's nonzero entries."""
    return [(k, x) for k, x in enumerate(row) if x]


def _eliminate(m: list[list[int]], nr: int, nc: int,
               u: list[list[int]] | None, v_t: list[list[int]] | None,
               u_inv_t: list[Sequence[int]] | None) -> None:
    """Diagonalize ``m`` in place; mirror the moves into the transforms given.

    Each row move on ``m`` is made on the rows of ``u`` too, whatever they
    are: started from the identity they end as U, and started from the
    rows of B they end as U*B.  ``v_t`` holds the transpose of V, so each
    column move on V is a move of whole rows.  ``u_inv_t`` holds the
    transpose of U^{-1}.  Each row move E on U is mirrored as
    U^{-1} <- U^{-1} E^{-1}, a column move on U^{-1}, which on the
    transpose is again a row move.

    A move costs the nonzeros of the row it adds, not the width: the
    nonzeros of the pivot rows of ``m`` and ``u`` are listed once per
    pass, and again after a swap or a fold, and each row move runs over
    them alone; a column move on V runs over those of ``v_t[t]``.  These
    moves change rows of ``m``, ``u`` and ``v_t`` in place, so each must
    be a list that nothing else holds.  U^{-1}'s moves stay dense: each
    adds a different row of ``u_inv_t``, so listing its nonzeros would
    cost as much as the move.  Those rows are replaced, never changed in
    place, so they may start as tuples.

    Pivots are always chosen with minimal absolute value to keep
    intermediate entries small; this is the classical guard against
    coefficient blow-up in fraction-free elimination.

    While the column pass clears row t, column t of ``m`` is zero outside
    row t: the row pass has just cleared it below, and every earlier row
    is already diagonal.  So subtracting a multiple of column t from
    another column changes a single entry of ``m``.
    """
    t = 0
    limit = min(nr, nc)
    while t < limit:
        piv = _pick_pivot(m, t, nr, nc)
        if piv is None:
            break
        i, j = piv
        if i != t:
            m[t], m[i] = m[i], m[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
            if u_inv_t is not None:
                u_inv_t[t], u_inv_t[i] = u_inv_t[i], u_inv_t[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
            if v_t is not None:
                v_t[t], v_t[j] = v_t[j], v_t[t]

        # Clear the pivot column and row.  Whenever a division leaves a
        # remainder, the remainder is strictly smaller than the pivot, so
        # swapping it into the pivot position makes progress.  Row i less
        # q times row t is mirrored on U^{-1} as column t plus q times
        # column i.
        while True:
            top = m[t]
            p = top[t]
            top_nz = _nonzeros(top)
            u_nz = None if u is None else _nonzeros(u[t])
            for i in range(t + 1, nr):
                row = m[i]
                x = row[t]
                if x:
                    q = x // p
                    if q:
                        for k, b in top_nz:
                            row[k] -= q * b
                        if u_nz is not None:
                            target = u[i]
                            for k, b in u_nz:
                                target[k] -= q * b
                        if u_inv_t is not None:
                            u_inv_t[t] = [a + q * b for a, b in zip(u_inv_t[t], u_inv_t[i])]
                    if row[t]:
                        m[t], m[i] = row, top
                        if u is not None:
                            u[t], u[i] = u[i], u[t]
                        if u_inv_t is not None:
                            u_inv_t[t], u_inv_t[i] = u_inv_t[i], u_inv_t[t]
                        break
            else:
                v_nz = None if v_t is None else _nonzeros(v_t[t])
                for j in range(t + 1, nc):
                    x = top[j]
                    if x:
                        q = x // p
                        if q:
                            top[j] = x = x - q * p
                            if v_nz is not None:
                                target = v_t[j]
                                for k, b in v_nz:
                                    target[k] -= q * b
                        if x:
                            for row in m:
                                row[t], row[j] = row[j], row[t]
                            if v_t is not None:
                                v_t[t], v_t[j] = v_t[j], v_t[t]
                            break
                else:
                    break

        # The pivot must divide every entry of the remaining block; if it
        # does not, folding an offending row into row t and re-eliminating
        # strictly shrinks the pivot.  Rows below t are zero in columns up
        # to t, so the whole row can be tested.
        # A unit pivot divides everything, so its scan would find nothing.
        top = m[t]
        p = top[t]
        if p not in (1, -1):
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in m[i])), None)
            if bad is not None:
                m[t] = [a + b for a, b in zip(top, m[bad])]
                if u is not None:
                    u[t] = [a + b for a, b in zip(u[t], u[bad])]
                if u_inv_t is not None:
                    u_inv_t[bad] = [a - b for a, b in zip(u_inv_t[bad], u_inv_t[t])]
                continue

        if p < 0:
            m[t] = [-x for x in top]
            if u is not None:
                u[t] = [-x for x in u[t]]
            if u_inv_t is not None:
                u_inv_t[t] = [-x for x in u_inv_t[t]]
        t += 1


def eliminate(a: IntMatrix, u: IntMatrix | None = None, v: bool = False,
              u_inv: bool = False) -> tuple[tuple[int, ...], IntMatrix | None,
                                            IntMatrix | None, IntMatrix | None]:
    """The Smith diagonal of A, then U*B, V and U^{-1}, each None unless asked for.

    Every transform asked for is the one smith_normal_form returns.  The
    free columns of V, whose diagonal entry is zero or missing, span the
    integer kernel of A as a saturated sublattice.  U's slot carries the
    rows it is given through every row move: ``u=B``, a matrix with a row
    per row of A, returns U*B without building U, and the identity gives
    U itself.

    >>> eliminate(IntMatrix([[2, 4], [6, 8]]), u=IntMatrix.identity(2))
    ((2, 4), IntMatrix([[1, 0], [3, -1]], ncols=2), None, None)
    >>> eliminate(IntMatrix([[2, 4], [6, 8]]), u=IntMatrix([[5], [7]]))[1]
    IntMatrix([[5], [8]], ncols=1)
    """
    nr, nc = a.shape
    m = a.to_lists()
    if u is not None and u.nrows != nr:
        raise ValueError(f"cannot carry {u.nrows} rows through {nr} rows")
    u_rows = None if u is None else u.to_lists()
    v_t = [[0] * j + [1] + [0] * (nc - j - 1) for j in range(nc)] if v else None
    u_inv_t = list(IntMatrix.identity(nr).rows()) if u_inv else None
    _eliminate(m, nr, nc, u_rows, v_t, u_inv_t)
    return (tuple(m[t][t] for t in range(min(nr, nc))),
            None if u_rows is None else IntMatrix._of(tuple(map(tuple, u_rows)), u.ncols),
            None if v_t is None else IntMatrix._of(tuple(zip(*v_t)), nc),
            None if u_inv_t is None else IntMatrix._of(tuple(zip(*u_inv_t)), nr))


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    >>> smith_normal_form(IntMatrix([[0]])).diagonal
    (0,)
    """
    diag, u, v, u_inv = eliminate(a, u=IntMatrix.identity(a.nrows), v=True, u_inv=True)
    d = [[0] * a.ncols for _ in range(a.nrows)]
    for t, x in enumerate(diag):
        d[t][t] = x
    return SmithForm(u, IntMatrix._of(tuple(map(tuple, d)), a.ncols), v, u_inv)


def unit_sweep(rows: Sequence[dict[int, int]],
               ncols: int) -> tuple[tuple[int, ...], list[int]]:
    """The Smith diagonal of sparse rows, and the columns of its unit pivots.

    Row i maps each column below ``ncols`` where it is nonzero to its
    entry; the sweep leaves the rows and their list unchanged.  The
    diagonal is canonical (invariant factors are unique), which frees this
    path to run a cheaper elimination than smith_normal_form, in any pivot
    order: unit entries split off a diag(1) summand each, and only the
    leftover block goes through the dense routine.

    Unit pivots go in Markowitz order.  A heap keyed by each column's live
    entry count, re-keyed lazily when a popped count is stale, gives the
    shortest column holding a +-1; among equal counts, columns that share a
    row with an earlier pivot go first.  In that column the +-1 in the
    shortest row is the pivot, ties going to the row whose other entries
    sit in the longest columns.  Both ties keep the sweep next to where it
    last worked, so fill lands in columns already too long to be picked:
    on a simplex skeleton this finds a cone collapse, with no fill, however
    the cells are ordered.  The pivot column is cleared from the other rows,
    then the pivot row and column are deleted.  A column popped without a
    unit leaves the heap; only a pivot's first touch of it pushes it again.

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
    work = list(rows)
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(work):
        for j in row:
            cols[j].add(i)
    heap = [(len(c), True, j) for j, c in enumerate(cols) if c]
    heapq.heapify(heap)
    touched: set[int] = set()
    targeted = [False] * len(work)
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
            work[k] = target = work[k] if targeted[k] else dict(work[k])
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
