"""Exact integer matrices and their Smith normal form.

Everything in this module works with arbitrary-precision Python integers;
there is deliberately no floating point and no fixed-width arithmetic
anywhere, since the downstream group computations are only meaningful when
every intermediate value is exact.

The central routine is :func:`smith_normal_form`, which diagonalizes an
integer matrix A as U*A*V = D with U, V unimodular and the diagonal entries
forming a divisibility chain.  The elimination also keeps U^{-1} up to date,
mirroring every row move on U as the inverse column move, so no caller ever
inverts U with a second Smith form.  On top of it sit the standard lattice
primitives: integer kernels, exact linear solves, and column-span bases.
Callers that need only the invariant factors use :func:`sparse_smith_diagonal`,
which builds no transforms and takes the sparse rows that boundaries come in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


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
        data = tuple(tuple(int(x) for x in row) for row in rows)
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def diagonal(cls, entries: Sequence[int], nrows: int | None = None,
                 ncols: int | None = None) -> "IntMatrix":
        k = len(entries)
        nrows = k if nrows is None else nrows
        ncols = k if ncols is None else ncols
        rows = [[entries[i] if i == j and i < k else 0 for j in range(ncols)]
                for i in range(nrows)]
        return cls(rows, ncols=ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]],
                     nrows: int | None = None) -> "IntMatrix":
        if columns:
            nrows = len(columns[0]) if nrows is None else nrows
            return cls([[col[i] for col in columns] for i in range(nrows)],
                       ncols=len(columns))
        return cls.zero(0 if nrows is None else nrows, 0)

    # -- shape and access ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._rows)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = [other.column(j) for j in range(other.ncols)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self._rows]
        return IntMatrix(rows, ncols=other.ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self._rows, other._rows)],
                         ncols=self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self._rows],
                         ncols=self.ncols)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * x for x in row] for row in self._rows],
                         ncols=self.ncols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.column(j) for j in range(self.ncols)],
                         ncols=self.nrows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError(f"row mismatch {self.shape} | {other.shape}")
        return IntMatrix([r1 + r2 for r1, r2 in zip(self._rows, other._rows)],
                         ncols=self.ncols + other.ncols)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.ncols:
            raise ValueError(f"column mismatch {self.shape} / {other.shape}")
        return IntMatrix(self._rows + other._rows, ncols=self.ncols)

    def take_rows(self, indices: Iterable[int]) -> "IntMatrix":
        return IntMatrix([self._rows[i] for i in indices], ncols=self.ncols)

    def take_columns(self, indices: Iterable[int]) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix([[row[j] for j in idx] for row in self._rows],
                         ncols=len(idx))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination.

        Exact for any square integer matrix; all intermediate divisions are
        known to be exact, so nothing ever leaves the integers.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        m = self.to_lists()
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

    # -- protocol --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.shape, self._rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r}, ncols={self.ncols})"

    def __str__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"<empty {self.nrows}x{self.ncols}>"
        widths = [max(len(str(self._rows[i][j])) for i in range(self.nrows))
                  for j in range(self.ncols)]
        lines = ["[" + " ".join(str(x).rjust(w) for x, w in zip(row, widths)) + "]"
                 for row in self._rows]
        return "\n".join(lines)


@dataclass(frozen=True)
class SmithForm:
    """Result of a Smith normal form computation: U*A*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries forming
    a divisibility chain (every nonzero entry divides the next one, and
    zeros come after all nonzero entries).  ``u_inv`` is the exact inverse
    of U, tracked move by move during the same elimination, so reading it
    costs no second Smith form.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    def __post_init__(self) -> None:
        diag = self.diagonal
        for i in range(self.d.nrows):
            for j in range(self.d.ncols):
                if i != j and self.d[i, j] != 0:
                    raise ValueError(f"D not diagonal at ({i}, {j})")
        for x in diag:
            if x < 0:
                raise ValueError("negative diagonal entry in Smith form")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero diagonal entry before a nonzero one")
            if a != 0 and b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.shape)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    def invariant_factors(self) -> tuple[int, ...]:
        """The nonzero diagonal entries, including any leading 1s."""
        return tuple(x for x in self.diagonal if x != 0)

    def torsion_factors(self) -> tuple[int, ...]:
        """Invariant factors greater than 1 (the torsion of the cokernel)."""
        return tuple(x for x in self.diagonal if x > 1)

    def solve(self, b: IntMatrix) -> IntMatrix | None:
        """An integer solution X of A X = B for the input A, or None.

        Every solve against the same A can share one form this way.
        """
        if self.u.ncols != b.nrows:
            raise ValueError(f"shape mismatch solving {self.d.shape} X = {b.shape}")
        diag = self.diagonal
        c = self.u @ b
        cols: list[list[int]] = []
        for j in range(b.ncols):
            y = [0] * self.d.ncols
            for i in range(self.d.nrows):
                ci = c[i, j]
                if i < len(diag) and diag[i] != 0:
                    if ci % diag[i] != 0:
                        return None
                    y[i] = ci // diag[i]
                elif ci != 0:
                    return None
            cols.append(y)
        return self.v @ IntMatrix.from_columns(cols, nrows=self.d.ncols)

    def verify(self, a: IntMatrix) -> None:
        """Check the defining identity, unimodularity and the tracked inverse."""
        if self.u @ a @ self.v != self.d:
            raise AssertionError("U*A*V != D")
        if self.u.det() not in (1, -1):
            raise AssertionError("U not unimodular")
        if self.v.det() not in (1, -1):
            raise AssertionError("V not unimodular")
        if self.u @ self.u_inv != IntMatrix.identity(self.u.nrows):
            raise AssertionError("U*U_inv != I")


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
               u: list[list[int]] | None, v: list[list[int]] | None,
               u_inv_t: list[list[int]] | None) -> None:
    """Diagonalize ``m`` in place; mirror the moves into the transforms given.

    ``u_inv_t`` holds the transpose of U^{-1}.  Each row move E on U is
    mirrored as U^{-1} <- U^{-1} E^{-1}, a column move on U^{-1}, which on
    the transpose is again a row move.

    Pivots are always chosen with minimal absolute value to keep
    intermediate entries small; this is the classical guard against
    coefficient blow-up in fraction-free elimination.
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
        if v is not None:
            for row in v:
                row[j], row[k] = row[k], row[j]

    def row_sub(i: int, k: int, q: int) -> None:
        # row i -= q * row k; its inverse adds q * column i to column k
        m[i] = [x - q * y for x, y in zip(m[i], m[k])]
        if u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        if u_inv_t is not None:
            u_inv_t[k] = [x + q * y for x, y in zip(u_inv_t[k], u_inv_t[i])]

    def col_sub(j: int, k: int, q: int) -> None:
        # column j -= q * column k
        for row in m:
            row[j] -= q * row[k]
        if v is not None:
            for row in v:
                row[j] -= q * row[k]

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
        p = m[t][t]
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


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    >>> smith_normal_form(IntMatrix([[0]])).diagonal
    (0,)
    """
    nr, nc = a.shape
    m = a.to_lists()
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()
    u_inv_t = IntMatrix.identity(nr).to_lists()
    _eliminate(m, nr, nc, u, v, u_inv_t)
    return SmithForm(IntMatrix(u, ncols=nr), IntMatrix(m, ncols=nc),
                     IntMatrix(v, ncols=nc), IntMatrix(zip(*u_inv_t), ncols=nr))


def sparse_smith_diagonal(rows: Iterable[Iterable[tuple[int, int]]],
                          ncols: int) -> tuple[int, ...]:
    """The Smith diagonal of a matrix given as sparse rows, without transforms.

    Row i lists its nonzero entries as (column, entry) pairs, each column
    below ``ncols`` at most once.  The result is canonical (invariant
    factors are unique), which frees this path to run a cheaper elimination
    than smith_normal_form: unit entries split off a diag(1) summand after
    one sparse column clearing, and only the leftover block goes through
    the dense routine.  Incidence matrices, which are almost entirely unit
    entries, reduce in roughly linear time this way.
    """
    work = [dict(row) for row in rows]
    cols: list[set[int]] = [set() for _ in range(ncols)]
    ones: list[tuple[int, int]] = []
    for i, row in enumerate(work):
        for j, x in row.items():
            cols[j].add(i)
            if x in (1, -1):
                ones.append((i, j))
    alive_rows = set(range(len(work)))
    alive_cols = set(range(ncols))
    units = 0
    head = 0
    while head < len(ones):
        i, j = ones[head]
        head += 1
        if i not in alive_rows or j not in alive_cols:
            continue
        val = work[i].get(j, 0)
        if val not in (1, -1):
            continue
        pivot_row = work[i]
        for k in list(cols[j]):
            if k == i or k not in alive_rows:
                continue
            q = work[k][j] * val
            target = work[k]
            for jj, x in pivot_row.items():
                if jj not in alive_cols:
                    continue
                new = target.get(jj, 0) - q * x
                if new == 0:
                    if jj in target:
                        del target[jj]
                        cols[jj].discard(k)
                else:
                    target[jj] = new
                    cols[jj].add(k)
                    if new in (1, -1):
                        ones.append((k, jj))
        alive_rows.discard(i)
        alive_cols.discard(j)
        units += 1
    sub_rows = sorted(alive_rows)
    sub_cols = sorted(alive_cols)
    m = [[work[i].get(j, 0) for j in sub_cols] for i in sub_rows]
    _eliminate(m, len(sub_rows), len(sub_cols), None, None, None)
    rest = tuple(m[i][i] for i in range(min(len(sub_rows), len(sub_cols))))
    return (1,) * units + rest


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith form of a dense matrix, without transforms."""
    return sparse_smith_diagonal(
        [[(j, x) for j, x in enumerate(row) if x] for row in a.rows()], a.ncols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis for the integer kernel {x : A x = 0}, as matrix columns.

    The basis spans a saturated sublattice: any integer solution is an
    integer combination of the returned columns.
    """
    sf = smith_normal_form(a)
    free = [j for j in range(a.ncols)
            if j >= len(sf.diagonal) or sf.diagonal[j] == 0]
    return sf.v.take_columns(free)


class Lattice(NamedTuple):
    """A lattice basis (as columns) together with a Smith form of that basis.

    Every solve against the lattice, and every reading of the quotient of
    the ambient space by it, can share ``form``.
    """

    basis: IntMatrix
    form: SmithForm


def column_lattice(a: IntMatrix) -> Lattice:
    """The lattice spanned by the columns of A, from one Smith form of A.

    With U*A*V = D of rank r, the column span of A equals the column span
    of B = U^{-1} D_r, the first r columns of U^{-1} D, which are
    independent.  Since U*B = D_r, the form (U, D_r, I, U^{-1}) of B comes
    for free: no elimination of B, whose entries are large, is needed.
    """
    sf = smith_normal_form(a)
    factors = sf.invariant_factors()
    r = len(factors)
    cols = [[x * d for x in sf.u_inv.column(j)] for j, d in enumerate(factors)]
    form = SmithForm(sf.u, IntMatrix.diagonal(factors, a.nrows, r),
                     IntMatrix.identity(r), sf.u_inv)
    return Lattice(IntMatrix.from_columns(cols, nrows=a.nrows), form)
