"""The NK correction separating K-theory from homotopy K-theory.

In the bottom negative degree the difference is a single Du Bois invariant:
the image of NK in degree 1-n is a k-vector space whose dimension is
b^{0,n-1}, and K in that degree is an extension of KH by it.  The invariants
themselves are inputs; they require resolution differentials this package
does not model, and they are only defined here for isolated singular points.
"""

from __future__ import annotations

from typing import NamedTuple

from .intmat import _Checked
from .khasm import KhReport


class MissingEntryError(ValueError):
    """A required Du Bois entry is absent from the table."""


class NonIsolatedError(ValueError):
    """Du Bois bookkeeping is only defined at isolated singular points."""


class DuBoisTable(_Checked, NamedTuple("DuBoisTable", [
        ("entries", dict[tuple[int, int], int]), ("isolated", bool)])):
    """Du Bois invariants b^{p,q} of one isolated singular point.

    ``entries`` maps (p, q) to a nonnegative length.  A table with
    ``isolated`` unset is carried but refused by every consumer; there is
    no honest NK answer for non-isolated singularities.
    """

    __slots__ = ()

    def __new__(cls, entries: dict[tuple[int, int], int], isolated: bool = True) -> DuBoisTable:
        self = tuple.__new__(cls, (entries, isolated))
        for (p, q), b in self.entries.items():
            if b < 0:
                raise ValueError(f"negative Du Bois invariant b^{{{p},{q}}} = {b}")
        return self


class KReport(NamedTuple):
    """K-theory in degree 1-n: an extension of KH by a vector space.

    ``v_dim`` is b^{0,n-1}, the dimension of the vector-space kernel of
    K → KH; when it is zero the two theories agree in this degree.  NK in
    degree 1-n is that space tensored with tQ[t]: countably infinite
    dimensional over k when ``v_dim`` is positive, and zero exactly when it
    is zero; ``nk_shape`` spells it out.  ``surjectivity_note`` records
    that one degree up, K → KH is onto.
    """

    kh: KhReport
    v_dim: int
    nk_shape: str
    surjectivity_note: bool
    k_equals_kh: bool


def k_report(kh: KhReport, b: DuBoisTable) -> KReport:
    """Attach the NK layer, read off b^{0,n-1} alone, to a finished KH report."""
    if not b.isolated:
        raise NonIsolatedError(
            "NK in degree 1-n is only computed for isolated singular points")
    v = b.entries.get((0, kh.n - 1))
    if v is None:
        raise MissingEntryError(f"Du Bois table has no entry (0, {kh.n - 1})")
    return KReport(
        kh=kh,
        v_dim=v,
        nk_shape=f"{v}-dim V ⊗ tQ[t]" if v else "0",
        surjectivity_note=True,
        k_equals_kh=v == 0,
    )
