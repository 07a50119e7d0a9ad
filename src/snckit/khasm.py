"""Descriptors for the negative homotopy K-theory of a resolved singularity.

The inputs are the dual complex of the exceptional divisor and the
Neron-Severi data of its strata; the outputs are structured reports that
track, piece by piece, which parts of KH in degrees 1-n and -n are computed
exactly and which are only bounded by an opaque differential or by the
points of a semiabelian group.

Divisible groups (tori, abelian varieties) never appear as actual groups:
the torus is carried as a rank plus a finite root-of-unity part, abelian
pieces as a dimension.  Every honest group in a report is finitely
generated and in canonical form.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .abgroup import (
    FgAbGroup,
    Hom,
    _canonical_rows,
    compose,
    direct_sum,
    kernel_coordinates,
)
from .chaincx import cohomology, homology
from .intmat import IntMatrix, _Checked, eliminate
from .snc import SncDivisor, validate_snc

ALGEBRAICALLY_CLOSED = "algebraically_closed"
GENERAL_FIELD = "general"
_FIELD_MODES = (ALGEBRAICALLY_CLOSED, GENERAL_FIELD)


class TorusDescriptor(NamedTuple):
    """The torus part of the units cohomology of the dual complex.

    ``rank`` counts copies of the multiplicative group; ``mu_part`` is the
    finite root-of-unity contribution that a universal-coefficient reading
    of H^{n-1}(D(E), units) retains but a plain tensor reading kills.  The
    two readings disagree exactly when ``mu_ambiguous`` is set; both values
    are reported rather than silently choosing one.

    Over a general field the computation is only valid when the relevant
    homology is torsion-free; otherwise the descriptor is undetermined.
    """

    rank: int
    mu_part: FgAbGroup
    field_mode: str
    determined: bool = True
    mu_ambiguous: bool = False

    def is_trivial_group(self) -> bool:
        return self.determined and self.rank == 0 and self.mu_part.is_trivial()

    def __str__(self) -> str:
        return self._text(str)

    def _text(self, group_text: Callable[[FgAbGroup], str]) -> str:
        """The descriptor's text, with ``group_text`` writing its group's."""
        if not self.determined:
            return "undetermined (general field, torsion obstructs)"
        parts = [f"torus rank {self.rank}"]
        if not self.mu_part.is_trivial():
            parts.append(f"mu-part {group_text(self.mu_part)}"
                         + (" [ambiguous]" if self.mu_ambiguous else ""))
        return ", ".join(parts)


def torus_descriptor(hn1: FgAbGroup, hn2_homology_torsion_free: bool,
                     field_mode: str) -> TorusDescriptor:
    """Read the torus H^{n-1}(D(E), units) off integral cohomology.

    Over an algebraically closed field the rank is the free rank of
    H^{n-1}(D(E), Z) and the torsion survives as roots of unity.  Over a
    general field the same reading needs H_{n-2}(D(E), Z) torsion-free;
    without that hypothesis nothing is claimed.
    """
    if field_mode not in _FIELD_MODES:
        raise ValueError(f"unknown field mode {field_mode!r}")
    if field_mode == GENERAL_FIELD and not hn2_homology_torsion_free:
        return TorusDescriptor(0, FgAbGroup(0), field_mode, determined=False)
    mu = FgAbGroup(0, hn1.torsion)
    return TorusDescriptor(hn1.free_rank, mu, field_mode,
                           determined=True, mu_ambiguous=not mu.is_trivial())


class PicardLevel(_Checked, NamedTuple("PicardLevel", [
        ("p", int), ("ns", FgAbGroup), ("pic0_dim", int)])):
    """Neron-Severi group and abelian-variety dimension at one level."""

    __slots__ = ()

    def __new__(cls, p: int, ns: FgAbGroup, pic0_dim: int) -> PicardLevel:
        self = tuple.__new__(cls, (p, ns, pic0_dim))
        if tuple(map(type, self)) != (int, FgAbGroup, int):
            raise ValueError(f"p and pic0_dim must be ints and ns an FgAbGroup, got {self!r}")
        if self.pic0_dim < 0:
            raise ValueError(f"negative Pic^0 dimension at level {self.p}")
        return self


class PicardInput(_Checked, NamedTuple("PicardInput", [
        ("n", int), ("levels", tuple[PicardLevel, ...]), ("maps", tuple[Hom, ...]),
        ("coker_pic0_dim", int), ("ker_beta_known", FgAbGroup | None)])):
    """User-supplied Picard-side data of the stratum levels.

    The levels must be exactly p = n-4, n-3, n-2 in that order (the first
    absent when n = 3); ``maps`` holds the pullback map from each level to
    the next, and two maps must compose to zero; construction raises
    ``ValueError`` otherwise.  The cokernel dimension of the induced map on
    abelian-variety parts is an input, not something the combinatorics can
    know.
    """

    __slots__ = ()

    def __new__(cls, n: int, levels: tuple[PicardLevel, ...], maps: tuple[Hom, ...],
                coker_pic0_dim: int, ker_beta_known: FgAbGroup | None = None) -> PicardInput:
        self = tuple.__new__(cls, (n, levels, maps, coker_pic0_dim, ker_beta_known))
        if (tuple(map(type, self[:4])) != (int, tuple, tuple, int)
                or {*map(type, self.levels)} - {PicardLevel} or {*map(type, self.maps)} - {Hom}
                or type(self.ker_beta_known) not in (FgAbGroup, type(None))):
            raise ValueError("n and coker_pic0_dim must be ints, levels a tuple of PicardLevel, "
                             "maps a tuple of Hom and ker_beta_known an FgAbGroup or None")
        if self.coker_pic0_dim < 0:
            raise ValueError("negative coker(Pic^0) dimension")
        ps = [lv.p for lv in self.levels]
        want = list(range(self.n - 3 if self.n == 3 else self.n - 4, self.n - 1))
        if ps != want:
            raise ValueError(f"expected levels {want}, got {ps}")
        if len(self.maps) != len(self.levels) - 1:
            raise ValueError(
                f"{len(self.maps)} maps for {len(self.levels)} levels")
        for k, h in enumerate(self.maps):
            if h.source != self.levels[k].ns or h.target != self.levels[k + 1].ns:
                raise ValueError(f"map {k} does not join levels {ps[k]} and {ps[k + 1]}")
        if len(self.maps) == 2 and not compose(self.maps[1], self.maps[0]).is_zero():
            raise ValueError(
                f"NS maps do not compose to zero between levels {ps[0]} and {ps[2]}")
        return self


def ns_analysis(pi: PicardInput) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup, Hom]:
    """ker(NS), coker(NS), the lattice Gamma, and the surjection ker(NS) -> Gamma.

    NS is the last pullback map.  Gamma is the cohomology of the NS complex
    one step before its end: it equals ker(NS) when there is no level below
    n-3 or its map is zero, and a nonzero lower map cuts it down to a proper
    quotient.  It is computed on the same kernel-lattice basis as ker(NS),
    so the surjection comes out as an explicit matrix.  One call of
    ``kernel_coordinates`` rewrites [incoming | relations] on that basis:
    solving works column by column, so the relations' own columns of that
    solution are the relations of ker(NS).  coker(NS) comes from the same
    call.

    The surjection is the rows of U_Gamma * L at Gamma's canonical
    generators, where L holds the columns of U^{-1} at ker(NS)'s, U^{-1}
    from eliminating ker(NS)'s relations.  Gamma's elimination carries L
    in U's slot, so it ends as U_Gamma * L and no product is taken.  A
    lattice without relations, as on a torsion-free source of NS, is free
    on the basis and needs no elimination; for ker(NS), L is the identity.
    """
    main = pi.maps[-1]
    incoming = (pi.maps[0].matrix if len(pi.maps) == 2
                else IntMatrix.zero(main.source.ngens, 0))

    rels_gamma, size, coker_ns = kernel_coordinates(main, incoming)
    if rels_gamma is None:  # pragma: no cover
        raise AssertionError("relations escaped the kernel lattice")
    rels_ker = rels_gamma.take_columns(range(incoming.ncols, rels_gamma.ncols))
    gamma = ker_ns = FgAbGroup(size)
    matrix = IntMatrix.identity(size)
    if rels_ker.ncols:
        diag, _, _, u_inv = eliminate(rels_ker, u_inv=True)
        ker_ns, order = _canonical_rows(diag, size)
        matrix = u_inv.take_columns(order)
    if rels_gamma.ncols:
        diag, matrix, _, _ = eliminate(rels_gamma, u=matrix)
        gamma, order = _canonical_rows(diag, size)
        matrix = matrix.take_rows(order)
    return ker_ns, coker_ns, gamma, Hom(ker_ns, gamma, matrix)


class OneMotiveDescriptor(NamedTuple):
    """The two lattices and the semiabelian shape of the associated 1-motive.

    The lattice map into the semiabelian group is not determined by our
    inputs, so ``map_status`` stays opaque; what is stored exactly is the
    surjection from the primed lattice (ker NS) onto the unprimed one
    (Gamma), as its matrix on the canonical generators of the two lattices.
    """

    lattice_lprime: FgAbGroup
    lattice_l: FgAbGroup
    surjection_matrix: IntMatrix
    torus: TorusDescriptor
    abelian_dim: int
    map_status: str = "opaque"


class GroupValue(NamedTuple):
    """A finitely generated group, known exactly or only as a bound.

    When ``exact`` is false the true group is a quotient of ``group`` (or,
    for assembled extensions, shares its rank); ``note`` says which opaque
    ingredient is responsible.
    """

    group: FgAbGroup
    exact: bool
    note: str = ""

    def __str__(self) -> str:
        return self._text(str)

    def _text(self, group_text: Callable[[FgAbGroup], str]) -> str:
        """The value's text, with ``group_text`` writing its group's."""
        tag = "exact" if self.exact else "bound"
        suffix = f"; {self.note}" if self.note else ""
        return f"{group_text(self.group)} ({tag}{suffix})"


class SesDescriptor(NamedTuple):
    """A short exact sequence 0 → sub → total → quotient → 0, tagged.

    ``total`` is resolved to an actual group only when both ends are exact
    and the extension is forced (free quotient, or a trivial end); even
    unresolved, its free rank is the sum of the end ranks.
    """

    sub: GroupValue
    quotient: GroupValue
    total: GroupValue
    split: bool


def assemble_extension(sub: GroupValue, quotient: GroupValue) -> SesDescriptor:
    """Resolve an extension of ``quotient`` by ``sub`` where possible; the
    direct sum of the ends is built only where it is returned."""
    if sub.exact and quotient.exact:
        if quotient.group.is_trivial():
            return SesDescriptor(sub, quotient, GroupValue(sub.group, True), True)
        if sub.group.is_trivial():
            return SesDescriptor(sub, quotient, GroupValue(quotient.group, True), True)
        bound = direct_sum([sub.group, quotient.group])
        if quotient.group.is_free():
            return SesDescriptor(
                sub, quotient,
                GroupValue(bound, True, "split: free quotient"), True)
        return SesDescriptor(
            sub, quotient,
            GroupValue(bound, False, "extension unresolved; rank exact"), False)
    return SesDescriptor(sub, quotient, GroupValue(
        direct_sum([sub.group, quotient.group]), False, "an end is not exact"), False)


class UnitsCohomology(NamedTuple):
    """The units cohomology of the exceptional divisor, piece by piece.

    It is an extension of coker(Pic) by the torus; coker(Pic) in turn is an
    extension of the exactly computed coker(NS) by the image of a map beta
    out of a divisible group of dimension ``coker_pic0_dim``.  The kernel
    of beta is finitely generated because ker(NS) surjects onto it.
    """

    torus: TorusDescriptor
    coker_pic0_dim: int
    ker_beta: GroupValue
    coker_ns: FgAbGroup
    coker_pic: GroupValue


class KerAlphaDescriptor(NamedTuple):
    """ker(alpha) as an extension of im(d_2) by ker(beta).

    ``ker_ns_bound`` is the standing resolution-independent bound: whatever
    ker(beta) turns out to be, it is a quotient of ker(NS).
    """

    ses: SesDescriptor
    ker_ns_bound: FgAbGroup


class KhReport(NamedTuple):
    """Everything computed about KH in degrees -n and 1-n of the base.

    ``kh_top`` is exact in every case.  ``kh_value`` describes the degree
    1-n group as an extension; it is an honest finitely generated group
    only when ``kh_is_finitely_generated`` is set (trivial torus and no
    divisible Picard part), and exact only when additionally no opaque
    differential intervenes.

    The report records are the JSON schema and what the CLI's JSON
    writer walks: one key per field, in field order, all the way down.
    """

    n: int
    field_mode: str
    kh_top: FgAbGroup
    h_n_minus_3: FgAbGroup
    h_n_minus_2: FgAbGroup
    units_cohomology: UnitsCohomology
    one_motive: OneMotiveDescriptor
    kh_value: SesDescriptor
    kh_is_finitely_generated: bool
    ker_alpha: KerAlphaDescriptor
    coker_alpha: SesDescriptor
    n3_exact: bool
    d2_top_known_zero: bool


def kh_report(d: SncDivisor, pi: PicardInput,
              field_mode: str = ALGEBRAICALLY_CLOSED) -> KhReport:
    """Assemble the full degree 1-n report from divisor plus Picard data."""
    if field_mode not in _FIELD_MODES:
        raise ValueError(f"unknown field mode {field_mode!r}")
    cx = validate_snc(d).chain_complex()
    n = d.n
    if pi.n != n:
        raise ValueError(f"Picard data is for n = {pi.n}, divisor has n = {n}")
    top = cohomology(cx, n - 1)
    hn3 = cohomology(cx, n - 3)
    hn2 = cohomology(cx, n - 2)

    ker_ns, coker_ns, gamma, surjection = ns_analysis(pi)
    td = torus_descriptor(top, homology(cx, n - 2).is_free(), field_mode)

    # The divisible piece inside coker(Pic) dies only when its dimension is
    # zero AND taking points is exact, i.e. over an algebraically closed
    # field; a zero-dimensional cokernel of varieties can still leave
    # rational-point torsion behind otherwise.
    divisible_trivial = (pi.coker_pic0_dim == 0
                         and field_mode == ALGEBRAICALLY_CLOSED)

    if pi.ker_beta_known is not None:
        ker_beta = GroupValue(pi.ker_beta_known, True, "supplied with input")
    elif divisible_trivial:
        ker_beta = GroupValue(FgAbGroup(0), True,
                              "coker(Pic^0) has no points")
    else:
        ker_beta = GroupValue(ker_ns, False,
                              "a quotient of ker(NS); divisible part opaque")

    coker_pic = GroupValue(
        coker_ns, divisible_trivial,
        "" if divisible_trivial else "finitely generated part only; "
        "extension by an image of the divisible piece")
    units = UnitsCohomology(
        torus=td,
        coker_pic0_dim=pi.coker_pic0_dim,
        ker_beta=ker_beta,
        coker_ns=coker_ns,
        coker_pic=coker_pic,
    )

    one_motive = OneMotiveDescriptor(
        lattice_lprime=ker_ns,
        lattice_l=gamma,
        surjection_matrix=surjection.matrix,
        torus=td,
        abelian_dim=pi.coker_pic0_dim,
    )

    d2_known_zero = n == 3 or hn3.is_trivial()

    # The sub-group is the E_3 corner (n-1, 0) of the descent spectral
    # sequence, whose finitely generated part on page 2 is coker(NS).  The
    # only d_2 that reaches it leaves (n-3, 1) = H^{n-3}, so it is exact
    # exactly when that differential is known to vanish.
    kh_is_fg = td.is_trivial_group() and divisible_trivial
    sub_note = []
    if not d2_known_zero:
        sub_note.append("modulo the image of the degree-2 differential")
    if not kh_is_fg:
        sub_note.append("finitely generated part only")
    kh_sub = GroupValue(coker_ns, d2_known_zero and kh_is_fg,
                        "; ".join(sub_note))
    kh_value = assemble_extension(kh_sub, GroupValue(hn2, True))

    if d2_known_zero:
        im_d2 = GroupValue(FgAbGroup(0), True,
                           "the degree-2 differential vanishes")
    else:
        im_d2 = GroupValue(hn3, False, "image of an opaque map out of H^{n-3}")
    ker_alpha = KerAlphaDescriptor(
        ses=assemble_extension(ker_beta, im_d2),
        ker_ns_bound=ker_ns,
    )

    coker_alpha = assemble_extension(
        GroupValue(coker_ns, True), GroupValue(hn2, True))

    return KhReport(
        n=n,
        field_mode=field_mode,
        kh_top=top,
        h_n_minus_3=hn3,
        h_n_minus_2=hn2,
        units_cohomology=units,
        one_motive=one_motive,
        kh_value=kh_value,
        kh_is_finitely_generated=kh_is_fg,
        ker_alpha=ker_alpha,
        coker_alpha=coker_alpha,
        n3_exact=n == 3,
        d2_top_known_zero=d2_known_zero,
    )
