"""SNC divisor validation, dual complexes, blowups, and resolution."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Stratum,
    Z,
    ZERO_GROUP,
    alt_chain_complex,
    blowup,
    brute_force_bad,
    divisor_of,
    euler_characteristic,
    full_simplex,
    homology,
    interval_divisor,
    moore_family,
    parallel_curve_divisor,
    parallel_edges,
    random_divisor,
    reference_validate,
    rp2_divisor,
    scan_blowup,
    scan_resolve,
    simplex_divisor,
    sphere4,
    strata_of,
    triangle_cycle,
    validate_complex,
)
from snckit import snc
from snckit import (
    SncDivisor,
    blowup_point_on_double_curve,
    cohomology,
    find_bad_intersections,
    resolve_to_simplicial,
    validate_snc,
)
from snckit.snc import (
    ResolutionLimitError,
    SncError,
    _StrataTable,
)


def cohomology_profile(d: SncDivisor, up_to: int | None = None):
    cx = validate_snc(d).chain_complex()
    top = up_to if up_to is not None else max(d.n, len(cx.ranks))
    return tuple(cohomology(cx, i) for i in range(top))


# ---------------------------------------------------------------------------
# validation


def test_single_curve_is_valid():
    validate_snc(SncDivisor.build(3, ["1", "2"], [("c", ("1", "2"), {})]))


def test_closure_violation():
    d = SncDivisor.build(3, ["1", "2", "3"], [
        ("t", ("1", "2", "3"), {"1": "x", "2": "x", "3": "x"}),
    ])
    with pytest.raises(SncError, match=r"^stratum t needs a stratum on \('2', '3'\), "
                                        r"found none$"):
        validate_snc(d)


def test_dimension_bounds():
    with pytest.raises(SncError, match=r"^stratum t intersects 3 components in ambient "
                                        r"dimension 2$"):
        validate_snc(SncDivisor.build(2, ["1", "2", "3"], [
            ("c12", ("1", "2"), {}),
            ("c13", ("1", "3"), {}),
            ("c23", ("2", "3"), {}),
            ("t", ("1", "2", "3"), {"1": "c23", "2": "c13", "3": "c12"}),
        ]))
    with pytest.raises(SncError, match=r"^stratum s intersects 1 component\(s\); "
                                        r"need at least 2$"):
        validate_snc(SncDivisor.build(3, ["1"], [("s", ("1",), {})]))


def test_duplicate_ids_rejected():
    with pytest.raises(SncError, match="^duplicate component id$"):
        validate_snc(SncDivisor.build(3, ["1", "1"], []))
    with pytest.raises(SncError, match="^id 'c' used more than once$"):
        validate_snc(SncDivisor.build(3, ["1", "2"], [
            ("c", ("1", "2"), {}),
            ("c", ("1", "2"), {}),
        ]))
    # a stratum id colliding with a component id is also ambiguous
    with pytest.raises(SncError, match="^id '1' used more than once$"):
        validate_snc(SncDivisor.build(3, ["1", "2"], [("1", ("1", "2"), {})]))


def test_containment_mismatches():
    base = [("c12", ("1", "2"), {}), ("c13", ("1", "3"), {}),
            ("c23", ("2", "3"), {})]
    one_per_drop = "^stratum t must name one parent per dropped component$"
    # missing parent key
    with pytest.raises(SncError, match=one_per_drop):
        validate_snc(SncDivisor.build(3, ["1", "2", "3"],
                                      base + [("t", ("1", "2", "3"),
                                               {"1": "c23", "2": "c13"})]))
    # extra key
    with pytest.raises(SncError, match=one_per_drop):
        validate_snc(SncDivisor.build(3, ["1", "2", "3"],
                                      base + [("t", ("1", "2", "3"),
                                               {"1": "c23", "2": "c13",
                                                "3": "c12", "4": "c12"})]))
    # parent with the wrong subset
    with pytest.raises(SncError, match=r"^stratum t: parent 'c23' for dropped '2' is not "
                                        r"a stratum on \('1', '3'\)$"):
        validate_snc(SncDivisor.build(3, ["1", "2", "3"],
                                      base + [("t", ("1", "2", "3"),
                                               {"1": "c23", "2": "c23",
                                                "3": "c12"})]))
    # parent id that does not exist at all
    with pytest.raises(SncError, match=r"^stratum t: parent 'ghost' for dropped '2' is not "
                                        r"a stratum on \('1', '3'\)$"):
        validate_snc(SncDivisor.build(3, ["1", "2", "3"],
                                      base + [("t", ("1", "2", "3"),
                                               {"1": "c23", "2": "ghost",
                                                "3": "c12"})]))
    # depth-2 strata must have no parents
    with pytest.raises(SncError, match="^stratum c of depth 2 must not list parents$"):
        validate_snc(SncDivisor.build(3, ["1", "2"],
                                      [("c", ("1", "2"), {"1": "2"})]))


def quad_skeleton(with_doubles: bool):
    """Full skeleton on four components, optionally doubling one curve."""
    comps = ["1", "2", "3", "4"]
    strata = []
    for a, b in (("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"),
                 ("3", "4")):
        strata.append((f"c{a}{b}", (a, b), {}))
    if with_doubles:
        strata.append(("c12bis", ("1", "2"), {}))
    for a, b, c in (("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"),
                    ("2", "3", "4")):
        strata.append((f"t{a}{b}{c}", (a, b, c),
                       {a: f"c{b}{c}", b: f"c{a}{c}", c: f"c{a}{b}"}))
    return comps, strata


def test_commutation_only_binds_depth_four():
    comps, strata = quad_skeleton(with_doubles=True)
    quad = ("q", ("1", "2", "3", "4"),
            {"1": "t234", "2": "t134", "3": "t124", "4": "t123"})
    validate_snc(SncDivisor.build(4, comps, strata + [quad]))

    # attach t124 to the other copy of the doubled curve {1,2}: dropping 3
    # then 4 from the quadruple point must land where dropping 4 then 3 does
    twisted = []
    for sid, sub, par in strata:
        par = dict(par)
        if sid == "t124":
            par["4"] = "c12bis"
        twisted.append((sid, sub, par))
    with pytest.raises(SncError, match="^stratum q: dropping '3' then '4' gives 'c12bis' "
                                       "but '4' then '3' gives 'c12'$"):
        validate_snc(SncDivisor.build(4, comps, twisted + [quad]))
    # without the quadruple point the same divisor is fine: nothing of
    # depth four forces the two routes to agree
    validate_snc(SncDivisor.build(4, comps, twisted))


def test_random_corpus_is_valid():
    rng = random.Random(31)
    for _ in range(100):
        validate_snc(random_divisor(rng))


# ---------------------------------------------------------------------------
# dual complex


def test_full_simplex_dual_counts_and_euler():
    dc = validate_snc(full_simplex())
    assert dc.ranks() == (3, 3, 1)
    cx = dc.chain_complex()
    assert euler_characteristic(cx) == 1
    assert homology(cx, 0) == Z
    assert homology(cx, 1) == ZERO_GROUP
    assert homology(cx, 2) == ZERO_GROUP


def test_triangle_cycle_is_a_circle():
    assert cohomology_profile(triangle_cycle(), 2) == (Z, Z)


def test_parallel_edges_dual_complex():
    dc = validate_snc(parallel_edges())
    assert dc.ranks() == (2, 2)
    assert [s.subset for s in strata_of(parallel_edges())] == [("1", "2")] * 2
    assert cohomology_profile(parallel_edges(), 2) == (Z, Z)


def test_edge_boundary_orientation():
    dc = validate_snc(interval_divisor())
    # the edge c on vertices 1 < 2 has boundary 2 - 1; vertex 1 sits at 0
    assert dc.chain_complex().boundaries == (({0: -1}, {0: 1}),)


def test_dual_equals_alternating_complex_everywhere():
    named = [triangle_cycle(), parallel_edges(), full_simplex(), sphere4(),
             interval_divisor(), rp2_divisor(), simplex_divisor(5, list("abcdefg"), 5),
             *moore_family()]
    rng = random.Random(32)
    corpus = named + [random_divisor(rng) for _ in range(200)]
    # the same divisors with their strata shuffled, depths interleaved: the
    # cells of each dimension keep their relative order, whatever it is
    corpus += [divisor_of(d.n, d.components, rng.sample(strata_of(d), len(strata_of(d))))
               for d in corpus]
    for d in corpus:
        assert validate_snc(d).chain_complex() == alt_chain_complex(d)


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_face_rows_alternate_in_sign_at_every_depth(depth):
    # the full skeleton of depth ``depth`` on depth + 2 components, with
    # parallel copies of two top cells, canonical and shuffled
    comps = [f"E{i}" for i in range(depth + 2)]
    strata = list(strata_of(simplex_divisor(depth, comps, depth)))
    tops = [s for s in strata if len(s.subset) == depth][:2]
    copies = [Stratum(f"{s.id}~", s.subset, dict(s.parents)) for s in tops]
    strata += copies
    for order in (strata, random.Random(depth).sample(strata, len(strata))):
        d = divisor_of(depth, comps, order)
        cx = validate_snc(d).chain_complex()
        assert cx == alt_chain_complex(d)
        validate_complex(cx)
        # a parallel cell has the faces and signs of the cell it copies
        top = [s.id for s in order if len(s.subset) == depth]
        for s, copy in zip(tops, copies):
            a, b = top.index(s.id), top.index(copy.id)
            assert [row.get(a) for row in cx.boundaries[-1]] == [
                row.get(b) for row in cx.boundaries[-1]]


@st.composite
def mutated_divisors(draw):
    """A simplex skeleton of depth 3 to 6 with parallel copies of a few
    strata below the top, given up to three faults, its strata canonical
    or shuffled.

    The parent faults: a parent id swapped for any stratum's or for a copy
    of the parent, a parent key dropped, a key added for a component
    outside the subset, two parents of one stratum traded (each then on
    the wrong facet), a parent given to a stratum of depth 2, and a
    stratum deleted.  A copy names the parents of the stratum it copies,
    so a parent swapped for a copy is on its facet, but above a stratum
    below the top that names it the drops of two components land on
    different strata.  The own-rule faults: n lowered below the top
    depth, a stratum on one component inserted anywhere, and
    ``components`` cut short, so that the positions of the components cut
    off fall out of range.  Each lands on some stratum in divisor order,
    with parent faults before or after it.
    """
    depth = draw(st.integers(3, 6))
    comps = [f"E{i}" for i in range(draw(st.integers(depth, depth + 2)))]
    strata = list(strata_of(simplex_divisor(depth, comps, depth)))
    below = [s for s in strata if len(s.subset) < depth]
    copies: dict[str, str] = {}
    for s in draw(st.lists(st.sampled_from(below), min_size=1, max_size=3, unique_by=id)):
        copies[s.id] = f"{s.id}~"
        strata.append(Stratum(copies[s.id], s.subset, dict(s.parents)))
    ids = [s.id for s in strata]
    n, size = depth, len(comps)
    for k, kind in enumerate(draw(st.lists(st.sampled_from(
            ["swap", "copy", "drop", "extra", "trade", "depth-two", "delete",
             "low-n", "one-component", "short"]), max_size=3))):
        # a fault with no stratum to take it changes nothing
        edges = [s for s in strata if len(s.subset) == 2]
        named = [s for s in strata if s.parents and len(s.subset) >= 3]
        on_copied = [(s, c) for s in strata for c, pid in s.parents.items()
                     if pid in copies and len(s.subset) < depth]
        if kind == "delete":
            strata.remove(draw(st.sampled_from(strata)))
        elif kind == "low-n":
            n = draw(st.integers(2, depth - 1))
        elif kind == "one-component":
            strata.insert(draw(st.integers(0, len(strata))),
                          Stratum(f"solo{k}", (draw(st.sampled_from(comps)),), {}))
        elif kind == "short":
            size = draw(st.integers(1, len(comps) - 1))
        elif kind == "depth-two" and edges:
            s = draw(st.sampled_from(edges))
            s.parents[draw(st.sampled_from(s.subset))] = draw(st.sampled_from(ids))
        elif kind == "copy" and on_copied:
            s, c = draw(st.sampled_from(on_copied))
            s.parents[c] = copies[s.parents[c]]
        elif kind in ("swap", "drop", "extra", "trade") and named:
            s = draw(st.sampled_from(named))
            key = draw(st.sampled_from(sorted(s.parents)))
            others = [c for c in comps if c not in s.subset]
            if kind == "swap":
                s.parents[key] = draw(st.sampled_from(ids))
            elif kind == "drop":
                del s.parents[key]
            elif kind == "extra" and others:
                s.parents[draw(st.sampled_from(others))] = s.parents[key]
            elif kind == "trade" and len(s.parents) >= 2:
                other = draw(st.sampled_from([c for c in sorted(s.parents) if c != key]))
                s.parents[key], s.parents[other] = s.parents[other], s.parents[key]
    if draw(st.booleans()):
        strata = draw(st.permutations(strata))
    d = divisor_of(n, comps, strata)
    return d._replace(components=d.components[:size])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=mutated_divisors())
def test_validate_matches_the_stratum_by_stratum_walk(d):
    # Any other exception, an internal AssertionError among them, fails
    # the test: the CLI would exit 3 on it.
    try:
        want = reference_validate(d)
    except SncError as e:
        with pytest.raises(SncError) as got:
            validate_snc(d)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
    else:
        assert validate_snc(d) == want


def test_sphere4_is_a_three_sphere():
    assert cohomology_profile(sphere4(), 4) == (Z, ZERO_GROUP, ZERO_GROUP, Z)


# ---------------------------------------------------------------------------
# bad intersections


def test_bad_intersections_examples():
    bad, simplicial = find_bad_intersections(parallel_edges())
    assert not simplicial
    assert bad == [(("1", "2"), 2)]
    assert find_bad_intersections(full_simplex()) == ([], True)
    # the count needs no valid divisor: these triple points name no parents
    loose = SncDivisor.build(3, ("A", "B", "C"), [("s", ("A", "B", "C"), {}),
                                                  ("t", ("A", "B", "C"), {})])
    with pytest.raises(SncError):
        validate_snc(loose)
    assert find_bad_intersections(loose) == ([(("A", "B", "C"), 2)], False)


def test_bad_triple_stratum_derived_example():
    comps, strata = quad_skeleton(with_doubles=False)
    strata.append(("t123bis", ("1", "2", "3"),
                   {"1": "c23", "2": "c13", "3": "c12"}))
    d = SncDivisor.build(4, comps, strata)
    validate_snc(d)
    bad, simplicial = find_bad_intersections(d)
    assert not simplicial
    assert bad == [(("1", "2", "3"), 2)]
    dup, brute_simplicial = brute_force_bad(d)
    assert not brute_simplicial
    assert dup == {frozenset(("1", "2", "3")): 2}


def test_bad_agrees_with_brute_force_on_random_corpus():
    rng = random.Random(33)
    for _ in range(120):
        d = random_divisor(rng)
        dup, brute_simplicial = brute_force_bad(d)
        bad, simplicial = find_bad_intersections(d)
        assert simplicial == brute_simplicial
        assert {frozenset(s): c for s, c in bad} == dup


# ---------------------------------------------------------------------------
# blowups


def test_blowup_parallel_edge_gives_three_cycle():
    before = cohomology_profile(parallel_edges(), 2)
    after, record = blowup(parallel_edges(), "ca")
    validate_snc(after)
    assert after.components == ("1", "2", "exc1")
    assert record.center == "ca"
    assert record.new_component == "exc1"
    assert record.removed == ("ca",)
    # both ca and cb leave the bad set: ca is replaced and cb becomes the
    # sole component over {1, 2}, so the bad component count drops 2 -> 0
    assert record.bad_decrement == 2
    assert not record.point_blowup
    bad, simplicial = find_bad_intersections(after)
    assert simplicial
    dc = validate_snc(after)
    assert dc.ranks() == (3, 3)
    assert cohomology_profile(after, 2) == before == (Z, Z)


def test_blowup_center_under_parallel_cells_keeps_their_interiors():
    # two triple components glued along the same three curves: the dual
    # complex is two triangles sharing their whole boundary, a 2-sphere
    base = full_simplex()
    twin = Stratum("t2", ("E1", "E2", "E3"),
                   {"E1": "c23", "E2": "c13", "E3": "c12"})
    d = divisor_of(base.n, base.components, strata_of(base) + (twin,))
    validate_snc(d)
    sphere = cohomology_profile(d, 3)
    assert sphere == (Z, ZERO_GROUP, Z)

    # the doubled curve's cell sits under both 2-cells; each must be
    # refilled by its own pair of cones or a rank of H^2 disappears
    after, record = blowup(d, "c12")
    validate_snc(after)
    assert set(record.removed) == {"c12", "t", "t2"}
    assert cohomology_profile(after, 3) == sphere
    dc = validate_snc(after)
    assert dc.ranks() == (4, 6, 4)
    names = {s.id for s in strata_of(after)}
    assert {"exc1|c13", "exc1|c23", "exc1|c13~0", "exc1|c23~0"} <= names


def test_blowup_triple_point_is_stellar_subdivision():
    d = full_simplex()
    before = cohomology_profile(d, 3)
    after, record = blowup(d, "t")
    dc = validate_snc(after)
    assert dc.ranks() == (4, 6, 3)
    # the new vertex is joined to all three old ones
    new_edges = {s.subset for s in strata_of(after) if len(s.subset) == 2 and "exc1" in s.subset}
    assert new_edges == {("E1", "exc1"), ("E2", "exc1"), ("E3", "exc1")}
    assert cohomology_profile(after, 3) == before


def test_blowup_preserves_cohomology_on_random_corpus():
    rng = random.Random(34)
    checked = 0
    while checked < 60:
        d = random_divisor(rng)
        if not strata_of(d):
            continue
        target = rng.choice([s.id for s in strata_of(d)])
        after, record = blowup(d, target)
        validate_snc(after)
        assert record.removed
        top = max(d.n, 5)
        assert cohomology_profile(after, top) == cohomology_profile(d, top)
        checked += 1


def test_blowup_unknown_center():
    with pytest.raises(SncError, match="^no stratum component with id 'nope'$"):
        blowup(parallel_edges(), "nope")


def test_fresh_component_ids_avoid_collisions():
    d = SncDivisor.build(3, ["exc1", "x"], [("c", ("exc1", "x"), {})])
    after, record = blowup(d, "c")
    assert record.new_component == "exc2"
    validate_snc(after)

    # a multi-step resolve names past exc1 and exc2 and keeps counting
    d = SncDivisor.build(3, ["exc1", "x", "exc2", "y"], [
        ("a0", ("exc1", "x"), {}), ("a1", ("exc1", "x"), {}),
        ("b0", ("x", "exc2"), {}), ("b1", ("x", "exc2"), {}), ("b2", ("x", "exc2"), {}),
        ("e", ("exc2", "y"), {}),
    ])
    resolved, records = resolve_to_simplicial(d)
    assert [r.new_component for r in records] == ["exc3", "exc4", "exc5"]
    assert (resolved, records) == scan_resolve(d)
    validate_snc(resolved)

    # the point blowup takes the same next name, and so does a blowup after it
    after, record = blowup_point_on_double_curve(d, "e")
    assert record.new_component == "exc3"
    assert record.added == ("exc3|exc2", "exc3|y", "exc3|e")
    validate_snc(after)
    _, again = blowup(after, "a0")
    assert again.new_component == "exc4"


def test_new_component_ids_avoid_stratum_ids():
    # exc1 names a stratum, so the first blowup takes exc2; once exc1's
    # stratum is blown up itself, its name is free for the next component
    d = SncDivisor.build(3, ["a", "b", "e"], [
        ("c1", ("a", "b"), {}), ("c2", ("a", "b"), {}),
        ("exc1", ("a", "e"), {}), ("zz", ("a", "e"), {}),
    ])
    resolved, records = resolve_to_simplicial(d)
    assert [(r.center, r.new_component) for r in records] == [("c1", "exc2"),
                                                             ("exc1", "exc1")]
    assert (resolved, records) == scan_resolve(d)
    validate_snc(resolved)
    after, record = blowup_point_on_double_curve(d, "c1")
    assert record.new_component == "exc2"
    validate_snc(after)


def test_point_blowup_ids_take_the_cone_suffix_when_taken():
    d = SncDivisor.build(3, ["E1", "E2", "E3"], [("c", ("E1", "E2"), {}),
                                                 ("exc1|E1", ("E1", "E3"), {})])
    after, record = blowup_point_on_double_curve(d, "c")
    validate_snc(after)
    assert record.new_component == "exc1"
    assert record.added == ("exc1|E1~0", "exc1|E2", "exc1|c")
    by_id = {s.id: s for s in strata_of(after)}
    assert by_id["exc1|c"].parents == {"exc1": "c", "E1": "exc1|E2", "E2": "exc1|E1~0"}
    assert by_id["exc1|E1"].subset == ("E1", "E3")
    # the suffix also steps past a taken suffixed id
    d = SncDivisor.build(3, ["E1", "E2", "E3"], [("c", ("E1", "E2"), {}),
                                                 ("exc1|E1", ("E1", "E3"), {}),
                                                 ("exc1|E1~0", ("E2", "E3"), {})])
    after, record = blowup_point_on_double_curve(d, "c")
    validate_snc(after)
    assert record.added == ("exc1|E1~1", "exc1|E2", "exc1|c")


def test_point_blowup_on_interval_gives_triangle():
    d = interval_divisor()
    after, record = blowup_point_on_double_curve(d, "c")
    validate_snc(after)
    assert record.point_blowup
    assert record.removed == ()
    dc = validate_snc(after)
    assert dc.ranks() == (3, 3, 1)
    assert cohomology_profile(after, 3) == cohomology_profile(d, 3)
    # the curve survives and now carries a triple point with the new wall
    assert {s.id: s for s in strata_of(after)}["c"].subset == ("1", "2")
    triple = [s for s in strata_of(after) if len(s.subset) == 3]
    assert len(triple) == 1
    assert triple[0].parents["exc1"] == "c"


def test_point_blowup_twice_on_same_curve():
    d = interval_divisor()
    once, _ = blowup_point_on_double_curve(d, "c")
    twice, _ = blowup_point_on_double_curve(once, "c")
    validate_snc(twice)
    assert len(twice.components) == 4
    assert cohomology_profile(twice, 3) == cohomology_profile(d, 3)


def test_point_blowup_guards():
    with pytest.raises(SncError, match="^point blowup needs ambient dimension 3, got 4$"):
        blowup_point_on_double_curve(sphere4(), "E1+E2")
    with pytest.raises(SncError, match="^'t' is not a double-curve stratum component$"):
        blowup_point_on_double_curve(full_simplex(), "t")
    with pytest.raises(SncError, match="^'missing' is not a double-curve stratum component$"):
        blowup_point_on_double_curve(full_simplex(), "missing")


def test_point_blowup_intersection_table_in_star_configuration():
    """After blowing up a point on E1^E2, the new wall meets only E1, E2."""
    m = 5
    comps = [f"E{i}" for i in range(1, m + 1)]
    # E1 meets every other component; no deeper strata
    strata = [(f"c1{i}", ("E1", f"E{i}"), {}) for i in range(2, m + 1)]
    d = SncDivisor.build(3, comps, strata)
    validate_snc(d)
    before = cohomology_profile(d, 3)

    after, record = blowup_point_on_double_curve(d, "c12")
    validate_snc(after)
    new = record.new_component

    pairs = {s.subset for s in strata_of(after) if len(s.subset) == 2}
    # the old pairwise intersections are untouched, including E1 ^ E2
    assert {("E1", f"E{i}") for i in range(2, m + 1)} <= pairs
    # the exceptional wall meets exactly the two components through the point
    assert ("E1", new) in pairs and ("E2", new) in pairs
    assert all((f"E{i}", new) not in pairs for i in range(3, m + 1))
    # one new triple point, nothing else of depth three
    triples = [s for s in strata_of(after) if len(s.subset) == 3]
    assert [s.subset for s in triples] == [("E1", "E2", new)]
    assert cohomology_profile(after, 3) == before


# ---------------------------------------------------------------------------
# resolution


def test_resolve_leaves_simplicial_input_alone():
    d = full_simplex()
    resolved, records = resolve_to_simplicial(d)
    assert records == []
    assert resolved == d


def test_resolve_parallel_edges():
    resolved, records = resolve_to_simplicial(parallel_edges())
    assert len(records) == 1
    assert find_bad_intersections(resolved).is_simplicial
    dc = validate_snc(resolved)
    assert dc.ranks() == (3, 3)
    assert cohomology_profile(resolved, 2) == (Z, Z)


def test_resolve_handles_deepest_level_first():
    comps, strata = quad_skeleton(with_doubles=True)
    strata.append(("t123bis", ("1", "2", "3"),
                   {"1": "c23", "2": "c13", "3": "c12"}))
    d = SncDivisor.build(4, comps, strata)
    validate_snc(d)
    resolved, records = resolve_to_simplicial(d)
    assert find_bad_intersections(resolved).is_simplicial
    assert records[0].center in ("t123", "t123bis")
    # replaying the records reproduces the final divisor step by step
    replay = d
    for rec in records:
        if rec.point_blowup:
            replay, again = blowup_point_on_double_curve(replay, rec.center)
        else:
            replay, again = blowup(replay, rec.center)
        assert again == rec
    assert replay == resolved


def test_resolve_decreases_bad_count_strictly():
    rng = random.Random(35)
    seen_multi = 0
    for _ in range(80):
        d = random_divisor(rng)
        resolved, records = resolve_to_simplicial(d)
        assert find_bad_intersections(resolved).is_simplicial
        assert all(rec.bad_decrement >= 1 for rec in records)
        if len(records) >= 2:
            seen_multi += 1
    assert seen_multi > 5  # the corpus does exercise multi-step resolutions


def test_resolution_cap_raises_with_partial_state():
    with pytest.raises(ResolutionLimitError) as err:
        resolve_to_simplicial(parallel_edges(), max_blowups=0)
    assert err.value.records == []
    assert err.value.divisor == parallel_edges()


# ---------------------------------------------------------------------------
# the strata index against the full-rescan oracles


def oracle_corpus(seed: int, count: int) -> list[SncDivisor]:
    rng = random.Random(seed)
    corpus = [random_divisor(rng) for _ in range(count)]
    corpus += [parallel_curve_divisor(rng, m, extra)
               for m, extra in ((4, 3), (5, 6), (6, 10), (7, 16))]
    return corpus


def bad_count(d: SncDivisor) -> int:
    return sum(count for _, count in find_bad_intersections(d).bad)


def test_resolve_matches_the_full_rescan_oracle():
    multi = 0
    for d in oracle_corpus(36, 300):
        resolved, records = resolve_to_simplicial(d)
        expected, expected_records = scan_resolve(d)
        # record equality: every field, strata and records in order
        assert records == expected_records
        assert resolved == expected
        multi += len(records) >= 2
    assert multi > 50


def test_blowup_matches_the_scan_oracle_for_every_center():
    blowups = 0
    for d in oracle_corpus(37, 150):
        for s in strata_of(d):
            assert blowup(d, s.id) == scan_blowup(d, s.id)
            blowups += 1
    assert blowups > 1000


@pytest.mark.parametrize("n", [4, 5])
def test_blowup_of_a_doubled_top_cell_matches_the_scan_oracle(n):
    # centers of depth 4 and 5, which no resolve-parallel document reaches:
    # each of the 2^n - 2 proper faces of the center is coned, its parents
    # the cones over its facets, each found by dropping one position
    comps = [f"E{i}" for i in range(1, n + 2)]
    strata = strata_of(simplex_divisor(n, comps, n))
    top = strata[-1]
    d = divisor_of(n, comps, strata + (top._replace(id=top.id + "~"),))
    validate_snc(d)
    for center in (top.id, top.id + "~"):
        after, record = blowup(d, center)
        assert (after, record) == scan_blowup(d, center)
        assert record.removed == (center,) and len(record.added) == 2 ** n - 2
        validate_snc(after)
    resolved, records = resolve_to_simplicial(d)
    assert (resolved, records) == scan_resolve(d)
    assert [r.center for r in records] == [top.id]
    assert cohomology_profile(resolved) == cohomology_profile(d)


def test_blowup_reuses_the_ids_of_removed_cells():
    # the center's id is exactly the id its cone over "a" would get, and it
    # is free again once the center is removed
    d = SncDivisor.build(3, ["a", "b"], [("exc1|a", ("a", "b"), {}),
                                         ("c", ("a", "b"), {})])
    after, record = blowup(d, "exc1|a")
    assert record.removed == ("exc1|a",)
    assert record.added == ("exc1|a", "exc1|b")
    assert (after, record) == scan_blowup(d, "exc1|a")
    assert resolve_to_simplicial(d) == scan_resolve(d)
    validate_snc(after)


def test_bad_decrement_is_the_recount_before_and_after():
    for d in oracle_corpus(38, 60):
        for s in strata_of(d):
            after, record = blowup(d, s.id)
            assert record.bad_decrement == bad_count(d) - bad_count(after)
            if d.n == 3 and len(s.subset) == 2:
                after, record = blowup_point_on_double_curve(d, s.id)
                assert record.bad_decrement == bad_count(d) - bad_count(after)
        # the resolve loop keeps one running total across all its steps
        current, records = d, resolve_to_simplicial(d)[1]
        for record in records:
            after, _ = blowup(current, record.center)
            assert record.bad_decrement == bad_count(current) - bad_count(after)
            current = after


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_resolution_cap_matches_the_oracle_partial_state(cap):
    hit = 0
    for d in oracle_corpus(39, 120):
        if len(scan_resolve(d)[1]) <= cap:
            continue
        with pytest.raises(ResolutionLimitError) as got:
            resolve_to_simplicial(d, max_blowups=cap)
        with pytest.raises(ResolutionLimitError) as want:
            scan_resolve(d, max_blowups=cap)
        assert str(got.value) == str(want.value)
        assert got.value.records == want.value.records
        assert got.value.divisor == want.value.divisor
        hit += 1
    assert hit > 10


def _rename_stratum(d: SncDivisor, old: str, new: str) -> SncDivisor:
    def name(sid: str) -> str:
        return new if sid == old else sid
    return SncDivisor.build(d.n, d.components, [
        (name(s.id), s.subset, {c: name(p) for c, p in s.parents.items()})
        for s in strata_of(d)])


def larger_oracle_corpus(seed: int, count: int) -> list[tuple[set[str], SncDivisor]]:
    """Threefolds on 8 to 12 components meeting in parallel curves, with
    triple points, each with the set of the variations applied to it.

    "named": three components are exc1, exc3 and exc4, so new names fill
    the gap at exc2 and then skip to exc5.  "curve-exc2": a double curve is
    named exc2, so new components step past that stratum id until it is
    blown up.  "point": a point on a double curve is blown up first.
    """
    rng = random.Random(seed)
    corpus = []
    for i in range(count):
        m = rng.randint(8, 12)
        comps = [f"E{j}" for j in range(m)]
        kinds = set()
        if i % 3 == 0:
            for name, pos in zip(("exc1", "exc3", "exc4"), rng.sample(range(m), 3)):
                comps[pos] = name
            kinds.add("named")
        d = parallel_curve_divisor(rng, m, rng.randint(m, 3 * m), comps)
        curves = [s.id for s in strata_of(d) if len(s.subset) == 2]
        if i % 5 == 2:
            d = _rename_stratum(d, rng.choice(curves), "exc2")
            validate_snc(d)
            kinds.add("curve-exc2")
        if i % 4 == 1:
            d, _ = blowup_point_on_double_curve(d, rng.choice(curves))
            kinds.add("point")
        corpus.append((kinds, d))
    return corpus


@pytest.fixture(scope="module")
def larger_corpus():
    return [(kinds, d, scan_resolve(d)) for kinds, d in larger_oracle_corpus(43, 240)]


def test_resolve_matches_the_oracle_on_larger_divisors(larger_corpus):
    seen = {"named": 0, "curve-exc2": 0, "point": 0, "gap": 0}
    for kinds, d, expected in larger_corpus:
        resolved, records = resolve_to_simplicial(d)
        # record equality: every field, strata and records in order
        assert (resolved, records) == expected
        validate_snc(resolved)
        for kind in kinds:
            seen[kind] += 1
        seen["gap"] += {"exc2", "exc5"} <= {r.new_component for r in records}
        assert len(d.components) >= 8 and len(records) >= 5
    assert min(seen.values()) >= 40, seen


def test_resolution_cap_partway_matches_the_oracle_on_larger_divisors(larger_corpus):
    for kinds, d, (_, records) in larger_corpus:
        cap = len(records) // 2
        with pytest.raises(ResolutionLimitError) as got:
            resolve_to_simplicial(d, max_blowups=cap)
        with pytest.raises(ResolutionLimitError) as want:
            scan_resolve(d, max_blowups=cap)
        assert str(got.value) == str(want.value)
        assert got.value.records == want.value.records == records[:cap]
        assert got.value.divisor == want.value.divisor


def test_resolve_scans_for_bad_intersections_at_most_once(monkeypatch):
    calls = []
    real = snc.find_bad_intersections

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(snc, "find_bad_intersections", counting)
    d = parallel_curve_divisor(random.Random(41), 7, 16)
    resolved, records = resolve_to_simplicial(d)
    assert len(records) >= 10
    assert len(calls) <= 1
    assert real(resolved).is_simplicial


# ---------------------------------------------------------------------------
# construction guards


def test_build_sorts_subsets_by_component_order():
    d = SncDivisor.build(3, ["b", "a"], [("c", ("a", "b"), {})])
    assert {s.id: s for s in strata_of(d)}["c"].subset == ("b", "a")


def test_build_rejects_unknown_and_repeated_components():
    # build raises these itself: the table has no positions for them
    assert _StrataTable._fields == ("ids", "positions", "parents")
    with pytest.raises(SncError) as err:
        SncDivisor.build(3, ["a"], [("c", ("a", "z"), {})])
    assert str(err.value) == "stratum c references unknown component 'z'"
    with pytest.raises(SncError) as err:
        SncDivisor.build(3, ["a", "b"], [("c", ("a", "a"), {})])
    assert str(err.value) == "stratum c repeats a component in its subset"
    with pytest.raises(SncError) as err:
        SncDivisor.build(3, ["a", "b", "c"], [
            ("ab", ("a", "b"), {}), ("bc", ("b", "c"), {}), ("ac", ("a", "c"), {}),
            ("t", ("a", "b", "c"), {"a": "bc", "b": "ac", "c": "ab", "z": "ab"})])
    assert str(err.value) == "stratum t must name one parent per dropped component"


def test_a_stratum_repeating_a_component_is_invalid():
    # Unchecked, the dual complex would get a 1-cell with zero boundary.
    with pytest.raises(SncError, match="repeats a component"):
        SncDivisor.build(3, ("A", "B"), [("s", ("A", "A"), {})])


def test_simplex_divisor_helper_matches_counts():
    d = simplex_divisor(3, ["E1", "E2", "E3"], 3)
    dc = validate_snc(d)
    assert dc.ranks() == (3, 3, 1)
