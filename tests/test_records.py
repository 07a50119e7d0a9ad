"""snckit's value classes are NamedTuples, and the CLI imports no dataclasses.

The classes that check their fields do it in ``__new__``, and their
``_make``, so also ``_replace``, builds through it: a bad field raises the
same ``ValueError`` whichever of the three builds the value.  A field left
out that defaults to a dict gets a fresh one.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from snckit import (
    ChainComplex,
    FgAbGroup,
    Hom,
    IntMatrix,
    PicardInput,
    PicardLevel,
    SpectralPage,
    cohomology,
)
from snckit.intmat import smith_normal_form
from snckit.nk import DuBoisTable

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_imports_no_dataclasses():
    # -S: no site-packages, so nothing but snckit and the standard library
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import snckit.cli; "
            "print(sorted(m for m in ('dataclasses', 'snckit.cli') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["['snckit.cli']"]


Z = FgAbGroup(1)
LEVELS = (PicardLevel(0, Z, 0), PicardLevel(1, Z, 0))
IDENTITY = Hom(Z, Z, IntMatrix([[1]]))

# (a valid value, a field, a value for it that the class rejects, its error)
CHECKED = [
    (FgAbGroup(1, (2,)), "free_rank", -1, "negative free rank -1"),
    (IDENTITY, "matrix", IntMatrix([[1, 0]]),
     "matrix shape (1, 2) does not map 1 generators to 1"),
    (smith_normal_form(IntMatrix([[2, 4], [6, 8]])), "d", IntMatrix([[2, 1], [0, 4]]),
     "D not diagonal at (0, 1)"),
    (ChainComplex((1, 1), (({},),)), "ranks", (1, -1),
     "ranks (1, -1) are not non-negative ints"),
    (LEVELS[0], "pic0_dim", -1, "negative Pic^0 dimension at level 0"),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "coker_pic0_dim", -1,
     "negative coker(Pic^0) dimension"),
    (DuBoisTable({(0, 2): 1}), "entries", {(0, 2): -1},
     "negative Du Bois invariant b^{0,2} = -1"),
]
# Fields of the wrong type: each used to build a value that compares
# unequal to the right one, or to fail with another error, or not at all.
HOM_TYPES = "source and target must be FgAbGroups and matrix an IntMatrix, got "
PICARD_TYPES = ("n and coker_pic0_dim must be ints, levels a tuple of PicardLevel, maps a "
                "tuple of Hom and ker_beta_known an FgAbGroup or None")
LEVEL_TYPES = "p and pic0_dim must be ints and ns an FgAbGroup, got PicardLevel("
DUBOIS_TYPES = "entries must be a dict from pairs of ints to ints and isolated a bool, got "
PAGE = SpectralPage(1, {(0, 0): Z}, {}, frozenset({(0, 0)}))
PAGE_TYPES = ("page_no must be an int, entries a dict from pairs of ints to FgAbGroup, "
              "differentials one to Hom and support a frozenset of pairs of ints, got "
              "SpectralPage(")
CHECKED += [
    (IDENTITY, "matrix", [[1]], HOM_TYPES + "FgAbGroup, FgAbGroup, list"),
    (IDENTITY, "matrix", ((1,),), HOM_TYPES + "FgAbGroup, FgAbGroup, tuple"),
    (IDENTITY, "source", (1, ()), HOM_TYPES + "tuple, FgAbGroup, IntMatrix"),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "levels", list(LEVELS), PICARD_TYPES),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "maps", [IDENTITY], PICARD_TYPES),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "coker_pic0_dim", True, PICARD_TYPES),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "ker_beta_known", (1, ()), PICARD_TYPES),
    (PicardInput(3, LEVELS, (IDENTITY,), 0), "n", 3.0, PICARD_TYPES),
    (LEVELS[0], "pic0_dim", 1.5, LEVEL_TYPES + "p=0, ns=FgAbGroup(free_rank=1, "
     "torsion=()), pic0_dim=1.5)"),
    (LEVELS[0], "p", True, LEVEL_TYPES + "p=True, ns=FgAbGroup(free_rank=1, "
     "torsion=()), pic0_dim=0)"),
    (LEVELS[0], "ns", (1, ()), LEVEL_TYPES + "p=0, ns=(1, ()), pic0_dim=0)"),
    (DuBoisTable({(0, 2): 1}), "entries", {(0, 2): True},
     DUBOIS_TYPES + "DuBoisTable(entries={(0, 2): True}, isolated=True)"),
    (DuBoisTable({(0, 2): 1}), "entries", {(0, 2): 2.5},
     DUBOIS_TYPES + "DuBoisTable(entries={(0, 2): 2.5}, isolated=True)"),
    (DuBoisTable({(0, 2): 1}), "entries", [((0, 2), 1)],
     DUBOIS_TYPES + "DuBoisTable(entries=[((0, 2), 1)], isolated=True)"),
    (DuBoisTable({(0, 2): 1}), "isolated", "no",
     DUBOIS_TYPES + "DuBoisTable(entries={(0, 2): 1}, isolated='no')"),
    (PAGE, "entries", {(0, 0): (1, ())}, PAGE_TYPES + "page_no=1, entries={(0, 0): (1, ())}, "
     "differentials={}, support=frozenset({(0, 0)}))"),
    (PAGE, "entries", [], PAGE_TYPES + "page_no=1, entries=[], differentials={}, "
     "support=frozenset({(0, 0)}))"),
    (PAGE, "entries", {(0,): Z}, PAGE_TYPES + "page_no=1, entries={(0,): FgAbGroup(free_rank=1, "
     "torsion=())}, differentials={}, support=frozenset({(0, 0)}))"),
    (PAGE, "page_no", True, PAGE_TYPES + "page_no=True, entries={(0, 0): FgAbGroup(free_rank=1, "
     "torsion=())}, differentials={}, support=frozenset({(0, 0)}))"),
    (PAGE, "page_no", 1.0, PAGE_TYPES + "page_no=1.0, entries={(0, 0): FgAbGroup(free_rank=1, "
     "torsion=())}, differentials={}, support=frozenset({(0, 0)}))"),
    (PAGE, "differentials", {(0, 0): 5}, PAGE_TYPES + "page_no=1, entries={(0, 0): "
     "FgAbGroup(free_rank=1, torsion=())}, differentials={(0, 0): 5}, "
     "support=frozenset({(0, 0)}))"),
    (PAGE, "support", [(0, 0)], PAGE_TYPES + "page_no=1, entries={(0, 0): FgAbGroup(free_rank=1, "
     "torsion=())}, differentials={}, support=[(0, 0)])"),
    (PAGE, "support", frozenset({(0, "0")}), PAGE_TYPES + "page_no=1, entries={(0, 0): "
     "FgAbGroup(free_rank=1, torsion=())}, differentials={}, support=frozenset({(0, '0')}))"),
]


def _case_id(k: int) -> str:
    """The class name, numbered from the second case of a class on."""
    name = type(CHECKED[k][0]).__name__
    earlier = sum(type(case[0]).__name__ == name for case in CHECKED[:k])
    return f"{name}-{earlier}" if earlier else name


@pytest.mark.parametrize("good, name, bad, message", CHECKED,
                         ids=[_case_id(k) for k in range(len(CHECKED))])
def test_a_checked_class_checks_through_replace_and_make(good, name, bad, message):
    cls = type(good)
    fields = {**good._asdict(), name: bad}
    builds = {"constructor": lambda: cls(**fields),
              "_replace": lambda: good._replace(**{name: bad}),
              "_make": lambda: cls._make(fields.values())}
    for how, build in builds.items():
        with pytest.raises(ValueError) as err:
            build()
        assert (type(err.value), str(err.value)) == (ValueError, message), how
    for again in (good._replace(), cls._make(good)):
        assert type(again) is cls and again == good and repr(again) == repr(good)


def test_a_chain_complex_keeps_its_sweeps_out_of_the_value():
    rp2 = ChainComplex((1, 1, 1), (({},), ({0: 2},)))
    swept = rp2._replace()
    assert [str(cohomology(swept, i)) for i in range(3)] == ["Z", "0", "Z/2"]
    assert swept == rp2 and repr(swept) == repr(rp2)
    assert repr(rp2) == "ChainComplex(ranks=(1, 1, 1), boundaries=(({},), ({0: 2},)))"
    assert str(cohomology(rp2, 2)) == "Z/2"
    with pytest.raises(TypeError):
        hash(rp2)


def test_dict_defaults_are_fresh():
    p, q = SpectralPage(1), SpectralPage(1)
    assert p == q and p.support == frozenset()
    assert p.entries is not q.entries and p.differentials is not q.differentials
    assert p.entries is not p.differentials
    with pytest.raises(TypeError):
        hash(p)
