"""Du Bois bookkeeping and the K vs KH comparison in the bottom degree."""
import pytest

from helpers import Z, sphere4, triangle_cycle, triangle_picard, zero_picard
from snckit import DuBoisTable, k_report, kh_report
from snckit.nk import MissingEntryError, NonIsolatedError


def test_table_lookup_and_validation():
    t = DuBoisTable({(0, 2): 3, (1, 1): 0})
    assert t.entries.get((0, 2)) == 3
    assert t.entries.get((1, 1)) == 0
    assert t.entries.get((2, 0)) is None
    with pytest.raises(ValueError):
        DuBoisTable({(0, 2): -1})


def triangle_kh():
    return kh_report(triangle_cycle(), triangle_picard())


def sphere4_kh():
    return kh_report(sphere4(), zero_picard(4, {0: Z, 1: Z, 2: Z}))


def test_descriptor_examples():
    assert k_report(triangle_kh(), DuBoisTable({(0, 2): 3})).nk_shape == "3-dim V ⊗ tQ[t]"
    zero = k_report(sphere4_kh(), DuBoisTable({(0, 3): 0}))
    assert zero.v_dim == 0 and zero.k_equals_kh
    assert zero.nk_shape == "0"


def test_descriptor_requires_the_bottom_row_entry():
    with pytest.raises(MissingEntryError):
        k_report(triangle_kh(), DuBoisTable({(1, 2): 5}))
    with pytest.raises(MissingEntryError):
        # right invariant, wrong dimension
        k_report(sphere4_kh(), DuBoisTable({(0, 2): 5}))


def test_descriptor_refuses_non_isolated_points():
    with pytest.raises(NonIsolatedError):
        k_report(triangle_kh(), DuBoisTable({(0, 2): 1}, isolated=False))


def test_k_report_extends_the_triangle_kh_report():
    kh = triangle_kh()
    rep = k_report(kh, DuBoisTable({(0, 2): 2}))
    assert rep.kh is kh
    assert rep.v_dim == 2
    assert rep.nk_shape == "2-dim V ⊗ tQ[t]"
    assert rep.surjectivity_note
    assert not rep.k_equals_kh


def test_k_report_collapses_when_the_invariant_vanishes():
    kh = triangle_kh()
    rep = k_report(kh, DuBoisTable({(0, 2): 0}))
    assert rep.v_dim == 0
    assert rep.nk_shape == "0"
    assert rep.k_equals_kh


def test_k_report_propagates_table_errors():
    kh = triangle_kh()
    with pytest.raises(MissingEntryError):
        k_report(kh, DuBoisTable({(0, 1): 1}))
    with pytest.raises(NonIsolatedError):
        k_report(kh, DuBoisTable({(0, 2): 1}, isolated=False))
