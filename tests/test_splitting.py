"""Sector functions and the subalgebra / symmetric-coset admissibility checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopexp import (InvalidParams, LoopLabel, ModeWindow, SplitKind,
                     builtin_algebra, check_subalgebra, check_symmetric_coset,
                     loop_structure_constant, make_splitting)

from helpers_oracles import structurally_exists

EPS = builtin_algebra("epsilon3")
ABELIAN = builtin_algebra("abelian4")


def test_zero_mode_sectors():
    s = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    assert s.sector(LoopLabel(1, 0)) == 0
    assert s.sector(LoopLabel(1, 5)) == 1


def test_parity_sectors():
    s = make_splitting(SplitKind.MODE_PARITY_COSET)
    assert s.sector(LoopLabel(1, -3)) == 1
    assert s.sector(LoopLabel(2, 4)) == 0


def test_generic_sectors():
    s = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)
    assert s.sector(LoopLabel(3, 7)) == 1
    assert s.sector(LoopLabel(1, 7)) == 0


@given(st.integers(1, 3), st.integers(-50, 50))
def test_sector_total_and_binary(gen, mode):
    for s in (make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA),
              make_splitting(SplitKind.MODE_PARITY_COSET),
              make_splitting(SplitKind.GENERIC_INDEX, v0_gens={2}, dim=3)):
        value = s.sector(LoopLabel(gen, mode))
        assert value in (0, 1)
        assert value == s.sector(LoopLabel(gen, mode))


@given(st.sampled_from(list(SplitKind)), st.integers(1, 3), st.integers(-50, 50),
       st.integers(-2, 8))
def test_exists_matches_kind_branch_oracle(kind, gen, mode, order):
    s = (make_splitting(kind, v0_gens={1, 2}, dim=3) if kind is SplitKind.GENERIC_INDEX
         else make_splitting(kind))
    assert s.exists(LoopLabel(gen, mode), order) == structurally_exists(s, mode, order)


def test_make_splitting_rejects_bad_params():
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.GENERIC_INDEX, v0_gens=set(), dim=3)
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2, 3}, dim=3)
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.GENERIC_INDEX, v0_gens={0, 1}, dim=3)
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.GENERIC_INDEX, v0_gens={4}, dim=3)
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1})
    with pytest.raises(InvalidParams):
        make_splitting(SplitKind.MODE_PARITY_COSET, v0_gens={1})


@pytest.mark.parametrize("kind", ["mode_parity", "generic", None, 2])
def test_make_splitting_refuses_a_kind_that_is_not_a_split_kind(kind):
    # A string used to pass and fail later with a KeyError in sector, or, with
    # v0_gens, with an AttributeError on kind.value.
    with pytest.raises(InvalidParams, match="SplitKind"):
        make_splitting(kind)
    with pytest.raises(InvalidParams, match="SplitKind"):
        make_splitting(kind, v0_gens={1}, dim=3)


def test_zero_mode_split_is_subalgebra():
    s = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    for name in ("epsilon3", "solvable2", "abelian4"):
        f = builtin_algebra(name)
        for m in (1, 2, 3):
            report = check_subalgebra(f, s, ModeWindow(m))
            assert report.is_subalgebra_v0
            assert report.subalgebra_witnesses == []


def test_parity_even_sector_is_subalgebra():
    s = make_splitting(SplitKind.MODE_PARITY_COSET)
    assert check_subalgebra(EPS, s, ModeWindow(2)).is_subalgebra_v0


def test_single_generator_v0_is_vacuously_subalgebra():
    s = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1}, dim=3)
    report = check_subalgebra(EPS, s, ModeWindow(1))
    assert report.is_subalgebra_v0 and report.subalgebra_witnesses == []


def test_generic_split_can_fail_subalgebra():
    s = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)
    report = check_subalgebra(EPS, s, ModeWindow(1))
    assert not report.is_subalgebra_v0
    assert any(w.z.gen == 3 for w in report.subalgebra_witnesses)


def test_parity_split_is_symmetric_coset():
    s = make_splitting(SplitKind.MODE_PARITY_COSET)
    for name in ("epsilon3", "solvable2", "abelian4"):
        f = builtin_algebra(name)
        for m in (1, 2, 3):
            report = check_symmetric_coset(f, s, ModeWindow(m))
            assert report.is_symmetric_coset
            assert report.coset_witnesses == []


def test_zero_mode_split_is_not_symmetric_coset():
    s = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    report = check_symmetric_coset(EPS, s, ModeWindow(2))
    assert not report.is_symmetric_coset
    witness = (LoopLabel(1, 1), LoopLabel(2, 1), LoopLabel(3, 2))
    assert witness in [(w.x, w.y, w.z) for w in report.coset_witnesses]


def test_zero_mode_coset_defect_is_found_below_its_first_witness():
    # The witness pair (1, 1) -> 2 first fits at M = 2; below that the verdict
    # still fails, with an empty witness list.
    s = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    for m in (0, 1):
        report = check_symmetric_coset(EPS, s, ModeWindow(m))
        assert report.is_symmetric_coset is False
        assert report.coset_witnesses == []
    assert len(check_symmetric_coset(EPS, s, ModeWindow(2)).coset_witnesses) == 36


def test_abelian_base_passes_everything():
    for kind in (SplitKind.ZERO_MODE_SUBALGEBRA, SplitKind.MODE_PARITY_COSET):
        s = make_splitting(kind)
        assert check_subalgebra(ABELIAN, s, ModeWindow(2)).is_subalgebra_v0
        assert check_symmetric_coset(ABELIAN, s, ModeWindow(2)).is_symmetric_coset
    s = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 3}, dim=4)
    assert check_symmetric_coset(ABELIAN, s, ModeWindow(2)).is_symmetric_coset


def test_witnesses_reverify_against_constants():
    s = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    report = check_symmetric_coset(EPS, s, ModeWindow(2))
    assert report.coset_witnesses
    for w in report.coset_witnesses:
        value = loop_structure_constant(EPS, w.x, w.y, w.z)
        assert value == w.value != 0
