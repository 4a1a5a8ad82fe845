"""Sector-mask contraction and its equivalence with the order-(0,1) expansion."""

from fractions import Fraction

import pytest

from loopexp import (ContractedAlgebra, LoopLabel, ModeWindow, SplitKind,
                     WrongSplitKind, builtin_algebra,
                     compare_with_expansion, contracted_jacobi_residuals,
                     iw_contract, make_splitting)
from loopexp.algebra import BUILTIN_NAMES

EPS = builtin_algebra("epsilon3")
COSET = make_splitting(SplitKind.MODE_PARITY_COSET)


def test_even_odd_bracket_survives():
    alg = iw_contract(EPS, COSET, ModeWindow(2))
    assert alg.bracket(LoopLabel(1, 0), LoopLabel(2, 1)) == {LoopLabel(3, 1): Fraction(1)}


def test_odd_odd_bracket_killed():
    alg = iw_contract(EPS, COSET, ModeWindow(2))
    assert alg.bracket(LoopLabel(1, 1), LoopLabel(2, 1)) == {}


def test_even_even_bracket_survives():
    alg = iw_contract(EPS, COSET, ModeWindow(2))
    assert alg.bracket(LoopLabel(1, 2), LoopLabel(2, -2)) == {LoopLabel(3, 0): Fraction(1)}


def test_odd_sector_abelianized_everywhere():
    window = ModeWindow(3)
    alg = iw_contract(EPS, COSET, window)
    odd = [LoopLabel(a, n) for n in window.modes() if n % 2
           for a in range(1, EPS.dim + 1)]
    for x in odd:
        for y in odd:
            assert alg.bracket(x, y) == {}


def test_iw_contract_requires_parity_coset():
    with pytest.raises(WrongSplitKind):
        iw_contract(EPS, make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA), ModeWindow(1))
    # the generalized mask is available for any kind
    alg = ContractedAlgebra(EPS, make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA), ModeWindow(1))
    assert alg.bracket(LoopLabel(1, 1), LoopLabel(2, -1)) == {}


def test_contraction_matches_expansion_for_builtins():
    for name in BUILTIN_NAMES:
        f = builtin_algebra(name)
        for m in (1, 2, 3):
            window = ModeWindow(m)
            match, diffs = compare_with_expansion(iw_contract(f, COSET, window))
            assert match and diffs == [], (name, m)


def test_comparison_requires_the_right_expansion():
    # The order-(0,1) expansion is built on the contraction's split, which
    # must be the parity coset: the same check, and the same error, as iw_contract's.
    window = ModeWindow(1)
    for split in (make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA),
                  make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1}, dim=3)):
        with pytest.raises(WrongSplitKind, match="requires the mode-parity coset"):
            compare_with_expansion(ContractedAlgebra(EPS, split, window))
        with pytest.raises(WrongSplitKind, match="requires the mode-parity coset"):
            iw_contract(EPS, split, window)
    assert issubclass(WrongSplitKind, ValueError)


class _Perturbed(ContractedAlgebra):
    """Fixture: one deliberately wrong constant."""

    def bracket(self, x, y):
        row = super().bracket(x, y)
        if (x, y) == (LoopLabel(1, 0), LoopLabel(2, 1)):
            row[LoopLabel(3, 1)] += 1
        return row


def test_perturbed_contraction_is_caught():
    window = ModeWindow(1)
    match, diffs = compare_with_expansion(_Perturbed(EPS, COSET, window))
    assert not match
    assert len(diffs) == 1
    diff = diffs[0]
    assert (diff.x, diff.y, diff.z) == (LoopLabel(1, 0), LoopLabel(2, 1), LoopLabel(3, 1))
    assert diff.contracted == diff.expanded + 1
    # The verdict holds for every mode: at M = 0 the differing constant, which
    # needs mode 1, is not listed, but the comparison still fails.
    window = ModeWindow(0)
    assert compare_with_expansion(_Perturbed(EPS, COSET, window)) == (False, [])


def test_contraction_preserves_jacobi():
    for name in BUILTIN_NAMES:
        f = builtin_algebra(name)
        for m in (1, 2, 3):
            alg = iw_contract(f, COSET, ModeWindow(m))
            rows, checked = contracted_jacobi_residuals(alg)
            assert rows == [] and checked > 0, (name, m)
