"""Loop-algebra labels, brackets, and windowed sweeps."""

from fractions import Fraction

import pytest

from loopexp import (LoopLabel, ModeWindow, builtin_algebra, enumerate_generators,
                     jacobi_residuals, loop_bracket, loop_structure_constant)
from loopexp.algebra import IndexOutOfRange

from helpers_oracles import conjugate_label

EPS = builtin_algebra("epsilon3")
SOLV = builtin_algebra("solvable2")


def test_mode_window_validation():
    assert list(ModeWindow(1).modes()) == [-1, 0, 1]
    assert ModeWindow(0).contains(0) and not ModeWindow(0).contains(1)
    with pytest.raises(ValueError):
        ModeWindow(-1)


def test_loop_bracket_adds_modes():
    out = loop_bracket(EPS, LoopLabel(1, 2), LoopLabel(2, 3))
    assert out == {LoopLabel(3, 5): Fraction(1)}


def test_loop_bracket_same_label_vanishes():
    assert loop_bracket(EPS, LoopLabel(1, 4), LoopLabel(1, 4)) == {}


def test_loop_bracket_zero_modes_reproduce_base():
    assert loop_bracket(EPS, LoopLabel(1, 0), LoopLabel(2, 0)) == {LoopLabel(3, 0): Fraction(1)}
    for a in range(1, 4):
        for b in range(1, 4):
            lifted = loop_bracket(EPS, LoopLabel(a, 0), LoopLabel(b, 0))
            assert {lab.gen: v for lab, v in lifted.items()} == dict(EPS.pair_targets(a, b))
            assert all(lab.mode == 0 for lab in lifted)


def test_loop_structure_constant_examples():
    assert loop_structure_constant(EPS, LoopLabel(1, 2), LoopLabel(2, 3), LoopLabel(3, 5)) == 1
    assert loop_structure_constant(EPS, LoopLabel(1, 2), LoopLabel(2, 3), LoopLabel(3, 4)) == 0
    assert loop_structure_constant(EPS, LoopLabel(1, 0), LoopLabel(2, 0), LoopLabel(3, 0)) == 1


def test_loop_structure_constant_checks_indices():
    with pytest.raises(IndexOutOfRange):
        loop_structure_constant(EPS, LoopLabel(4, 0), LoopLabel(1, 0), LoopLabel(1, 0))


def test_symbolic_agrees_with_windowed_bracket():
    window = ModeWindow(2)
    labels = enumerate_generators(EPS, window)
    for x in labels:
        for y in labels:
            table = loop_bracket(EPS, x, y)
            for z in labels:
                assert loop_structure_constant(EPS, x, y, z) == table.get(z, Fraction(0))


def test_conjugate_label():
    assert conjugate_label(LoopLabel(1, 3)) == (LoopLabel(1, -3), -1)
    assert conjugate_label(LoopLabel(2, 0)) == (LoopLabel(2, 0), -1)


def test_conjugation_is_an_involution():
    label, sign1 = conjugate_label(LoopLabel(1, 3))
    back, sign2 = conjugate_label(label)
    assert back == LoopLabel(1, 3)
    assert sign1 * sign2 == 1


def test_enumerate_single_mode():
    assert enumerate_generators(EPS, ModeWindow(0)) == [
        LoopLabel(1, 0), LoopLabel(2, 0), LoopLabel(3, 0)]


def test_enumerate_order_is_mode_major():
    assert enumerate_generators(SOLV, ModeWindow(1)) == [
        LoopLabel(1, -1), LoopLabel(2, -1), LoopLabel(1, 0),
        LoopLabel(2, 0), LoopLabel(1, 1), LoopLabel(2, 1)]


def test_enumerate_count():
    assert len(enumerate_generators(EPS, ModeWindow(2))) == 15


def test_windowed_jacobi_sweep_clean():
    for window in (ModeWindow(1), ModeWindow(2)):
        rows, checked = jacobi_residuals(EPS, window)
        assert rows == []
        assert checked > 0


def test_mode_additivity_on_window():
    window = ModeWindow(2)
    labels = enumerate_generators(EPS, window)
    for x in labels:
        for y in labels:
            out = loop_bracket(EPS, x, y)
            assert all(lab.mode == x.mode + y.mode for lab in out)
