"""The shared cyclic Jacobi sweep on a tensor that is not a Lie algebra.

Every Lie-algebra fixture sweeps to empty rows, so residual values and row
order are only visible here.  Loop constants do not depend on the mode, so the
dense finite-dimensional oracle gives the residual at every windowed triple.
"""

import hashlib
from fractions import Fraction

import pytest

from loopexp import (LoopLabel, ModeWindow, SplitKind, StructureConstants,
                     check_jacobi_expanded, contracted_jacobi_residuals,
                     enumerate_generators, iw_contract, jacobi_residuals,
                     make_splitting, validate)

from helpers_oracles import oracle_jacobi_defects, oracle_jacobi_residual

NONLIE = StructureConstants(4, {(1, 2, 3): 1, (1, 3, 1): 1, (2, 4, 3): Fraction(1, 2),
                                (3, 4, 2): 3})
WINDOW = ModeWindow(2)
GENS = range(1, NONLIE.dim + 1)
ORACLE = {(a, b, c, e): oracle_jacobi_residual(NONLIE.dim, NONLIE.entries, a, b, c, e)
          for a in GENS for b in GENS for c in GENS for e in GENS}


def windowed_triples(labels, bound):
    return [(x, y, z) for x in labels for y in labels for z in labels
            if all(abs(m) <= bound for m in (x.mode + y.mode, y.mode + z.mode,
                                             z.mode + x.mode, x.mode + y.mode + z.mode))]


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def test_validate_rows_match_dense_oracle():
    expected = oracle_jacobi_defects(NONLIE.dim, NONLIE.entries)
    report = validate(NONLIE)
    assert report.antisymmetry == []
    assert report.jacobi == expected
    assert len(expected) == 24


def test_loop_rows_match_dense_oracle_at_every_windowed_triple():
    triples = windowed_triples(enumerate_generators(NONLIE, WINDOW), WINDOW.max_abs_mode)
    expected = [(x, y, z, LoopLabel(e, x.mode + y.mode + z.mode), ORACLE[x.gen, y.gen, z.gen, e])
                for x, y, z in triples for e in GENS if ORACLE[x.gen, y.gen, z.gen, e]]
    rows, checked = jacobi_residuals(NONLIE, WINDOW)
    assert rows == expected
    assert (len(rows), checked) == (1320, 3520) == (len(expected), len(triples))


def test_contracted_rows_pinned():
    rows, checked = contracted_jacobi_residuals(
        iw_contract(NONLIE, make_splitting(SplitKind.MODE_PARITY_COSET), WINDOW))
    assert (len(rows), checked) == (744, 3520)
    assert digest(rows) == "72face63bb9ea0b4734ee4199f11f8f7a4e474473255dff721a4482aea47e2d6"


@pytest.mark.parametrize("kind, n0, n1, rows, checked, skipped, sha", [
    (SplitKind.MODE_PARITY_COSET, 2, 1, 2112, 13952, 10880,
     "9f80b37a7a646dfa8bdfc99d799791171fd0f8edfdff618fb25f513c47350509"),
    (SplitKind.MODE_PARITY_COSET, 4, 5, 9744, 95040, 69984,
     "50b5c705acb12850588ee229368d1002eeac6c6d9b0161abac2e98c2a5812a77"),
    (SplitKind.ZERO_MODE_SUBALGEBRA, 1, 1, 384, 8192, 3424,
     "9a23803cbf7f8cf1fef417e746cc07c0eb1a8f368ac7ed9407fd93fad9997568"),
])
def test_expanded_rows_pinned(kind, n0, n1, rows, checked, skipped, sha):
    report = check_jacobi_expanded(NONLIE, make_splitting(kind), n0, n1, WINDOW)
    assert not report.ok
    assert (len(report.residuals), report.triples_checked, report.window_skipped) == (
        rows, checked, skipped)
    assert digest(report.residuals) == sha
