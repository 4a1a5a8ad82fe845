"""Expanded algebras: generator sets, constants, closure and Jacobi sweeps."""

from fractions import Fraction
from itertools import combinations

import pytest

from loopexp import (ClosureQuotient, ExpandedAlgebra, ExpandedLabel, InadmissibleLabel,
                     IndexOutOfRange, LoopLabel, ModeWindow, NotClosed, SplitKind,
                     UnknownCase, build_named, builtin_algebra, check_closure,
                     check_jacobi_expanded, generator_set, loop_structure_constant,
                     make_splitting)

from helpers_oracles import dense_tensor, expanded_constant

EPS = builtin_algebra("epsilon3")
ABELIAN = builtin_algebra("abelian4")

COSET = make_splitting(SplitKind.MODE_PARITY_COSET)
ZERO_MODE = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)


def generic(v0, dim=3):
    return make_splitting(SplitKind.GENERIC_INDEX, v0_gens=v0, dim=dim)


def lab(s, gen, mode, order):
    return ExpandedLabel(gen, mode, order, s.sector(LoopLabel(gen, mode)))


# ---------------------------------------------------------------------------
# ExpandedAlgebra.constant
# ---------------------------------------------------------------------------

def constant(s, x, y, z):
    """The constant of the (3, 3) truncation, whose caps keep every label below."""
    return ExpandedAlgebra(EPS, s, 3, 3, ModeWindow(1)).constant(x, y, z)


def test_constant_coset_example():
    assert constant(COSET, lab(COSET, 1, 1, 1), lab(COSET, 2, 1, 1), lab(COSET, 3, 2, 2)) == 1


def test_constant_order_delta_fails():
    assert constant(ZERO_MODE, lab(ZERO_MODE, 1, 0, 0), lab(ZERO_MODE, 2, 0, 1),
                    lab(ZERO_MODE, 3, 0, 2)) == 0


def test_constant_zero_mode_example():
    assert constant(ZERO_MODE, lab(ZERO_MODE, 1, 0, 0), lab(ZERO_MODE, 2, 3, 1),
                    lab(ZERO_MODE, 3, 3, 1)) == 1


def test_constant_rejects_structurally_missing_labels():
    with pytest.raises(InadmissibleLabel):
        constant(ZERO_MODE, ExpandedLabel(1, 3, 0, 1), lab(ZERO_MODE, 2, 0, 0),
                 lab(ZERO_MODE, 3, 3, 0))
    with pytest.raises(InadmissibleLabel):
        constant(COSET, ExpandedLabel(1, 2, 1, 0), lab(COSET, 2, 0, 0), lab(COSET, 3, 2, 1))
    with pytest.raises(InadmissibleLabel):
        constant(generic({1}), lab(generic({1}), 1, 0, -1), lab(generic({1}), 2, 0, 1),
                 lab(generic({1}), 3, 0, 0))


def test_constant_rejects_wrong_sector_tag():
    with pytest.raises(InadmissibleLabel):
        constant(COSET, ExpandedLabel(1, 1, 1, 0), lab(COSET, 2, 1, 1), lab(COSET, 3, 2, 2))


def test_constant_refuses_an_index_outside_the_algebra():
    # A label's index is checked before its retention, so a generator outside
    # 1..dim is an IndexOutOfRange even where contains alone would say False.
    outside = ExpandedLabel(7, 0, 0, 0)
    for x, y, z in ((outside, lab(COSET, 1, 0, 0), lab(COSET, 1, 0, 0)),
                    (lab(COSET, 1, 0, 0), lab(COSET, 2, 0, 0), outside),
                    (ExpandedLabel(7, 1, 1, 0), lab(COSET, 1, 0, 0), lab(COSET, 1, 0, 0))):
        with pytest.raises(IndexOutOfRange):
            constant(COSET, x, y, z)


def test_contains_refuses_a_generator_outside_the_algebra():
    alg = ExpandedAlgebra(EPS, COSET, 2, 1, ModeWindow(1))
    assert alg.contains(ExpandedLabel(3, 0, 0, 0))
    assert not alg.contains(ExpandedLabel(7, 0, 0, 0))
    assert not alg.contains(ExpandedLabel(0, 1, 1, 1))


def test_delta_factorization():
    alg = build_named("G21", EPS, ModeWindow(1))
    for x in alg.generators:
        for y in alg.generators:
            for z in alg.generators:
                value = alg.constant(x, y, z)
                if value:
                    assert z.order == x.order + y.order
                    assert z.mode == x.mode + y.mode
                    assert EPS.entry(x.gen, y.gen, z.gen) == value


def test_antisymmetry_inheritance():
    alg = build_named("G21", EPS, ModeWindow(1))
    for x in alg.generators:
        for y in alg.generators:
            for z in alg.generators:
                assert alg.constant(x, y, z) == -alg.constant(y, x, z)


# ---------------------------------------------------------------------------
# generator_set
# ---------------------------------------------------------------------------

def test_generators_coset_order_zero():
    labels = generator_set(EPS, COSET, 0, 0, ModeWindow(2))
    assert len(labels) == 9
    assert all(label.mode % 2 == 0 and label.order == 0 for label in labels)


def test_generators_zero_mode_order_zero():
    labels = generator_set(EPS, ZERO_MODE, 0, 0, ModeWindow(2))
    assert labels == [ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]


def test_generators_g21_window_one():
    labels = generator_set(EPS, COSET, 2, 1, ModeWindow(1))
    expected = ([ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]
                + [ExpandedLabel(a, -1, 1, 1) for a in (1, 2, 3)]
                + [ExpandedLabel(a, 1, 1, 1) for a in (1, 2, 3)]
                + [ExpandedLabel(a, 0, 2, 0) for a in (1, 2, 3)])
    assert labels == expected


def test_generators_zero_mode_g1():
    labels = generator_set(EPS, ZERO_MODE, 1, 1, ModeWindow(1))
    # order 0 exists only at mode 0; order 1 exists everywhere in the window
    assert [l for l in labels if l.order == 0] == [ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]
    assert len([l for l in labels if l.order == 1]) == 9


def test_expanded_algebra_derives_its_generators_from_its_orders():
    window = ModeWindow(1)
    for n0, n1 in ((0, 0), (2, 1), (1, 3)):
        alg = ExpandedAlgebra(EPS, COSET, n0, n1, window)
        assert alg.generators == tuple(generator_set(EPS, COSET, n0, n1, window))
    # Negative orders are refused when the truncation is made, not on first use.
    for n0, n1 in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            ExpandedAlgebra(EPS, COSET, n0, n1, window)


@pytest.mark.parametrize("n0, n1", [(True, 1), (1, False), (2.5, 1), (1, 1.0), ("1", 0)])
def test_non_integer_orders_are_refused_as_the_window_refuses_them(n0, n1):
    # A bool would pass for 1 or 0, and a float would fail deep in labels_at.
    with pytest.raises(ValueError, match="non-negative integers"):
        ExpandedAlgebra(EPS, COSET, n0, n1, ModeWindow(1))
    with pytest.raises(ValueError, match="non-negative integers"):
        ClosureQuotient(EPS, COSET, ModeWindow(1)).cell(n0, n1)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_generic_balanced_orders_close():
    report = check_closure(EPS, generic({1, 2}), 1, 1, ModeWindow(1))
    assert report.closed and report.violations == []


def test_generic_unbalanced_orders_violate():
    report = check_closure(EPS, generic({1, 2}), 0, 1, ModeWindow(1))
    assert not report.closed
    assert any(v.missing.sector == 0 and v.missing.order == 1 for v in report.violations)


def test_closure_violations_reverify():
    report = check_closure(EPS, generic({1, 2}), 0, 1, ModeWindow(1))
    for v in report.violations:
        x, y = v.pair
        assert constant(generic({1, 2}), x, y, v.target) == v.coefficient != 0


def test_coset_g21_closes():
    report = check_closure(EPS, COSET, 2, 1, ModeWindow(2))
    assert report.closed


def test_generic_closure_theorem_sweep():
    # All proper nonempty v0 choices populate cross-sector witnesses on the
    # Levi-Civita constants, so both directions of the theorem are testable.
    subsets = [set(c) for r in (1, 2) for c in combinations((1, 2, 3), r)]
    for v0 in subsets:
        split = generic(v0)
        for window in (ModeWindow(1), ModeWindow(2)):
            for n0 in range(4):
                for n1 in range(4):
                    report = check_closure(EPS, split, n0, n1, window)
                    assert report.closed == (n0 == n1), (v0, n0, n1)
                    if n0 != n1:
                        assert report.violations


def test_generic_closure_diagonal_is_unconditional():
    # Any base, any split: balanced orders always close.
    for n in range(3):
        assert check_closure(ABELIAN, generic({2, 4}, dim=4), n, n, ModeWindow(1)).closed
        assert check_closure(ABELIAN, generic({2, 4}, dim=4), n, n + 1, ModeWindow(1)).closed


def test_coset_closure_theorem_sweep():
    for n0 in (0, 2):
        for n1 in (1, 3):
            closed = check_closure(EPS, COSET, n0, n1, ModeWindow(1)).closed
            assert closed == (abs(n0 - n1) == 1), (n0, n1)


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

def test_jacobi_requires_closure():
    with pytest.raises(NotClosed):
        check_jacobi_expanded(EPS, generic({1, 2}), 0, 1, ModeWindow(1))


def test_jacobi_clean_for_g01_and_independent_oracle():
    window = ModeWindow(1)
    report = check_jacobi_expanded(EPS, COSET, 0, 1, window)
    assert report.ok and report.triples_checked > 0

    # Independent brute force: quotiented cyclic sums composed through the
    # full generator list instead of the sparse target tables.
    alg = build_named("G01", EPS, window)
    gens = alg.generators
    dense = dense_tensor(EPS.dim, EPS.entries)
    table = {}
    for x in gens:
        for y in gens:
            row = {}
            for z in gens:
                value = expanded_constant(dense, x, y, z)
                if value:
                    row[z] = value
            table[(x, y)] = row
    bound = window.max_abs_mode
    for x in gens:
        for y in gens:
            if abs(x.mode + y.mode) > bound:
                continue
            for z in gens:
                if (abs(y.mode + z.mode) > bound or abs(z.mode + x.mode) > bound
                        or abs(x.mode + y.mode + z.mode) > bound):
                    continue
                residual = {}
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    for mid, f1 in table[(u, v)].items():
                        for out, f2 in table[(mid, w)].items():
                            residual[out] = residual.get(out, Fraction(0)) + f1 * f2
                assert all(value == 0 for value in residual.values())


def test_jacobi_clean_on_closed_sweep_cells():
    for n in range(3):
        assert check_jacobi_expanded(EPS, generic({1, 2}), n, n, ModeWindow(1)).ok
    for n0, n1 in ((0, 1), (2, 1), (2, 3)):
        assert check_jacobi_expanded(EPS, COSET, n0, n1, ModeWindow(1)).ok


def test_jacobi_abelian_any_orders():
    assert check_jacobi_expanded(ABELIAN, make_splitting(SplitKind.MODE_PARITY_COSET),
                                 0, 3, ModeWindow(1)).ok


def test_jacobi_of_order_zero_case_reduces_to_base():
    report = check_jacobi_expanded(EPS, ZERO_MODE, 0, 0, ModeWindow(0))
    assert report.ok and report.triples_checked == 27


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

def test_build_named_unknown_case():
    with pytest.raises(UnknownCase):
        build_named("G5", EPS, ModeWindow(1))


def test_g0_reproduces_base_algebra():
    alg = build_named("G0", EPS, ModeWindow(2))
    assert [l for l in alg.generators] == [ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                x, y, z = (ExpandedLabel(i, 0, 0, 0) for i in (a, b, c))
                assert alg.constant(x, y, z) == EPS.entry(a, b, c)


def test_g00_restricts_loop_algebra_to_even_modes():
    window = ModeWindow(2)
    alg = build_named("G00", EPS, window)
    assert all(g.mode % 2 == 0 and g.order == 0 for g in alg.generators)
    for x in alg.generators:
        for y in alg.generators:
            for z in alg.generators:
                expected = loop_structure_constant(
                    EPS, LoopLabel(x.gen, x.mode), LoopLabel(y.gen, y.mode),
                    LoopLabel(z.gen, z.mode))
                assert alg.constant(x, y, z) == expected


def test_g01_odd_odd_sector_is_absent():
    alg = build_named("G01", EPS, ModeWindow(2))
    odd = [g for g in alg.generators if g.sector == 1]
    assert odd
    for x in odd:
        for y in odd:
            for z in alg.generators:
                assert alg.constant(x, y, z) == 0


def test_g1_closes_and_passes_jacobi():
    alg = build_named("G1", EPS, ModeWindow(1))
    assert alg.closure_report().closed
    assert alg.jacobi_report().ok


def test_expanded_algebra_constant_rejects_unretained():
    alg = build_named("G0", EPS, ModeWindow(1))
    with pytest.raises(InadmissibleLabel):
        alg.constant(ExpandedLabel(1, 0, 1, 0), ExpandedLabel(2, 0, 0, 0),
                     ExpandedLabel(3, 0, 1, 0))
