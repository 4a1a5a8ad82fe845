"""Closure, Jacobi and contraction by mode-class quotient against the windowed oracles.

The quotient decides each verdict for every mode from a few representative
modes; the window only bounds the witness lists and the counters.  So at any
window that holds every representative (M >= 1 for the comparisons below,
whose representatives span at most 2 and whose counts are formulas) every
report field equals the windowed scan's, and at M = 0 only a verdict may
differ, and only toward failure.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopexp import (ClosureQuotient, ContractedAlgebra, ExpandedAlgebra, ModeWindow,
                     NotClosed, SplitKind, StructureConstants, algebra_from_dict,
                     build_named, builtin_algebra, check_closure, check_jacobi_expanded,
                     compare_with_expansion, contracted_jacobi_residuals, generator_set,
                     iw_contract, jacobi_residuals, make_splitting)
from loopexp.splitting import (MODE_CLASSES, find_representatives, pair_modes,
                               triple_modes)

from helpers_oracles import (windowed_check_closure, windowed_check_jacobi_expanded,
                             windowed_compare_with_expansion,
                             windowed_contracted_jacobi_residuals,
                             windowed_jacobi_residuals)
from test_golden import DEFINITIONS

EPS = builtin_algebra("epsilon3")
SOLVABLE = builtin_algebra("solvable2")
ABELIAN = builtin_algebra("abelian4")
GL3 = algebra_from_dict(DEFINITIONS["gl3"])
NONLIE = algebra_from_dict(DEFINITIONS["nonlie"])
COSET = make_splitting(SplitKind.MODE_PARITY_COSET)


def direct_sum(f: StructureConstants, g: StructureConstants) -> StructureConstants:
    shift = f.dim
    entries = dict(f.entries)
    entries.update({(a + shift, b + shift, c + shift): v for (a, b, c), v in g.entries.items()})
    return StructureConstants(f.dim + g.dim, entries, name=f"{f.name}+{g.name}")


def adjoint_semidirect_sum(f: StructureConstants) -> StructureConstants:
    """f acting on an abelian copy of itself by the adjoint action:
    [T_a, T_b] = f_ab^c T_c, [T_a, S_b] = f_ab^c S_c, [S_a, S_b] = 0."""
    d = f.dim
    entries = dict(f.entries)
    for (a, b, c), v in f.entries.items():
        entries[(a, b + d, c + d)] = v
        entries[(b, a + d, c + d)] = -v
    return StructureConstants(2 * d, entries, name=f"{f.name}|x ad")


ALGEBRAS = {
    "epsilon3": EPS,
    "solvable2": SOLVABLE,
    "abelian4": ABELIAN,
    "gl3": GL3,
    "nonlie": NONLIE,
    "eps+solvable": direct_sum(EPS, SOLVABLE),
    "solvable+solvable": direct_sum(SOLVABLE, SOLVABLE),
    "solvable+eps": direct_sum(SOLVABLE, EPS),
    "eps|x ad": adjoint_semidirect_sum(EPS),
    "solvable|x ad": adjoint_semidirect_sum(SOLVABLE),
}
# Largest window per algebra size, so that each windowed oracle stays quick.
MAX_WINDOW = {dim: 3 if dim <= 5 else 2 if dim <= 6 else 1 for dim in range(1, 10)}
# Windowed Jacobi sweeps of more labels than this are not run by the oracle.
JACOBI_LABEL_BUDGET = 45


@st.composite
def settings_(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    f = ALGEBRAS[name]
    kind = draw(st.sampled_from(list(SplitKind)))
    v0 = None
    if kind is SplitKind.GENERIC_INDEX:
        v0 = draw(st.sets(st.integers(1, f.dim), min_size=1, max_size=f.dim - 1))
    split = make_splitting(kind, v0_gens=v0, dim=f.dim)
    n0, n1 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    window = ModeWindow(draw(st.integers(0, MAX_WINDOW[f.dim])))
    return f, split, n0, n1, window


def at_most(new: bool, old: bool) -> bool:
    """A verdict that may only move toward failure."""
    return new <= old


@settings(max_examples=50, deadline=None)
@given(settings_())
def test_quotient_matches_windowed_oracles(case):
    f, split, n0, n1, window = case
    exact = window.max_abs_mode >= 1

    closure = check_closure(f, split, n0, n1, window)
    oracle = windowed_check_closure(f, split, n0, n1, window)
    assert closure.violations == oracle.violations
    assert closure.window_censored == oracle.window_censored
    if exact:
        assert closure.closed == oracle.closed
    else:
        assert at_most(closure.closed, oracle.closed)

    # The sweep's cell for the same truncation.
    cell = ClosureQuotient(f, split, window).cell(n0, n1)
    assert (cell.closed, cell.violations, cell.window_censored) == (
        closure.closed, len(oracle.violations), oracle.window_censored)

    labels = len(generator_set(f, split, n0, n1, window))
    if closure.closed and labels <= JACOBI_LABEL_BUDGET:
        report = check_jacobi_expanded(f, split, n0, n1, window)
        expected = windowed_check_jacobi_expanded(f, split, n0, n1, window)
        assert (report.residuals, report.triples_checked, report.window_skipped) == (
            expected.residuals, expected.triples_checked, expected.window_skipped)
        assert report.ok == expected.ok if exact else at_most(report.ok, expected.ok)
    elif not closure.closed:
        with pytest.raises(NotClosed):
            check_jacobi_expanded(f, split, n0, n1, window)

    assert jacobi_residuals(f, window) == windowed_jacobi_residuals(f, window)
    # The mask on the drawn splitting; off the coset, the comparison with the
    # parity expansion needs the representatives of both splittings.
    contracted = ContractedAlgebra(f, split, window)
    assert contracted_jacobi_residuals(contracted) == windowed_contracted_jacobi_residuals(
        contracted)
    expanded = build_named("G01", f, window)
    match, diffs = compare_with_expansion(contracted, expanded, window)
    expected_match, expected_diffs = windowed_compare_with_expansion(contracted, expanded, window)
    assert diffs == expected_diffs
    assert match == expected_match if exact else at_most(match, expected_match)


@pytest.mark.parametrize("name", ["epsilon3", "solvable2", "eps+solvable"])
@pytest.mark.parametrize("kind", list(SplitKind))
def test_sweep_matrix_matches_windowed_scans(name, kind):
    f = ALGEBRAS[name]
    split = make_splitting(kind, v0_gens={1} if kind is SplitKind.GENERIC_INDEX else None,
                           dim=f.dim)
    for m in (1, 2):
        window = ModeWindow(m)
        quotient = ClosureQuotient(f, split, window)
        for n0, n1 in product(range(5), repeat=2):
            scan = windowed_check_closure(f, split, n0, n1, window)
            assert quotient.cell(n0, n1) == (n0, n1, scan.closed, len(scan.violations),
                                             scan.window_censored)


@pytest.mark.parametrize("kind", list(SplitKind))
def test_wider_search_finds_no_new_class_pattern(kind):
    classes = MODE_CLASSES[kind]
    narrow, wide = find_representatives(classes), find_representatives(classes, span=6)

    def patterns(reps, spread):
        return {tuple(map(classes, spread(rep))) for rep in reps}

    assert patterns(wide.pairs, pair_modes) == patterns(narrow.pairs, pair_modes)
    assert patterns(wide.triples, triple_modes) == patterns(narrow.triples, triple_modes)
    # Each representative spans no more than any other instance of its pattern.
    for reps, spread, arity in ((narrow.pairs, pair_modes, 2),
                                (narrow.triples, triple_modes, 3)):
        span = {tuple(map(classes, spread(rep))): max(map(abs, spread(rep))) for rep in reps}
        for modes in product(range(-6, 7), repeat=arity):
            assert max(map(abs, spread(modes))) >= span[tuple(map(classes, spread(modes)))]


def test_representative_counts():
    counts = {kind: (len(find_representatives(MODE_CLASSES[kind]).pairs),
                     len(find_representatives(MODE_CLASSES[kind]).triples))
              for kind in SplitKind}
    assert counts == {SplitKind.GENERIC_INDEX: (1, 1),
                      SplitKind.ZERO_MODE_SUBALGEBRA: (5, 18),
                      SplitKind.MODE_PARITY_COSET: (4, 8)}


@pytest.mark.parametrize("split, orders", [
    (COSET, [(2, 1), (0, 1)]),
    (make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA), [(1, 1)]),
    (make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 5, 9}, dim=9), [(1, 1)]),
])
def test_gl3_verdicts_do_not_depend_on_the_window(split, orders):
    verdicts = []
    for m in range(1, 5):
        window = ModeWindow(m)
        quotient = ClosureQuotient(GL3, split, window)
        matrix = [quotient.cell(n0, n1).closed for n0 in range(5) for n1 in range(5)]
        jacobi = [ExpandedAlgebra.build(GL3, split, n0, n1, window).jacobi_report().ok
                  for n0, n1 in orders]
        contracted = iw_contract(GL3, COSET, window)
        match, _ = compare_with_expansion(contracted, build_named("G01", GL3, window), window)
        rows, _ = contracted_jacobi_residuals(contracted)
        verdicts.append((matrix, jacobi, match, rows == [], jacobi_residuals(GL3, window)[0]))
    assert all(v == verdicts[0] for v in verdicts)
    assert verdicts[0][1:] == ([True] * len(orders), True, True, [])


def test_nonlie_defect_is_found_for_every_window():
    # The base Jacobi defect shows on the all-zero representative triple.
    for m in range(0, 3):
        window = ModeWindow(m)
        rows, _ = jacobi_residuals(NONLIE, window)
        assert rows and rows == windowed_jacobi_residuals(NONLIE, window)[0]
        report = check_jacobi_expanded(NONLIE, COSET, 2, 1, window)
        assert not report.ok and report.residuals

