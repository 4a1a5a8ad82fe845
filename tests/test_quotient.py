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
                     check_subalgebra, check_symmetric_coset, compare_with_expansion,
                     contracted_jacobi_residuals, generator_set, iw_contract,
                     jacobi_residuals, make_splitting, validate)
from loopexp import LoopLabel, enumerate_generators, loop
from loopexp.splitting import (MODE_CLASSES, find_representatives, pair_modes,
                               triple_modes)

from helpers_oracles import (dense_tensor, expanded_constant, legacy_closure_violations,
                             raw_tensors, windowed_check_closure,
                             windowed_check_jacobi_expanded, windowed_check_subalgebra,
                             windowed_check_symmetric_coset, windowed_compare_with_expansion,
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


@st.composite
def raw_splittings(draw):
    """A raw tensor of dim 2 to 4 and a splitting of any kind on it."""
    f = draw(raw_tensors(2, 4))
    kind = draw(st.sampled_from(list(SplitKind)))
    v0 = None
    if kind is SplitKind.GENERIC_INDEX:
        v0 = draw(st.sets(st.integers(1, f.dim), min_size=1, max_size=f.dim - 1))
    return f, make_splitting(kind, v0_gens=v0, dim=f.dim)


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
    # The mask and its Jacobi check on the drawn splitting; the comparison
    # with the parity expansion takes the contraction on the coset.
    masked = ContractedAlgebra(f, split, window)
    assert contracted_jacobi_residuals(masked) == windowed_contracted_jacobi_residuals(masked)
    contracted = iw_contract(f, COSET, window)
    match, diffs = compare_with_expansion(contracted)
    expected_match, expected_diffs = windowed_compare_with_expansion(
        contracted, build_named("G01", f, window), window)
    assert diffs == expected_diffs
    assert match == expected_match if exact else at_most(match, expected_match)


@settings(max_examples=50, deadline=None)
@given(settings_(), st.data())
def test_constants_and_masked_brackets_match_the_dense_oracles(case, data):
    # ExpandedAlgebra.constant against the delta formula, on drawn pairs and
    # every retained target at or off their mode sum; ContractedAlgebra.bracket
    # against the dense tensor, kept where the target sector is the sum of the
    # source sectors.
    f, split, n0, n1, window = case
    table = dense_tensor(f.dim, f.entries)
    alg = ExpandedAlgebra(f, split, n0, n1, window)
    labels = st.sampled_from(alg.generators)
    for x, y in data.draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=20)):
        for z in alg.generators + tuple(alg.labels_at(x.mode + y.mode)):
            assert alg.constant(x, y, z) == expanded_constant(table, x, y, z)

    masked = ContractedAlgebra(f, split, window)
    loop_labels = enumerate_generators(f, window)
    for x, y in product(loop_labels, repeat=2):
        mode = x.mode + y.mode
        expected = {LoopLabel(c, mode): table[x.gen][y.gen][c] for c in range(1, f.dim + 1)
                    if table[x.gen][y.gen][c] and split.sector(LoopLabel(c, mode))
                    == split.sector(x) + split.sector(y)}
        assert masked.bracket(x, y) == expected


class _PerBetaQuotient(ClosureQuotient):
    """The closure quotient counting each cell with the per-beta loop."""

    def _violations(self, caps, target, x, y):
        return legacy_closure_violations(self.rule, caps, target, x, y)


@settings(max_examples=60, deadline=None)
@given(raw_splittings(), st.integers(0, 2),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=6))
def test_closure_cells_match_the_per_beta_loop(case, m, caps):
    f, split = case
    window = ModeWindow(m)
    new, old = ClosureQuotient(f, split, window), _PerBetaQuotient(f, split, window)
    for n0, n1 in caps:
        assert new.cell(n0, n1) == old.cell(n0, n1)


@settings(max_examples=45, deadline=None)
@given(raw_splittings(), st.integers(0, 1))
def test_masked_jacobi_verdicts_are_validate_verdicts(case, m):
    # Both masked brackets fail Jacobi exactly when the base audit does: the
    # expansion on every closed truncation, and the contraction when its
    # mode-0 slice, read from its bracket, has a defect.
    f, split = case
    window = ModeWindow(m)
    defect = bool(validate(f).jacobi)
    quotient = ClosureQuotient(f, split, window)
    for n0, n1 in product(range(3), repeat=2):
        if quotient.cell(n0, n1).closed:
            assert check_jacobi_expanded(f, split, n0, n1, window).ok is not defect
    masked = ContractedAlgebra(f, split, window)
    gens = range(1, f.dim + 1)
    mode0 = StructureConstants(f.dim, {(a, b, z.gen): v for a in gens for b in gens for z, v
                                       in masked.bracket(LoopLabel(a, 0), LoopLabel(b, 0)).items()})
    assert bool(contracted_jacobi_residuals(masked)[0]) == bool(validate(mode0).jacobi)


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

    def pattern(modes):
        return tuple(map(classes, pair_modes(modes)))

    def orbit(modes):
        """The class patterns of a triple's rotations (n, m, l) -> (m, l, n)."""
        n, m, l = modes
        return frozenset(tuple(map(classes, triple_modes(turn)))
                         for turn in ((n, m, l), (m, l, n), (l, n, m)))

    assert {pattern(rep) for rep in wide.pairs} == {pattern(rep) for rep in narrow.pairs}
    assert {orbit(rep) for rep in wide.triples} == {orbit(rep) for rep in narrow.triples}
    # One representative per orbit, and each spans no more than any other
    # instance of its pair pattern or triple orbit.
    assert len({orbit(rep) for rep in narrow.triples}) == len(narrow.triples)
    for reps, key, spread, arity in ((narrow.pairs, pattern, pair_modes, 2),
                                     (narrow.triples, orbit, triple_modes, 3)):
        span = {key(rep): max(map(abs, spread(rep))) for rep in reps}
        for modes in product(range(-6, 7), repeat=arity):
            assert max(map(abs, spread(modes))) >= span[key(modes)]


def test_representative_counts():
    counts = {kind: (len(find_representatives(MODE_CLASSES[kind]).pairs),
                     len(find_representatives(MODE_CLASSES[kind]).triples))
              for kind in SplitKind}
    assert counts == {SplitKind.GENERIC_INDEX: (1, 1),
                      SplitKind.ZERO_MODE_SUBALGEBRA: (5, 8),
                      SplitKind.MODE_PARITY_COSET: (4, 4)}


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
        jacobi = [ExpandedAlgebra(GL3, split, n0, n1, window).jacobi_report().ok
                  for n0, n1 in orders]
        contracted = iw_contract(GL3, COSET, window)
        match, _ = compare_with_expansion(contracted)
        rows, _ = contracted_jacobi_residuals(contracted)
        verdicts.append((matrix, jacobi, match, rows == [], jacobi_residuals(GL3, window)[0]))
    assert all(v == verdicts[0] for v in verdicts)
    assert verdicts[0][1:] == ([True] * len(orders), True, True, [])


def test_equal_mode_representative_sums_one_triple_per_rotation(monkeypatch):
    # gl(3) at (2,1) on the coset has 18 labels at each even mode and 9 at each
    # odd one.  Of the triples (0,0,0), (0,0,1), (0,1,-1) and (1,1,-1), only the
    # first has three equal modes; it needs (18**3 + 2*18) / 3 = 1956 sums, one
    # per rotation orbit of label triples, where all of them would be 5832.
    calls = []
    cyclic_sum = loop._cyclic_sum
    monkeypatch.setattr(loop, "_cyclic_sum", lambda *args: calls.append(1) or cyclic_sum(*args))
    assert check_jacobi_expanded(GL3, COSET, 2, 1, ModeWindow(2)).ok
    assert len(calls) == 1956 + 18 * 18 * 9 + 18 * 9 * 9 + 9 ** 3 == 7059


def test_nonlie_defect_is_found_for_every_window():
    # The base Jacobi defect shows on the all-zero representative triple.
    for m in range(0, 3):
        window = ModeWindow(m)
        rows, _ = jacobi_residuals(NONLIE, window)
        assert rows and rows == windowed_jacobi_residuals(NONLIE, window)[0]
        report = check_jacobi_expanded(NONLIE, COSET, 2, 1, window)
        assert not report.ok and report.residuals



@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_split_checks_match_windowed_scans_from_window_two(name):
    # Every representative pair lies within |mode| <= 2, so from M = 2 on every
    # realized sector pattern has a windowed instance and the reports agree.
    # Below that only a verdict may differ, and only toward failure: the
    # counts match from M = 0, and so do the witnesses, which a passing
    # verdict rules out at every mode.
    f = ALGEBRAS[name]
    splits = [make_splitting(kind) for kind in (SplitKind.ZERO_MODE_SUBALGEBRA,
                                                SplitKind.MODE_PARITY_COSET)]
    splits += [make_splitting(SplitKind.GENERIC_INDEX, v0_gens=v0, dim=f.dim)
               for v0 in ({1}, set(range(1, f.dim)))]
    for split in splits:
        for m in range(0, MAX_WINDOW[f.dim] + 1):
            window = ModeWindow(m)
            sub = check_subalgebra(f, split, window)
            coset = check_symmetric_coset(f, split, window)
            expected_sub = windowed_check_subalgebra(f, split, window)
            expected_coset = windowed_check_symmetric_coset(f, split, window)
            if m >= 2:
                assert (sub, coset) == (expected_sub, expected_coset)
            assert at_most(sub.is_subalgebra_v0, expected_sub.is_subalgebra_v0)
            assert at_most(coset.is_symmetric_coset, expected_coset.is_symmetric_coset)
            assert (sub.subalgebra_witnesses, sub.window_censored) == (
                expected_sub.subalgebra_witnesses, expected_sub.window_censored)
            assert (coset.coset_witnesses, coset.window_censored) == (
                expected_coset.coset_witnesses, expected_coset.window_censored)


# The windowed witness listers, by module.  The class checks call them only
# to list the witnesses of a failed verdict.
WITNESS_LISTERS = [("loop", "jacobi_sweep"), ("expansion", "_closure_witnesses"),
                   ("splitting", "window_pairs"), ("contraction", "window_pairs")]


class _Shifted(ContractedAlgebra):
    """Fixture: every bracket term off by one, so the comparison fails."""

    def bracket(self, x, y):
        return {z: v + 1 for z, v in super().bracket(x, y).items()}


def test_windowed_scans_run_only_on_a_failed_verdict(monkeypatch):
    def refuse(*args):
        raise AssertionError("a windowed scan ran")

    for module, name in WITNESS_LISTERS:
        monkeypatch.setattr(f"loopexp.{module}.{name}", refuse)
    window = ModeWindow(2)
    contracted = iw_contract(GL3, COSET, window)
    assert check_subalgebra(GL3, COSET, window).is_subalgebra_v0
    assert check_symmetric_coset(GL3, COSET, window).is_symmetric_coset
    assert compare_with_expansion(contracted) == (True, [])
    assert jacobi_residuals(GL3, window)[0] == []
    # The base audit walks the tensor's support, failing or not.
    assert validate(GL3).is_valid and validate(NONLIE).jacobi
    assert contracted_jacobi_residuals(contracted)[0] == []
    assert check_jacobi_expanded(GL3, COSET, 2, 1, window).ok
    # A failed verdict calls each lister.
    zero_mode = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
    for failing in (lambda: jacobi_residuals(NONLIE, window),
                    lambda: check_closure(EPS, COSET, 0, 3, window),
                    lambda: check_symmetric_coset(EPS, zero_mode, window),
                    lambda: compare_with_expansion(_Shifted(GL3, COSET, window))):
        with pytest.raises(AssertionError, match="windowed scan"):
            failing()


def test_comparison_reads_brackets_not_admissibility_checked_constants(monkeypatch):
    # The comparison meets the masked bracket with the expanded bracket of the
    # lifted pair, so it never evaluates a constant through the label checks.
    def refuse(*args):
        raise AssertionError("a constant was evaluated with its admissibility checks")

    window = ModeWindow(2)
    contracted = iw_contract(GL3, COSET, window)
    monkeypatch.setattr(ExpandedAlgebra, "constant", refuse)
    assert compare_with_expansion(contracted) == (True, [])
