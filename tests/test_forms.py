"""Canonical-form series, wedge/derivative arithmetic, grading, residuals.

The package keeps the series as integer numerators over per-degree
denominators.  The tests read it through the adapter
``helpers_oracles.as_fractions``, and the wedge and derivative statements
target the ``Fraction`` form algebra kept in ``helpers_oracles``.
"""

import dataclasses
import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopexp import (DegreeTooLow, FormPolynomial, GradedSeriesResult, InvalidDegree,
                     InvalidOrder, LoopLabel, ModeWindow, SplitKind, StructureConstants,
                     algebra_from_dict, builtin_algebra, canonical_form_series,
                     check_grading, graded_series_json, make_splitting,
                     rescale_and_collect, validate, verify_mc_equations)
from loopexp.loop import label_key
from loopexp.mcforms import residual_term_safe, term_mode_safe

from helpers_oracles import (CoordMonomial, FractionForm, TwoForm, antisymmetric_tensors,
                             as_fractions, dense_tensor, exterior_derivative, finite_bch_series,
                             fraction_forms, fraction_graded, fraction_residual,
                             kind_branch_grading, legacy_canonical_form_series,
                             legacy_graded_series_json, legacy_rescale_and_collect,
                             legacy_verify_mc_equations, resummed, store_monomial,
                             subset_residual_term_safe, subset_term_mode_safe, wedge)
from test_golden import DEFINITIONS

EPS = builtin_algebra("epsilon3")
ABELIAN = builtin_algebra("abelian4")
COSET = make_splitting(SplitKind.MODE_PARITY_COSET)
ZERO_MODE = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
GENERIC12 = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)


def poly(*terms):
    return FractionForm({(CoordMonomial.of(mon), diff): Fraction(coef)
                         for mon, diff, coef in terms})


# The epsilon3 series denominators (k+1)! for monomial degrees k = 0..3.
EPS_DENOMINATORS = (1, 2, 6, 24)


def store_poly(*terms):
    """``poly(*terms)`` as a store one-form over the epsilon3 denominators."""
    return FormPolynomial({(store_monomial(CoordMonomial.of(mon)), label_key(diff)):
                           int(Fraction(coef) * EPS_DENOMINATORS[len(mon)])
                           for mon, diff, coef in terms})


def mono(*labels):
    return CoordMonomial.of(labels)


# ---------------------------------------------------------------------------
# wedge and exterior derivative
# ---------------------------------------------------------------------------

def test_derivative_of_exact_form_is_zero():
    p = poly(((), LoopLabel(1, 0), 1))
    assert exterior_derivative(p).is_zero


def test_derivative_single_coordinate():
    p = poly(((LoopLabel(2, 1),), LoopLabel(1, 0), 1))
    d = exterior_derivative(p)
    assert d.coefficient(mono(), LoopLabel(2, 1), LoopLabel(1, 0)) == 1
    assert len(d.terms) == 1


def test_derivative_leibniz_two_coordinates():
    p = poly(((LoopLabel(2, 1), LoopLabel(3, -1)), LoopLabel(1, 0), 1))
    d = exterior_derivative(p)
    assert d.coefficient(mono(LoopLabel(3, -1)), LoopLabel(2, 1), LoopLabel(1, 0)) == 1
    assert d.coefficient(mono(LoopLabel(2, 1)), LoopLabel(3, -1), LoopLabel(1, 0)) == 1
    assert len(d.terms) == 2


def test_derivative_with_multiplicity():
    p = poly(((LoopLabel(2, 0), LoopLabel(2, 0)), LoopLabel(1, 0), 1))
    d = exterior_derivative(p)
    assert d.coefficient(mono(LoopLabel(2, 0)), LoopLabel(2, 0), LoopLabel(1, 0)) == 2


def test_derivative_kills_matching_coordinate_and_differential():
    p = poly(((LoopLabel(1, 0),), LoopLabel(1, 0), 1))
    assert exterior_derivative(p).is_zero


def test_wedge_of_two_differentials():
    w = wedge(poly(((), LoopLabel(1, 0), 1)), poly(((), LoopLabel(2, 0), 1)))
    assert w.coefficient(mono(), LoopLabel(1, 0), LoopLabel(2, 0)) == 1
    assert w.coefficient(mono(), LoopLabel(2, 0), LoopLabel(1, 0)) == -1


def test_wedge_with_itself_vanishes():
    p = poly(((), LoopLabel(1, 0), 1))
    assert wedge(p, p).is_zero


def test_wedge_antisymmetric():
    p = poly(((LoopLabel(3, 1),), LoopLabel(1, 0), 2))
    q = poly(((), LoopLabel(2, -1), 1))
    pq, qp = wedge(p, q), wedge(q, p)
    assert pq.coefficient(mono(LoopLabel(3, 1)), LoopLabel(1, 0), LoopLabel(2, -1)) == 2
    for key, value in pq.terms.items():
        assert qp.terms[key] == -value


def _oracle_pair_add(out, mon_labels, u, v, coef):
    # independent canonicalization, keyed by plain (gen, mode) tuples
    ku, kv = (u.gen, u.mode), (v.gen, v.mode)
    if ku == kv:
        return
    key = (tuple(sorted((l.gen, l.mode) for l in mon_labels)),
           (min(ku, kv), max(ku, kv)))
    sign = 1 if ku < kv else -1
    out[key] = out.get(key, Fraction(0)) + sign * coef


def _oracle_derivative(p):
    out = {}
    for (mon, dg), coef in p.terms.items():
        labels = list(mon.labels)
        for i, lab in enumerate(labels):
            rest = labels[:i] + labels[i + 1:]
            _oracle_pair_add(out, rest, lab, dg, coef)
    return {k: v for k, v in out.items() if v}


def _oracle_wedge(p, q):
    out = {}
    for (mon1, d1), c1 in p.terms.items():
        for (mon2, d2), c2 in q.terms.items():
            _oracle_pair_add(out, list(mon1.labels) + list(mon2.labels), d1, d2, c1 * c2)
    return {k: v for k, v in out.items() if v}


def _as_oracle_dict(two_form: TwoForm):
    out = {}
    for (mon, (d1, d2)), value in two_form.terms.items():
        _oracle_pair_add(out, mon.labels, d1, d2, value)
    return out


def test_derivative_matches_independent_oracle_on_series():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    for label, p in fraction_forms(series).items():
        assert _as_oracle_dict(exterior_derivative(p)) == _oracle_derivative(p)


def test_wedge_matches_independent_oracle_on_series():
    series = canonical_form_series(EPS, ModeWindow(1), 2)
    forms = list(fraction_forms(series).values())
    for p in forms[:3]:
        for q in forms[:3]:
            assert _as_oracle_dict(wedge(p, q)) == _oracle_wedge(p, q)


# ---------------------------------------------------------------------------
# canonical form series
# ---------------------------------------------------------------------------

def test_invalid_degree():
    with pytest.raises(InvalidDegree):
        canonical_form_series(EPS, ModeWindow(1), 0)


def test_abelian_series_is_pure_differential():
    for degree in (1, 2, 4):
        series = canonical_form_series(ABELIAN, ModeWindow(1), degree)
        for label, p in fraction_forms(series).items():
            assert p == poly(((), label, 1))
        assert series.censored == 0


def test_quadratic_term_matches_direct_oracle():
    # Direct evaluation of dA + (1/2)[dA, A]: the coefficient of
    # g_{c,l} dg_{b,m} in component (a, n) is (1/2) f_{bc}^a delta_{m+l}^n.
    window = ModeWindow(1)
    forms = fraction_forms(canonical_form_series(EPS, window, 2))
    tensor = dense_tensor(3, EPS.entries)
    for a in range(1, 4):
        for n in window.modes():
            expected = {(mono(), LoopLabel(a, n)): Fraction(1)}
            for b in range(1, 4):
                for m in window.modes():
                    for c in range(1, 4):
                        for l in window.modes():
                            if m + l != n or not tensor[b][c][a]:
                                continue
                            key = (mono(LoopLabel(c, l)), LoopLabel(b, m))
                            expected[key] = (expected.get(key, Fraction(0))
                                             + Fraction(1, 2) * tensor[b][c][a])
            expected = {k: v for k, v in expected.items() if v}
            assert dict(forms[LoopLabel(a, n)].terms) == expected


def test_half_coefficient_frozen_value():
    p = fraction_forms(canonical_form_series(EPS, ModeWindow(1), 2))[LoopLabel(3, 1)]
    assert p.coefficient(mono(LoopLabel(2, 1)), LoopLabel(1, 0)) == Fraction(1, 2)


def test_all_zero_modes_reduce_to_finite_dimensional_series():
    # With the window collapsed to mode zero the loop series coincides with
    # the finite-dimensional nested-bracket expansion.
    oracle = finite_bch_series(3, EPS.entries, 3)
    series = canonical_form_series(EPS, ModeWindow(0), 3)
    assert series.censored == 0
    forms = fraction_forms(series)
    for a in range(1, 4):
        engine = {(tuple(sorted(l.gen for l in mon.labels)), diff.gen): value
                  for (mon, diff), value in forms[LoopLabel(a, 0)].terms.items()}
        assert engine == oracle[a]


def test_window_censoring_is_counted():
    assert canonical_form_series(EPS, ModeWindow(1), 2).censored > 0
    assert canonical_form_series(EPS, ModeWindow(0), 4).censored == 0


labels3 = st.builds(LoopLabel, st.integers(1, 3), st.integers(-3, 3))
monomials = st.lists(labels3, max_size=4).map(CoordMonomial.of)


@given(monomials, labels3, labels3, st.integers(0, 3))
def test_mode_safety_matches_subset_sum_oracle(mon, d1, d2, bound):
    window = ModeWindow(bound)
    key = store_monomial(mon)
    assert (term_mode_safe(key, label_key(d1), window)
            == subset_term_mode_safe(mon, d1, window))
    assert (residual_term_safe(key, (label_key(d1), label_key(d2)), window)
            == subset_residual_term_safe(mon, (d1, d2), window))


@given(monomials, labels3, monomials, labels3, st.integers(0, 2))
def test_unsafe_series_term_feeds_only_unsafe_residual_terms(mon, diff, mon2, diff2, bound):
    # The pruning lemma behind the MC residual pass: dropping a series term
    # that fails term_mode_safe can change only censored residual terms.
    window = ModeWindow(bound)
    assume(not term_mode_safe(store_monomial(mon), label_key(diff), window))
    p = FractionForm({(mon, diff): Fraction(1)})
    q = FractionForm({(mon2, diff2): Fraction(1)})
    for two_form in (exterior_derivative(p), wedge(p, q), wedge(q, p)):
        for (key_mon, pair) in two_form.terms:
            assert not residual_term_safe(store_monomial(key_mon),
                                          tuple(map(label_key, pair)), window)


def test_term_mode_safety():
    window = ModeWindow(1)

    def key(*labels):
        return store_monomial(mono(*labels))

    assert term_mode_safe(key(LoopLabel(2, 1)), label_key(LoopLabel(1, 0)), window)
    assert not term_mode_safe(key(LoopLabel(2, 1)), label_key(LoopLabel(1, 1)), window)
    pair = (label_key(LoopLabel(1, 1)), label_key(LoopLabel(2, -1)))
    assert residual_term_safe(key(), pair, window)
    assert not residual_term_safe(key(LoopLabel(3, 1)), pair, window)


# ---------------------------------------------------------------------------
# rescaling and grading
# ---------------------------------------------------------------------------

def test_zero_mode_rescaling_leading_buckets():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    graded = fraction_graded(rescale_and_collect(series, ZERO_MODE))
    for label in series.forms:
        bucket0 = graded.by_label[label].bucket(0)
        if label.mode != 0:
            assert bucket0.is_zero
        else:
            assert bucket0.coefficient(mono(), LoopLabel(label.gen, 0)) == 1
            for (mon, diff) in bucket0.terms:
                assert diff.mode == 0 and all(l.mode == 0 for l in mon.labels)


def test_coset_rescaling_has_pure_parity_buckets():
    for name in ("epsilon3", "solvable2", "abelian4"):
        f = builtin_algebra(name)
        series = canonical_form_series(f, ModeWindow(1), 3)
        graded = fraction_graded(rescale_and_collect(series, COSET))
        for label, gseries in graded.by_label.items():
            for power in gseries.powers():
                if not gseries.bucket(power).is_zero:
                    assert power % 2 == label.mode % 2


def test_lambda_one_resummation_identity():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    for split in (COSET, ZERO_MODE,
                  make_splitting(SplitKind.GENERIC_INDEX, v0_gens={2}, dim=3)):
        graded = fraction_graded(rescale_and_collect(series, split))
        forms = fraction_forms(series)
        for label in series.forms:
            assert resummed(graded, label) == forms[label]


def test_grading_checker_accepts_engine_output():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    assert check_grading(rescale_and_collect(series, COSET)).ok
    assert check_grading(rescale_and_collect(series, ZERO_MODE)).ok
    # A sector-1 label's power-0 bucket lacks the bare differential, which
    # carries power 1; the generic split must not flag it.
    assert check_grading(rescale_and_collect(series, GENERIC12)).ok


def test_grading_checker_flags_doctored_bucket():
    bad_bucket = {0: store_poly(((), LoopLabel(1, 1), 1))}
    doctored = GradedSeriesResult(EPS, {LoopLabel(1, 1): bad_bucket}, EPS_DENOMINATORS[:2],
                                  2, ModeWindow(1), COSET, 0)
    report = check_grading(doctored)
    assert not report.ok
    doctored_z = GradedSeriesResult(EPS, {LoopLabel(1, 1): bad_bucket}, EPS_DENOMINATORS[:2],
                                    2, ModeWindow(1), ZERO_MODE, 0)
    assert not check_grading(doctored_z).ok
    # A power-0 term whose differential is sector 0 but whose coordinates are not.
    mixed = {0: store_poly(((), LoopLabel(1, 0), 1),
                           ((LoopLabel(2, 1), LoopLabel(3, -1)), LoopLabel(1, 0), 1))}
    doctored_m = GradedSeriesResult(EPS, {LoopLabel(1, 0): mixed}, EPS_DENOMINATORS[:3], 3,
                                    ModeWindow(1), ZERO_MODE, 0)
    assert check_grading(doctored_m).violations == [
        (LoopLabel(1, 0), 0, "power-0 term with a sector-1 factor")]


EPS_SERIES = canonical_form_series(EPS, ModeWindow(1), 3)


def test_grading_skips_an_empty_bucket():
    # On the coset a sector-0 label has no order 1, so only the skip of an
    # empty bucket keeps this one from being flagged.
    graded = rescale_and_collect(EPS_SERIES, COSET)
    label = LoopLabel(1, 0)
    assert not COSET.exists(label, 1)
    by_power = {**graded.by_label[label], 1: FormPolynomial()}
    doctored = GradedSeriesResult(graded.base, {**graded.by_label, label: by_power},
                                  graded.denominators, graded.degree, graded.window, COSET,
                                  graded.censored)
    assert check_grading(doctored).ok


def _flagged(violations):
    return [(label, power) for label, power, _ in violations]


@given(st.sampled_from([COSET, ZERO_MODE, GENERIC12]), st.data())
def test_grading_matches_kind_branch_oracle_on_doctored_buckets(split, data):
    graded = rescale_and_collect(EPS_SERIES, split)
    label = data.draw(st.sampled_from(sorted(graded.by_label, key=label_key)))
    original = graded.by_label[label]
    buckets = dict(original)
    source = data.draw(st.sampled_from(sorted(buckets)))
    poly = buckets.pop(source)
    target = data.draw(st.none() | st.integers(0, 4))
    if data.draw(st.booleans()):
        moved = poly
    else:
        key, value = data.draw(st.sampled_from(sorted(poly.terms.items())))
        moved = FormPolynomial({key: value})
        buckets[source] = FormPolynomial({k: v for k, v in poly.terms.items() if k != key})
    if target is not None:
        # A key lies in one bucket only, so the sum of two buckets is their union.
        buckets[target] = FormPolynomial({**buckets.get(target, FormPolynomial()).terms,
                                          **moved.terms})
    if split is not ZERO_MODE and split.sector(label) == 0:
        # Off the zero-mode split the kind branches never read a sector-0
        # label's power-0 bucket; the order-table rule also checks it there.
        assume(buckets.get(0) == original.get(0))
    doctored = GradedSeriesResult(
        graded.base, {**graded.by_label, label: dict(sorted(buckets.items()))},
        graded.denominators, graded.degree, graded.window, split, graded.censored)
    assert (_flagged(check_grading(doctored).violations)
            == _flagged(kind_branch_grading(doctored, split)))


@pytest.mark.parametrize("split", [COSET, GENERIC12], ids=["coset", "generic"])
def test_grading_flags_sector0_power0_bucket_without_unit_term(split):
    label = LoopLabel(1, 0)
    graded = rescale_and_collect(EPS_SERIES, split)
    power0 = graded.by_label[label][0]
    stripped = FormPolynomial({k: v for k, v in power0.terms.items()
                               if k != ((), label_key(label))})
    by_power = {**graded.by_label[label], 0: stripped}
    doctored = GradedSeriesResult(graded.base, {**graded.by_label, label: by_power},
                                  graded.denominators, graded.degree, graded.window, split,
                                  graded.censored)
    report = check_grading(doctored)
    assert report.violations == [(label, 0, "missing unit differential term")]
    assert kind_branch_grading(doctored, split) == []


# ---------------------------------------------------------------------------
# structure-equation residuals
# ---------------------------------------------------------------------------

def test_degree_too_low():
    series = canonical_form_series(EPS, ModeWindow(1), 2)
    graded = rescale_and_collect(series, COSET)
    with pytest.raises(DegreeTooLow):
        verify_mc_equations(graded, 2)


@pytest.mark.parametrize("alpha_max", [-1, True, 1.0, "1"])
def test_alpha_max_must_be_a_non_negative_integer(alpha_max):
    # A negative order once gave ok=True with no target and no term checked.
    graded = rescale_and_collect(canonical_form_series(EPS, ModeWindow(1), 3), COSET)
    with pytest.raises(InvalidOrder):
        verify_mc_equations(graded, alpha_max)


def test_abelian_residuals_vanish():
    # Both sides of every equation are identically empty for an abelian base.
    series = canonical_form_series(ABELIAN, ModeWindow(1), 3)
    for split in (COSET, ZERO_MODE):
        graded = rescale_and_collect(series, split)
        report = verify_mc_equations(graded, 2)
        assert report.ok and report.violations == []
        assert report.targets_checked > 0


def test_epsilon_residuals_vanish_both_splittings():
    window = ModeWindow(1)
    series = canonical_form_series(EPS, window, 3)
    for split in (COSET, ZERO_MODE):
        graded = rescale_and_collect(series, split)
        report = verify_mc_equations(graded, 2)
        assert report.ok
        assert report.terms_checked > 0
        assert report.violations == []


def test_generic_split_residuals_vanish():
    window = ModeWindow(1)
    split = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)
    graded = rescale_and_collect(canonical_form_series(EPS, window, 3), split)
    assert verify_mc_equations(graded, 2).ok


def test_residuals_are_checked_against_the_series_own_tensor():
    # The check takes its constants from the graded series alone, so a
    # series can no longer be checked against a tensor it was not built from.
    window = ModeWindow(1)
    graded = rescale_and_collect(canonical_form_series(EPS, window, 3), COSET)
    assert graded.base is EPS and verify_mc_equations(graded, 2).ok
    doubled = StructureConstants(3, {key: 2 * v for key, v in EPS.entries.items()})
    graded2 = rescale_and_collect(canonical_form_series(doubled, window, 3), COSET)
    assert graded2.base is doubled and verify_mc_equations(graded2, 2).ok
    # Swapping the base under the epsilon3 series makes every equation read
    # the doubled constants, which that series does not satisfy.
    report = verify_mc_equations(dataclasses.replace(graded, base=doubled), 2)
    assert not report.ok and len(report.violations) == 99


def test_order_zero_equation_reproduced_from_zero_mode_buckets():
    # The power-0 part of the system lives entirely on the zero modes:
    # d w^{c,0;0} + (1/2) f_{ab}^c w^{a,0;0} w^{b,0;0} = 0,
    # assembled here with the independent derivative/wedge oracles and
    # trusted through monomial degree D-2.
    window = ModeWindow(1)
    degree = 3
    graded = fraction_graded(rescale_and_collect(canonical_form_series(EPS, window, degree),
                                                 ZERO_MODE))

    def bucket0(gen):
        return graded.by_label[LoopLabel(gen, 0)].bucket(0)

    for c in range(1, 4):
        residual = dict(_oracle_derivative(bucket0(c)))
        for a, b, v in EPS.pairs_into(c):
            for key, value in _oracle_wedge(bucket0(a), bucket0(b)).items():
                residual[key] = residual.get(key, Fraction(0)) + Fraction(1, 2) * v * value
        for (mon_key, _), value in residual.items():
            if len(mon_key) <= degree - 2:
                assert value == 0


def rendered(graded):
    """The pre-rendered series text, indented for depth 1, where the ``mc``
    report holds it."""
    return "".join(graded_series_json(graded).chunks)


def oracle_text(fraction_graded_series):
    """The per-term dump of Fraction buckets through json.dumps, indented to depth 1."""
    text = json.dumps(legacy_graded_series_json(fraction_graded_series), sort_keys=True,
                      indent=2)
    return text.replace("\n", "\n  ")


def test_series_json_dump_is_canonical():
    graded = rescale_and_collect(canonical_form_series(EPS, ModeWindow(1), 2), COSET)
    text = rendered(graded)
    assert text == oracle_text(fraction_graded(graded))
    rows = json.loads(text)
    assert [row["label"] for row in rows] == sorted(
        (row["label"] for row in rows), key=lambda t: (t[1], t[0]))
    first = rows[0]["series"][0]["terms"][0]
    assert set(first) == {"monomial", "differential", "coef"}
    assert isinstance(first["coef"], str)


@pytest.mark.parametrize("split", [COSET, ZERO_MODE, GENERIC12],
                         ids=["coset", "zero_mode", "generic"])
def test_grading_and_dump_match_fraction_oracle(split):
    series = canonical_form_series(EPS, ModeWindow(1), 4)
    graded = rescale_and_collect(series, split)
    legacy = legacy_rescale_and_collect(legacy_canonical_form_series(EPS, ModeWindow(1), 4),
                                        split)
    assert fraction_graded(graded) == legacy
    assert rendered(graded) == oracle_text(legacy)


# Small raw tensors: any index triple, values with small denominators of
# either sign, so that coefficient strings vary.
RAW_VALUES = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def generated_graded(draw):
    dim = draw(st.integers(1, 3))
    index = st.integers(1, dim)
    entries = draw(st.dictionaries(st.tuples(index, index, index), RAW_VALUES, max_size=6))
    f = StructureConstants(dim, entries, name="generated")
    kinds = [kind for kind in SplitKind if dim > 1 or kind is not SplitKind.GENERIC_INDEX]
    kind = draw(st.sampled_from(kinds))
    v0 = None
    if kind is SplitKind.GENERIC_INDEX:
        v0 = draw(st.sets(index, min_size=1, max_size=dim - 1))
    split = make_splitting(kind, v0_gens=v0, dim=dim)
    window = draw(st.integers(0, 2))
    # At most 9 coordinates reach degree 4; wider series stop at degree 3.
    degree = draw(st.integers(1, 4 if dim * (2 * window + 1) <= 9 else 3))
    return rescale_and_collect(canonical_form_series(f, ModeWindow(window), degree), split)


@settings(max_examples=60, deadline=None)
@given(generated_graded())
def test_rendered_series_matches_per_term_dump(graded):
    assert rendered(graded) == oracle_text(fraction_graded(graded))


@pytest.mark.parametrize("by_label", [
    {},
    # A label with no buckets, and one whose only bucket is empty.
    {LoopLabel(2, 0): {}, LoopLabel(1, -1): {0: FormPolynomial()}},
    # The empty monomial, repeated factors and a negative coefficient.
    {LoopLabel(1, 0): {0: store_poly(((), LoopLabel(1, 0), 1)),
                       2: store_poly(((LoopLabel(2, 1), LoopLabel(2, 1)), LoopLabel(3, -1),
                                      "-1/6"),
                                     ((LoopLabel(2, 1), LoopLabel(2, 1), LoopLabel(3, 0)),
                                      LoopLabel(3, -1), "5/24"),
                                     ((LoopLabel(2, -1),), LoopLabel(3, 1), "1/2"))},
     LoopLabel(3, 1): {}},
], ids=["no_labels", "no_buckets", "empty_and_repeated"])
def test_rendered_series_fixed_cases(by_label):
    graded = GradedSeriesResult(EPS, by_label, EPS_DENOMINATORS, 4, ModeWindow(1), COSET, 0)
    assert rendered(graded) == oracle_text(fraction_graded(graded))


# A raw tensor: f_12 and f_21 are stored independently and disagree, and the
# diagonal pair (3, 3) is nonzero.
RAW = StructureConstants(3, {(1, 2, 3): 1, (2, 1, 3): "1/3", (2, 3, 1): 2,
                             (1, 3, 2): -1, (3, 3, 1): 1}, name="raw")
RESIDUAL_ALGEBRAS = {"epsilon3": EPS, "solvable2": builtin_algebra("solvable2"),
                     "nonlie": algebra_from_dict(DEFINITIONS["nonlie"]),
                     "gl3": algebra_from_dict(DEFINITIONS["gl3"]), "raw": RAW}


@lru_cache(maxsize=None)
def _graded(name, kind, window, degree):
    f = RESIDUAL_ALGEBRAS[name]
    split = make_splitting(kind, v0_gens={1} if kind is SplitKind.GENERIC_INDEX else None,
                           dim=f.dim)
    return f, split, rescale_and_collect(canonical_form_series(f, ModeWindow(window), degree),
                                         split)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RESIDUAL_ALGEBRAS)), st.sampled_from(list(SplitKind)),
       st.integers(0, 2), st.integers(1, 4), st.data())
def test_residual_pass_matches_legacy_oracle(name, kind, window, degree, data):
    if name == "gl3":
        window, degree = min(window, 1), min(degree, 3)
    alpha_max = data.draw(st.integers(0, degree - 1))
    f, split, graded = _graded(name, kind, window, degree)
    if degree <= 2:
        # Residual terms have degree at most D-2, so D = 1 would check none and
        # D = 2 none of the Jacobi identity's degree 1.
        with pytest.raises(DegreeTooLow):
            verify_mc_equations(graded, alpha_max)
        return
    new = verify_mc_equations(graded, alpha_max)
    old = legacy_verify_mc_equations(fraction_graded(graded), f, split, alpha_max,
                                     ModeWindow(window))
    assert new.ok == old.ok
    assert list(map(fraction_residual, new.violations)) == old.violations
    assert new.targets_checked == old.targets_checked


def test_residual_pass_reports_raw_tensor_violations_like_the_oracle():
    f, split, graded = _graded("raw", SplitKind.MODE_PARITY_COSET, 1, 3)
    new = verify_mc_equations(graded, 2)
    assert not new.ok
    assert list(map(fraction_residual, new.violations)) == legacy_verify_mc_equations(
        fraction_graded(graded), f, split, 2, ModeWindow(1)).violations


# f_12^3 = f_13^1 = f_23^2 = 1: antisymmetric, with six Jacobi defects.
NON_LIE = StructureConstants(3, {(1, 2, 3): 1, (2, 1, 3): -1, (1, 3, 1): 1, (3, 1, 1): -1,
                                 (2, 3, 2): 1, (3, 2, 2): -1}, name="non-lie")
# (M, D, alpha_max) at which the mc verdict must be validate's.
JACOBI_VISIBLE = [(0, 3, 0), (1, 3, 1), (0, 4, 0)]


@settings(max_examples=20, deadline=None)
@given(antisymmetric_tensors(), st.sampled_from([ZERO_MODE, COSET]))
@example(NON_LIE, ZERO_MODE)
@example(NON_LIE, COSET)
def test_mc_sees_a_jacobi_defect_from_degree_three(f, split):
    # The Jacobi identity is the degree-1 MC equation and residual terms have
    # degree at most D-2, so the mc verdict on the mode-graded kinds is
    # validate's from D = 3.  At D = 2 every antisymmetric tensor would pass,
    # so that degree is refused.
    lie = not validate(f).jacobi
    assert f is not NON_LIE or not lie
    for window, degree, alpha_max in JACOBI_VISIBLE + [(0, 2, 0), (1, 2, 1)]:
        graded = rescale_and_collect(canonical_form_series(f, ModeWindow(window), degree),
                                     split)
        if degree == 2:
            with pytest.raises(DegreeTooLow):
                verify_mc_equations(graded, alpha_max)
        else:
            assert verify_mc_equations(graded, alpha_max).ok == lie


SERIES_ALGEBRAS = {"epsilon3": EPS, "solvable2": builtin_algebra("solvable2"),
                   "gl3": RESIDUAL_ALGEBRAS["gl3"], "raw": RAW,
                   "file-algebra": algebra_from_dict(DEFINITIONS["file-algebra"])}
# gl3 stops at M=1, D=4: its M=1, D=5 series has 186k terms and takes seconds.
SERIES_CASES = [(name, window, degree) for name in sorted(SERIES_ALGEBRAS)
                for window in range(3) for degree in range(1, 6)
                if name != "gl3" or (window <= 1 and degree <= 4)]


@pytest.mark.parametrize("name, window, degree", SERIES_CASES)
def test_integer_series_matches_fraction_oracle(name, window, degree):
    f = SERIES_ALGEBRAS[name]
    new = canonical_form_series(f, ModeWindow(window), degree)
    old = legacy_canonical_form_series(f, ModeWindow(window), degree)
    assert fraction_forms(new) == old.forms
    assert list(new.forms) == list(old.forms)
    assert new.censored == old.censored
    assert (new.degree, new.window) == (old.degree, old.window)
    for poly_ in new.forms.values():
        assert all(type(num) is int for num in poly_.terms.values())
        # The store's natural key order is the canonical label order.
        in_store_order = as_fractions(FormPolynomial(dict(sorted(poly_.terms.items()))),
                                      new.denominators)
        assert list(in_store_order) == sorted(
            in_store_order, key=lambda key: (tuple(label_key(x) for x in key[0].labels),
                                             label_key(key[1])))
