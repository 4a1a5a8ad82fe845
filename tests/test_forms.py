"""Canonical-form series, wedge/derivative arithmetic, grading, residuals."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from loopexp import (DegreeTooLow, FormPolynomial, InvalidDegree, LoopLabel,
                     ModeWindow, SplitKind, builtin_algebra,
                     canonical_form_series, check_grading, exterior_derivative,
                     graded_series_json, make_splitting, rescale_and_collect,
                     resummed, verify_mc_equations, wedge)
from loopexp.loop import label_key
from loopexp.mcforms import (CoordMonomial, GradedFormSeries, GradedSeriesResult,
                             TwoForm, residual_term_safe, term_mode_safe)

from helpers_oracles import dense_tensor, finite_bch_series, kind_branch_grading

EPS = builtin_algebra("epsilon3")
ABELIAN = builtin_algebra("abelian4")
COSET = make_splitting(SplitKind.MODE_PARITY_COSET)
ZERO_MODE = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
GENERIC12 = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)


def poly(*terms):
    return FormPolynomial({(CoordMonomial.of(mon), diff): Fraction(coef)
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
    for label, p in series.forms.items():
        assert _as_oracle_dict(exterior_derivative(p)) == _oracle_derivative(p)


def test_wedge_matches_independent_oracle_on_series():
    series = canonical_form_series(EPS, ModeWindow(1), 2)
    forms = list(series.forms.values())
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
        for label, p in series.forms.items():
            assert p == poly(((), label, 1))
        assert series.censored == 0


def test_quadratic_term_matches_direct_oracle():
    # Direct evaluation of dA + (1/2)[dA, A]: the coefficient of
    # g_{c,l} dg_{b,m} in component (a, n) is (1/2) f_{bc}^a delta_{m+l}^n.
    window = ModeWindow(1)
    series = canonical_form_series(EPS, window, 2)
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
            assert dict(series.forms[LoopLabel(a, n)].terms) == expected


def test_half_coefficient_frozen_value():
    series = canonical_form_series(EPS, ModeWindow(1), 2)
    p = series.forms[LoopLabel(3, 1)]
    assert p.coefficient(mono(LoopLabel(2, 1)), LoopLabel(1, 0)) == Fraction(1, 2)


def test_all_zero_modes_reduce_to_finite_dimensional_series():
    # With the window collapsed to mode zero the loop series coincides with
    # the finite-dimensional nested-bracket expansion.
    oracle = finite_bch_series(3, EPS.entries, 3)
    series = canonical_form_series(EPS, ModeWindow(0), 3)
    assert series.censored == 0
    for a in range(1, 4):
        engine = {(tuple(sorted(l.gen for l in mon.labels)), diff.gen): value
                  for (mon, diff), value in series.forms[LoopLabel(a, 0)].terms.items()}
        assert engine == oracle[a]


def test_window_censoring_is_counted():
    assert canonical_form_series(EPS, ModeWindow(1), 2).censored > 0
    assert canonical_form_series(EPS, ModeWindow(0), 4).censored == 0


def test_term_mode_safety():
    window = ModeWindow(1)
    assert term_mode_safe(mono(LoopLabel(2, 1)), LoopLabel(1, 0), window)
    assert not term_mode_safe(mono(LoopLabel(2, 1)), LoopLabel(1, 1), window)
    assert residual_term_safe(mono(), (LoopLabel(1, 1), LoopLabel(2, -1)), window)
    assert not residual_term_safe(mono(LoopLabel(3, 1)),
                                  (LoopLabel(1, 1), LoopLabel(2, -1)), window)


# ---------------------------------------------------------------------------
# rescaling and grading
# ---------------------------------------------------------------------------

def test_zero_mode_rescaling_leading_buckets():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    graded = rescale_and_collect(series, ZERO_MODE)
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
        graded = rescale_and_collect(series, COSET)
        for label, gseries in graded.by_label.items():
            for power in gseries.powers():
                if not gseries.bucket(power).is_zero:
                    assert power % 2 == label.mode % 2


def test_lambda_one_resummation_identity():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    for split in (COSET, ZERO_MODE,
                  make_splitting(SplitKind.GENERIC_INDEX, v0_gens={2}, dim=3)):
        graded = rescale_and_collect(series, split)
        for label in series.forms:
            assert resummed(graded, label) == series.forms[label]


def test_grading_checker_accepts_engine_output():
    series = canonical_form_series(EPS, ModeWindow(1), 3)
    assert check_grading(rescale_and_collect(series, COSET), COSET).ok
    assert check_grading(rescale_and_collect(series, ZERO_MODE), ZERO_MODE).ok
    # A sector-1 label's power-0 bucket lacks the bare differential, which
    # carries power 1; the generic split must not flag it.
    assert check_grading(rescale_and_collect(series, GENERIC12), GENERIC12).ok


def test_grading_checker_flags_doctored_bucket():
    bad_bucket = GradedFormSeries({0: poly(((), LoopLabel(1, 1), 1))})
    doctored = GradedSeriesResult({LoopLabel(1, 1): bad_bucket}, 2, ModeWindow(1),
                                  COSET, 0)
    report = check_grading(doctored, COSET)
    assert not report.ok
    doctored_z = GradedSeriesResult({LoopLabel(1, 1): bad_bucket}, 2, ModeWindow(1),
                                    ZERO_MODE, 0)
    assert not check_grading(doctored_z, ZERO_MODE).ok
    # A power-0 term whose differential is sector 0 but whose coordinates are not.
    mixed = GradedFormSeries({0: poly(((), LoopLabel(1, 0), 1),
                                      ((LoopLabel(2, 1), LoopLabel(3, -1)), LoopLabel(1, 0), 1))})
    doctored_m = GradedSeriesResult({LoopLabel(1, 0): mixed}, 3, ModeWindow(1), ZERO_MODE, 0)
    assert check_grading(doctored_m, ZERO_MODE).violations == [
        (LoopLabel(1, 0), 0, "power-0 term with a sector-1 factor")]


EPS_SERIES = canonical_form_series(EPS, ModeWindow(1), 3)


def _flagged(violations):
    return [(label, power) for label, power, _ in violations]


@given(st.sampled_from([COSET, ZERO_MODE, GENERIC12]), st.data())
def test_grading_matches_kind_branch_oracle_on_doctored_buckets(split, data):
    graded = rescale_and_collect(EPS_SERIES, split)
    label = data.draw(st.sampled_from(sorted(graded.by_label, key=label_key)))
    original = graded.by_label[label].by_power
    buckets = dict(original)
    source = data.draw(st.sampled_from(sorted(buckets)))
    poly = buckets.pop(source)
    target = data.draw(st.none() | st.integers(0, 4))
    if data.draw(st.booleans()):
        moved = poly
    else:
        key, value = data.draw(st.sampled_from(poly.sorted_terms()))
        moved = FormPolynomial({key: value})
        buckets[source] = FormPolynomial({k: v for k, v in poly.terms.items() if k != key})
    if target is not None:
        buckets[target] = buckets.get(target, FormPolynomial.zero()) + moved
    if split is not ZERO_MODE and split.sector(label) == 0:
        # Off the zero-mode split the kind branches never read a sector-0
        # label's power-0 bucket; the order-table rule also checks it there.
        assume(buckets.get(0) == original.get(0))
    doctored = GradedSeriesResult(
        {**graded.by_label, label: GradedFormSeries(dict(sorted(buckets.items())))},
        graded.degree, graded.window, split, graded.censored)
    assert (_flagged(check_grading(doctored, split).violations)
            == _flagged(kind_branch_grading(doctored, split)))


@pytest.mark.parametrize("split", [COSET, GENERIC12], ids=["coset", "generic"])
def test_grading_flags_sector0_power0_bucket_without_unit_term(split):
    label = LoopLabel(1, 0)
    graded = rescale_and_collect(EPS_SERIES, split)
    power0 = graded.by_label[label].bucket(0)
    stripped = FormPolynomial({k: v for k, v in power0.terms.items()
                               if k != (CoordMonomial.unit(), label)})
    by_power = {**graded.by_label[label].by_power, 0: stripped}
    doctored = GradedSeriesResult({**graded.by_label, label: GradedFormSeries(by_power)},
                                  graded.degree, graded.window, split, graded.censored)
    report = check_grading(doctored, split)
    assert report.violations == [(label, 0, "missing unit differential term")]
    assert kind_branch_grading(doctored, split) == []


# ---------------------------------------------------------------------------
# structure-equation residuals
# ---------------------------------------------------------------------------

def test_degree_too_low():
    series = canonical_form_series(EPS, ModeWindow(1), 2)
    graded = rescale_and_collect(series, COSET)
    with pytest.raises(DegreeTooLow):
        verify_mc_equations(graded, EPS, COSET, 2, ModeWindow(1))


def test_abelian_residuals_vanish():
    # Both sides of every equation are identically empty for an abelian base.
    series = canonical_form_series(ABELIAN, ModeWindow(1), 3)
    for split in (COSET, ZERO_MODE):
        graded = rescale_and_collect(series, split)
        report = verify_mc_equations(graded, ABELIAN, split, 2, ModeWindow(1))
        assert report.ok and report.violations == []
        assert report.targets_checked > 0


def test_epsilon_residuals_vanish_both_splittings():
    window = ModeWindow(1)
    series = canonical_form_series(EPS, window, 3)
    for split in (COSET, ZERO_MODE):
        graded = rescale_and_collect(series, split)
        report = verify_mc_equations(graded, EPS, split, 2, window)
        assert report.ok
        assert report.terms_checked > 0
        assert report.violations == []


def test_generic_split_residuals_vanish():
    window = ModeWindow(1)
    split = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)
    graded = rescale_and_collect(canonical_form_series(EPS, window, 3), split)
    assert verify_mc_equations(graded, EPS, split, 2, window).ok


def test_order_zero_equation_reproduced_from_zero_mode_buckets():
    # The power-0 part of the system lives entirely on the zero modes:
    # d w^{c,0;0} + (1/2) f_{ab}^c w^{a,0;0} w^{b,0;0} = 0,
    # assembled here with the independent derivative/wedge oracles and
    # trusted through monomial degree D-2.
    window = ModeWindow(1)
    degree = 3
    graded = rescale_and_collect(canonical_form_series(EPS, window, degree), ZERO_MODE)

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


def test_series_json_dump_is_canonical():
    graded = rescale_and_collect(canonical_form_series(EPS, ModeWindow(1), 2), COSET)
    rows = graded_series_json(graded)
    assert [row["label"] for row in rows] == sorted(
        (row["label"] for row in rows), key=lambda t: (t[1], t[0]))
    first = rows[0]["series"][0]["terms"][0]
    assert set(first) == {"monomial", "differential", "coef"}
    assert isinstance(first["coef"], str)
