"""Canonical-form series, coordinate rescaling, and graded residual checks.

The canonical one-form g^{-1}dg is expanded through the nested-bracket series

    dA + (1/2!)[dA, A] + (1/3!)[[dA, A], A] + ...

with A the coordinate-linear element, giving each component as a polynomial in
the group coordinates times a single differential.  Rescaling the sector-1
coordinates grades every term by its count of sector-1 factors, and the graded
one-forms must satisfy the order-by-order structure equations

    d w^{c,l;alpha} + (1/2) f_{ab}^c  sum_{beta} w^{a,n;beta} w^{b,m;alpha-beta} = 0

with n+m = l.  All of this is desk-scale exact arithmetic on sparse terms.

Mode-window censoring: a term is trustworthy only if every partial mode sum of
its factors stays inside the window (the recursion would otherwise have dropped
some of its build paths, and the pair sum would miss out-of-window sources).
Such terms are excluded from verification and counted, never reported as
residuals.  The counters of :func:`verify_mc_equations` are:

- ``terms_checked``: formed residual terms of degree <= D-2 and power <=
  alpha_max that pass :func:`residual_term_safe`, exact zeros included.  A
  term is formed when a derivative or wedge contribution lands on it, even if
  the contributions cancel;
- ``mode_censored``: formed residual terms that fail :func:`residual_term_safe`;
- ``degree_censored``: pairs of kept series terms that the wedge skips because
  their degrees sum above D-2, once per target, folded generator pair and mode
  split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Iterable, Mapping, NamedTuple

from .algebra import StructureConstants, format_rational
from .loop import LoopLabel, ModeWindow, enumerate_generators, label_key
from .splitting import Splitting


class InvalidDegree(ValueError):
    """The series degree must be at least 1."""


class DegreeTooLow(ValueError):
    """The series was not computed deep enough for the requested order."""


@dataclass(frozen=True)
class CoordMonomial:
    """Commutative product of group coordinates, stored as a sorted label tuple."""

    labels: tuple[LoopLabel, ...] = ()

    @classmethod
    def unit(cls) -> "CoordMonomial":
        return cls(())

    @classmethod
    def of(cls, labels: Iterable[LoopLabel]) -> "CoordMonomial":
        return cls(tuple(sorted(labels, key=label_key)))

    @property
    def degree(self) -> int:
        return len(self.labels)

    def without_one(self, label: LoopLabel) -> "CoordMonomial":
        labels = list(self.labels)
        labels.remove(label)
        return CoordMonomial(tuple(labels))

    # A series shares one monomial among its terms, so these two are built once.
    @cached_property
    def _counts(self) -> tuple[tuple[LoopLabel, int], ...]:
        out: list[tuple[LoopLabel, int]] = []
        for label in self.labels:
            if out and out[-1][0] == label:
                out[-1] = (label, out[-1][1] + 1)
            else:
                out.append((label, 1))
        return tuple(out)

    @cached_property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        """The factors' label keys, in canonical monomial order."""
        return tuple(label_key(label) for label in self.labels)

    def counts(self) -> list[tuple[LoopLabel, int]]:
        return list(self._counts)

    def sector_count(self, s: Splitting) -> int:
        return sum(1 for label in self.labels if s.sector(label) == 1)

    def json_factors(self) -> list[list[int]]:
        return [[label.gen, label.mode, mult] for label, mult in self._counts]


TermKey = tuple[CoordMonomial, LoopLabel]
PairKey = tuple[CoordMonomial, tuple[LoopLabel, LoopLabel]]


def _add(acc: dict, key, value: Fraction) -> None:
    total = acc.get(key, Fraction(0)) + value
    if total:
        acc[key] = total
    elif key in acc:
        del acc[key]


@dataclass(frozen=True)
class FormPolynomial:
    """One-form: sparse sum of coefficient * monomial * dg_{b,m}."""

    terms: Mapping[TermKey, Fraction] = field(default_factory=dict)

    @classmethod
    def zero(cls) -> "FormPolynomial":
        return cls({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: CoordMonomial, diff: LoopLabel) -> Fraction:
        return self.terms.get((mon, diff), Fraction(0))

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].sort_key, kv[0][1].mode, kv[0][1].gen))

    def __add__(self, other: "FormPolynomial") -> "FormPolynomial":
        acc = dict(self.terms)
        for key, value in other.terms.items():
            _add(acc, key, value)
        return FormPolynomial(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormPolynomial) and dict(self.terms) == dict(other.terms)


@dataclass(frozen=True)
class TwoForm:
    """Two-form with wedge antisymmetry folded into a canonically ordered pair."""

    terms: Mapping[PairKey, Fraction] = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: CoordMonomial, d1: LoopLabel, d2: LoopLabel) -> Fraction:
        pair, sign = _wedge_pair(d1, d2)
        if pair is None:
            return Fraction(0)
        return sign * self.terms.get((mon, pair), Fraction(0))

    def sorted_terms(self) -> list[tuple[PairKey, Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].sort_key,
                                      label_key(kv[0][1][0]), label_key(kv[0][1][1])))

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and dict(self.terms) == dict(other.terms)


def _wedge_pair(d1: LoopLabel, d2: LoopLabel) -> tuple[tuple[LoopLabel, LoopLabel] | None, int]:
    k1, k2 = label_key(d1), label_key(d2)
    if k1 == k2:
        return None, 0
    if k1 < k2:
        return (d1, d2), 1
    return (d2, d1), -1


def exterior_derivative(p: FormPolynomial) -> TwoForm:
    """Leibniz rule over the coordinate factors; d of the differential is zero."""
    acc: dict[PairKey, Fraction] = {}
    for (mon, diff), coef in p.terms.items():
        for label, mult in mon.counts():
            pair, sign = _wedge_pair(label, diff)
            if pair is None:
                continue
            _add(acc, (mon.without_one(label), pair), coef * mult * sign)
    return TwoForm(acc)


def wedge(p: FormPolynomial, q: FormPolynomial) -> TwoForm:
    acc: dict[PairKey, Fraction] = {}
    for (mon1, d1), c1 in p.terms.items():
        for (mon2, d2), c2 in q.terms.items():
            pair, sign = _wedge_pair(d1, d2)
            if pair is not None:
                _add(acc, (CoordMonomial.of(mon1.labels + mon2.labels), pair), c1 * c2 * sign)
    return TwoForm(acc)


@dataclass(frozen=True)
class GradedFormSeries:
    """One-form graded by the rescaling power."""

    by_power: Mapping[int, FormPolynomial] = field(default_factory=dict)

    def bucket(self, power: int) -> FormPolynomial:
        return self.by_power.get(power, FormPolynomial.zero())

    def powers(self) -> list[int]:
        return sorted(self.by_power)


@dataclass(frozen=True)
class SeriesResult:
    """Canonical-form components, complete through coordinate degree D-1."""

    forms: dict[LoopLabel, FormPolynomial]
    degree: int
    window: ModeWindow
    censored: int


@dataclass(frozen=True)
class GradedSeriesResult:
    by_label: dict[LoopLabel, GradedFormSeries]
    degree: int
    window: ModeWindow
    split: Splitting
    censored: int


def canonical_form_series(f: StructureConstants, window: ModeWindow, degree: int) -> SeriesResult:
    """Expand every windowed component of g^{-1}dg through total degree ``degree``.

    A term of coordinate degree k (k coordinate factors plus one differential)
    comes from the k-fold nested bracket with prefactor 1/(k+1)!.  Bracket
    targets whose mode leaves the window are dropped and counted as censored.
    """
    if not isinstance(degree, int) or degree < 1:
        raise InvalidDegree(f"series degree must be a positive integer, got {degree!r}")
    coords = enumerate_generators(f, window)
    bound = window.max_abs_mode
    gens = range(1, f.dim + 1)
    rows = {(a, b): f.pair_targets(a, b) for a in gens for b in gens}
    # A step-k numerator is an integer over scale**k; monomials are sorted
    # (mode, gen) tuples, whose natural order is label_key order.
    scale = lcm(*(v.denominator for row in rows.values() for _, v in row))
    int_rows = {pair: [(c, v.numerator * (scale // v.denominator)) for c, v in row]
                for pair, row in rows.items() if row}

    out: dict[LoopLabel, dict[TermKey, Fraction]] = {
        lab: {(CoordMonomial.unit(), lab): Fraction(1)} for lab in coords}
    current: dict[LoopLabel, dict[tuple, int]] = {lab: {((), lab): 1} for lab in coords}
    monomials: dict[tuple, CoordMonomial] = {}
    censored = 0
    for k in range(1, degree):
        nxt: dict[LoopLabel, dict[tuple, int]] = {}
        for source, terms in current.items():
            for coord in coords:
                row = int_rows.get((source.gen, coord.gen))
                if row is None:
                    continue
                mode = source.mode + coord.mode
                if abs(mode) > bound:
                    censored += len(terms) * len(row)
                    continue
                factor = ((coord.mode, coord.gen),)
                accs = [(nxt.setdefault(LoopLabel(c, mode), {}), v) for c, v in row]
                for (mon, diff), num in terms.items():
                    key = (tuple(sorted(mon + factor)), diff)
                    for acc, v in accs:
                        acc[key] = acc.get(key, 0) + num * v
        # A key of degree k arises only at step k, so each output term gets
        # exactly one Fraction, with the nested-bracket prefactor 1/(k+1)!.
        den = scale ** k * factorial(k + 1)
        current = {}
        for label, terms in nxt.items():
            current[label] = terms = {key: num for key, num in terms.items() if num}
            bucket = out[label]
            for (mon, diff), num in terms.items():
                monomial = monomials.get(mon)
                if monomial is None:
                    monomial = monomials[mon] = CoordMonomial(
                        tuple(LoopLabel(gen, mode) for mode, gen in mon))
                bucket[monomial, diff] = Fraction(num, den)
        if not current:
            break

    forms = {lab: FormPolynomial(terms) for lab, terms in out.items()}
    return SeriesResult(forms, degree, window, censored)


def rescale_and_collect(series: SeriesResult, s: Splitting) -> GradedSeriesResult:
    """Grade each term by its number of sector-1 factors (coordinates plus the
    differential) and bucket by total power."""
    graded: dict[LoopLabel, GradedFormSeries] = {}
    for label, poly in series.forms.items():
        buckets: dict[int, dict[TermKey, Fraction]] = {}
        for (mon, diff), coef in poly.terms.items():
            power = mon.sector_count(s) + s.sector(diff)
            buckets.setdefault(power, {})[(mon, diff)] = coef
        graded[label] = GradedFormSeries({p: FormPolynomial(t)
                                          for p, t in sorted(buckets.items())})
    return GradedSeriesResult(graded, series.degree, series.window, s, series.censored)


def resummed(graded: GradedSeriesResult, label: LoopLabel) -> FormPolynomial:
    """Sum of all buckets; equals the unrescaled component exactly."""
    total = FormPolynomial.zero()
    for power in graded.by_label[label].powers():
        total = total + graded.by_label[label].bucket(power)
    return total


def _shifts_in_window(modes: Iterable[int], shifts: Iterable[int], bound: int) -> bool:
    """Whether every shift plus every sub-multiset sum of ``modes`` lies within
    ``bound``.  The extreme sums are those of the negative and of the positive
    modes, and every other sum lies between them."""
    low = high = 0
    for mode in modes:
        if mode < 0:
            low += mode
        else:
            high += mode
    return all(-bound <= t + low and t + high <= bound for t in shifts)


def term_mode_safe(mon: CoordMonomial, diff: LoopLabel, window: ModeWindow) -> bool:
    """Whether a one-form term's coefficient is untouched by window censoring:
    the differential's mode plus every sub-multiset sum of the factors' modes
    is windowed."""
    return _shifts_in_window([x.mode for x in mon.labels], (diff.mode,), window.max_abs_mode)


def residual_term_safe(mon: CoordMonomial, diffs: tuple[LoopLabel, LoopLabel],
                       window: ModeWindow) -> bool:
    """Whether a residual two-form term is exactly computable from windowed data.

    Every sub-multiset of the factors that contains at least one of the two
    differentials must have a windowed mode sum: those sums are exactly the
    intermediate modes of the build paths and the split modes of the pair sum.
    """
    d1, d2 = diffs
    return _shifts_in_window([x.mode for x in mon.labels],
                             (d1.mode, d2.mode, d1.mode + d2.mode), window.max_abs_mode)


class McResidualTerm(NamedTuple):
    label: LoopLabel
    power: int
    monomial: CoordMonomial
    diffs: tuple[LoopLabel, LoopLabel]
    value: Fraction


@dataclass
class McResidualReport:
    ok: bool
    violations: list[McResidualTerm] = field(default_factory=list)
    terms_checked: int = 0
    mode_censored: int = 0
    degree_censored: int = 0
    targets_checked: int = 0


def _folded_pairs(f: StructureConstants, c: int) -> list[tuple[int, int, Fraction]]:
    """(a, b, (f_ab^c - f_ba^c)/2) for a < b, zero scales dropped.

    Since w^b w^a = -w^a w^b, the ordered pairs (a, b) and (b, a) of the wedge
    sum fold into one for any tensor, antisymmetric or not, and a diagonal
    pair contributes nothing.
    """
    values = {(a, b): v for a, b, v in f.pairs_into(c)}
    pairs = sorted({(min(key), max(key)) for key in values if key[0] != key[1]})
    scaled = [(a, b, (values.get((a, b), 0) - values.get((b, a), 0)) / 2) for a, b in pairs]
    return [row for row in scaled if row[2]]


def verify_mc_equations(graded: GradedSeriesResult, f: StructureConstants, s: Splitting,
                        alpha_max: int, window: ModeWindow) -> McResidualReport:
    """Check d w^{c,l;alpha} = -(1/2) f sum_beta w^{a,n;beta} w^{b,m;alpha-beta}.

    Rescaling power adds under the wedge and is kept by d, so the equations of
    all orders are the power split of one residual dw + (1/2) f w w per target,
    formed here in one pass.  Series terms that cannot feed a checked residual
    term are dropped first: powers above ``alpha_max``, degrees above D-1, and
    terms failing :func:`term_mode_safe`, whose unsafe sub-multiset sum
    survives in every product and derivative.  Coefficients are integers over
    one denominator Q L^2: L clears the kept series coefficients, Q the folded
    constants.

    Residual terms of degree above D-2 are incomplete on the derivative side
    and are never formed.  Formed terms failing :func:`residual_term_safe` are
    censored; every other one must vanish exactly.
    """
    degree = graded.degree
    if degree < alpha_max + 1:
        raise DegreeTooLow(f"degree {degree} cannot support order {alpha_max}; "
                           f"need degree >= {alpha_max + 1}")
    bound = window.max_abs_mode
    kept_terms = [(label, power, mon, diff, coef)
                  for label, series in graded.by_label.items()
                  for power, poly in series.by_power.items() if power <= alpha_max
                  for (mon, diff), coef in poly.terms.items()
                  if mon.degree < degree and term_mode_safe(mon, diff, window)]
    series_den = lcm(*(coef.denominator for *_, coef in kept_terms))
    # Per label, integer terms grouped by (degree, power).  Labels become
    # (mode, gen) tuples, whose natural order is label_key order.
    kept: dict[LoopLabel, dict[tuple[int, int], list]] = {label: {} for label in graded.by_label}
    for label, power, mon, diff, coef in kept_terms:
        kept[label].setdefault((mon.degree, power), []).append(
            (tuple((x.mode, x.gen) for x in mon.labels), (diff.mode, diff.gen),
             coef.numerator * (series_den // coef.denominator)))
    folded = {c: _folded_pairs(f, c) for c in range(1, f.dim + 1)}
    const_den = lcm(*(v.denominator for pairs in folded.values() for *_, v in pairs))

    report = McResidualReport(ok=True)
    for target in enumerate_generators(f, window):
        # Per power, residual coefficients keyed by (monomial, d1, d2), d1 < d2.
        accs: list[dict[tuple, int]] = [{} for _ in range(alpha_max + 1)]
        for (_, power), terms in kept[target].items():
            acc = accs[power]
            for mon, diff, coef in terms:
                for x in set(mon) - {diff}:
                    i = mon.index(x)
                    value = coef * const_den * series_den * mon.count(x)
                    key = (mon[:i] + mon[i + 1:], *sorted((x, diff)))
                    acc[key] = acc.get(key, 0) + (value if x < diff else -value)
        for a, b, v in folded[target.gen]:
            scale = v.numerator * (const_den // v.denominator)
            for n in window.modes():
                if abs(target.mode - n) > bound:
                    continue
                groups_b = kept[LoopLabel(b, target.mode - n)].items()
                for (deg1, p1), terms1 in kept[LoopLabel(a, n)].items():
                    for (deg2, p2), terms2 in groups_b:
                        if p1 + p2 > alpha_max:
                            continue
                        if deg1 + deg2 > degree - 2:
                            report.degree_censored += len(terms1) * len(terms2)
                            continue
                        acc = accs[p1 + p2]
                        for mon1, d1, c1 in terms1:
                            c1 *= scale
                            for mon2, d2, c2 in terms2:
                                if d1 < d2:
                                    key, value = (tuple(sorted(mon1 + mon2)), d1, d2), c1 * c2
                                elif d2 < d1:
                                    key, value = (tuple(sorted(mon1 + mon2)), d2, d1), -c1 * c2
                                else:
                                    continue
                                acc[key] = acc.get(key, 0) + value
        for power, acc in enumerate(accs):
            report.targets_checked += 1
            safe = [(key, value) for key, value in acc.items()
                    if _shifts_in_window([mode for mode, _ in key[0]],
                                         (key[1][0], key[2][0], key[1][0] + key[2][0]), bound)]
            report.terms_checked += len(safe)
            report.mode_censored += len(acc) - len(safe)
            for (mon, d1, d2), value in sorted(row for row in safe if row[1]):
                report.violations.append(McResidualTerm(
                    target, power, CoordMonomial(tuple(LoopLabel(g, n) for n, g in mon)),
                    (LoopLabel(d1[1], d1[0]), LoopLabel(d2[1], d2[0])),
                    Fraction(value, const_den * series_den ** 2)))
    report.ok = not report.violations
    return report


@dataclass
class GradingReport:
    ok: bool
    violations: list[tuple[LoopLabel, int, str]] = field(default_factory=list)


def check_grading(graded: GradedSeriesResult, s: Splitting) -> GradingReport:
    """Grading facts about the buckets, read from the splitting's order rule.

    Every nonempty bucket power must be an existing order of its label.  A
    sector-0 label's power-0 bucket must hold only sector-0 factors and start
    with the bare differential; a sector-1 label's bare differential carries
    power 1, so the rule does not apply to it.
    """
    report = GradingReport(ok=True)
    for label, series in graded.by_label.items():
        for power in series.powers():
            poly = series.bucket(power)
            if poly.is_zero:
                continue
            if not s.exists(label, power):
                report.violations.append((label, power, "power is not an existing order"))
            if power == 0 and s.sector(label) == 0:
                if poly.coefficient(CoordMonomial.unit(), label) != 1:
                    report.violations.append((label, power, "missing unit differential term"))
                for (mon, diff) in poly.terms:
                    if s.sector(diff) or mon.sector_count(s):
                        report.violations.append((label, power, "power-0 term with a sector-1 factor"))
                        break
    report.ok = not report.violations
    return report


def graded_series_json(graded: GradedSeriesResult) -> list[dict]:
    """Canonical dump: per label, buckets of {power, terms} rows."""
    rows = []
    for label in sorted(graded.by_label, key=label_key):
        series = graded.by_label[label]
        buckets = []
        for power in series.powers():
            terms = [{"monomial": mon.json_factors(),
                      "differential": [diff.gen, diff.mode],
                      "coef": format_rational(coef)}
                     for (mon, diff), coef in series.bucket(power).sorted_terms()]
            if terms:
                buckets.append({"power": power, "terms": terms})
        rows.append({"label": [label.gen, label.mode], "series": buckets})
    return rows
