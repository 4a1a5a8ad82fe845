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
residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, inf
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

    def times(self, label: LoopLabel) -> "CoordMonomial":
        return CoordMonomial(tuple(sorted(self.labels + (label,), key=label_key)))

    def without_one(self, label: LoopLabel) -> "CoordMonomial":
        labels = list(self.labels)
        labels.remove(label)
        return CoordMonomial(tuple(labels))

    def counts(self) -> list[tuple[LoopLabel, int]]:
        out: list[tuple[LoopLabel, int]] = []
        for label in self.labels:
            if out and out[-1][0] == label:
                out[-1] = (label, out[-1][1] + 1)
            else:
                out.append((label, 1))
        return out

    def subset_mode_sums(self) -> set[int]:
        """Mode sums of every sub-multiset of the factors (prefix-sum domain)."""
        sums = {0}
        for label, mult in self.counts():
            sums = {s + j * label.mode for s in sums for j in range(mult + 1)}
        return sums

    def sector_count(self, s: Splitting) -> int:
        return sum(1 for label in self.labels if s.sector(label) == 1)

    def json_factors(self) -> list[list[int]]:
        return [[label.gen, label.mode, mult] for label, mult in self.counts()]


def _monomial_key(mon: CoordMonomial) -> tuple:
    return tuple(label_key(lab) for lab in mon.labels)


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
                      key=lambda kv: (_monomial_key(kv[0][0]), label_key(kv[0][1])))

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
                      key=lambda kv: (_monomial_key(kv[0][0]),
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
    return TwoForm(_wedge_truncated(p, q, inf)[0])


def _wedge_truncated(p: FormPolynomial, q: FormPolynomial,
                     max_degree: float) -> tuple[dict[PairKey, Fraction], int]:
    """Wedge product keeping only monomial degrees <= max_degree.

    Returns the kept terms and the number of dropped one-form term pairs.
    """
    def by_degree(poly: FormPolynomial) -> dict[int, list[tuple[TermKey, Fraction]]]:
        groups: dict[int, list[tuple[TermKey, Fraction]]] = {}
        for key, value in poly.terms.items():
            groups.setdefault(key[0].degree, []).append((key, value))
        return groups

    groups_p = by_degree(p)
    groups_q = by_degree(q)
    acc: dict[PairKey, Fraction] = {}
    dropped = 0
    for i, terms_p in groups_p.items():
        for j, terms_q in groups_q.items():
            if i + j > max_degree:
                dropped += len(terms_p) * len(terms_q)
                continue
            for (mon1, d1), c1 in terms_p:
                for (mon2, d2), c2 in terms_q:
                    pair, sign = _wedge_pair(d1, d2)
                    if pair is None:
                        continue
                    mon = CoordMonomial(tuple(sorted(mon1.labels + mon2.labels,
                                                     key=label_key)))
                    _add(acc, (mon, pair), c1 * c2 * sign)
    return acc, dropped


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

    out: dict[LoopLabel, dict[TermKey, Fraction]] = {lab: {} for lab in coords}
    current: dict[LoopLabel, dict[TermKey, Fraction]] = {}
    for lab in coords:
        term = {(CoordMonomial.unit(), lab): Fraction(1)}
        current[lab] = term
        out[lab][(CoordMonomial.unit(), lab)] = Fraction(1)

    censored = 0
    for k in range(1, degree):
        prefactor = Fraction(1, factorial(k + 1))
        nxt: dict[LoopLabel, dict[TermKey, Fraction]] = {}
        for source, terms in current.items():
            for coord in coords:
                row = f.pair_targets(source.gen, coord.gen)
                if not row:
                    continue
                mode = source.mode + coord.mode
                if abs(mode) > bound:
                    censored += len(terms) * len(row)
                    continue
                for (mon, diff), coef in terms.items():
                    mon2 = mon.times(coord)
                    for target_gen, fv in row:
                        _add(nxt.setdefault(LoopLabel(target_gen, mode), {}),
                             (mon2, diff), coef * fv)
        for label, terms in nxt.items():
            bucket = out[label]
            for key, value in terms.items():
                _add(bucket, key, value * prefactor)
        current = nxt
        if not current:
            break

    forms = {lab: FormPolynomial(dict(terms)) for lab, terms in out.items()}
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


def term_mode_safe(mon: CoordMonomial, diff: LoopLabel, window: ModeWindow) -> bool:
    """Whether a one-form term's coefficient is untouched by window censoring."""
    bound = window.max_abs_mode
    return all(abs(diff.mode + s) <= bound for s in mon.subset_mode_sums())


def residual_term_safe(mon: CoordMonomial, diffs: tuple[LoopLabel, LoopLabel],
                       window: ModeWindow) -> bool:
    """Whether a residual two-form term is exactly computable from windowed data.

    Every sub-multiset of the factors that contains at least one of the two
    differentials must have a windowed mode sum: those sums are exactly the
    intermediate modes of the build paths and the split modes of the pair sum.
    """
    bound = window.max_abs_mode
    d1, d2 = diffs
    for s in mon.subset_mode_sums():
        if abs(d1.mode + s) > bound or abs(d2.mode + s) > bound:
            return False
        if abs(d1.mode + d2.mode + s) > bound:
            return False
    return True


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


def verify_mc_equations(graded: GradedSeriesResult, f: StructureConstants, s: Splitting,
                        alpha_max: int, window: ModeWindow) -> McResidualReport:
    """Check d w^{c,l;alpha} = -(1/2) f sum_beta w^{a,n;beta} w^{b,m;alpha-beta}.

    Residual terms are classified before assertion: terms of coordinate degree
    above D-2 are incomplete on the derivative side, and terms failing the
    mode-safety test are incomplete on either side; both kinds are censored
    and counted.  Every safe term must vanish exactly.
    """
    degree = graded.degree
    if degree < alpha_max + 1:
        raise DegreeTooLow(f"degree {degree} cannot support order {alpha_max}; "
                           f"need degree >= {alpha_max + 1}")
    bound = window.max_abs_mode
    half = Fraction(1, 2)
    report = McResidualReport(ok=True)
    wedge_cache: dict[tuple, tuple[dict[PairKey, Fraction], int]] = {}

    def bucket(gen: int, mode: int, power: int) -> FormPolynomial:
        return graded.by_label[LoopLabel(gen, mode)].bucket(power)

    max_residual_degree = degree - 2
    for target in enumerate_generators(f, window):
        for alpha in range(alpha_max + 1):
            report.targets_checked += 1
            # Accumulate keeping exact zeros, so cancellations still count as
            # checked terms.  The derivative side never exceeds degree D-2;
            # wedge contributions above it are incomplete and dropped here.
            acc: dict[PairKey, Fraction] = {}
            lhs = exterior_derivative(bucket(target.gen, target.mode, alpha))
            for key, value in lhs.terms.items():
                acc[key] = acc.get(key, Fraction(0)) + value
            for a, b, v in f.pairs_into(target.gen):
                scale = half * v
                for n in window.modes():
                    m = target.mode - n
                    if abs(m) > bound:
                        continue
                    for beta in range(alpha + 1):
                        cache_key = (a, n, beta, b, m, alpha - beta)
                        cached = wedge_cache.get(cache_key)
                        if cached is None:
                            cached = _wedge_truncated(bucket(a, n, beta),
                                                      bucket(b, m, alpha - beta),
                                                      max_residual_degree)
                            wedge_cache[cache_key] = cached
                        terms, dropped = cached
                        report.degree_censored += dropped
                        for key, value in terms.items():
                            acc[key] = acc.get(key, Fraction(0)) + value * scale
            for (mon, pair), value in sorted(
                    acc.items(), key=lambda kv: (_monomial_key(kv[0][0]),
                                                 label_key(kv[0][1][0]),
                                                 label_key(kv[0][1][1]))):
                if not residual_term_safe(mon, pair, window):
                    report.mode_censored += 1
                    continue
                report.terms_checked += 1
                if value:
                    report.violations.append(
                        McResidualTerm(target, alpha, mon, pair, value))
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
