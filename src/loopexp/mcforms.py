"""Canonical-form series, coordinate rescaling, and graded residual checks.

The canonical one-form g^{-1}dg is expanded through the nested-bracket series

    dA + (1/2!)[dA, A] + (1/3!)[[dA, A], A] + ...

with A the coordinate-linear element, giving each component as a polynomial in
the group coordinates times a single differential.  Rescaling the sector-1
coordinates grades every term by its count of sector-1 factors, and the graded
one-forms must satisfy the order-by-order structure equations

    d w^{c,l;alpha} + (1/2) f_{ab}^c  sum_{beta} w^{a,n;beta} w^{b,m;alpha-beta} = 0

with n+m = l.  All of this is desk-scale exact arithmetic on sparse terms.

One term store carries the series from its build to the report.  A term is
keyed by ``(monomial, differential)``: the differential is a ``(mode, gen)``
factor and the monomial a sorted tuple of such factors, so the natural tuple
order is the canonical label order (mode-major, then generator).  Its value is
an integer numerator over the series' denominator for the monomial's degree k,
``F**k (k+1)!``, with F the lcm of the structure-constant denominators.  A
``Fraction`` is made only for a nonzero residual and for the report text of a
coefficient, once per distinct (numerator, degree).  The report's ``series``
text is rendered straight from the store by :func:`graded_series_json`.

Mode-window censoring: a term is trustworthy only if every partial mode sum of
its factors stays inside the window (the recursion would otherwise have dropped
some of its build paths, and the pair sum would miss out-of-window sources).
The checks read that window, the splitting and the tensor from the graded series.
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
from itertools import groupby
from json.encoder import encode_basestring_ascii
from math import factorial, lcm
from typing import Callable, Iterable, NamedTuple

from .algebra import StructureConstants, format_rational
from .jsonout import NEWLINE, Fragment, ints, listed
from .loop import LoopLabel, ModeWindow, enumerate_generators, label_key
from .splitting import Splitting


class InvalidDegree(ValueError):
    """The series degree must be at least 1."""


class InvalidOrder(ValueError):
    """The highest graded order to verify must be a non-negative integer."""


class DegreeTooLow(ValueError):
    """The series was not computed deep enough for the requested order."""


Factor = tuple[int, int]  # (mode, gen) of a coordinate or a differential
Monomial = tuple[Factor, ...]
Term = tuple[Monomial, Factor]


def monomial_json(mon: Monomial) -> list[list[int]]:
    """``[gen, mode, multiplicity]`` per distinct factor, in monomial order."""
    return [[gen, mode, len(list(run))] for (mode, gen), run in groupby(mon)]


def _sector_counts(s: Splitting) -> Callable[[tuple[Factor, ...]], int]:
    """The number of sector-1 factors of a factor tuple, memoised per tuple,
    since a series shares each monomial among several terms."""
    counts: dict[tuple[Factor, ...], int] = {}

    def count(factors: tuple[Factor, ...]) -> int:
        value = counts.get(factors)
        if value is None:
            value = counts[factors] = sum(s.sector(LoopLabel(gen, mode)) for mode, gen in factors)
        return value

    return count


@dataclass(frozen=True)
class FormPolynomial:
    """One-form: the integer numerators of its terms, keyed by (monomial, differential)."""

    terms: dict[Term, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesResult:
    """Canonical-form components of ``base``, complete through coordinate degree D-1.

    ``denominators[k]`` is the denominator of every degree-k numerator.
    """

    base: StructureConstants
    forms: dict[LoopLabel, FormPolynomial]
    denominators: tuple[int, ...]
    degree: int
    window: ModeWindow
    censored: int


@dataclass(frozen=True)
class GradedSeriesResult:
    """The series' terms bucketed per label by rescaling power."""

    base: StructureConstants
    by_label: dict[LoopLabel, dict[int, FormPolynomial]]
    denominators: tuple[int, ...]
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
    if type(degree) is not int or degree < 1:
        raise InvalidDegree(f"series degree must be a positive integer, got {degree!r}")
    coords = enumerate_generators(f, window)
    bound = window.max_abs_mode
    gens = range(1, f.dim + 1)
    rows = {(a, b): f.pair_targets(a, b) for a in gens for b in gens}
    # A step-k numerator is an integer over scale**k; the (k+1)! of the
    # prefactor joins it in the denominator.
    scale = lcm(*(v.denominator for row in rows.values() for _, v in row))
    int_rows = {pair: [(c, v.numerator * (scale // v.denominator)) for c, v in row]
                for pair, row in rows.items() if row}

    out = {lab: {((), (lab.mode, lab.gen)): 1} for lab in coords}
    current = {lab: dict(terms) for lab, terms in out.items()}
    censored = 0
    for _ in range(1, degree):
        nxt: dict[LoopLabel, dict[Term, int]] = {}
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
        # A key of degree k arises only at step k, so no two steps share one.
        current = {}
        for label, terms in nxt.items():
            current[label] = terms = {key: num for key, num in terms.items() if num}
            out[label].update(terms)
        if not current:
            break

    denominators = tuple(scale ** k * factorial(k + 1) for k in range(degree))
    forms = {lab: FormPolynomial(terms) for lab, terms in out.items()}
    return SeriesResult(f, forms, denominators, degree, window, censored)


def rescale_and_collect(series: SeriesResult, s: Splitting) -> GradedSeriesResult:
    """Grade each term by its number of sector-1 factors (coordinates plus the
    differential) and bucket by total power."""
    count = _sector_counts(s)
    graded: dict[LoopLabel, dict[int, FormPolynomial]] = {}
    for label, poly in series.forms.items():
        buckets: dict[int, dict[Term, int]] = {}
        for key, num in poly.terms.items():
            mon, diff = key
            buckets.setdefault(count(mon) + count((diff,)), {})[key] = num
        graded[label] = {p: FormPolynomial(t) for p, t in sorted(buckets.items())}
    return GradedSeriesResult(series.base, graded, series.denominators, series.degree,
                              series.window, s, series.censored)


def _shifts_in_window(mon: Monomial, shifts: Iterable[int], bound: int) -> bool:
    """Whether every shift plus every sub-multiset sum of the factors' modes
    lies within ``bound``.  The extreme sums are those of the negative and of
    the positive modes, and every other sum lies between them."""
    low = high = 0
    for mode, _ in mon:
        if mode < 0:
            low += mode
        else:
            high += mode
    return all(-bound <= t + low and t + high <= bound for t in shifts)


def term_mode_safe(mon: Monomial, diff: Factor, window: ModeWindow) -> bool:
    """Whether a one-form term's coefficient is untouched by window censoring:
    the differential's mode plus every sub-multiset sum of the factors' modes
    is windowed."""
    return _shifts_in_window(mon, (diff[0],), window.max_abs_mode)


def residual_term_safe(mon: Monomial, diffs: tuple[Factor, Factor], window: ModeWindow) -> bool:
    """Whether a residual two-form term is exactly computable from windowed data.

    Every sub-multiset of the factors that contains at least one of the two
    differentials must have a windowed mode sum: those sums are exactly the
    intermediate modes of the build paths and the split modes of the pair sum.
    """
    (n1, _), (n2, _) = diffs
    return _shifts_in_window(mon, (n1, n2, n1 + n2), window.max_abs_mode)


class McResidualTerm(NamedTuple):
    label: LoopLabel
    power: int
    monomial: Monomial
    diffs: tuple[Factor, Factor]
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


def check_degree(degree: int, alpha_max: int) -> None:
    """Refuse a series degree D too low for :func:`verify_mc_equations`: its terms
    have degree at most D-2, and the Jacobi identity is the degree-1 equation, so
    below D = 3 a defect cannot show; order alpha needs D > alpha."""
    least = max(3, alpha_max + 1)
    if degree < least:
        raise DegreeTooLow(f"degree {degree} cannot check order {alpha_max}; need degree "
                           f">= {least} (3 for the Jacobi identity, alpha_max + 1 for the order)")


def verify_mc_equations(graded: GradedSeriesResult, alpha_max: int) -> McResidualReport:
    """Check d w^{c,l;alpha} = -(1/2) f sum_beta w^{a,n;beta} w^{b,m;alpha-beta}.

    Rescaling power adds under the wedge and is kept by d, so the equations of
    all orders are the power split of one residual dw + (1/2) f w w per target,
    formed here in one pass, with f the series' ``base``.  Series terms that
    cannot feed a checked residual term are dropped first: powers above
    ``alpha_max``, degrees above D-1, and terms failing :func:`term_mode_safe`,
    whose unsafe sub-multiset sum survives in every product and derivative.
    Coefficients are integers over one denominator Q L^2: L clears the series
    denominators, Q the folded constants.

    Residual terms of degree above D-2 are incomplete on the derivative side
    and are never formed.  Formed terms failing :func:`residual_term_safe` are
    censored; every other one must vanish exactly.
    """
    if type(alpha_max) is not int or alpha_max < 0:
        raise InvalidOrder(f"alpha_max must be a non-negative integer, got {alpha_max!r}")
    degree = graded.degree
    check_degree(degree, alpha_max)
    f, window = graded.base, graded.window
    bound = window.max_abs_mode
    series_den = lcm(*graded.denominators)
    lift = [series_den // den for den in graded.denominators]
    # Per label, the kept terms grouped by (degree, power).
    kept: dict[LoopLabel, dict[tuple[int, int], list]] = {}
    for label, buckets in graded.by_label.items():
        groups = kept[label] = {}
        for power, poly in buckets.items():
            if power <= alpha_max:
                for (mon, diff), num in poly.terms.items():
                    k = len(mon)
                    if k < degree and term_mode_safe(mon, diff, window):
                        groups.setdefault((k, power), []).append((mon, diff, num * lift[k]))
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
                    if residual_term_safe(key[0], key[1:], window)]
            report.terms_checked += len(safe)
            report.mode_censored += len(acc) - len(safe)
            for (mon, d1, d2), value in sorted(row for row in safe if row[1]):
                report.violations.append(McResidualTerm(
                    target, power, mon, (d1, d2), Fraction(value, const_den * series_den ** 2)))
    report.ok = not report.violations
    return report


@dataclass
class GradingReport:
    ok: bool
    violations: list[tuple[LoopLabel, int, str]] = field(default_factory=list)


def check_grading(graded: GradedSeriesResult) -> GradingReport:
    """Grading facts about the buckets, read from ``graded.split``'s order rule.

    Every nonempty bucket power must be an existing order of its label.  A
    sector-0 label's power-0 bucket must hold only sector-0 factors and start
    with the bare differential; a sector-1 label's bare differential carries
    power 1, so the rule does not apply to it.
    """
    s = graded.split
    report = GradingReport(ok=True)
    count = _sector_counts(s)
    for label, buckets in graded.by_label.items():
        for power, poly in sorted(buckets.items()):
            if not poly.terms:
                continue
            if not s.exists(label, power):
                report.violations.append((label, power, "power is not an existing order"))
            if power == 0 and s.sector(label) == 0:
                # A numerator equal to its denominator is the coefficient 1.
                if poly.terms.get(((), (label.mode, label.gen))) != graded.denominators[0]:
                    report.violations.append((label, power, "missing unit differential term"))
                for (mon, diff) in poly.terms:
                    if count(mon) or count((diff,)):
                        report.violations.append((label, power, "power-0 term with a sector-1 factor"))
                        break
    report.ok = not report.violations
    return report


class _Memo(dict):
    """Text per key, rendered by ``render`` on the key's first lookup."""

    def __init__(self, render: Callable[..., str]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key) -> str:
        text = self[key] = self.render(key)
        return text


def graded_series_json(graded: GradedSeriesResult) -> Fragment:
    """Canonical dump, pre-rendered as the ``mc`` report's top-level ``series``:
    per label, buckets of {power, terms} rows, each term a {coef, differential,
    monomial} row, in ``json.dumps(sort_keys=True, indent=2)`` text.  Each
    distinct monomial and differential is rendered once, and each coefficient
    once per distinct (numerator, degree)."""
    nl = NEWLINE
    # A term at depth 6 is coefs[k][num] + diffs[diff] + mons[mon].
    coefs = [_Memo(lambda num, den=den: "{" + nl[7] + '"coef": ' + encode_basestring_ascii(
                 format_rational(Fraction(num, den))) + "," + nl[7] + '"differential": ')
             for den in graded.denominators]
    diffs = _Memo(lambda diff: ints(diff[::-1], 7) + "," + nl[7] + '"monomial": ')
    factors = _Memo(lambda x: ints(x, 8))
    mons = _Memo(lambda mon: listed([factors[(*x,)] for x in monomial_json(mon)], 7)
                 + nl[6] + "}")
    chunks = []
    for label in sorted(graded.by_label, key=label_key):
        buckets = []
        for power, poly in sorted(graded.by_label[label].items()):
            terms = poly.terms
            if terms:
                texts = [coefs[len(key[0])][terms[key]] + diffs[key[1]] + mons[key[0]]
                         for key in sorted(terms)]
                buckets.append("{" + nl[5] + f'"power": {power},' + nl[5] + '"terms": '
                               + listed(texts, 5) + nl[4] + "}")
        # Each row follows its separator; the first separator opens the list.
        chunks += ("," + nl[2], "{" + nl[3] + '"label": ' + ints((label.gen, label.mode), 3)
                   + "," + nl[3] + '"series": ' + listed(buckets, 3) + nl[2] + "}")
    if not chunks:
        return Fragment(["[]"])
    chunks[0] = "[" + nl[2]
    chunks.append(nl[1] + "]")
    return Fragment(chunks)
