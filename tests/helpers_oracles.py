"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately coded against dense tables and plain tuples,
not the package's sparse machinery, so a structural mistake cannot hide on
both sides of a comparison.  :func:`expanded_constant` is the expansion's
delta formula on such a table, which the package no longer evaluates apart
from its brackets.  The two splitting oracles after them are the
per-kind branches that the order table of ``loopexp.splitting`` replaced, and
the MC residual oracle is the per-order, per-``beta`` residual check that the
single pruned integer pass of ``loopexp.mcforms`` replaced.  The series oracle
is the ``Fraction`` build of the canonical-form series that the integer
build replaced.  With it comes the ``Fraction`` form algebra the ``mc`` path
carried before its single integer term store: ``CoordMonomial``,
``FractionForm``, ``TwoForm``, ``wedge``, ``exterior_derivative``, the
graded buckets and ``resummed``.  Tests read the store through one adapter,
:func:`as_fractions`, which turns a store one-form into
``{(CoordMonomial, LoopLabel): Fraction}``.  The ``windowed_*`` oracles are the closure scan,
Jacobi sweeps, contraction comparison and subalgebra and symmetric-coset
checks that decided their verdicts on the mode window alone, before the
mode-class quotient.  They count their own triples, skips and censored pairs,
so the package's counting formulas have an independent reference.
:func:`legacy_closure_violations` is the per-``beta`` loop that the closure
quotient's progression count replaced.  Last come three helpers that only
tests use, among them the :func:`raw_tensors` strategy.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, lcm
from typing import Mapping

from hypothesis import strategies as st

from loopexp import LoopLabel, SplitKind, StructureConstants
from loopexp.algebra import format_rational
from loopexp.contraction import ContractionDiff
from loopexp.expansion import (ClosureReport, ClosureViolation, ExpandedAlgebra,
                               ExpandedJacobiReport, ExpandedLabel, JacobiResidual,
                               NotClosed, generator_set, make_label)
from loopexp.loop import enumerate_generators, label_key, loop_bracket
from loopexp.mcforms import DegreeTooLow, InvalidDegree, McResidualReport, McResidualTerm
from loopexp.splitting import SectorWitness, SplitCheckReport


def dense_tensor(dim: int, raw_entries: dict) -> list:
    """Dense f[a][b][c] from a raw sparse map, completing missing mirrors by sign."""
    table = [[[Fraction(0)] * (dim + 1) for _ in range(dim + 1)] for _ in range(dim + 1)]
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                if (a, b, c) in raw_entries:
                    table[a][b][c] = Fraction(raw_entries[(a, b, c)])
                elif (b, a, c) in raw_entries:
                    table[a][b][c] = -Fraction(raw_entries[(b, a, c)])
    return table


def expanded_constant(table: list, x, y, z) -> Fraction:
    """delta_{beta+gamma}^alpha delta_{n+m}^l f_ab^c of three expanded labels,
    read from a :func:`dense_tensor`; the labels' retention is not checked."""
    if z.order != x.order + y.order or z.mode != x.mode + y.mode:
        return Fraction(0)
    return table[x.gen][y.gen][z.gen]


def oracle_jacobi_residual(dim: int, raw_entries: dict, a: int, b: int, c: int,
                           e: int) -> Fraction:
    """Sum_d f_ab^d f_dc^e + f_bc^d f_da^e + f_ca^d f_db^e by dense enumeration."""
    return _dense_jacobi_residual(dense_tensor(dim, raw_entries), a, b, c, e)


def _dense_jacobi_residual(t: list, a: int, b: int, c: int, e: int) -> Fraction:
    total = Fraction(0)
    for d in range(1, len(t)):
        for first, second in ((t[a][b][d], t[d][c][e]), (t[b][c][d], t[d][a][e]),
                              (t[c][a][d], t[d][b][e])):
            if first and second:
                total += first * second
    return total


def oracle_jacobi_defects(dim: int, raw_entries: dict) -> list:
    """Every nonzero residual as (a, b, c, e, value), in index order."""
    t = dense_tensor(dim, raw_entries)
    rng = range(1, dim + 1)
    rows = [(a, b, c, e, _dense_jacobi_residual(t, a, b, c, e))
            for a in rng for b in rng for c in rng for e in rng]
    return [row for row in rows if row[4]]


def oracle_jacobi_clean(dim: int, raw_entries: dict) -> bool:
    """Every index tuple passes the Jacobi identity."""
    rng = range(1, dim + 1)
    return all(oracle_jacobi_residual(dim, raw_entries, a, b, c, e) == 0
               for a in rng for b in rng for c in rng for e in rng)


def finite_bch_series(dim: int, raw_entries: dict, degree: int) -> dict:
    """Canonical-form components of a finite-dimensional algebra,
    dA + (1/2!)[dA,A] + ... truncated at total degree ``degree``.

    Returns {target a: {(sorted coordinate tuple, differential index): Fraction}}.
    """
    t = dense_tensor(dim, raw_entries)
    rng = range(1, dim + 1)
    out = {a: {((), a): Fraction(1)} for a in rng}
    current = {a: {((), a): Fraction(1)} for a in rng}
    for k in range(1, degree):
        prefactor = Fraction(1, factorial(k + 1))
        nxt = {a: {} for a in rng}
        for source in rng:
            for coord in rng:
                for target in rng:
                    fv = t[source][coord][target]
                    if not fv:
                        continue
                    for (mono, diff), coef in current[source].items():
                        key = (tuple(sorted(mono + (coord,))), diff)
                        nxt[target][key] = nxt[target].get(key, Fraction(0)) + coef * fv
        for target in rng:
            nxt[target] = {k2: v for k2, v in nxt[target].items() if v}
            for key, value in nxt[target].items():
                bucket = out[target]
                bucket[key] = bucket.get(key, Fraction(0)) + value * prefactor
        current = nxt
    return {a: {k2: v for k2, v in terms.items() if v} for a, terms in out.items()}


def structurally_exists(s, mode: int, order: int) -> bool:
    """Whether the coefficient one-form at (mode; order) is a genuine object.

    Zero-mode splitting: order-0 forms exist only at mode 0.  Parity coset:
    the form exists only when the mode parity equals the order parity (the
    wrong-parity coefficients vanish identically).
    """
    if order < 0:
        return False
    if s.kind is SplitKind.ZERO_MODE_SUBALGEBRA:
        return order > 0 or mode == 0
    if s.kind is SplitKind.MODE_PARITY_COSET:
        return (mode - order) % 2 == 0
    return True


# -- the Fraction form algebra of the mc path, and the adapter from the store --

@dataclass(frozen=True)
class CoordMonomial:
    """Commutative product of group coordinates, stored as a sorted label tuple."""

    labels: tuple = ()

    @classmethod
    def unit(cls):
        return cls(())

    @classmethod
    def of(cls, labels):
        return cls(tuple(sorted(labels, key=label_key)))

    @property
    def degree(self):
        return len(self.labels)

    def without_one(self, label):
        labels = list(self.labels)
        labels.remove(label)
        return CoordMonomial(tuple(labels))

    @cached_property
    def sort_key(self):
        """The factors' label keys, in canonical monomial order."""
        return tuple(label_key(label) for label in self.labels)

    def counts(self):
        out = []
        for label in self.labels:
            if out and out[-1][0] == label:
                out[-1] = (label, out[-1][1] + 1)
            else:
                out.append((label, 1))
        return out

    def sector_count(self, s):
        return sum(1 for label in self.labels if s.sector(label) == 1)


def _add(acc, key, value):
    total = acc.get(key, Fraction(0)) + value
    if total:
        acc[key] = total
    elif key in acc:
        del acc[key]


@dataclass(frozen=True)
class FractionForm:
    """One-form: sparse sum of coefficient * monomial * dg_{b,m}."""

    terms: Mapping = field(default_factory=dict)

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, mon, diff):
        return self.terms.get((mon, diff), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].sort_key, label_key(kv[0][1])))

    def __add__(self, other):
        acc = dict(self.terms)
        for key, value in other.terms.items():
            _add(acc, key, value)
        return FractionForm(acc)

    def __eq__(self, other):
        return isinstance(other, FractionForm) and dict(self.terms) == dict(other.terms)


@dataclass(frozen=True)
class TwoForm:
    """Two-form with wedge antisymmetry folded into a canonically ordered pair."""

    terms: Mapping = field(default_factory=dict)

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, mon, d1, d2):
        pair, sign = _wedge_pair(d1, d2)
        if pair is None:
            return Fraction(0)
        return sign * self.terms.get((mon, pair), Fraction(0))


def _wedge_pair(d1, d2):
    k1, k2 = label_key(d1), label_key(d2)
    if k1 == k2:
        return None, 0
    if k1 < k2:
        return (d1, d2), 1
    return (d2, d1), -1


def exterior_derivative(p):
    """Leibniz rule over the coordinate factors; d of the differential is zero."""
    acc = {}
    for (mon, diff), coef in p.terms.items():
        for label, mult in mon.counts():
            pair, sign = _wedge_pair(label, diff)
            if pair is None:
                continue
            _add(acc, (mon.without_one(label), pair), coef * mult * sign)
    return TwoForm(acc)


def wedge(p, q):
    acc = {}
    for (mon1, d1), c1 in p.terms.items():
        for (mon2, d2), c2 in q.terms.items():
            pair, sign = _wedge_pair(d1, d2)
            if pair is not None:
                _add(acc, (CoordMonomial.of(mon1.labels + mon2.labels), pair), c1 * c2 * sign)
    return TwoForm(acc)


@dataclass(frozen=True)
class GradedFormSeries:
    """One-form graded by the rescaling power."""

    by_power: Mapping = field(default_factory=dict)

    def bucket(self, power):
        return self.by_power.get(power, FractionForm.zero())

    def powers(self):
        return sorted(self.by_power)


@dataclass(frozen=True)
class FractionSeries:
    forms: dict
    degree: int
    window: object
    censored: int


@dataclass(frozen=True)
class FractionGraded:
    by_label: dict
    degree: int
    window: object
    split: object
    censored: int


def legacy_rescale_and_collect(series, s):
    """Grade each Fraction term by its sector-1 factors, one sector call per factor."""
    graded = {}
    for label, poly in series.forms.items():
        buckets = {}
        for (mon, diff), coef in poly.terms.items():
            power = mon.sector_count(s) + s.sector(diff)
            buckets.setdefault(power, {})[(mon, diff)] = coef
        graded[label] = GradedFormSeries({p: FractionForm(t)
                                          for p, t in sorted(buckets.items())})
    return FractionGraded(graded, series.degree, series.window, s, series.censored)


def resummed(graded, label):
    """Sum of all buckets; equals the unrescaled component exactly."""
    total = FractionForm.zero()
    for power in graded.by_label[label].powers():
        total = total + graded.by_label[label].bucket(power)
    return total


def legacy_graded_series_json(graded):
    """The canonical dump built per term from the Fraction buckets."""
    rows = []
    for label in sorted(graded.by_label, key=label_key):
        series = graded.by_label[label]
        buckets = []
        for power in series.powers():
            terms = [{"monomial": [[x.gen, x.mode, mult] for x, mult in mon.counts()],
                      "differential": [diff.gen, diff.mode],
                      "coef": format_rational(coef)}
                     for (mon, diff), coef in series.bucket(power).sorted_terms()]
            if terms:
                buckets.append({"power": power, "terms": terms})
        rows.append({"label": [label.gen, label.mode], "series": buckets})
    return rows


# Memoised: a series shares each monomial, and many coefficients, among many terms.
@cache
def _label(factor):
    mode, gen = factor
    return LoopLabel(gen, mode)


@cache
def _monomial(mon):
    return CoordMonomial(tuple(map(_label, mon)))


@cache
def _coefficient(num, den):
    return Fraction(num, den)


def as_fractions(poly, denominators):
    """The adapter: a store one-form as ``{(CoordMonomial, LoopLabel): Fraction}``."""
    return {(_monomial(mon), _label(diff)): _coefficient(num, denominators[len(mon)])
            for (mon, diff), num in poly.terms.items()}


def fraction_forms(series):
    """Each component of a store series through :func:`as_fractions`."""
    return {label: FractionForm(as_fractions(poly, series.denominators))
            for label, poly in series.forms.items()}


def fraction_graded(graded):
    """A store's graded series as Fraction buckets, through :func:`as_fractions`."""
    by_label = {label: GradedFormSeries({power: FractionForm(as_fractions(poly,
                                                                          graded.denominators))
                                         for power, poly in buckets.items()})
                for label, buckets in graded.by_label.items()}
    return FractionGraded(by_label, graded.degree, graded.window, graded.split, graded.censored)


def fraction_residual(term):
    """A store residual term with a ``CoordMonomial`` and label differentials."""
    return term._replace(monomial=_monomial(term.monomial),
                         diffs=tuple(map(_label, term.diffs)))


def store_monomial(mon):
    """A ``CoordMonomial`` as the store's sorted ``(mode, gen)`` tuple."""
    return tuple(label_key(label) for label in mon.labels)


def kind_branch_grading(graded, s) -> list:
    """Kind-specific grading facts about a store's buckets, read through the
    adapter, as (label, power, reason).

    Parity coset: every nonempty bucket power matches the mode parity.
    Zero-mode: nonzero-mode components have no power-0 bucket, and the mode-0
    power-0 bucket is the all-zero-mode part starting with the bare
    differential.  The generic split has no check.
    """
    graded = fraction_graded(graded)
    violations = []
    for label, series in graded.by_label.items():
        for power in series.powers():
            poly = series.bucket(power)
            if poly.is_zero:
                continue
            if s.kind is SplitKind.MODE_PARITY_COSET:
                if power % 2 != label.mode % 2:
                    violations.append((label, power, "power parity differs from mode parity"))
            elif s.kind is SplitKind.ZERO_MODE_SUBALGEBRA:
                if label.mode != 0 and power == 0:
                    violations.append((label, power, "nonzero mode has a power-0 bucket"))
                if label.mode == 0 and power == 0:
                    if poly.coefficient(CoordMonomial.unit(), LoopLabel(label.gen, 0)) != 1:
                        violations.append((label, power, "missing unit differential term"))
                    for (mon, diff) in poly.terms:
                        if diff.mode != 0 or any(l.mode != 0 for l in mon.labels):
                            violations.append((label, power, "power-0 term with nonzero mode"))
                            break
    return violations


def subset_mode_sums(mon) -> set:
    """Mode sums of every sub-multiset of a monomial's factors."""
    sums = {0}
    for label, mult in mon.counts():
        sums = {s + j * label.mode for s in sums for j in range(mult + 1)}
    return sums


def subset_term_mode_safe(mon, diff, window) -> bool:
    """``term_mode_safe`` by enumerating every sub-multiset sum."""
    bound = window.max_abs_mode
    return all(abs(diff.mode + s) <= bound for s in subset_mode_sums(mon))


def subset_residual_term_safe(mon, diffs, window) -> bool:
    """``residual_term_safe`` by enumerating every sub-multiset sum."""
    bound = window.max_abs_mode
    d1, d2 = diffs
    return all(abs(d1.mode + s) <= bound and abs(d2.mode + s) <= bound
               and abs(d1.mode + d2.mode + s) <= bound for s in subset_mode_sums(mon))


def _wedge_truncated(p, q, max_degree):
    """Wedge product keeping only monomial degrees <= max_degree.

    Returns the kept nonzero terms and the number of dropped term pairs.
    """
    def by_degree(poly):
        groups = {}
        for key, value in poly.terms.items():
            groups.setdefault(key[0].degree, []).append((key, value))
        return groups

    acc = {}
    dropped = 0
    for i, terms_p in by_degree(p).items():
        for j, terms_q in by_degree(q).items():
            if i + j > max_degree:
                dropped += len(terms_p) * len(terms_q)
                continue
            for (mon1, d1), c1 in terms_p:
                for (mon2, d2), c2 in terms_q:
                    pair, sign = _wedge_pair(d1, d2)
                    if pair is None:
                        continue
                    key = (CoordMonomial.of(mon1.labels + mon2.labels), pair)
                    total = acc.get(key, Fraction(0)) + c1 * c2 * sign
                    if total:
                        acc[key] = total
                    else:
                        acc.pop(key, None)
    return acc, dropped


def legacy_verify_mc_equations(graded, f, s, alpha_max, window):
    """The MC residual check as one equation per target and order, with a
    Fraction wedge per (a, n, beta, b, m) cached across targets.

    Every formed residual term is classified afterwards: subset-sum mode
    safety, then exact vanishing.  Its counters are the old definitions:
    ``degree_censored`` adds a wedge's dropped term pairs on every cache hit.
    """
    degree = graded.degree
    if degree < alpha_max + 1:
        raise DegreeTooLow(f"degree {degree} cannot support order {alpha_max}; "
                           f"need degree >= {alpha_max + 1}")
    bound = window.max_abs_mode
    half = Fraction(1, 2)
    report = McResidualReport(ok=True)
    wedge_cache = {}

    def bucket(gen, mode, power):
        return graded.by_label[LoopLabel(gen, mode)].bucket(power)

    max_residual_degree = degree - 2
    for target in enumerate_generators(f, window):
        for alpha in range(alpha_max + 1):
            report.targets_checked += 1
            acc = {}
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
                        if cache_key not in wedge_cache:
                            wedge_cache[cache_key] = _wedge_truncated(
                                bucket(a, n, beta), bucket(b, m, alpha - beta),
                                max_residual_degree)
                        terms, dropped = wedge_cache[cache_key]
                        report.degree_censored += dropped
                        for key, value in terms.items():
                            acc[key] = acc.get(key, Fraction(0)) + value * scale
            for (mon, pair), value in sorted(
                    acc.items(), key=lambda kv: (tuple(label_key(l) for l in kv[0][0].labels),
                                                 label_key(kv[0][1][0]),
                                                 label_key(kv[0][1][1]))):
                if not subset_residual_term_safe(mon, pair, window):
                    report.mode_censored += 1
                    continue
                report.terms_checked += 1
                if value:
                    report.violations.append(McResidualTerm(target, alpha, mon, pair, value))
    report.ok = not report.violations
    return report


def legacy_canonical_form_series(f, window, degree):
    """The canonical-form series with a ``Fraction`` update per term and
    bracket target, and a ``CoordMonomial`` per update."""
    if not isinstance(degree, int) or degree < 1:
        raise InvalidDegree(f"series degree must be a positive integer, got {degree!r}")
    coords = enumerate_generators(f, window)
    bound = window.max_abs_mode

    out = {lab: {} for lab in coords}
    current = {}
    for lab in coords:
        current[lab] = {(CoordMonomial.unit(), lab): Fraction(1)}
        out[lab][(CoordMonomial.unit(), lab)] = Fraction(1)

    censored = 0
    for k in range(1, degree):
        prefactor = Fraction(1, factorial(k + 1))
        nxt = {}
        for source, terms in current.items():
            for coord in coords:
                row = f.pair_targets(source.gen, coord.gen)
                if not row:
                    continue
                mode = source.mode + coord.mode
                if abs(mode) > bound:
                    censored += len(terms) * len(row)
                    continue
                # Zero sums are dropped once the step is complete.
                accs = [(nxt.setdefault(LoopLabel(target_gen, mode), {}), fv)
                        for target_gen, fv in row] if terms else []
                for (mon, diff), coef in terms.items():
                    key = (CoordMonomial.of(mon.labels + (coord,)), diff)
                    for acc, fv in accs:
                        acc[key] = acc.get(key, 0) + coef * fv
        nxt = {label: {key: value for key, value in terms.items() if value}
               for label, terms in nxt.items()}
        # A key of degree k arises only at step k, so it is new to its bucket.
        for label, terms in nxt.items():
            out[label].update((key, value * prefactor) for key, value in terms.items())
        current = nxt
        if not current:
            break

    forms = {lab: FractionForm(dict(terms)) for lab, terms in out.items()}
    return FractionSeries(forms, degree, window, censored)


def windowed_check_closure(f, s, n0, n1, window):
    """Closure scanned over the windowed modes only: the verdict is the
    absence of a windowed violation."""
    bound = window.max_abs_mode
    report = ClosureReport(closed=True)
    for z in generator_set(f, s, n0, n1, window):
        for a, b, v in f.pairs_into(z.gen):
            for beta in range(z.order + 1):
                gamma = z.order - beta
                for n in window.modes():
                    m = z.mode - n
                    if abs(m) > bound:
                        report.window_censored += 1
                        continue
                    x = make_label(s, a, n, beta)
                    if x is None:
                        continue
                    y = make_label(s, b, m, gamma)
                    if y is None:
                        continue
                    for source in (x, y):
                        if source.order > (n0, n1)[source.sector]:
                            report.violations.append(
                                ClosureViolation((x, y), z, source, v))
    report.closed = not report.violations
    return report


def legacy_closure_violations(rule, caps, target, x, y):
    """One sector pattern's violations at one mode pair, by trying every order
    split beta + (alpha - beta) of every retained target order alpha."""
    lowest, step = rule
    count = 0
    for alpha in range(lowest[target], caps[target] + 1, step):
        for beta in range(alpha + 1):
            if rule.admits(x, beta) and rule.admits(y, alpha - beta):
                count += (beta > caps[x]) + (alpha - beta > caps[y])
    return count


def windowed_jacobi_sweep(labels, bracket, bound):
    """Cyclic Jacobi sweep over the label triples whose pairwise and total mode
    sums stay within ``bound``: the nonzero residual rows (targets sorted
    within a triple), the triples checked, and the window skips, one per
    skipped pair plus one per skipped third label of a kept pair.

    The bracket is read once per windowed pair, as rows of label indices and
    integer numerators over the lcm of its denominators, so each cyclic sum
    is exact integer arithmetic; a residual is its sum over that lcm squared."""
    labels = list(labels)
    index = {label: i for i, label in enumerate(labels)}
    modes = [label.mode for label in labels]
    span = range(len(labels))
    raw = {(i, j): bracket(labels[i], labels[j]).items()
           for i in span for j in span if abs(modes[i] + modes[j]) <= bound}
    scale = lcm(*(v.denominator for row in raw.values() for _, v in row))
    table = [[None] * len(labels) for _ in span]
    for (i, j), row in raw.items():
        table[i][j] = [(index[z], v.numerator * (scale // v.denominator)) for z, v in row]
    rows, checked, skipped = [], 0, 0
    for i in span:
        for j in span:
            if abs(modes[i] + modes[j]) > bound:
                skipped += 1
                continue
            for k in span:
                if (abs(modes[j] + modes[k]) > bound or abs(modes[k] + modes[i]) > bound
                        or abs(modes[i] + modes[j] + modes[k]) > bound):
                    skipped += 1
                    continue
                checked += 1
                acc = {}
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    for mid, f1 in table[u][v]:
                        for out, f2 in table[mid][w]:
                            acc[out] = acc.get(out, 0) + f1 * f2
                rows.extend((labels[i], labels[j], labels[k], target, Fraction(value, scale ** 2))
                            for target, value in sorted((labels[t], value)
                                                        for t, value in acc.items()) if value)
    return rows, checked, skipped


def windowed_check_jacobi_expanded(f, s, n0, n1, window):
    """The windowed Jacobi sweep of a truncation the windowed scan calls closed."""
    closure = windowed_check_closure(f, s, n0, n1, window)
    if not closure.closed:
        raise NotClosed(f"truncation ({n0},{n1}) is not closed; "
                        f"{len(closure.violations)} violations")
    alg = ExpandedAlgebra(f, s, n0, n1, window)
    rows, checked, skipped = windowed_jacobi_sweep(alg.generators, alg.bracket,
                                                   window.max_abs_mode)
    residuals = [JacobiResidual(*r) for r in rows]
    return ExpandedJacobiReport(not residuals, residuals, checked, skipped)


def windowed_jacobi_residuals(f, window):
    rows, checked, _ = windowed_jacobi_sweep(enumerate_generators(f, window),
                                             lambda x, y: loop_bracket(f, x, y),
                                             window.max_abs_mode)
    return rows, checked


def windowed_contracted_jacobi_residuals(alg):
    rows, checked, _ = windowed_jacobi_sweep(enumerate_generators(alg.base, alg.window),
                                             alg.bracket, alg.window.max_abs_mode)
    return rows, checked


def windowed_compare_with_expansion(contracted, expanded, window):
    """Every windowed term of the contraction's bracket against the delta
    formula of the lifted expansion."""
    if (expanded.split.kind is not SplitKind.MODE_PARITY_COSET
            or (expanded.n0, expanded.n1) != (0, 1)):
        raise ValueError("comparison target must be the order-(0,1) parity expansion")
    table = dense_tensor(expanded.base.dim, expanded.base.entries)
    split = expanded.split
    lowest = split.order_rule.lowest
    labels = enumerate_generators(contracted.base, window)
    lift = {}
    for label in labels:
        sector = split.sector(label)
        lift[label] = ExpandedLabel(label.gen, label.mode, lowest[sector], sector)
    diffs = []
    for x in labels:
        for y in labels:
            mode = x.mode + y.mode
            if not window.contains(mode):
                continue
            masked = contracted.bracket(x, y)
            for c in range(1, contracted.base.dim + 1):
                z = LoopLabel(c, mode)
                cv = masked.get(z, Fraction(0))
                ev = expanded_constant(table, lift[x], lift[y], lift[z])
                if cv != ev:
                    diffs.append(ContractionDiff(x, y, z, cv, ev))
    return not diffs, diffs


def _sector_scan(f, s, window, labels, expected):
    """Windowed scan of every ordered label pair for a bracket term whose target
    sector is not ``expected(x, y)``; returns the witnesses and the number of
    nonzero pairs censored because their mode sum leaves the window."""
    witnesses = []
    censored = 0
    for x in labels:
        for y in labels:
            mode = x.mode + y.mode
            if not window.contains(mode):
                if f.pair_targets(x.gen, y.gen):
                    censored += 1
                continue
            want = expected(x, y)
            for c, v in f.pair_targets(x.gen, y.gen):
                z = LoopLabel(c, mode)
                if s.sector(z) != want:
                    witnesses.append(SectorWitness(x, y, z, v))
    return witnesses, censored


def windowed_check_subalgebra(f, s, window):
    """The subalgebra verdict as the absence of a windowed witness."""
    labels = [lab for lab in enumerate_generators(f, window) if s.sector(lab) == 0]
    witnesses, censored = _sector_scan(f, s, window, labels, lambda x, y: 0)
    return SplitCheckReport(is_subalgebra_v0=not witnesses, subalgebra_witnesses=witnesses,
                            window_censored=censored)


def windowed_check_symmetric_coset(f, s, window):
    """The symmetric-coset verdict as the absence of a windowed witness."""
    witnesses, censored = _sector_scan(f, s, window, enumerate_generators(f, window),
                                       lambda x, y: (s.sector(x) + s.sector(y)) % 2)
    return SplitCheckReport(is_symmetric_coset=not witnesses, coset_witnesses=witnesses,
                            window_censored=censored)


def conjugate_label(x):
    """Hermitian conjugation on labels: T_a^m -> -T_a^{-m}."""
    return LoopLabel(x.gen, -x.mode), -1


def algebra_to_dict(f):
    """The definition-file form of an algebra, as ``load_algebra`` reads it."""
    entries = [{"a": a, "b": b, "c": c, "value": format_rational(v)}
               for (a, b, c), v in sorted(f.entries.items())]
    return {"name": f.name, "dim": f.dim, "entries": entries}


@st.composite
def raw_tensors(draw, min_dim=1, max_dim=4):
    """A tensor as a definition may hold it before the loader cleans it: both
    orders of a pair stored, agreeing or not, diagonal entries, and small
    rational values."""
    dim = draw(st.integers(min_dim, max_dim))
    index = st.integers(1, dim)
    value = st.fractions(-2, 2, max_denominator=3)
    entries = draw(st.dictionaries(st.tuples(index, index, index), value, max_size=3 * dim))
    for a, b, c in draw(st.lists(st.sampled_from(sorted(entries)), max_size=dim)
                        if entries else st.just([])):
        entries[(b, a, c)] = draw(st.just(-entries[(a, b, c)]) | value)
    return StructureConstants(dim, entries, name="raw")


@st.composite
def antisymmetric_tensors(draw, min_dim=2, max_dim=4):
    """An antisymmetric tensor with small rational values: each drawn f_ab^c
    with a < b is stored with f_ba^c = -f_ab^c.  Jacobi may fail."""
    dim = draw(st.integers(min_dim, max_dim))
    keys = [((a, b), c) for a in range(1, dim + 1) for b in range(a + 1, dim + 1)
            for c in range(1, dim + 1)]
    value = st.fractions(-2, 2, max_denominator=3)
    drawn = draw(st.dictionaries(st.sampled_from(keys), value, min_size=2,
                                 max_size=min(3 * dim, len(keys))))
    entries = {}
    for ((a, b), c), v in drawn.items():
        entries[(a, b, c)], entries[(b, a, c)] = v, -v
    return StructureConstants(dim, entries, name="antisymmetric")
