"""Order-truncated expanded algebras and their closure / Jacobi verification.

Expanded generators carry (gen, mode; order) with a sector tag derived from
the splitting.  Structure constants factor through two deltas,

    C_{(a,n;beta)(b,m;gamma)}^{(c,l;alpha)} = delta_{beta+gamma}^alpha
                                              delta_{n+m}^l f_{ab}^c,

and components above the truncation orders are quotiented to zero.  Closure
asks that every retained one-form equation reference only retained one-forms;
this is the criterion the truncation-order theorems are about.

Both verdicts hold for every mode, not just a window.  Whether a label exists
and is retained depends on its mode only through the mode's class (see
:mod:`loopexp.splitting`), so :class:`ClosureQuotient` decides closure from
one representative (target, source) mode pair per realizable class triple,
and :func:`check_jacobi_expanded` decides Jacobi from one representative
triple per rotation orbit of class patterns
(:meth:`~loopexp.splitting.ModeClasses.jacobi_defect`) and lists its rows
through :func:`loopexp.loop.jacobi_rows`, as the loop check does.  The
window bounds only what the reports list and count: witnesses are enumerated
over windowed modes only when the quotient finds a defect, and the counters
are mode-counting formulas equal to the windowed scan's counts.  A defect
none of whose instances fit the window gives a failed verdict and no witnesses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import StructureConstants
from .loop import LoopLabel, ModeWindow, jacobi_rows
from .splitting import SplitKind, Splitting, make_splitting, pair_modes, sector_patterns


class InadmissibleLabel(ValueError):
    """A label is not retained: inadmissible under its splitting, or above its order cap."""


class NotClosed(RuntimeError):
    """A Jacobi sweep was requested for a non-closed truncation."""


class UnknownCase(ValueError):
    """Unrecognized named-case identifier."""


class ExpandedLabel(NamedTuple):
    gen: int
    mode: int
    order: int
    sector: int


def expanded_key(label: ExpandedLabel) -> tuple[int, int, int]:
    """Canonical sort key: (order, mode, gen)."""
    return (label.order, label.mode, label.gen)


def make_label(s: Splitting, gen: int, mode: int, order: int) -> ExpandedLabel | None:
    """The admissible label at (gen, mode; order), or None if it does not exist."""
    label = LoopLabel(gen, mode)
    if not s.exists(label, order):
        return None
    return ExpandedLabel(gen, mode, order, s.sector(label))


def _check_orders(n0: int, n1: int) -> None:
    """Refuse truncation orders that are not non-negative integers; a bool is
    refused too, as :class:`~loopexp.loop.ModeWindow` refuses it."""
    if any(type(n) is not int or n < 0 for n in (n0, n1)):
        raise ValueError(f"truncation orders must be non-negative integers, got {n0!r}, {n1!r}")


def generator_set(f: StructureConstants, s: Splitting, n0: int, n1: int,
                  window: ModeWindow) -> list[ExpandedLabel]:
    """All retained labels for (s, n0, n1) with windowed modes, in canonical order."""
    alg = ExpandedAlgebra(f, s, n0, n1, window)
    return sorted((label for n in window.modes() for label in alg.labels_at(n)), key=expanded_key)


class ClosureViolation(NamedTuple):
    """A retained one-form equation referencing a source outside the basis."""

    pair: tuple[ExpandedLabel, ExpandedLabel]
    target: ExpandedLabel
    missing: ExpandedLabel
    coefficient: Fraction


@dataclass
class ClosureReport:
    closed: bool
    violations: list[ClosureViolation] = field(default_factory=list)
    window_censored: int = 0


class ClosureCell(NamedTuple):
    """One truncation's closure verdict and its windowed counts."""

    n0: int
    n1: int
    closed: bool
    violations: int
    window_censored: int


class ClosureQuotient:
    """Closure of every truncation of one splitting, decided by mode class.

    Whether a source pair (a,n;beta), (b,m;gamma) of a target (c,l;alpha)
    exists and is retained depends on the three labels' sectors, which follow
    from the generators and the classes of (l, n, m = l - n).  So each nonzero
    f_ab^c at each representative mode pair gives a sector pattern, and a
    truncation is closed iff no realized pattern has a source above its cap.
    :func:`check_closure`'s windowed counts follow: each pattern's violations
    times its windowed mode pairs, and for each windowed target, its |l|
    partner modes outside the window.  A cell costs O(cap) per pattern.
    """

    def __init__(self, f: StructureConstants, s: Splitting, window: ModeWindow):
        self.rule = s.order_rule
        in_window: Counter = Counter(
            tuple(map(s.mode_class, pair_modes((l, n))))
            for l in window.modes() for n in window.modes() if window.contains(l - n))
        # (sector z, sector x, sector y) -> windowed mode pairs times entries.
        self.patterns: Counter = Counter()
        for (classes, pattern), entries in sector_patterns(f, s).items():
            self.patterns[pattern] += in_window[classes] * entries
        # Per target sector: windowed source pairs times their outside partner modes.
        self.censorable = [0, 0]
        for l in window.modes():
            for c in range(1, f.dim + 1):
                self.censorable[s.sector(LoopLabel(c, l))] += abs(l) * len(f.pairs_into(c))

    def _violations(self, caps: tuple[int, int], target: int, x: int, y: int) -> int:
        """One pattern's violations at one mode pair, over the retained target
        orders alpha and the source orders beta + gamma = alpha.  The existing
        betas of one alpha form a progression, and so do their partners gamma."""
        lowest, step = self.rule
        if (lowest[target] - lowest[x] - lowest[y]) % step:
            return 0  # no existing beta + gamma is an existing alpha
        return sum(len(orders) - len(range(lowest[s], min(orders.stop, caps[s] + 1), step))
                   for alpha in range(lowest[target], caps[target] + 1, step)
                   for s, t in ((x, y), (y, x))
                   for orders in [range(lowest[s], alpha - lowest[t] + 1, step)])

    def cell(self, n0: int, n1: int) -> ClosureCell:
        _check_orders(n0, n1)
        caps = (n0, n1)
        counts = {pattern: self._violations(caps, *pattern) for pattern in self.patterns}
        lowest, step = self.rule
        censored = sum(self.censorable[sector] * sum(alpha + 1 for alpha in
                                                     range(lowest[sector], caps[sector] + 1, step))
                       for sector in (0, 1))
        return ClosureCell(n0, n1, not any(counts.values()),
                           sum(counts[p] * weight for p, weight in self.patterns.items()),
                           censored)


def _closure_witnesses(alg: ExpandedAlgebra) -> list[ClosureViolation]:
    """Every violation whose three modes lie in the window, in scan order."""
    s, window = alg.split, alg.window
    violations = []
    for z in alg.generators:
        for a, b, v in alg.base.pairs_into(z.gen):
            for beta in range(z.order + 1):
                for n in window.modes():
                    if not window.contains(z.mode - n):
                        continue
                    x = make_label(s, a, n, beta)
                    y = make_label(s, b, z.mode - n, z.order - beta)
                    if x is None or y is None:
                        continue
                    for source in (x, y):
                        if not alg.contains(source):
                            violations.append(ClosureViolation((x, y), z, source, v))
    return violations


def check_closure(f: StructureConstants, s: Splitting, n0: int, n1: int,
                  window: ModeWindow) -> ClosureReport:
    """Does every retained equation, at every mode, reference only retained one-forms?

    For each retained target (c,l;alpha), every source pair (a,n;beta),
    (b,m;alpha-beta) with nonzero base constant into c must consist of
    retained labels; identically-vanishing forms are skipped.  The verdict
    comes from :class:`ClosureQuotient`.  The violations listed are those
    with all three modes in the window, and ``window_censored`` counts the
    (target, source pair, order split, n) combinations whose partner mode
    m = l - n leaves it.
    """
    cell = ClosureQuotient(f, s, window).cell(n0, n1)
    violations = ([] if cell.closed else
                  _closure_witnesses(ExpandedAlgebra(f, s, n0, n1, window)))
    return ClosureReport(cell.closed, violations, cell.window_censored)


class JacobiResidual(NamedTuple):
    x: ExpandedLabel
    y: ExpandedLabel
    z: ExpandedLabel
    target: ExpandedLabel
    value: Fraction


@dataclass
class ExpandedJacobiReport:
    ok: bool
    residuals: list[JacobiResidual] = field(default_factory=list)
    triples_checked: int = 0
    window_skipped: int = 0


def check_jacobi_expanded(f: StructureConstants, s: Splitting, n0: int, n1: int,
                          window: ModeWindow) -> ExpandedJacobiReport:
    """Cyclic Jacobi check with the truncation quotient applied to intermediates.

    Requires closure first; raises NotClosed otherwise.  The check uses
    :meth:`ExpandedAlgebra.bracket`, so intermediates above the truncation
    orders vanish, and takes its verdict from the splitting's representative
    triples; the residual rows are those of the windowed triples.
    """
    closure = check_closure(f, s, n0, n1, window)
    if not closure.closed:
        raise NotClosed(f"truncation ({n0},{n1}) is not closed; "
                        f"{len(closure.violations)} violations")
    alg = ExpandedAlgebra(f, s, n0, n1, window)
    defect = s.representatives.jacobi_defect(alg.labels_at, alg.bracket)
    rows, checked, skipped = jacobi_rows(defect, alg.generators, alg.bracket, window.max_abs_mode)
    residuals = [JacobiResidual(*r) for r in rows]
    return ExpandedJacobiReport(not residuals, residuals, checked, skipped)


@dataclass(frozen=True)
class ExpandedAlgebra:
    """A truncation (f, s, n0, n1) with its windowed generators and its quotient bracket."""

    base: StructureConstants
    split: Splitting
    n0: int
    n1: int
    window: ModeWindow

    def __post_init__(self) -> None:
        _check_orders(self.n0, self.n1)

    @cached_property
    def generators(self) -> tuple[ExpandedLabel, ...]:
        """The retained labels with windowed modes, in canonical order."""
        return tuple(generator_set(self.base, self.split, self.n0, self.n1, self.window))

    def label_at(self, gen: int, mode: int, order: int) -> ExpandedLabel | None:
        """The retained label at (gen, mode; order): the admissible one, if its
        order is at most its sector's truncation order; else None."""
        label = make_label(self.split, gen, mode, order)
        return None if label is None or order > (self.n0, self.n1)[label.sector] else label

    def labels_at(self, mode: int) -> list[ExpandedLabel]:
        """The retained labels at one mode, in or out of the window, by
        generator and order."""
        labels = (self.label_at(a, mode, order) for a in range(1, self.base.dim + 1)
                  for order in range(max(self.n0, self.n1) + 1))
        return [label for label in labels if label is not None]

    def contains(self, label: ExpandedLabel) -> bool:
        """Whether ``label`` is retained, at any mode: whether its generator is
        the base's and :meth:`label_at` rebuilds it (admissible, within its order)."""
        return (label.gen in range(1, self.base.dim + 1)
                and self.label_at(label.gen, label.mode, label.order) == label)

    def bracket(self, x: ExpandedLabel, y: ExpandedLabel) -> dict[ExpandedLabel, Fraction]:
        """The retained terms of [x, y]; terms above the truncation orders vanish."""
        out = {}
        for c, v in self.base.pair_targets(x.gen, y.gen):
            z = self.label_at(c, x.mode + y.mode, x.order + y.order)
            if z is not None:
                out[z] = v
        return out

    def constant(self, x: ExpandedLabel, y: ExpandedLabel, z: ExpandedLabel) -> Fraction:
        """The constant of three retained labels, read from :meth:`bracket`."""
        for label in (x, y, z):
            self.base._check_index(label.gen)
            if not self.contains(label):
                raise InadmissibleLabel(f"{label} is not retained at "
                                        f"({self.n0},{self.n1})")
        return self.bracket(x, y).get(z, Fraction(0))

    def closure_report(self) -> ClosureReport:
        return check_closure(self.base, self.split, self.n0, self.n1, self.window)

    def jacobi_report(self) -> ExpandedJacobiReport:
        return check_jacobi_expanded(self.base, self.split, self.n0, self.n1, self.window)


NAMED_CASES: dict[str, tuple[SplitKind, int, int]] = {
    "G0": (SplitKind.ZERO_MODE_SUBALGEBRA, 0, 0),
    "G1": (SplitKind.ZERO_MODE_SUBALGEBRA, 1, 1),
    "G00": (SplitKind.MODE_PARITY_COSET, 0, 0),
    "G01": (SplitKind.MODE_PARITY_COSET, 0, 1),
    "G21": (SplitKind.MODE_PARITY_COSET, 2, 1),
}


def build_named(case_id: str, f: StructureConstants, window: ModeWindow) -> ExpandedAlgebra:
    """The worked truncations: G0/G1 on the zero-mode split, G00/G01/G21 on parity."""
    try:
        kind, n0, n1 = NAMED_CASES[case_id]
    except KeyError:
        raise UnknownCase(f"unknown case {case_id!r}; choices: {sorted(NAMED_CASES)}")
    split = make_splitting(kind)
    return ExpandedAlgebra(f, split, n0, n1, window)
