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
triple per class pattern through :func:`loopexp.loop.class_jacobi_sweep`.
The window bounds only what the reports list and count: witnesses are
enumerated over windowed modes only when the quotient finds a defect, and
the counters are mode-counting formulas equal to the windowed scan's counts.
A defect none of whose instances fit the window is reported as a failed
verdict with an empty witness list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import StructureConstants
from .loop import LoopLabel, ModeWindow, class_jacobi_sweep
from .splitting import SplitKind, Splitting, make_splitting, pair_modes


class InadmissibleLabel(ValueError):
    """A label violates its splitting's sector or order invariant."""


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


def _require_admissible(f: StructureConstants, s: Splitting, label: ExpandedLabel) -> None:
    f._check_index(label.gen)
    loop_label = LoopLabel(label.gen, label.mode)
    if label.sector != s.sector(loop_label):
        raise InadmissibleLabel(f"sector tag of {label} does not match the splitting")
    if not s.exists(loop_label, label.order):
        raise InadmissibleLabel(f"{label} does not exist under {s.kind.value}")


def expanded_constant(f: StructureConstants, s: Splitting, x: ExpandedLabel,
                      y: ExpandedLabel, z: ExpandedLabel) -> Fraction:
    """delta_{beta+gamma}^alpha delta_{n+m}^l f_{ab}^c."""
    for label in (x, y, z):
        _require_admissible(f, s, label)
    if z.order != x.order + y.order or z.mode != x.mode + y.mode:
        return Fraction(0)
    return f.entry(x.gen, y.gen, z.gen)


def retained_at(f: StructureConstants, s: Splitting, n0: int, n1: int,
                mode: int) -> list[ExpandedLabel]:
    """The admissible labels for (s, n0, n1) at one mode, by generator and order."""
    labels = []
    for a in range(1, f.dim + 1):
        loop_label = LoopLabel(a, mode)
        sector = s.sector(loop_label)
        labels.extend(ExpandedLabel(a, mode, alpha, sector)
                      for alpha in range((n0, n1)[sector] + 1)
                      if s.exists(loop_label, alpha))
    return labels


def generator_set(f: StructureConstants, s: Splitting, n0: int, n1: int,
                  window: ModeWindow) -> list[ExpandedLabel]:
    """All admissible labels for (s, n0, n1) with windowed modes, in canonical order."""
    if n0 < 0 or n1 < 0:
        raise ValueError("truncation orders must be non-negative")
    labels = [label for n in window.modes() for label in retained_at(f, s, n0, n1, n)]
    labels.sort(key=expanded_key)
    return labels


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
    partner modes outside the window.
    """

    def __init__(self, f: StructureConstants, s: Splitting, window: ModeWindow):
        self.rule = s.order_rule
        in_window: Counter = Counter(
            tuple(map(s.mode_class, pair_modes((l, n))))
            for l in window.modes() for n in window.modes() if window.contains(l - n))
        # (sector z, sector x, sector y) -> windowed mode pairs times entries.
        self.patterns: Counter = Counter()
        for pair in s.representatives.pairs:
            l, n, m = pair_modes(pair)
            weight = in_window[tuple(map(s.mode_class, (l, n, m)))]
            for c in range(1, f.dim + 1):
                target = s.sector(LoopLabel(c, l))
                for a, b, _ in f.pairs_into(c):
                    key = (target, s.sector(LoopLabel(a, n)), s.sector(LoopLabel(b, m)))
                    self.patterns[key] += weight
        # Per target sector: windowed source pairs times their outside partner modes.
        self.censorable = [0, 0]
        for l in window.modes():
            for c in range(1, f.dim + 1):
                self.censorable[s.sector(LoopLabel(c, l))] += abs(l) * len(f.pairs_into(c))

    def _violations(self, caps: tuple[int, int], target: int, x: int, y: int) -> int:
        """One pattern's violations at one mode pair, over the retained target
        orders alpha and the source orders beta + gamma = alpha."""
        lowest, step = self.rule
        admits = self.rule.admits
        count = 0
        for alpha in range(lowest[target], caps[target] + 1, step):
            for beta in range(alpha + 1):
                if admits(x, beta) and admits(y, alpha - beta):
                    count += (beta > caps[x]) + (alpha - beta > caps[y])
        return count

    def cell(self, n0: int, n1: int) -> ClosureCell:
        if n0 < 0 or n1 < 0:
            raise ValueError("truncation orders must be non-negative")
        caps = (n0, n1)
        counts = {pattern: self._violations(caps, *pattern) for pattern in self.patterns}
        lowest, step = self.rule
        censored = sum(self.censorable[sector] * sum(alpha + 1 for alpha in
                                                     range(lowest[sector], caps[sector] + 1, step))
                       for sector in (0, 1))
        return ClosureCell(n0, n1, not any(counts.values()),
                           sum(counts[p] * weight for p, weight in self.patterns.items()),
                           censored)


def _closure_witnesses(f: StructureConstants, s: Splitting, n0: int, n1: int,
                       window: ModeWindow) -> list[ClosureViolation]:
    """Every violation whose three modes lie in the window, in scan order."""
    bound = window.max_abs_mode
    violations = []
    for z in generator_set(f, s, n0, n1, window):
        for a, b, v in f.pairs_into(z.gen):
            for beta in range(z.order + 1):
                gamma = z.order - beta
                for n in window.modes():
                    m = z.mode - n
                    if abs(m) > bound:
                        continue
                    x = make_label(s, a, n, beta)
                    y = make_label(s, b, m, gamma)
                    if x is None or y is None:
                        continue
                    # Both labels exist, so retention is the order cap alone.
                    for source in (x, y):
                        if source.order > (n0, n1)[source.sector]:
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
    violations = [] if cell.closed else _closure_witnesses(f, s, n0, n1, window)
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
                          window: ModeWindow, closure: ClosureReport | None = None
                          ) -> ExpandedJacobiReport:
    """Cyclic Jacobi check with the truncation quotient applied to intermediates.

    Requires closure first; raises NotClosed otherwise (``closure`` is this
    truncation's report, if already computed).  The check uses
    :meth:`ExpandedAlgebra.bracket`, so intermediates above the truncation
    orders vanish, and takes its verdict from the splitting's representative
    triples; the residual rows are those of the windowed triples.
    """
    if closure is None:
        closure = check_closure(f, s, n0, n1, window)
    if not closure.closed:
        raise NotClosed(f"truncation ({n0},{n1}) is not closed; "
                        f"{len(closure.violations)} violations")
    alg = ExpandedAlgebra.build(f, s, n0, n1, window)
    rows, checked, skipped = class_jacobi_sweep(
        alg.generators, lambda mode: retained_at(f, s, n0, n1, mode), alg.bracket,
        s.representatives.triples, window.max_abs_mode)
    residuals = [JacobiResidual(*r) for r in rows]
    return ExpandedJacobiReport(not residuals, residuals, checked, skipped)


@dataclass(frozen=True)
class ExpandedAlgebra:
    """Generator set plus closed-form structure-constant evaluator."""

    base: StructureConstants
    split: Splitting
    n0: int
    n1: int
    window: ModeWindow
    generators: tuple[ExpandedLabel, ...]

    @classmethod
    def build(cls, f: StructureConstants, s: Splitting, n0: int, n1: int,
              window: ModeWindow) -> "ExpandedAlgebra":
        return cls(f, s, n0, n1, window,
                   tuple(generator_set(f, s, n0, n1, window)))

    def contains(self, label: ExpandedLabel) -> bool:
        """Structural existence plus the truncation-order bound (window-free)."""
        loop_label = LoopLabel(label.gen, label.mode)
        return (self.split.exists(loop_label, label.order)
                and label.order <= (self.n0, self.n1)[self.split.sector(loop_label)])

    def bracket(self, x: ExpandedLabel, y: ExpandedLabel) -> dict[ExpandedLabel, Fraction]:
        """The retained terms of [x, y]; terms above the truncation orders vanish."""
        out = {}
        for c, v in self.base.pair_targets(x.gen, y.gen):
            z = make_label(self.split, c, x.mode + y.mode, x.order + y.order)
            if z is not None and z.order <= (self.n0, self.n1)[z.sector]:
                out[z] = v
        return out

    def constant(self, x: ExpandedLabel, y: ExpandedLabel, z: ExpandedLabel) -> Fraction:
        for label in (x, y, z):
            if not self.contains(label):
                raise InadmissibleLabel(f"{label} is not retained at "
                                        f"({self.n0},{self.n1})")
        return expanded_constant(self.base, self.split, x, y, z)

    @cached_property
    def _closure(self) -> ClosureReport:
        return check_closure(self.base, self.split, self.n0, self.n1, self.window)

    def closure_report(self) -> ClosureReport:
        """This truncation's closure report, computed once."""
        return self._closure

    def jacobi_report(self) -> ExpandedJacobiReport:
        return check_jacobi_expanded(self.base, self.split, self.n0, self.n1, self.window,
                                     closure=self._closure)


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
    return ExpandedAlgebra.build(f, split, n0, n1, window)
