"""Order-truncated expanded algebras and their closure / Jacobi verification.

Expanded generators carry (gen, mode; order) with a sector tag derived from
the splitting.  Structure constants factor through two deltas,

    C_{(a,n;beta)(b,m;gamma)}^{(c,l;alpha)} = delta_{beta+gamma}^alpha
                                              delta_{n+m}^l f_{ab}^c,

and components above the truncation orders are quotiented to zero.  Closure
asks that every retained one-form equation reference only retained one-forms;
this is the criterion the truncation-order theorems are about, and it is what
:func:`check_closure` scans.  :func:`check_jacobi_expanded` supplies the
truncated bracket :meth:`ExpandedAlgebra.bracket` to the shared sweep
:func:`loopexp.loop.jacobi_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebra import StructureConstants
from .loop import LoopLabel, ModeWindow, jacobi_sweep
from .splitting import SplitKind, Splitting, make_splitting


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


def structurally_exists(s: Splitting, mode: int, order: int) -> bool:
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


def make_label(s: Splitting, gen: int, mode: int, order: int) -> ExpandedLabel | None:
    """The admissible label at (gen, mode; order), or None if it does not exist."""
    if not structurally_exists(s, mode, order):
        return None
    return ExpandedLabel(gen, mode, order, s.sector(LoopLabel(gen, mode)))


def _require_admissible(f: StructureConstants, s: Splitting, label: ExpandedLabel) -> None:
    f._check_index(label.gen)
    if label.order < 0:
        raise InadmissibleLabel(f"negative order in {label}")
    if label.sector != s.sector(LoopLabel(label.gen, label.mode)):
        raise InadmissibleLabel(f"sector tag of {label} does not match the splitting")
    if not structurally_exists(s, label.mode, label.order):
        raise InadmissibleLabel(f"{label} does not exist under {s.kind.value}")


def expanded_constant(f: StructureConstants, s: Splitting, x: ExpandedLabel,
                      y: ExpandedLabel, z: ExpandedLabel) -> Fraction:
    """delta_{beta+gamma}^alpha delta_{n+m}^l f_{ab}^c."""
    for label in (x, y, z):
        _require_admissible(f, s, label)
    if z.order != x.order + y.order or z.mode != x.mode + y.mode:
        return Fraction(0)
    return f.entry(x.gen, y.gen, z.gen)


def order_cap(n0: int, n1: int, sector: int) -> int:
    return n0 if sector == 0 else n1


def is_retained(s: Splitting, n0: int, n1: int, label: ExpandedLabel) -> bool:
    """Structural existence plus the truncation-order bound (window-free)."""
    if not structurally_exists(s, label.mode, label.order):
        return False
    return label.order <= order_cap(n0, n1, s.sector(LoopLabel(label.gen, label.mode)))


def generator_set(f: StructureConstants, s: Splitting, n0: int, n1: int,
                  window: ModeWindow) -> list[ExpandedLabel]:
    """All admissible labels for (s, n0, n1) with windowed modes, in canonical order."""
    if n0 < 0 or n1 < 0:
        raise ValueError("truncation orders must be non-negative")
    labels = []
    for n in window.modes():
        for a in range(1, f.dim + 1):
            cap = order_cap(n0, n1, s.sector(LoopLabel(a, n)))
            for alpha in range(cap + 1):
                label = make_label(s, a, n, alpha)
                if label is not None:
                    labels.append(label)
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


def check_closure(f: StructureConstants, s: Splitting, n0: int, n1: int,
                  window: ModeWindow) -> ClosureReport:
    """Scan every retained equation for references to truncated-away one-forms.

    For each retained target (c,l;alpha), every source pair (a,n;beta),
    (b,m;alpha-beta) with nonzero base constant into c must consist of
    retained labels; identically-vanishing forms are skipped, and source
    pairs whose partner mode escapes the window are counted separately as
    censored rather than reported as violations.
    """
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
                    y = make_label(s, b, m, gamma)
                    if x is None or y is None:
                        continue
                    for source in (x, y):
                        if not is_retained(s, n0, n1, source):
                            report.violations.append(
                                ClosureViolation((x, y), z, source, v))
    report.closed = not report.violations
    return report


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
    """Cyclic Jacobi sweep with the truncation quotient applied to intermediates.

    Requires closure first; raises NotClosed otherwise.  The sweep uses
    :meth:`ExpandedAlgebra.bracket`, so intermediates above the truncation
    orders vanish.
    """
    closure = check_closure(f, s, n0, n1, window)
    if not closure.closed:
        raise NotClosed(f"truncation ({n0},{n1}) is not closed; "
                        f"{len(closure.violations)} violations")
    alg = ExpandedAlgebra.build(f, s, n0, n1, window)
    rows, checked, skipped = jacobi_sweep(alg.generators, alg.bracket, window.max_abs_mode)
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
        return is_retained(self.split, self.n0, self.n1, label)

    def bracket(self, x: ExpandedLabel, y: ExpandedLabel) -> dict[ExpandedLabel, Fraction]:
        """The retained terms of [x, y]; terms above the truncation orders vanish."""
        out = {}
        for c, v in self.base.pair_targets(x.gen, y.gen):
            z = make_label(self.split, c, x.mode + y.mode, x.order + y.order)
            if z is not None and self.contains(z):
                out[z] = v
        return out

    def constant(self, x: ExpandedLabel, y: ExpandedLabel, z: ExpandedLabel) -> Fraction:
        for label in (x, y, z):
            if not self.contains(label):
                raise InadmissibleLabel(f"{label} is not retained at "
                                        f"({self.n0},{self.n1})")
        return expanded_constant(self.base, self.split, x, y, z)

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
    return ExpandedAlgebra.build(f, split, n0, n1, window)
