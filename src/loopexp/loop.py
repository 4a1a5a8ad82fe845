"""Loop-algebra lift: generators T_a^n with mode-additive brackets.

The algebra itself is infinite-dimensional; structure constants are evaluated
symbolically in the mode via the delta factor, and :class:`ModeWindow` only
bounds enumeration and verification sweeps.

:func:`jacobi_sweep` is the package's one cyclic Jacobi sweep: the base, loop,
expanded and contracted algebras each supply only a bracket on their labels,
and :func:`loop_bracket` is the loop algebra's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .algebra import StructureConstants


class LoopLabel(NamedTuple):
    gen: int
    mode: int


def label_key(label: LoopLabel) -> tuple[int, int]:
    """Canonical sort key: mode-major ascending, then generator index."""
    return (label.mode, label.gen)


@dataclass(frozen=True)
class ModeWindow:
    """Finite enumeration window |n| <= max_abs_mode."""

    max_abs_mode: int

    def __post_init__(self) -> None:
        if not isinstance(self.max_abs_mode, int) or self.max_abs_mode < 0:
            raise ValueError(f"window bound must be a non-negative integer, "
                             f"got {self.max_abs_mode!r}")

    def modes(self) -> range:
        return range(-self.max_abs_mode, self.max_abs_mode + 1)

    def contains(self, mode: int) -> bool:
        return abs(mode) <= self.max_abs_mode


def loop_bracket(f: StructureConstants, x: LoopLabel, y: LoopLabel) -> dict[LoopLabel, Fraction]:
    """[T_a^m, T_b^n] = f_{ab}^c T_c^{m+n}, as a sparse label map."""
    f._check_index(x.gen)
    f._check_index(y.gen)
    mode = x.mode + y.mode
    return {LoopLabel(c, mode): v for c, v in f.pair_targets(x.gen, y.gen)}


def loop_structure_constant(f: StructureConstants, x: LoopLabel, y: LoopLabel,
                            z: LoopLabel) -> Fraction:
    """delta_{m+n}^l f_{ab}^c, evaluated symbolically in the modes."""
    if z.mode != x.mode + y.mode:
        f._check_index(x.gen)
        f._check_index(y.gen)
        f._check_index(z.gen)
        return Fraction(0)
    return f.entry(x.gen, y.gen, z.gen)


def conjugate_label(x: LoopLabel) -> tuple[LoopLabel, int]:
    """Hermitian conjugation on labels: T_a^m -> -T_a^{-m}."""
    return LoopLabel(x.gen, -x.mode), -1


def enumerate_generators(f: StructureConstants, window: ModeWindow) -> list[LoopLabel]:
    """All windowed labels in canonical order (mode-major, then generator)."""
    return [LoopLabel(a, n) for n in window.modes() for a in range(1, f.dim + 1)]


def jacobi_sweep(labels: Sequence, bracket: Callable[[Hashable, Hashable], dict],
                 bound: int) -> tuple[list[tuple], int, int]:
    """Cyclic Jacobi sweep [[x,y],z] + [[y,z],x] + [[z,x],y] over label triples.

    ``bracket(u, v)`` returns the nonzero ``{label: coefficient}`` row of
    [u, v]; its rows are memoised for this call only.  Only triples whose
    pairwise and total mode sums stay within ``bound`` are checked, so window
    edges cannot produce spurious residuals.  Returns the nonzero residual
    rows ``(x, y, z, target, value)`` (targets sorted within a triple), the
    triples checked, and the window skips: one per skipped pair plus one per
    skipped third label of a kept pair.
    """
    table: dict[tuple, tuple] = {}

    def row(u, v) -> tuple:
        if (u, v) not in table:
            table[u, v] = tuple(bracket(u, v).items())
        return table[u, v]

    rows: list[tuple] = []
    checked = skipped = 0
    for x in labels:
        for y in labels:
            if abs(x.mode + y.mode) > bound:
                skipped += 1
                continue
            for z in labels:
                if (abs(y.mode + z.mode) > bound or abs(z.mode + x.mode) > bound
                        or abs(x.mode + y.mode + z.mode) > bound):
                    skipped += 1
                    continue
                checked += 1
                acc: dict = {}
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    for mid, f1 in row(u, v):
                        for out, f2 in row(mid, w):
                            acc[out] = acc.get(out, 0) + f1 * f2
                for target, value in sorted(acc.items()):
                    if value:
                        rows.append((x, y, z, target, value))
    return rows, checked, skipped


def jacobi_residuals(f: StructureConstants, window: ModeWindow
                     ) -> tuple[list[tuple[LoopLabel, LoopLabel, LoopLabel, LoopLabel, Fraction]], int]:
    """Windowed cyclic Jacobi sweep of the loop algebra.

    Returns the nonzero residual rows and the number of triples checked.
    """
    rows, checked, _ = jacobi_sweep(enumerate_generators(f, window),
                                    lambda x, y: loop_bracket(f, x, y),
                                    window.max_abs_mode)
    return rows, checked
