"""Loop-algebra lift: generators T_a^n with mode-additive brackets.

The algebra itself is infinite-dimensional; structure constants are evaluated
symbolically in the mode via the delta factor, and :class:`ModeWindow` only
bounds enumeration and the witness lists.

:func:`class_jacobi_sweep` decides the cyclic Jacobi identity for all modes:
the loop, expanded and contracted brackets depend on a mode only through its
class, and the cyclic sum does not change under (x, y, z) -> (y, z, x), so
one representative triple per rotation orbit of class patterns settles every
triple in that orbit.  The loop bracket is unmasked and has one class, so
its only representative is the base algebra's ``(0, 0, 0)``.  Only when a
representative has a nonzero residual does :func:`jacobi_sweep`, the
windowed enumeration, list the witness rows; the windowed counts are
:func:`sweep_counts` of the labels per mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, NamedTuple, Sequence

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
        if type(self.max_abs_mode) is not int or self.max_abs_mode < 0:
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


def enumerate_generators(f: StructureConstants, window: ModeWindow) -> list[LoopLabel]:
    """All windowed labels in canonical order (mode-major, then generator)."""
    return [LoopLabel(a, n) for n in window.modes() for a in range(1, f.dim + 1)]


def window_pairs(labels: Sequence, window: ModeWindow) -> Iterator[tuple]:
    """The ordered pairs of ``labels`` whose mode sum lies in the window, in scan order."""
    return ((x, y) for x in labels for y in labels if window.contains(x.mode + y.mode))


def jacobi_sweep(labels: Sequence, bracket: Callable[[Hashable, Hashable], dict],
                 bound: int) -> list[tuple]:
    """Cyclic Jacobi sweep [[x,y],z] + [[y,z],x] + [[z,x],y] over label triples.

    ``bracket(u, v)`` returns the nonzero ``{label: coefficient}`` row of
    [u, v]; its rows are memoised for this call only.  Only triples whose
    pairwise and total mode sums stay within ``bound`` are checked, so window
    edges cannot produce spurious residuals.  Returns the nonzero residual
    rows ``(x, y, z, target, value)``, targets sorted within a triple.
    """
    row = cache(bracket)
    rows: list[tuple] = []
    for x in labels:
        for y in labels:
            if abs(x.mode + y.mode) > bound:
                continue
            for z in labels:
                if (abs(y.mode + z.mode) > bound or abs(z.mode + x.mode) > bound
                        or abs(x.mode + y.mode + z.mode) > bound):
                    continue
                for target, value in sorted(_cyclic_sum(row, x, y, z).items()):
                    if value:
                        rows.append((x, y, z, target, value))
    return rows


def _cyclic_sum(row: Callable, x, y, z) -> dict:
    """The terms of [[x,y],z] + [[y,z],x] + [[z,x],y], exact zeros included."""
    acc: dict = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        for mid, f1 in row(u, v).items():
            for out, f2 in row(mid, w).items():
                acc[out] = acc.get(out, 0) + f1 * f2
    return acc


def sweep_counts(per_mode: dict[int, int], bound: int) -> tuple[int, int]:
    """The triples :func:`jacobi_sweep` checks over a label list with
    ``per_mode[n]`` labels at mode ``n``, and its window skips: one per
    skipped pair plus one per skipped third label of a kept pair."""
    checked = skipped = 0
    for n, g_n in per_mode.items():
        for m, g_m in per_mode.items():
            if abs(n + m) > bound:
                skipped += g_n * g_m
                continue
            for l, g_l in per_mode.items():
                if abs(m + l) > bound or abs(l + n) > bound or abs(n + m + l) > bound:
                    skipped += g_n * g_m * g_l
                else:
                    checked += g_n * g_m * g_l
    return checked, skipped


def _label_triples(xs: Sequence, ys: Sequence, zs: Sequence) -> Iterator[tuple]:
    """The triples of ``xs × ys × zs``; when the three are one list, one
    triple per rotation orbit, since the cyclic sum is the same at each."""
    if xs is ys is zs:
        turns = ((i, j, k) for i, j, k in product(range(len(xs)), repeat=3)
                 if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j))
        return ((xs[i], xs[j], xs[k]) for i, j, k in turns)
    return product(xs, ys, zs)


def class_jacobi_sweep(labels: Sequence, labels_at: Callable[[int], Sequence],
                       bracket: Callable[[Hashable, Hashable], dict],
                       triples: Sequence[tuple[int, int, int]], bound: int
                       ) -> tuple[list[tuple], int, int]:
    """:func:`jacobi_sweep`'s rows over the windowed ``labels``, with the
    verdict taken from the representative mode ``triples``, and the
    :func:`sweep_counts` of those labels.

    ``labels_at(n)`` lists every label at mode ``n``, in or out of the window.
    When no representative triple has a nonzero residual, the identity holds
    at every triple of every mode and the rows are empty without a sweep;
    otherwise the windowed sweep lists them.  A defect whose representatives
    lie outside the window then gives no rows.
    """
    row = cache(bracket)
    at = {mode: labels_at(mode) for triple in triples for mode in triple}
    defect = any(any(_cyclic_sum(row, *labels).values()) for n, m, l in triples
                 for labels in _label_triples(at[n], at[m], at[l]))
    rows = jacobi_sweep(labels, bracket, bound) if defect else []
    return (rows, *sweep_counts(Counter(label.mode for label in labels), bound))


def jacobi_residuals(f: StructureConstants, window: ModeWindow
                     ) -> tuple[list[tuple[LoopLabel, LoopLabel, LoopLabel, LoopLabel, Fraction]], int]:
    """Cyclic Jacobi check of the loop algebra.

    Returns the nonzero residual rows of the windowed triples and the number
    of triples checked.  A loop triple's residual is the base algebra's
    residual of its generators at the summed mode, so the rows are empty
    exactly when :func:`loopexp.algebra.validate` finds no Jacobi defect.
    """
    rows, checked, _ = class_jacobi_sweep(
        enumerate_generators(f, window),
        lambda mode: [LoopLabel(a, mode) for a in range(1, f.dim + 1)],
        lambda x, y: loop_bracket(f, x, y), ((0, 0, 0),), window.max_abs_mode)
    return rows, checked
