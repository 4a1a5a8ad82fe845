"""Loop-algebra lift: generators T_a^n with mode-additive brackets.

The algebra itself is infinite-dimensional; structure constants are evaluated
symbolically in the mode via the delta factor, and :class:`ModeWindow` only
bounds enumeration and the witness lists.

The loop, contracted and expanded brackets all add modes, so their Jacobi
checks share :func:`jacobi_rows` and differ only in their verdict source:
:func:`loopexp.algebra.validate` of the mode-0 slice for the loop algebra and
the contraction, :meth:`loopexp.splitting.ModeClasses.jacobi_defect` for an
expansion.  Only on a defect does :func:`jacobi_sweep` list the witness rows
of the window; the windowed counts are :func:`sweep_counts` per mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from .algebra import StructureConstants, validate


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
    mode = x.mode + y.mode
    return {LoopLabel(c, mode): v for c, v in f.pair_targets(x.gen, y.gen)}


def loop_structure_constant(f: StructureConstants, x: LoopLabel, y: LoopLabel,
                            z: LoopLabel) -> Fraction:
    """delta_{m+n}^l f_{ab}^c, read from :func:`loop_bracket`."""
    f._check_index(z.gen)
    return loop_bracket(f, x, y).get(z, Fraction(0))


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


def jacobi_rows(defect: bool, labels: Sequence, bracket: Callable[[Hashable, Hashable], dict],
                bound: int) -> tuple[list[tuple], int, int]:
    """A Jacobi check's rows and counts over the windowed ``labels``, given its
    verdict: :func:`jacobi_sweep`'s rows, swept only on a ``defect`` (which
    may then have none in the window), and the :func:`sweep_counts`."""
    rows = jacobi_sweep(labels, bracket, bound) if defect else []
    return (rows, *sweep_counts(Counter(label.mode for label in labels), bound))


def jacobi_residuals(f: StructureConstants, window: ModeWindow
                     ) -> tuple[list[tuple[LoopLabel, LoopLabel, LoopLabel, LoopLabel, Fraction]], int]:
    """Cyclic Jacobi check of the loop algebra, whose verdict at every mode is
    that of its mode-0 slice ``f`` by :func:`loopexp.algebra.validate`."""
    return jacobi_rows(bool(validate(f).jacobi), enumerate_generators(f, window),
                       lambda x, y: loop_bracket(f, x, y), window.max_abs_mode)[:2]
