"""Sector-mask contraction of the loop algebra and its comparison with the
order-(0,1) parity expansion.

The large-parameter limit is combinatorial: a structure constant survives
exactly when the target sector equals the sum of the source sectors, i.e. on
the patterns (0,0->0) and (0,1->1)/(1,0->1); everything else is zero.  On the
mode-parity coset this is the contraction with respect to the even-mode
subalgebra and the order-(0,1) expansion, generator for generator: mask and
retention rule keep the same sector patterns, so a mismatch means they
disagree in code.  Both verdicts hold for every mode.  Jacobi, on any kind,
is decided by :attr:`ContractedAlgebra.mode0_slice` and listed as the loop
check lists it; the comparison compares brackets on the coset's
representative (target, source) mode pairs.  The window bounds only the
listed rows and diffs, enumerated only on a defect, and the triple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator, NamedTuple

from .algebra import StructureConstants, validate
from .expansion import ExpandedAlgebra, ExpandedLabel, make_label
from .loop import (LoopLabel, ModeWindow, enumerate_generators, jacobi_rows, loop_bracket,
                   window_pairs)
from .splitting import SplitKind, Splitting


class WrongSplitKind(ValueError):
    """The contraction with a paper-backed equivalence needs the parity coset."""


_SURVIVING = {(0, 0, 0), (0, 1, 1), (1, 0, 1)}


@dataclass(frozen=True)
class ContractedAlgebra:
    """The loop bracket with the sector survival mask applied."""

    base: StructureConstants
    split: Splitting
    window: ModeWindow

    def bracket(self, x: LoopLabel, y: LoopLabel) -> dict[LoopLabel, Fraction]:
        """The terms of :func:`loop_bracket` whose sector pattern survives."""
        sector = self.split.sector
        return {z: v for z, v in loop_bracket(self.base, x, y).items()
                if (sector(x), sector(y), sector(z)) in _SURVIVING}

    @cached_property
    def mode0_slice(self) -> StructureConstants:
        """The coefficients of (c, 0) in :meth:`bracket` of (a, 0) and (b, 0); the
        contraction is this slice's loop algebra on the generic kind and its closed
        order-(0,1) expansion on the mode-graded ones, where the slice is ``base``."""
        gens = range(1, self.base.dim + 1)
        return StructureConstants(self.base.dim, {
            (a, b, z.gen): v for a in gens for b in gens
            for z, v in self.bracket(LoopLabel(a, 0), LoopLabel(b, 0)).items()})


def _require_parity_coset(s: Splitting) -> None:
    if s.kind is not SplitKind.MODE_PARITY_COSET:
        raise WrongSplitKind(f"contraction equivalence requires the mode-parity "
                             f"coset, got {s.kind.value}")


def iw_contract(f: StructureConstants, s: Splitting, window: ModeWindow) -> ContractedAlgebra:
    """Contraction with respect to the even-mode subalgebra; parity coset only."""
    _require_parity_coset(s)
    return ContractedAlgebra(f, s, window)


def contracted_jacobi_residuals(alg: ContractedAlgebra
                                ) -> tuple[list[tuple[LoopLabel, LoopLabel, LoopLabel, LoopLabel, Fraction]], int]:
    """Cyclic Jacobi check of the masked bracket, whose verdict at every mode is
    that of its mode-0 slice by :func:`loopexp.algebra.validate`."""
    slice_, window = alg.mode0_slice, alg.window
    return jacobi_rows(bool(validate(slice_).jacobi), enumerate_generators(slice_, window),
                       alg.bracket, window.max_abs_mode)[:2]


class ContractionDiff(NamedTuple):
    x: LoopLabel
    y: LoopLabel
    z: LoopLabel
    contracted: Fraction
    expanded: Fraction


def compare_with_expansion(contracted: ContractedAlgebra) -> tuple[bool, list[ContractionDiff]]:
    """Bracket-for-bracket comparison with the order-(0,1) expansion of
    ``contracted.base`` on ``contracted.split``, under the evident label dictionary.

    Each loop label maps to its sector's lowest existing order: even modes to 0, odd to 1.
    ``contracted`` must be on the parity coset.  ``contracted.bracket`` of each pair meets
    the expanded bracket of the lifted pair; both depend on the modes only through their
    classes, so the verdict comes from the representative mode pairs, and only when it
    fails are the diffs over ``contracted.window`` listed, by target generator per pair.
    """
    split = contracted.split
    _require_parity_coset(split)
    expanded = ExpandedAlgebra(contracted.base, split, 0, 1, contracted.window)
    gens = range(1, contracted.base.dim + 1)

    @cache
    def lift(label: LoopLabel) -> ExpandedLabel:
        return make_label(split, *label, split.order_rule.lowest[split.sector(label)])

    def diffs(pairs) -> Iterator[ContractionDiff]:
        for x, y in pairs:
            masked = contracted.bracket(x, y)
            lifted = {LoopLabel(z.gen, z.mode): v
                      for z, v in expanded.bracket(lift(x), lift(y)).items()}
            for z in sorted(masked.keys() | lifted.keys()):
                cv, ev = masked.get(z, Fraction(0)), lifted.get(z, Fraction(0))
                if cv != ev:
                    yield ContractionDiff(x, y, z, cv, ev)

    representatives = ((LoopLabel(a, n), LoopLabel(b, l - n))
                       for l, n in split.representatives.pairs for a in gens for b in gens)
    if next(diffs(representatives), None) is None:
        return True, []
    return False, list(diffs(window_pairs(
        enumerate_generators(contracted.base, contracted.window), contracted.window)))
