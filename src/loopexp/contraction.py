"""Sector-mask contraction of the loop algebra and its comparison with the
order-(0,1) parity expansion.

The large-parameter limit is combinatorial: a structure constant survives
exactly when the target sector equals the sum of the source sectors, i.e. on
the patterns (0,0->0) and (0,1->1)/(1,0->1); everything else is zero.  On the
mode-parity coset this is the contraction with respect to the even-mode
subalgebra, and it reproduces the order-(0,1) expansion generator-for-
generator.  :meth:`ContractedAlgebra.bracket` is the masked bracket that
:func:`contracted_jacobi_residuals` supplies to
:func:`loopexp.loop.class_jacobi_sweep`.

The mask depends on a mode only through its sector, so both verdicts hold
for every mode: Jacobi is decided on the splitting's representative triples
(the mask and its Jacobi check work on any kind), and the comparison, which
needs the contraction on the parity coset, compares brackets on the coset's
representative (target, source) mode pairs.  The contracted algebra's window
bounds only the listed rows and diffs, which are enumerated only when a
representative shows a defect, and the triple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .algebra import StructureConstants
from .expansion import ExpandedAlgebra, ExpandedLabel
from .loop import (LoopLabel, ModeWindow, class_jacobi_sweep, enumerate_generators,
                   loop_structure_constant, window_pairs)
from .splitting import SplitKind, Splitting


class WrongSplitKind(ValueError):
    """The contraction with a paper-backed equivalence needs the parity coset."""


_SURVIVING = {(0, 0, 0), (0, 1, 1), (1, 0, 1)}


@dataclass(frozen=True)
class ContractedAlgebra:
    """Loop-label constant evaluator with the sector survival mask applied."""

    base: StructureConstants
    split: Splitting
    window: ModeWindow

    def constant(self, x: LoopLabel, y: LoopLabel, z: LoopLabel) -> Fraction:
        pattern = (self.split.sector(x), self.split.sector(y), self.split.sector(z))
        if pattern not in _SURVIVING:
            self.base._check_index(x.gen)
            self.base._check_index(y.gen)
            self.base._check_index(z.gen)
            return Fraction(0)
        return loop_structure_constant(self.base, x, y, z)

    def bracket(self, x: LoopLabel, y: LoopLabel) -> dict[LoopLabel, Fraction]:
        mode = x.mode + y.mode
        out = {}
        for c, _ in self.base.pair_targets(x.gen, y.gen):
            z = LoopLabel(c, mode)
            value = self.constant(x, y, z)
            if value:
                out[z] = value
        return out


def iw_contract(f: StructureConstants, s: Splitting, window: ModeWindow) -> ContractedAlgebra:
    """Contraction with respect to the even-mode subalgebra; parity coset only."""
    if s.kind is not SplitKind.MODE_PARITY_COSET:
        raise WrongSplitKind(f"contraction equivalence requires the mode-parity "
                             f"coset, got {s.kind.value}")
    return ContractedAlgebra(f, s, window)


def contracted_jacobi_residuals(alg: ContractedAlgebra
                                ) -> tuple[list[tuple[LoopLabel, LoopLabel, LoopLabel, LoopLabel, Fraction]], int]:
    """Cyclic Jacobi check of the masked constants: the rows and count of the
    windowed triples, the verdict for all modes."""
    rows, checked, _ = class_jacobi_sweep(
        enumerate_generators(alg.base, alg.window),
        lambda mode: [LoopLabel(a, mode) for a in range(1, alg.base.dim + 1)],
        alg.bracket, alg.split.representatives.triples, alg.window.max_abs_mode)
    return rows, checked


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
    if split.kind is not SplitKind.MODE_PARITY_COSET:
        raise ValueError(f"comparison needs a contraction on the parity coset, "
                         f"got {split.kind.value}")
    expanded = ExpandedAlgebra(contracted.base, split, 0, 1, contracted.window)
    lowest = split.order_rule.lowest
    gens = range(1, contracted.base.dim + 1)

    def lift(label: LoopLabel) -> ExpandedLabel:
        sector = split.sector(label)
        return ExpandedLabel(label.gen, label.mode, lowest[sector], sector)

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
