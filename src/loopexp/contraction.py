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
for every mode: Jacobi is decided on the splitting's representative triples,
and the comparison on its representative (target, source) mode pairs.  The
window bounds only the listed rows and diffs, which are enumerated only when
a representative shows a defect, and the triple count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebra import StructureConstants
from .expansion import ExpandedAlgebra, ExpandedLabel, expanded_constant
from .loop import (LoopLabel, ModeWindow, class_jacobi_sweep, enumerate_generators,
                   loop_structure_constant)
from .splitting import SplitKind, Splitting, find_representatives, pair_modes


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


def compare_with_expansion(contracted: ContractedAlgebra, expanded: ExpandedAlgebra,
                           window: ModeWindow) -> tuple[bool, list[ContractionDiff]]:
    """Coefficient-for-coefficient comparison under the evident label dictionary.

    Each loop label maps to its sector's lowest existing order: even modes to 0, odd to 1.
    ``expanded`` must be the order-(0,1) truncation on the parity coset.  Both
    constants depend on the modes only through their classes, so the verdict
    comes from the representative mode pairs (of both splittings, if the
    contraction was built on another); the diffs listed are the windowed ones.
    """
    if (expanded.split.kind is not SplitKind.MODE_PARITY_COSET
            or (expanded.n0, expanded.n1) != (0, 1)):
        raise ValueError("comparison target must be the order-(0,1) parity expansion")

    f = expanded.base
    split = expanded.split
    lowest = split.order_rule.lowest

    def lift(label: LoopLabel) -> ExpandedLabel:
        sector = split.sector(label)
        return ExpandedLabel(label.gen, label.mode, lowest[sector], sector)

    pairs = (split.representatives.pairs if contracted.split == split else
             find_representatives(lambda n: (contracted.split.mode_class(n),
                                             split.mode_class(n))).pairs)
    gens = range(1, contracted.base.dim + 1)
    for pair in pairs:
        l, n, m = pair_modes(pair)
        for a in gens:
            for b in gens:
                for c in gens:
                    x, y, z = LoopLabel(a, n), LoopLabel(b, m), LoopLabel(c, l)
                    if contracted.constant(x, y, z) != expanded_constant(
                            f, split, lift(x), lift(y), lift(z)):
                        diffs = _diffs_in_window(contracted, f, split, lift, window)
                        return not diffs, diffs
    return True, []


def _diffs_in_window(contracted: ContractedAlgebra, f: StructureConstants, split: Splitting,
                     lift, window: ModeWindow) -> list[ContractionDiff]:
    """Every differing constant whose modes lie in the window, in scan order."""
    labels = enumerate_generators(contracted.base, window)
    lifted = {label: lift(label) for label in labels}
    diffs: list[ContractionDiff] = []
    for x in labels:
        for y in labels:
            mode = x.mode + y.mode
            if not window.contains(mode):
                continue
            for c in range(1, contracted.base.dim + 1):
                z = LoopLabel(c, mode)
                cv = contracted.constant(x, y, z)
                ev = expanded_constant(f, split, lifted[x], lifted[y], lifted[z])
                if cv != ev:
                    diffs.append(ContractionDiff(x, y, z, cv, ev))
    return diffs
