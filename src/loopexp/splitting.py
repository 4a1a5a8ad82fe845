"""Two-subspace decompositions of the loop algebra and their admissibility checks.

Three kinds are supported: a generator-index split (mode-independent), the
zero-mode subalgebra split, and the even/odd mode-parity coset split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .algebra import StructureConstants
from .loop import LoopLabel, ModeWindow, enumerate_generators


class SplitKind(Enum):
    GENERIC_INDEX = "generic"
    ZERO_MODE_SUBALGEBRA = "zero_mode"
    MODE_PARITY_COSET = "mode_parity"


class InvalidParams(ValueError):
    """Splitting parameters inconsistent with the requested kind."""


class OrderRule(NamedTuple):
    """The orders at which a sector's coefficient one-forms exist:
    ``lowest[sector]``, then every ``step`` above it."""

    lowest: tuple[int, int]
    step: int


# When V0 is a subalgebra, sector-1 forms start at order 1; on a symmetric
# coset only the orders whose parity matches the sector exist.
ORDER_RULES: dict[SplitKind, OrderRule] = {
    SplitKind.GENERIC_INDEX: OrderRule((0, 0), 1),
    SplitKind.ZERO_MODE_SUBALGEBRA: OrderRule((0, 1), 1),
    SplitKind.MODE_PARITY_COSET: OrderRule((0, 1), 2),
}


@dataclass(frozen=True)
class Splitting:
    """A declared V0 + V1 decomposition with a total sector function on labels."""

    kind: SplitKind
    v0_gens: frozenset[int] | None = None

    def sector(self, label: LoopLabel) -> int:
        if self.kind is SplitKind.GENERIC_INDEX:
            return 0 if label.gen in self.v0_gens else 1
        if self.kind is SplitKind.ZERO_MODE_SUBALGEBRA:
            return 0 if label.mode == 0 else 1
        return label.mode % 2

    @cached_property
    def order_rule(self) -> OrderRule:
        """This kind's row of :data:`ORDER_RULES`."""
        return ORDER_RULES[self.kind]

    def exists(self, label: LoopLabel, order: int) -> bool:
        """Whether the coefficient one-form of ``label`` at ``order`` is a genuine
        object rather than one that vanishes identically."""
        lowest, step = self.order_rule
        first = lowest[self.sector(label)]
        return order >= first and (order - first) % step == 0


def make_splitting(kind: SplitKind, *, v0_gens=None, dim: int | None = None) -> Splitting:
    """Construct a splitting, validating the kind-specific parameters."""
    if kind is SplitKind.GENERIC_INDEX:
        if not v0_gens:
            raise InvalidParams("generic splitting requires a nonempty v0_gens set")
        if dim is None:
            raise InvalidParams("generic splitting requires the algebra dimension")
        gens = frozenset(v0_gens)
        if any(not isinstance(g, int) or not 1 <= g <= dim for g in gens):
            raise InvalidParams(f"v0_gens {sorted(gens)} not within 1..{dim}")
        if len(gens) >= dim:
            raise InvalidParams("v0_gens must be a proper subset of the generators")
        return Splitting(kind, gens)
    if v0_gens:
        raise InvalidParams(f"v0_gens only applies to the generic kind, not {kind.value}")
    return Splitting(kind)


class SectorWitness(NamedTuple):
    """A structure-constant tuple violating a sector condition; the stored
    value re-verifies against loop_structure_constant."""

    x: LoopLabel
    y: LoopLabel
    z: LoopLabel
    value: Fraction


@dataclass
class SplitCheckReport:
    is_subalgebra_v0: bool | None = None
    subalgebra_witnesses: list[SectorWitness] = field(default_factory=list)
    is_symmetric_coset: bool | None = None
    coset_witnesses: list[SectorWitness] = field(default_factory=list)
    window_censored: int = 0


def _sector_scan(f: StructureConstants, s: Splitting, window: ModeWindow,
                 labels: list[LoopLabel], expected: Callable[[LoopLabel, LoopLabel], int]
                 ) -> tuple[list[SectorWitness], int]:
    """Windowed scan of every ordered label pair for a bracket term whose target
    sector is not ``expected(x, y)``; returns the witnesses and the number of
    nonzero pairs censored because their mode sum leaves the window."""
    witnesses: list[SectorWitness] = []
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


def check_subalgebra(f: StructureConstants, s: Splitting, window: ModeWindow) -> SplitCheckReport:
    """Does every windowed bracket of two sector-0 labels land in sector 0?"""
    labels = [lab for lab in enumerate_generators(f, window) if s.sector(lab) == 0]
    witnesses, censored = _sector_scan(f, s, window, labels, lambda x, y: 0)
    return SplitCheckReport(is_subalgebra_v0=not witnesses, subalgebra_witnesses=witnesses,
                            window_censored=censored)


def check_symmetric_coset(f: StructureConstants, s: Splitting, window: ModeWindow) -> SplitCheckReport:
    """Do the constants vanish whenever the target sector breaks the mod-2 sum rule?"""
    witnesses, censored = _sector_scan(f, s, window, enumerate_generators(f, window),
                                       lambda x, y: (s.sector(x) + s.sector(y)) % 2)
    return SplitCheckReport(is_symmetric_coset=not witnesses, coset_witnesses=witnesses,
                            window_censored=censored)


def split_to_dict(s: Splitting) -> dict:
    data: dict = {"kind": s.kind.value}
    if s.v0_gens is not None:
        data["v0_gens"] = sorted(s.v0_gens)
    return data


def split_from_dict(data: dict, dim: int) -> Splitting:
    try:
        kind = SplitKind(data["kind"])
    except (KeyError, ValueError) as exc:
        raise InvalidParams(f"bad splitting spec {data!r}") from exc
    v0 = data.get("v0_gens")
    return make_splitting(kind, v0_gens=frozenset(v0) if v0 else None, dim=dim)
