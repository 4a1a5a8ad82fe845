"""Two-subspace decompositions of the loop algebra and their admissibility checks.

Three kinds are supported: a generator-index split (mode-independent), the
zero-mode subalgebra split, and the even/odd mode-parity coset split.

Each kind is two rows of data.  ``ORDER_RULES`` says at which orders a
sector's one-forms exist.  ``MODE_CLASSES`` says how a mode is sorted into a
class: its parity on the coset, zero or nonzero on the zero-mode split, one
class on the generic split.  A label's sector, and so the existence and
retention of every expanded structure constant, depends on a mode only
through its class.  :class:`ModeClasses` therefore lists representative modes
for every class pattern that mode addition realizes, and closure and Jacobi
are decided for all modes from those representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
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

    def admits(self, sector: int, order: int) -> bool:
        first = self.lowest[sector]
        return order >= first and (order - first) % self.step == 0


# When V0 is a subalgebra, sector-1 forms start at order 1; on a symmetric
# coset only the orders whose parity matches the sector exist.
ORDER_RULES: dict[SplitKind, OrderRule] = {
    SplitKind.GENERIC_INDEX: OrderRule((0, 0), 1),
    SplitKind.ZERO_MODE_SUBALGEBRA: OrderRule((0, 1), 1),
    SplitKind.MODE_PARITY_COSET: OrderRule((0, 1), 2),
}


# The class of a mode.  On the two mode-graded kinds the class is the sector;
# the generic kind has one class and takes its sector from the generator.
MODE_CLASSES: dict[SplitKind, Callable[[int], int]] = {
    SplitKind.GENERIC_INDEX: lambda mode: 0,
    SplitKind.ZERO_MODE_SUBALGEBRA: lambda mode: 0 if mode == 0 else 1,
    SplitKind.MODE_PARITY_COSET: lambda mode: mode % 2,
}


class ModeClasses(NamedTuple):
    """Representative modes of a class function.

    ``pairs`` holds one ``(l, n)`` for each realizable class triple
    ``(l, n, l - n)``: a target mode and a source mode.  ``triples`` holds one
    ``(n, m, l)`` for each realizable class pattern of
    ``(n, m, l, n+m, m+l, l+n, n+m+l)``.  Each representative has the smallest
    largest ``|mode|`` among those sums, so it lies in every window that
    holds any instance of its pattern.
    """

    pairs: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]


def pair_modes(pair: tuple[int, int]) -> tuple[int, int, int]:
    """The modes ``(l, n, l - n)`` of a target/source pair."""
    l, n = pair
    return l, n, l - n


def triple_modes(triple: tuple[int, int, int]) -> tuple[int, ...]:
    """The modes ``(n, m, l, n+m, m+l, l+n, n+m+l)`` of a Jacobi triple."""
    n, m, l = triple
    return n, m, l, n + m, m + l, l + n, n + m + l


def find_representatives(mode_class: Callable[[int], int], span: int = 3) -> ModeClasses:
    """Search ``|mode| <= span`` for one representative of each class pattern;
    a wider search finds no new pattern for any kind of :data:`MODE_CLASSES`."""
    # Positive modes before negative ones among equal |mode|.
    modes = sorted(range(-span, span + 1), key=lambda n: (abs(n), n < 0))

    def first_per_pattern(candidates, spread):
        found: dict[tuple, tuple] = {}
        for cand in sorted(candidates, key=lambda c: max(map(abs, spread(c)))):
            found.setdefault(tuple(map(mode_class, spread(cand))), cand)
        return tuple(found.values())

    return ModeClasses(first_per_pattern(product(modes, repeat=2), pair_modes),
                       first_per_pattern(product(modes, repeat=3), triple_modes))


@cache
def mode_classes(kind: SplitKind) -> ModeClasses:
    """The representatives of one kind, found once."""
    return find_representatives(MODE_CLASSES[kind])


@dataclass(frozen=True)
class Splitting:
    """A declared V0 + V1 decomposition with a total sector function on labels."""

    kind: SplitKind
    v0_gens: frozenset[int] | None = None

    @cached_property
    def mode_class(self) -> Callable[[int], int]:
        """This kind's class function from :data:`MODE_CLASSES`."""
        return MODE_CLASSES[self.kind]

    @cached_property
    def representatives(self) -> ModeClasses:
        return mode_classes(self.kind)

    def sector(self, label: LoopLabel) -> int:
        """The mode class on the mode-graded kinds; on the generic kind, which
        alone carries ``v0_gens``, whether the generator lies outside V0."""
        if self.v0_gens is not None:
            return 0 if label.gen in self.v0_gens else 1
        return self.mode_class(label.mode)

    @cached_property
    def order_rule(self) -> OrderRule:
        """This kind's row of :data:`ORDER_RULES`."""
        return ORDER_RULES[self.kind]

    def exists(self, label: LoopLabel, order: int) -> bool:
        """Whether the coefficient one-form of ``label`` at ``order`` is a genuine
        object rather than one that vanishes identically."""
        return self.order_rule.admits(self.sector(label), order)


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
