"""Two-subspace decompositions of the loop algebra and their admissibility checks.

Three kinds are supported: a generator-index split (mode-independent), the
zero-mode subalgebra split, and the even/odd mode-parity coset split.

Each kind is two rows of data.  ``ORDER_RULES`` says at which orders a
sector's one-forms exist.  ``MODE_CLASSES`` says how a mode is sorted into a
class: its parity on the coset, zero or nonzero on the zero-mode split, one
class on the generic split.  A label's sector, and so the existence and
retention of every expanded structure constant, depends on a mode only
through its class.  :class:`ModeClasses` therefore lists representative modes
for every class pattern that mode addition realizes (for the expanded Jacobi
triples, one per rotation orbit of patterns), and closure, expanded Jacobi and
the subalgebra and symmetric-coset conditions are decided for all modes from
those representatives.  The windowed scans only list the witnesses of a
failed verdict; the window counters are counted per mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from .algebra import StructureConstants
from .loop import LoopLabel, ModeWindow, _cyclic_sum, enumerate_generators, window_pairs


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
    ``(n, m, l)`` for each rotation orbit, under (n, m, l) -> (m, l, n), of
    the realizable class patterns of ``(n, m, l, n+m, m+l, l+n, n+m+l)``;
    the cyclic Jacobi sum is the same at every member of an orbit.  Only
    :meth:`jacobi_defect`, the verdict of
    :func:`~loopexp.expansion.check_jacobi_expanded`, reads them.  Each
    representative has the smallest largest ``|mode|`` among those sums (a
    value rotation keeps), so it lies in every window that holds any
    instance of its pattern or orbit.
    """

    pairs: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]

    def jacobi_defect(self, labels_at: Callable[[int], Sequence],
                      bracket: Callable[[Hashable, Hashable], dict]) -> bool:
        """Whether ``bracket`` has a nonzero cyclic sum at a label triple of some
        representative in :attr:`triples`; ``labels_at(n)`` lists every label at mode n."""
        row = cache(bracket)
        at = {mode: labels_at(mode) for triple in self.triples for mode in triple}
        return any(any(_cyclic_sum(row, *labels).values()) for n, m, l in self.triples
                   for labels in _label_triples(at[n], at[m], at[l]))


def _label_triples(xs: Sequence, ys: Sequence, zs: Sequence) -> Iterator[tuple]:
    """The triples of ``xs × ys × zs``; when the three are one list, one
    triple per rotation orbit, since the cyclic sum is the same at each."""
    if xs is ys is zs:
        turns = ((i, j, k) for i, j, k in product(range(len(xs)), repeat=3)
                 if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j))
        return ((xs[i], xs[j], xs[k]) for i, j, k in turns)
    return product(xs, ys, zs)


def pair_modes(pair: tuple[int, int]) -> tuple[int, int, int]:
    """The modes ``(l, n, l - n)`` of a target/source pair."""
    l, n = pair
    return l, n, l - n


def triple_modes(triple: tuple[int, int, int]) -> tuple[int, ...]:
    """The modes ``(n, m, l, n+m, m+l, l+n, n+m+l)`` of a Jacobi triple."""
    n, m, l = triple
    return n, m, l, n + m, m + l, l + n, n + m + l


@cache
def find_representatives(mode_class: Callable[[int], int], span: int = 3) -> ModeClasses:
    """Search ``|mode| <= span``, once per class function, for one
    representative of each pair pattern and each triple orbit; a wider search
    finds no new one for any kind of :data:`MODE_CLASSES`."""
    # Positive modes before negative ones among equal |mode|.
    modes = sorted(range(-span, span + 1), key=lambda n: (abs(n), n < 0))

    def first_per_orbit(candidates, spread, turns):
        found: dict[tuple, tuple] = {}
        for cand in sorted(candidates, key=lambda c: max(map(abs, spread(c)))):
            orbit = min(tuple(map(mode_class, spread(cand[k:] + cand[:k])))
                        for k in range(turns))
            found.setdefault(orbit, cand)
        return tuple(found.values())

    return ModeClasses(first_per_orbit(product(modes, repeat=2), pair_modes, 1),
                       first_per_orbit(product(modes, repeat=3), triple_modes, 3))


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
        return find_representatives(self.mode_class)

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
    """Construct a splitting, validating the kind and its kind-specific parameters."""
    if not isinstance(kind, SplitKind):
        raise InvalidParams(f"splitting kind must be a SplitKind, got {kind!r}")
    if kind is SplitKind.GENERIC_INDEX:
        if not v0_gens:
            raise InvalidParams("generic splitting requires a nonempty v0_gens set")
        if dim is None:
            raise InvalidParams("generic splitting requires the algebra dimension")
        gens = frozenset(v0_gens)
        if any(type(g) is not int or not 1 <= g <= dim for g in gens):
            raise InvalidParams(f"v0_gens {sorted(gens)} not within 1..{dim}")
        if len(gens) >= dim:
            raise InvalidParams("v0_gens must be a proper subset of the generators")
        return Splitting(kind, gens)
    if v0_gens:
        raise InvalidParams(f"v0_gens only applies to the generic kind, not {kind.value}")
    return Splitting(kind)


def sector_patterns(f: StructureConstants, s: Splitting) -> Counter:
    """``(classes of (l, n, l - n), sectors of (c, l), (a, n), (b, l - n)) ->
    entries`` for each nonzero f_ab^c at each representative pair (l, n).  A
    sector pattern is realized at some modes iff it is a key here."""
    patterns: Counter = Counter()
    gens = range(1, f.dim + 1)
    for pair in s.representatives.pairs:
        modes = pair_modes(pair)
        classes = tuple(map(s.mode_class, modes))
        z, x, y = ({a: s.sector(LoopLabel(a, mode)) for a in gens} for mode in modes)
        for c in gens:
            for a, b, _ in f.pairs_into(c):
                patterns[classes, (z[c], x[a], y[b])] += 1
    return patterns


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


def _sector_check(f: StructureConstants, s: Splitting, window: ModeWindow,
                  labels: list[LoopLabel], breaks: Callable[[int, int, int], bool]
                  ) -> tuple[bool, list[SectorWitness], int]:
    """Whether no bracket term of two ``labels``, at any mode, has sectors
    ``(z, x, y)`` that ``breaks``, from :func:`sector_patterns`; the windowed
    terms that do, listed in scan order only when the verdict fails; and the
    nonzero ``labels`` pairs whose mode sum leaves the window, counted per
    pair of modes."""
    ok = not any(breaks(*pattern) for _, pattern in sector_patterns(f, s))
    witnesses: list[SectorWitness] = []
    if not ok:
        for x, y in window_pairs(labels, window):
            for c, v in f.pair_targets(x.gen, y.gen):
                z = LoopLabel(c, x.mode + y.mode)
                if breaks(s.sector(z), s.sector(x), s.sector(y)):
                    witnesses.append(SectorWitness(x, y, z, v))
    at = {n: [label.gen for label in labels if label.mode == n] for n in window.modes()}
    censored = sum(1 for n, m in product(at, repeat=2) if not window.contains(n + m)
                   for a in at[n] for b in at[m] if f.pair_targets(a, b))
    return ok, witnesses, censored


def check_subalgebra(f: StructureConstants, s: Splitting, window: ModeWindow) -> SplitCheckReport:
    """Does every bracket of two sector-0 labels, at every mode, land in sector 0?

    The verdict holds for every mode.  Only when it fails are the witnesses
    listed: the windowed brackets that break it, so a defect with no
    windowed instance gives ``False`` and no witnesses.  ``window_censored``
    counts the nonzero sector-0 label pairs whose mode sum leaves the window.
    """
    labels = [lab for lab in enumerate_generators(f, window) if s.sector(lab) == 0]
    ok, witnesses, censored = _sector_check(f, s, window, labels,
                                            lambda z, x, y: x == y == 0 and z != 0)
    return SplitCheckReport(is_subalgebra_v0=ok, subalgebra_witnesses=witnesses,
                            window_censored=censored)


def check_symmetric_coset(f: StructureConstants, s: Splitting, window: ModeWindow) -> SplitCheckReport:
    """Do the constants vanish, at every mode, whenever the target sector breaks
    the mod-2 sum rule?  Verdict, witnesses and ``window_censored``, over all
    label pairs, as in :func:`check_subalgebra`."""
    ok, witnesses, censored = _sector_check(f, s, window, enumerate_generators(f, window),
                                            lambda z, x, y: z != (x + y) % 2)
    return SplitCheckReport(is_symmetric_coset=ok, coset_witnesses=witnesses,
                            window_censored=censored)


def split_to_dict(s: Splitting) -> dict:
    data: dict = {"kind": s.kind.value}
    if s.v0_gens is not None:
        data["v0_gens"] = sorted(s.v0_gens)
    return data
