"""Finite-dimensional Lie algebras as exact-rational structure constants.

Everything downstream (loop lift, expansions, form series) is driven by the
sparse tensor f_{ab}^c stored here.  All coefficients are ``Fraction``
instances; no floating point is used anywhere in the package.

Conventions: generators are 1-based, the bracket is [T_a, T_b] = f_{ab}^c T_c
over a real basis, and well-formed tensors store only the pair (a, b) with
a < b, the mirror being reconstructed by sign.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .loop import LoopLabel, jacobi_sweep, loop_bracket


class IndexOutOfRange(ValueError):
    """A generator index lies outside 1..dim."""


class ContradictoryEntries(ValueError):
    """A definition assigns incompatible values to f_{ab}^c and f_{ba}^c."""

    def __init__(self, message: str, *, a: int = 0, b: int = 0, c: int = 0,
                 lhs=None, rhs=None):
        super().__init__(message)
        self.a, self.b, self.c = a, b, c
        self.lhs, self.rhs = lhs, rhs


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or decimal-free 'p/q' string."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
    raise ValueError(f"expected an integer or a 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> str:
    return str(value)


class StructureConstants:
    """Sparse tensor f_{ab}^c defining a finite-dimensional algebra.

    Entries are kept exactly as supplied.  Looking up a pair whose mirror is
    stored falls back to the negated mirror value, so canonically stored
    tensors (only a < b present) are antisymmetric by construction, while
    explicitly contradictory inputs remain representable and are reported by
    :func:`validate`.
    """

    def __init__(self, dim: int, entries: Mapping[tuple[int, int, int], object] = (),
                 name: str = ""):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.dim = dim
        self.name = name
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, raw in dict(entries).items():
            a, b, c = key
            for idx in (a, b, c):
                self._check_index(idx)
            value = parse_rational(raw)
            if value:
                clean[(a, b, c)] = value
        self.entries = clean

    def _check_index(self, idx: int) -> None:
        if not isinstance(idx, int) or not 1 <= idx <= self.dim:
            raise IndexOutOfRange(f"generator index {idx!r} not in 1..{self.dim}")

    def entry(self, a: int, b: int, c: int) -> Fraction:
        """The tensor value f_{ab}^c (mirror-completed when only (b,a) is stored)."""
        for idx in (a, b, c):
            self._check_index(idx)
        direct = self.entries.get((a, b, c))
        if direct is not None:
            return direct
        mirror = self.entries.get((b, a, c))
        if mirror is not None:
            return -mirror
        return Fraction(0)

    @cached_property
    def _pair_map(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        candidates: dict[tuple[int, int], set[int]] = {}
        for (a, b, c) in self.entries:
            candidates.setdefault((a, b), set()).add(c)
            candidates.setdefault((b, a), set()).add(c)
        out = {}
        for (a, b), cs in candidates.items():
            row = tuple((c, self.entry(a, b, c)) for c in sorted(cs))
            row = tuple((c, v) for c, v in row if v)
            if row:
                out[(a, b)] = row
        return out

    def pair_targets(self, a: int, b: int) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero (c, f_{ab}^c) rows for a fixed generator pair."""
        self._check_index(a)
        self._check_index(b)
        return self._pair_map.get((a, b), ())

    @cached_property
    def _into_map(self) -> dict[int, tuple[tuple[int, int, Fraction], ...]]:
        rows: dict[int, list[tuple[int, int, Fraction]]] = {}
        for (a, b), targets in self._pair_map.items():
            for c, v in targets:
                rows.setdefault(c, []).append((a, b, v))
        return {c: tuple(sorted(lst)) for c, lst in rows.items()}

    def pairs_into(self, c: int) -> tuple[tuple[int, int, Fraction], ...]:
        """All ordered pairs (a, b) with nonzero f_{ab}^c, with their values."""
        self._check_index(c)
        return self._into_map.get(c, ())

    def __repr__(self) -> str:
        label = self.name or "algebra"
        return f"StructureConstants({label!r}, dim={self.dim}, nnz={len(self.entries)})"


@dataclass
class ValidationReport:
    """Antisymmetry and Jacobi audit; both lists empty iff the tensor is a Lie algebra."""

    antisymmetry: list[tuple[int, int, int, Fraction, Fraction]] = field(default_factory=list)
    jacobi: list[tuple[int, int, int, int, Fraction]] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.antisymmetry and not self.jacobi


def validate(f: StructureConstants) -> ValidationReport:
    """Audit every antisymmetry pair and every Jacobi triple of the tensor."""
    report = ValidationReport()
    seen: set[tuple[int, int, int]] = set()
    for (a, b, c) in f.entries:
        key = (min(a, b), max(a, b), c)
        if key in seen:
            continue
        seen.add(key)
        lhs = f.entry(key[0], key[1], c)
        rhs = -f.entry(key[1], key[0], c)
        if lhs != rhs:
            report.antisymmetry.append((key[0], key[1], c, lhs, rhs))
    report.antisymmetry.sort()
    # The base algebra is the mode-0 slice of its loop algebra.
    labels = [LoopLabel(a, 0) for a in range(1, f.dim + 1)]
    rows, _, _ = jacobi_sweep(labels, lambda x, y: loop_bracket(f, x, y), 0)
    report.jacobi = [(x.gen, y.gen, z.gen, e.gen, r) for x, y, z, e, r in rows]
    return report


_BUILTINS: dict[str, tuple[int, dict[tuple[int, int, int], int]]] = {
    # Levi-Civita constants: f_{ab}^c = epsilon_{abc}.
    "epsilon3": (3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}),
    # Two-dimensional solvable algebra [T_1, T_2] = T_1.
    "solvable2": (2, {(1, 2, 1): 1}),
    "abelian4": (4, {}),
}

BUILTIN_NAMES: tuple[str, ...] = tuple(sorted(_BUILTINS))


def builtin_algebra(name: str) -> StructureConstants:
    try:
        dim, entries = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown built-in algebra {name!r}; choices: {BUILTIN_NAMES}")
    return StructureConstants(dim, entries, name=name)


def algebra_from_dict(data: Mapping) -> StructureConstants:
    """Build an algebra from its JSON definition, completing antisymmetric mirrors.

    Input rows may list either index order; the loader stores the canonical
    a < b key and rejects contradictory or diagonal nonzero entries.
    """
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    name = data.get("name", "")
    canon: dict[tuple[int, int, int], Fraction] = {}
    for row in data.get("entries", ()):
        a, b, c = row["a"], row["b"], row["c"]
        for idx in (a, b, c):
            if not isinstance(idx, int) or not 1 <= idx <= dim:
                raise IndexOutOfRange(f"generator index {idx!r} not in 1..{dim}")
        value = parse_rational(row["value"])
        if a == b:
            if value:
                raise ContradictoryEntries(
                    f"f_{{{a}{a}}}^{c} must vanish, got {value}",
                    a=a, b=a, c=c, lhs=value, rhs=-value)
            continue
        key, canonical = ((a, b, c), value) if a < b else ((b, a, c), -value)
        if key in canon and canon[key] != canonical:
            raise ContradictoryEntries(
                f"conflicting values for f_{{{key[0]}{key[1]}}}^{key[2]}: "
                f"{canon[key]} vs {canonical}",
                a=key[0], b=key[1], c=key[2], lhs=canon[key], rhs=canonical)
        canon[key] = canonical
    canon = {k: v for k, v in canon.items() if v}
    return StructureConstants(dim, canon, name=name)


def load_algebra(path: str) -> StructureConstants:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return algebra_from_dict(data)
