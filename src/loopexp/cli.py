"""Command-line entry point: validate algebras, run expansions, contractions,
canonical-form checks, and truncation-order sweeps.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
parse error.  All reports are machine-readable JSON with canonical ordering,
so identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (BUILTIN_NAMES, ContradictoryEntries, IndexOutOfRange,
                      StructureConstants, builtin_algebra, format_rational,
                      load_algebra, validate)
from .contraction import compare_with_expansion, iw_contract
from .expansion import (NAMED_CASES, ClosureQuotient, ExpandedAlgebra, ExpandedLabel,
                        build_named)
from .jsonout import json_chunks
from .loop import ModeWindow
from .mcforms import (DegreeTooLow, canonical_form_series, check_degree, check_grading,
                      graded_series_json, monomial_json, rescale_and_collect,
                      verify_mc_equations)
from .splitting import SplitKind, Splitting, make_splitting, split_to_dict


class UsageError(ValueError):
    """Configuration problems surfaced with exit code 2."""


# Each config-file setting and its default; a flag beats the file, the file the
# default.  The splitting's "kind" and "v0_gens" fill ``split`` and ``v0_gens``.
# Settings with an integer default must be non-negative integers.
SETTINGS = {"algebra": None, "split": None, "v0_gens": None, "n0": 0, "n1": 0,
            "window": 1, "degree": 4, "alpha_max": 2, "n0_max": 3, "n1_max": 3}


def _parse_v0(text) -> tuple[int, ...]:
    """Generator indices; a bool or a non-integral number is refused, not rounded."""
    if isinstance(text, str):
        try:
            return tuple(int(piece) for piece in text.split(",") if piece.strip())
        except ValueError:
            pass
    else:
        values = tuple(text) if isinstance(text, (list, tuple)) else (text,)
        if all(type(x) is int for x in values):
            return values
    raise UsageError(f"cannot parse v0 generator list {text!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each setting of ``args`` that no flag gave from the optional JSON
    config file, else from its default."""
    data = _load_config_file(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise UsageError("a config file must hold a JSON object")
    split_spec = data.get("splitting", {})
    if not isinstance(split_spec, dict):
        raise UsageError("the config's splitting must be a JSON object")
    clashing = [name for name in ("split", "v0_gens", "n0", "n1")
                if getattr(args, name, None) is not None]
    if getattr(args, "case", None) is not None and clashing:
        raise UsageError("--case fixes the splitting and orders; it cannot be combined "
                         "with " + ", ".join("--" + name.replace("_", "-") for name in clashing))
    from_file = {**data, "split": split_spec.get("kind"), "v0_gens": split_spec.get("v0_gens")}
    for name, default in SETTINGS.items():
        value = getattr(args, name, None)
        value = from_file.get(name) if value is None else value
        value = default if value is None else value
        if default is not None and (isinstance(value, bool) or not isinstance(value, int)
                                    or value < 0):
            raise UsageError(f"{name} must be a non-negative integer, got {value!r}")
        setattr(args, name, value)
    if not isinstance(args.algebra, str):
        raise UsageError("no algebra name or file given (use --algebra or a config file)")
    args.v0_gens = _parse_v0(args.v0_gens) if args.v0_gens else None
    return args


def _load_algebra_spec(spec: str) -> StructureConstants:
    if spec in BUILTIN_NAMES:
        return builtin_algebra(spec)
    if not os.path.exists(spec):
        raise UsageError(f"{spec!r} is neither a built-in algebra nor a file")
    try:
        return load_algebra(spec)
    except ContradictoryEntries:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            IndexOutOfRange) as exc:
        raise UsageError(f"cannot load algebra from {spec}: {exc}") from exc


def _make_split(args: argparse.Namespace, dim: int) -> Splitting:
    if args.split is None:
        raise UsageError("a splitting is required (use --split)")
    try:
        return make_splitting(SplitKind(args.split), v0_gens=args.v0_gens, dim=dim)
    except ValueError as exc:  # an unknown kind, or InvalidParams
        raise UsageError(str(exc)) from exc


def _label_json(label: ExpandedLabel) -> list[int]:
    return [label.gen, label.mode, label.order]


def _emit(chunks: list[str], out: str | None) -> None:
    """Write fully rendered chunks, so a rendering error leaves no partial file."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    chunks = json_chunks(payload)
    chunks.append("\n")
    _emit(chunks, out)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        f = _load_algebra_spec(args.algebra)
    except ContradictoryEntries as exc:
        # The loader refuses to build a contradictory tensor; report the
        # offending triple as an antisymmetry violation of the definition.
        payload = {
            "algebra": args.algebra,
            "valid": False,
            "antisymmetry_violations": [
                {"a": exc.a, "b": exc.b, "c": exc.c,
                 "lhs": format_rational(exc.lhs), "rhs": format_rational(exc.rhs)}],
            "jacobi_defects": [],
            "note": "definition rejected by the loader",
        }
        _emit_json(payload, args.out)
        return 1
    report = validate(f)
    payload = {
        "algebra": f.name or args.algebra,
        "dim": f.dim,
        "valid": report.is_valid,
        "antisymmetry_violations": [
            {"a": a, "b": b, "c": c,
             "lhs": format_rational(lhs), "rhs": format_rational(rhs)}
            for a, b, c, lhs, rhs in report.antisymmetry],
        "jacobi_defects": [
            {"a": a, "b": b, "c": c, "e": e, "residual": format_rational(r)}
            for a, b, c, e, r in report.jacobi],
    }
    _emit_json(payload, args.out)
    return 0 if report.is_valid else 1


def _resolve_expansion(args: argparse.Namespace, f: StructureConstants,
                       window: ModeWindow) -> ExpandedAlgebra:
    if args.case:
        return build_named(args.case, f, window)
    split = _make_split(args, f.dim)
    return ExpandedAlgebra(f, split, args.n0, args.n1, window)


def _retained_brackets(alg: ExpandedAlgebra):
    """Yield ``(x, y, {z: value})`` for each windowed generator pair x < y whose
    bracket has retained terms."""
    for i, x in enumerate(alg.generators):
        for y in alg.generators[i + 1:]:
            if alg.window.contains(x.mode + y.mode):
                terms = alg.bracket(x, y)
                if terms:
                    yield x, y, terms


def _constants_json(alg: ExpandedAlgebra) -> list[list]:
    # Rows share one list per label, which keeps a large report's memory down.
    labels = {g: _label_json(g) for g in alg.generators}
    return [[labels[x], labels[y], labels[z], format_rational(v)]
            for x, y, terms in _retained_brackets(alg) for z, v in terms.items()]


def _latex_tables(alg: ExpandedAlgebra) -> str:
    lines = ["% commutator tables, one block per order pair"]
    by_orders: dict[tuple[int, int], list[str]] = {}
    for x, y, terms in _retained_brackets(alg):
        pieces = []
        for z, v in terms.items():
            coef = "" if v == 1 else ("-" if v == -1 else f"{v}\\,")
            pieces.append(f"{coef}T_{{{z.gen},{z.mode}}}^{{({z.order})}}")
        row = (f"[T_{{{x.gen},{x.mode}}}^{{({x.order})}},"
               f"T_{{{y.gen},{y.mode}}}^{{({y.order})}}] &= "
               + " + ".join(pieces).replace("+ -", "- ") + r" \\")
        by_orders.setdefault((x.order, y.order), []).append(row)
    for orders in sorted(by_orders):
        lines.append(f"% orders {orders}")
        lines.append(r"\begin{align*}")
        lines.extend(by_orders[orders])
        lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def cmd_expand(args: argparse.Namespace) -> int:
    f = _load_algebra_spec(args.algebra)
    window = ModeWindow(args.window)
    alg = _resolve_expansion(args, f, window)
    closure = alg.closure_report()
    jacobi = alg.jacobi_report() if closure.closed else None
    if args.format == "latex":
        _emit([_latex_tables(alg)], args.out)
    else:
        _emit_json({
            "algebra": f.name or args.algebra,
            "splitting": split_to_dict(alg.split),
            "n0": alg.n0,
            "n1": alg.n1,
            "window": window.max_abs_mode,
            "generators": [_label_json(g) for g in alg.generators],
            "closed": closure.closed,
            "window_censored": closure.window_censored,
            "closure_violations": [
                {"pair": [_label_json(v.pair[0]), _label_json(v.pair[1])],
                 "target": _label_json(v.target),
                 "missing": _label_json(v.missing),
                 "coefficient": format_rational(v.coefficient)}
                for v in closure.violations],
            "jacobi": (None if jacobi is None else
                       {"ok": jacobi.ok,
                        "triples_checked": jacobi.triples_checked,
                        "residuals": [
                            {"x": _label_json(r.x), "y": _label_json(r.y),
                             "z": _label_json(r.z), "target": _label_json(r.target),
                             "value": format_rational(r.value)}
                            for r in jacobi.residuals]}),
            "constants": _constants_json(alg),
        }, args.out)
    return 0 if closure.closed and jacobi is not None and jacobi.ok else 1


def cmd_contract(args: argparse.Namespace) -> int:
    f = _load_algebra_spec(args.algebra)
    window = ModeWindow(args.window)
    contracted = iw_contract(f, make_splitting(SplitKind.MODE_PARITY_COSET), window)
    match, diffs = compare_with_expansion(contracted)
    payload = {
        "algebra": f.name or args.algebra,
        "window": window.max_abs_mode,
        "match": match,
        "diffs": [
            {"x": [d.x.gen, d.x.mode], "y": [d.y.gen, d.y.mode],
             "z": [d.z.gen, d.z.mode],
             "contracted": format_rational(d.contracted),
             "expanded": format_rational(d.expanded)}
            for d in diffs],
    }
    _emit_json(payload, args.out)
    return 0 if match else 1


def cmd_mc(args: argparse.Namespace) -> int:
    f = _load_algebra_spec(args.algebra)
    window = ModeWindow(args.window)
    split = _make_split(args, f.dim)
    check_degree(args.degree, args.alpha_max)
    series = canonical_form_series(f, window, args.degree)
    graded = rescale_and_collect(series, split)
    residuals = verify_mc_equations(graded, args.alpha_max)
    grading = check_grading(graded)
    payload = {
        "algebra": f.name or args.algebra,
        "splitting": split_to_dict(split),
        "degree": args.degree,
        "alpha_max": args.alpha_max,
        "window": window.max_abs_mode,
        "series_censored": series.censored,
        "residuals_ok": residuals.ok,
        "terms_checked": residuals.terms_checked,
        "mode_censored": residuals.mode_censored,
        "degree_censored": residuals.degree_censored,
        "residual_violations": [
            {"label": [t.label.gen, t.label.mode], "power": t.power,
             "monomial": monomial_json(t.monomial),
             "differentials": [[gen, mode] for mode, gen in t.diffs],
             "value": format_rational(t.value)}
            for t in residuals.violations],
        "grading_ok": grading.ok,
        "grading_violations": [
            {"label": [lab.gen, lab.mode], "power": power, "reason": reason}
            for lab, power, reason in grading.violations],
        "series": graded_series_json(graded),
    }
    _emit_json(payload, args.out)
    return 0 if residuals.ok and grading.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    f = _load_algebra_spec(args.algebra)
    window = ModeWindow(args.window)
    split = _make_split(args, f.dim)
    quotient = ClosureQuotient(f, split, window)
    cells = [quotient.cell(n0, n1)._asdict()
             for n0 in range(args.n0_max + 1) for n1 in range(args.n1_max + 1)]
    payload = {
        "algebra": f.name or args.algebra,
        "splitting": split_to_dict(split),
        "window": window.max_abs_mode,
        "cells": cells,
    }
    _emit_json(payload, args.out)
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "expand": cmd_expand,
    "contract": cmd_contract,
    "mc": cmd_mc,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopexp",
        description="Exact-rational loop-algebra expansion engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(p: argparse.ArgumentParser, *flags: str, text: str) -> None:
        default = SETTINGS[flags[0][2:].replace("-", "_")]
        p.add_argument(*flags, type=int, help=f"{text} (default {default})")

    def common(p: argparse.ArgumentParser, *, split: bool = False, orders: bool = False,
               degree: bool = False, case: bool = False, fmt: bool = False) -> None:
        p.add_argument("--algebra", "-a", help=f"built-in name {BUILTIN_NAMES} or JSON file")
        p.add_argument("--config", help="JSON run-configuration file")
        integer(p, "--window", "-M", text="mode window bound")
        p.add_argument("--out", "-o", help="output file (default stdout)")
        if split:
            p.add_argument("--split", choices=[k.value for k in SplitKind])
            p.add_argument("--v0-gens", help="comma-separated generator indices for the "
                                             "generic split")
        if orders:
            integer(p, "--n0", text="sector-0 truncation order")
            integer(p, "--n1", text="sector-1 truncation order")
        if degree:
            integer(p, "--degree", "-D", text="series degree")
            integer(p, "--alpha-max", text="highest graded order to verify")
        if case:
            p.add_argument("--case", choices=sorted(NAMED_CASES),
                           help="named truncation; excludes --split/--v0-gens/--n0/--n1")
        if fmt:
            p.add_argument("--format", choices=["json", "latex"])

    common(sub.add_parser("validate", help="audit an algebra definition"))
    common(sub.add_parser("expand", help="build a truncated expansion and verify it"),
           split=True, orders=True, case=True, fmt=True)
    common(sub.add_parser("contract", help="compare the sector contraction with "
                                           "the order-(0,1) parity expansion"))
    common(sub.add_parser("mc", help="canonical-form series and graded residuals"),
           split=True, degree=True)
    p_sweep = sub.add_parser("sweep", help="closure matrix over truncation orders")
    common(p_sweep, split=True)
    integer(p_sweep, "--n0-max", text="largest sector-0 order")
    integer(p_sweep, "--n1-max", text="largest sector-1 order")
    return parser


def main(argv=None) -> int:
    # The parser holds reference cycles; dropping it before the command runs
    # lets it be freed at once instead of surviving into an older GC generation.
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](build_config(args))
    except (UsageError, DegreeTooLow, ContradictoryEntries,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
