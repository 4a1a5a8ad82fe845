"""Workloads of the loopexp benchmark: generated inputs, the calls of one job,
and the summaries that the correctness gate compares with ``expected.json``.

Importing this module does not import loopexp.  The worker imports the
package inside its timed set-up and passes it in; the parent process only
reads the report files the package wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from typing import NamedTuple

WORKLOADS = ("mc-residual", "jacobi-window", "cli-small-batch")

# Diagnostic counters that ROADMAP item 2 redefines.  They are recorded but
# kept out of the content digest, so a redefinition is not a wrong answer.
DIAGNOSTIC_KEYS = frozenset({"terms_checked", "mode_censored", "degree_censored",
                             "window_censored", "triples_checked", "series_censored"})
VERDICT_KEYS = ("closed", "match", "residuals_ok", "grading_ok", "valid")

WINDOW = 2


class Call(NamedTuple):
    """One call of a job: a CLI argv (run as ``cli.main(argv + ["--out", f])``)
    or the name of a library call, with ``argv`` empty."""

    id: str
    argv: tuple[str, ...]
    seed_dependent: bool

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


# -- inputs ---------------------------------------------------------------

def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def relabelling(seed: int, dim: int) -> list[int]:
    """``perm[a - 1]`` is the new index of generator ``a``; seed 0 is the identity."""
    perm = list(range(1, dim + 1))
    if seed:
        _rng(seed, "relabel").shuffle(perm)
    return perm


def gl3_entries() -> dict[tuple[int, int, int], int]:
    """gl(3) from matrix units: [E_ij, E_kl] = d_jk E_il - d_li E_kj.

    E_ij is generator 3(i-1)+j; only pairs a < b are stored.
    """
    def unit(i: int, j: int) -> int:
        return 3 * (i - 1) + j

    out: dict[tuple[int, int, int], int] = {}
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        a, b = unit(i, j), unit(k, l)
        if a >= b:
            continue
        if j == k:
            out[(a, b, unit(i, l))] = out.get((a, b, unit(i, l)), 0) + 1
        if l == i:
            out[(a, b, unit(k, j))] = out.get((a, b, unit(k, j)), 0) - 1
    return {key: value for key, value in out.items() if value}


def epsilon3_entries() -> dict[tuple[int, int, int], int]:
    """Levi-Civita constants f_ab^c = epsilon_abc on pairs a < b."""
    even = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    return {(a, b, c): 1 if (a, b, c) in even else -1
            for a, b, c in itertools.permutations((1, 2, 3)) if a < b}


def algebra_definition(name: str, dim: int, entries: dict, perm: list[int]) -> dict:
    """JSON algebra file with every generator index relabelled by ``perm``."""
    rows = [{"a": perm[a - 1], "b": perm[b - 1], "c": perm[c - 1], "value": str(v)}
            for (a, b, c), v in entries.items()]
    rows.sort(key=lambda row: (row["a"], row["b"], row["c"]))
    return {"name": name, "dim": dim, "entries": rows}


# The definition file of acceptance criterion 13 (a Heisenberg algebra).
FILE_ALGEBRA = {"name": "file-algebra", "dim": 3,
                "entries": [{"a": 1, "b": 2, "c": 3, "value": "1/2"}]}


def input_definitions(workload: str, seed: int) -> dict[str, dict]:
    """File name -> algebra definition for the workload's generated inputs."""
    gl3 = algebra_definition("gl3", 9, gl3_entries(), relabelling(seed, 9))
    if workload == "mc-residual":
        # Named like the built-in so that seed 0 reproduces `mc -a epsilon3`.
        return {"eps3.json": algebra_definition("epsilon3", 3, epsilon3_entries(),
                                                relabelling(seed, 3))}
    if workload == "jacobi-window":
        return {"gl3.json": gl3}
    return {"gl3.json": gl3, "file-algebra.json": FILE_ALGEBRA}


class InvalidInput(RuntimeError):
    """A generated algebra failed ``validate``; nothing may be timed on it."""


def write_inputs(workload: str, seed: int, directory: str, lx) -> dict[str, str]:
    """Generate, write and validate the inputs; return file name -> path.

    ``lx`` is the imported ``loopexp`` package.  Each file is read back with
    the package's own loader before it is validated.
    """
    paths = {}
    for name, definition in input_definitions(workload, seed).items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(definition, handle, sort_keys=True)
        report = lx.validate(lx.load_algebra(path))
        if not report.is_valid:
            raise InvalidInput(f"{name} is not a Lie algebra: "
                               f"{len(report.antisymmetry)} antisymmetry and "
                               f"{len(report.jacobi)} Jacobi defects")
        paths[name] = path
    return paths


# -- calls ----------------------------------------------------------------

def job_calls(workload: str, seed: int, paths: dict[str, str]) -> list[Call]:
    """The calls of one job, in the order they run."""
    M = ("-M", str(WINDOW))
    if workload == "mc-residual":
        return [Call("mc", ("mc", "-a", paths["eps3.json"], "--split", "mode_parity",
                            "-D", "5", "--alpha-max", "2", *M), True)]
    gl3 = paths["gl3.json"]
    if workload == "jacobi-window":
        cli = [
            Call("expand", ("expand", "-a", gl3, "--split", "mode_parity",
                            "--n0", "2", "--n1", "1", *M), True),
            Call("sweep", ("sweep", "-a", gl3, "--split", "mode_parity",
                           "--n0-max", "4", "--n1-max", "4", *M), True),
            Call("contract", ("contract", "-a", gl3, *M), True),
        ]
        return cli + [Call(name, (), True) for name in LIBRARY_CALLS]
    calls = [
        Call("validate-builtin", ("validate", "-a", "epsilon3"), False),
        Call("validate-file", ("validate", "-a", paths["file-algebra.json"]), False),
        Call("expand-json", ("expand", "-a", "epsilon3", "--case", "G21", "-M", "1"), False),
        Call("expand-latex", ("expand", "-a", "epsilon3", "--case", "G21", "-M", "1",
                              "--format", "latex"), False),
        Call("expand-generic", ("expand", "-a", "epsilon3", "--split", "generic",
                                "--v0-gens", "1,2", "--n0", "1", "--n1", "1", "-M", "1"),
             False),
        Call("contract", ("contract", "-a", "epsilon3", "-M", "2"), False),
        Call("mc", ("mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "3",
                    "--alpha-max", "2", "-M", "1"), False),
        Call("sweep", ("sweep", "-a", "epsilon3", "--split", "mode_parity",
                       "--n0-max", "2", "--n1-max", "3", "-M", "1"), False),
        Call("validate-gl3", ("validate", "-a", gl3), True),
    ]
    if seed:
        _rng(seed, "order").shuffle(calls)
    return calls


# Library calls of a jacobi-window job.  They share one loaded gl(3).
LIBRARY_CALLS = ("load_algebra", "jacobi_residuals", "contracted_jacobi_residuals",
                 "validate", "check_subalgebra", "check_symmetric_coset")


def run_library_call(name: str, lx, paths: dict[str, str], state: dict):
    """Run one library call; ``state`` carries the loaded algebra between calls."""
    if name == "load_algebra":
        state["f"] = lx.load_algebra(paths["gl3.json"])
        return state["f"]
    f = state["f"]
    window = lx.ModeWindow(WINDOW)
    coset = lx.make_splitting(lx.SplitKind.MODE_PARITY_COSET)
    if name == "jacobi_residuals":
        return lx.loop.jacobi_residuals(f, window)
    if name == "contracted_jacobi_residuals":
        return lx.contraction.contracted_jacobi_residuals(
            lx.contraction.iw_contract(f, coset, window))
    if name == "validate":
        return lx.algebra.validate(f)
    if name == "check_subalgebra":
        return lx.splitting.check_subalgebra(f, coset, window)
    if name == "check_symmetric_coset":
        return lx.splitting.check_symmetric_coset(f, coset, window)
    raise ValueError(f"unknown library call {name!r}")


# -- summaries ------------------------------------------------------------

def _plain(value):
    """JSON-ready form of report values: tuples to lists, rationals to strings."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _without_diagnostics(value):
    if isinstance(value, dict):
        return {k: _without_diagnostics(v) for k, v in value.items()
                if k not in DIAGNOSTIC_KEYS}
    if isinstance(value, list):
        return [_without_diagnostics(v) for v in value]
    return value


def digest(content) -> str:
    """SHA-256 of the canonical JSON of ``content`` without diagnostic counters."""
    text = json.dumps(_without_diagnostics(content), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize_report(report: dict) -> dict:
    """Verdicts, relabelling-invariant counts, digest and diagnostics of a CLI report."""
    verdicts = {key: report[key] for key in VERDICT_KEYS if key in report}
    counts = {key: len(value) for key, value in report.items() if isinstance(value, list)}
    diagnostics = {key: report[key] for key in DIAGNOSTIC_KEYS if key in report}
    jacobi = report.get("jacobi")
    if isinstance(jacobi, dict):
        verdicts["jacobi.ok"] = jacobi["ok"]
        counts["jacobi.residuals"] = len(jacobi["residuals"])
        diagnostics["jacobi.triples_checked"] = jacobi["triples_checked"]
    if "cells" in report:
        counts["cells.closed"] = sum(cell["closed"] for cell in report["cells"])
        counts["cells.violations"] = sum(cell["violations"] for cell in report["cells"])
        diagnostics["cells.window_censored"] = sum(cell["window_censored"]
                                                   for cell in report["cells"])
    if "series" in report:
        counts["series.terms"] = sum(len(bucket["terms"]) for row in report["series"]
                                     for bucket in row["series"])
    return {"verdicts": verdicts, "counts": counts, "digest": digest(report),
            "diagnostics": diagnostics}


def summarize_text(text: str) -> dict:
    return {"verdicts": {}, "counts": {"lines": text.count("\n")},
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "diagnostics": {}}


def summarize_cli_output(call: Call, path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        if "latex" in call.argv:
            return summarize_text(handle.read())
        return summarize_report(json.load(handle))


def summarize_library(name: str, result) -> dict:
    """The same summary shape for a library call's return value."""
    if name == "load_algebra":
        rows = sorted((a, b, c, v) for (a, b, c), v in result.entries.items())
        return {"verdicts": {}, "counts": {"entries": len(rows), "dim": result.dim},
                "digest": digest(_plain(rows)), "diagnostics": {}}
    if name in ("jacobi_residuals", "contracted_jacobi_residuals"):
        rows, checked = result
        return {"verdicts": {"ok": not rows}, "counts": {"residuals": len(rows)},
                "digest": digest(_plain(rows)),
                "diagnostics": {"triples_checked": checked}}
    if name == "validate":
        return {"verdicts": {"valid": result.is_valid},
                "counts": {"antisymmetry": len(result.antisymmetry),
                           "jacobi": len(result.jacobi)},
                "digest": digest(_plain([result.antisymmetry, result.jacobi])),
                "diagnostics": {}}
    if name == "check_subalgebra":
        witnesses = result.subalgebra_witnesses
        verdict = {"is_subalgebra_v0": result.is_subalgebra_v0}
    else:
        witnesses = result.coset_witnesses
        verdict = {"is_symmetric_coset": result.is_symmetric_coset}
    return {"verdicts": verdict, "counts": {"witnesses": len(witnesses)},
            "digest": digest(_plain(witnesses)),
            "diagnostics": {"window_censored": result.window_censored}}


def mismatches(call: Call, seed: int, got: dict, expected: dict) -> list[str]:
    """Differences from the frozen expectation.

    The digest is compared only where the call's input does not depend on
    the seed; for a relabelled algebra the verdicts and counts still must
    agree.  Diagnostics are never compared.
    """
    problems = []
    fields = ["exit", "verdicts", "counts"]
    if seed == 0 or not call.seed_dependent:
        fields.append("digest")
    for key in fields:
        if got.get(key) != expected.get(key):
            problems.append(f"{call.id}: {key} {got.get(key)!r} != expected "
                            f"{expected.get(key)!r}")
    return problems
