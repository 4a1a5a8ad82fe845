"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact rational arithmetic at desk scale.
"""

import json
import time
from fractions import Fraction

from loopexp import (ExpandedLabel, LoopLabel, ModeWindow, SplitKind,
                     build_named, builtin_algebra, canonical_form_series,
                     check_closure, check_grading, check_jacobi_expanded,
                     compare_with_expansion, iw_contract, jacobi_residuals,
                     loop_structure_constant, make_splitting,
                     rescale_and_collect, validate, verify_mc_equations)
from loopexp.algebra import BUILTIN_NAMES
from loopexp.cli import main as cli_main

from helpers_oracles import finite_bch_series, fraction_forms, fraction_graded

EPS = builtin_algebra("epsilon3")
COSET = make_splitting(SplitKind.MODE_PARITY_COSET)
ZERO_MODE = make_splitting(SplitKind.ZERO_MODE_SUBALGEBRA)
GENERIC12 = make_splitting(SplitKind.GENERIC_INDEX, v0_gens={1, 2}, dim=3)


def _report(num, text, elapsed=None, bound=None):
    timing = f" [{elapsed:.2f}s < {bound:g}s]" if bound is not None else ""
    print(f"PASS criterion {num:2d}: {text}{timing}")


def test_criterion_01_base_validity():
    start = time.monotonic()
    for name in BUILTIN_NAMES:
        report = validate(builtin_algebra(name))
        assert report.is_valid
        assert report.antisymmetry == [] and report.jacobi == []
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "all built-in algebras pass antisymmetry + Jacobi exactly",
            elapsed, 1.0)


def test_criterion_02_loop_jacobi_window_three():
    start = time.monotonic()
    rows, checked = jacobi_residuals(EPS, ModeWindow(3))
    elapsed = time.monotonic() - start
    assert rows == []
    assert checked > 0
    assert elapsed < 10.0
    _report(2, f"loop Jacobi sweep at M=3 clean over {checked} triples",
            elapsed, 10.0)


def test_criterion_03_generic_closure_theorem():
    start = time.monotonic()
    window = ModeWindow(1)
    for n0 in range(4):
        for n1 in range(4):
            report = check_closure(EPS, GENERIC12, n0, n1, window)
            if n0 == n1:
                assert report.closed, (n0, n1)
            else:
                assert not report.closed and report.violations, (n0, n1)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, "generic split closes exactly on the diagonal of [0,3]^2",
            elapsed, 10.0)


def test_criterion_04_coset_closure_theorem():
    start = time.monotonic()
    window = ModeWindow(2)
    for n0 in (0, 2, 4):
        for n1 in (1, 3, 5):
            report = check_closure(EPS, COSET, n0, n1, window)
            assert report.closed == (abs(n0 - n1) == 1), (n0, n1)
            if not report.closed:
                assert report.violations
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, "parity coset closes exactly when the orders differ by one",
            elapsed, 30.0)


def test_criterion_05_order_zero_case_is_base_algebra():
    alg = build_named("G0", EPS, ModeWindow(2))
    assert list(alg.generators) == [ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                x, y, z = (ExpandedLabel(i, 0, 0, 0) for i in (a, b, c))
                assert alg.constant(x, y, z) == EPS.entry(a, b, c)
    _report(5, "zero-order truncation reproduces the base constants exactly")


def test_criterion_06_even_mode_case_is_loop_restriction():
    window = ModeWindow(2)
    alg = build_named("G00", EPS, window)
    assert all(g.mode % 2 == 0 and g.order == 0 for g in alg.generators)
    for x in alg.generators:
        for y in alg.generators:
            for z in alg.generators:
                assert alg.constant(x, y, z) == loop_structure_constant(
                    EPS, LoopLabel(x.gen, x.mode), LoopLabel(y.gen, y.mode),
                    LoopLabel(z.gen, z.mode))
    _report(6, "order-(0,0) truncation equals the even-mode loop restriction")


def test_criterion_07_contraction_equivalence():
    window = ModeWindow(3)
    for name in BUILTIN_NAMES:
        f = builtin_algebra(name)
        contracted = iw_contract(f, COSET, window)
        match, diffs = compare_with_expansion(contracted)
        assert match and diffs == [], name
        odd = [LoopLabel(a, n) for n in window.modes() if n % 2
               for a in range(1, f.dim + 1)]
        for x in odd:
            for y in odd:
                assert contracted.bracket(x, y) == {}
    _report(7, "order-(0,1) truncation equals the contraction; odd sector abelian")


def test_criterion_08_order_21_structure():
    window = ModeWindow(1)
    alg = build_named("G21", EPS, window)
    expected = ([ExpandedLabel(a, 0, 0, 0) for a in (1, 2, 3)]
                + [ExpandedLabel(a, -1, 1, 1) for a in (1, 2, 3)]
                + [ExpandedLabel(a, 1, 1, 1) for a in (1, 2, 3)]
                + [ExpandedLabel(a, 0, 2, 0) for a in (1, 2, 3)])
    assert list(alg.generators) == expected

    # The three equation families: target order 0 sources only (0,0);
    # order 1 sources (0,1)/(1,0); order 2 sources (0,2)/(2,0)/(1,1).
    families = {0: {(0, 0)}, 1: {(0, 1), (1, 0)}, 2: {(0, 2), (2, 0), (1, 1)}}
    for z in alg.generators:
        for x in alg.generators:
            for y in alg.generators:
                value = alg.constant(x, y, z)
                expected_value = Fraction(0)
                if (z.mode == x.mode + y.mode
                        and (x.order, y.order) in families[z.order]):
                    expected_value = EPS.entry(x.gen, y.gen, z.gen)
                assert value == expected_value
    _report(8, "order-(2,1) truncation has the 12 listed generators and "
               "exactly the three displayed equation families")


def test_criterion_09_closed_algebras_pass_jacobi():
    checked = []
    for n in range(4):
        report = check_jacobi_expanded(EPS, GENERIC12, n, n, ModeWindow(1))
        assert report.ok, ("generic", n)
        checked.append(f"generic({n},{n})")
    for n0, n1 in ((0, 1), (2, 1), (2, 3), (4, 3), (4, 5)):
        report = check_jacobi_expanded(EPS, COSET, n0, n1, ModeWindow(2))
        assert report.ok, ("coset", n0, n1)
        checked.append(f"coset({n0},{n1})")
    for case in ("G0", "G1", "G00", "G01", "G21"):
        alg = build_named(case, EPS, ModeWindow(2))
        assert alg.jacobi_report().ok, case
        checked.append(case)
    _report(9, f"all {len(checked)} closed truncations pass the Jacobi sweep")


def test_criterion_10_structure_equation_residuals():
    start = time.monotonic()
    window = ModeWindow(2)
    series = canonical_form_series(EPS, window, 3)
    for split in (COSET, ZERO_MODE):
        graded = rescale_and_collect(series, split)
        report = verify_mc_equations(graded, 2)
        assert report.ok and report.violations == []
        assert report.terms_checked > 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(10, "graded structure-equation residuals vanish exactly "
                "(D=3, orders <= 2, M=2, both splittings)", elapsed, 60.0)


def test_criterion_11_parity_and_leading_term():
    window = ModeWindow(2)
    for name in BUILTIN_NAMES:
        f = builtin_algebra(name)
        series = canonical_form_series(f, window, 4)
        graded_coset = rescale_and_collect(series, COSET)
        for label, gseries in fraction_graded(graded_coset).by_label.items():
            for power in gseries.powers():
                if not gseries.bucket(power).is_zero:
                    assert power % 2 == label.mode % 2, (name, label, power)
        assert check_grading(graded_coset).ok
        graded_zero = rescale_and_collect(series, ZERO_MODE)
        for label, gseries in fraction_graded(graded_zero).by_label.items():
            if label.mode != 0:
                assert gseries.bucket(0).is_zero, (name, label)
        assert check_grading(graded_zero).ok
    _report(11, "parity grading and leading-power facts hold at D=4, M=2")


def test_criterion_12_zero_mode_reduction_matches_bch_oracle():
    degree = 4
    for name in BUILTIN_NAMES:
        f = builtin_algebra(name)
        series = canonical_form_series(f, ModeWindow(2), degree)
        oracle = finite_bch_series(f.dim, f.entries, degree)
        forms = fraction_forms(series)
        for a in range(1, f.dim + 1):
            engine = {}
            for (mon, diff), value in forms[LoopLabel(a, 0)].terms.items():
                if diff.mode == 0 and all(l.mode == 0 for l in mon.labels):
                    key = (tuple(sorted(l.gen for l in mon.labels)), diff.gen)
                    engine[key] = value
            assert engine == oracle[a], (name, a)
    _report(12, "zero-mode censoring reproduces the finite-dimensional "
                "series term-for-term at D=4")


def test_criterion_13_cli_determinism(tmp_path):
    fixture = tmp_path / "defn.json"
    fixture.write_text(json.dumps({
        "name": "file-algebra", "dim": 3,
        "entries": [{"a": 1, "b": 2, "c": 3, "value": "1/2"}]}), encoding="utf-8")
    commands = {
        "validate-builtin": ["validate", "-a", "epsilon3"],
        "validate-file": ["validate", "-a", str(fixture)],
        "expand-json": ["expand", "-a", "epsilon3", "--case", "G21", "-M", "1"],
        "expand-latex": ["expand", "-a", "epsilon3", "--case", "G21", "-M", "1",
                         "--format", "latex"],
        "expand-generic": ["expand", "-a", "epsilon3", "--split", "generic",
                           "--v0-gens", "1,2", "--n0", "1", "--n1", "1", "-M", "1"],
        "contract": ["contract", "-a", "epsilon3", "-M", "2"],
        "mc": ["mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "3",
               "--alpha-max", "2", "-M", "1"],
        "sweep": ["sweep", "-a", "epsilon3", "--split", "mode_parity",
                  "--n0-max", "2", "--n1-max", "3", "-M", "1"],
    }
    for tag, argv in commands.items():
        outputs = []
        codes = []
        for attempt in (1, 2):
            out = tmp_path / f"{tag}-{attempt}.out"
            codes.append(cli_main(argv + ["--out", str(out)]))
            outputs.append(out.read_bytes())
        assert codes[0] == codes[1]
        assert outputs[0] == outputs[1], tag
        assert outputs[0], tag
    _report(13, f"{len(commands)} command configurations are byte-deterministic")
