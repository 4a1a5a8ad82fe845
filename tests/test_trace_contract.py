"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` wraps package functions by module and name and reads
counts from their return values.  These tests load it read-only and check both
against the package, so that renaming a traced stage or changing what it
returns fails here rather than in a traced benchmark run.
"""

import importlib
import pathlib
import types

import pytest

import loopexp as lx

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """The module, executed from its source so that no bytecode cache is written."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


SPANS = _load_spans()
EPS = lx.builtin_algebra("epsilon3")
COSET = lx.make_splitting(lx.SplitKind.MODE_PARITY_COSET)
WINDOW = lx.ModeWindow(1)


@pytest.mark.parametrize("module, name", [(module, name) for module, name, _ in SPANS.TRACED])
def test_traced_name_resolves_to_a_package_callable(module, name):
    assert callable(getattr(importlib.import_module(f"loopexp.{module}"), name))


def test_counts_accept_real_return_values():
    series = lx.canonical_form_series(EPS, WINDOW, 3)
    graded = lx.rescale_and_collect(series, COSET)
    results = {
        "canonical_form_series": series,
        "verify_mc_equations": lx.verify_mc_equations(graded, 2),
        "check_jacobi_expanded": lx.check_jacobi_expanded(EPS, COSET, 2, 1, WINDOW),
        "jacobi_residuals": lx.jacobi_residuals(EPS, WINDOW),
        "contracted_jacobi_residuals": lx.contracted_jacobi_residuals(
            lx.iw_contract(EPS, COSET, WINDOW)),
    }
    counted = {name: count for _, name, count in SPANS.TRACED if count is not None}
    assert set(counted) == set(results)
    assert counted["canonical_form_series"] is SPANS._series_counts
    assert counted["verify_mc_equations"] is SPANS._mc_counts
    assert counted["check_jacobi_expanded"] is SPANS._expanded_jacobi_counts
    for name, count in counted.items():
        values = count(results[name])
        assert values and all(type(value) is int for value in values.values()), name
    assert SPANS._series_counts(series)["mcforms.series_terms"] == sum(
        len(poly.terms) for poly in series.forms.values()) > 0
    report = results["verify_mc_equations"]
    assert SPANS._mc_counts(report)["mcforms.residual_terms_checked"] == report.terms_checked > 0
