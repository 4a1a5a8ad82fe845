"""The benchmark's library calls and its ``mc`` job against its frozen expectations.

``perfbench/jobs.py`` runs six library calls in each ``jacobi-window`` job
and one ``mc`` CLI call in each ``mc-residual`` job, and
``perfbench/expected.json`` holds their summaries.  These tests run them the
same way, so that a change to what those calls return, such as a slip in the
``mc`` report's series text, fails here rather than in a benchmark run.  The
module is loaded read-only, as ``test_trace_contract`` loads ``spans.py``.
"""

import json
import os
import pathlib
import types

import pytest

import loopexp as lx
from loopexp.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    """The module, executed from its source so that no bytecode cache is written."""
    path = PERFBENCH / "jobs.py"
    module = types.ModuleType("perfbench_jobs")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


JOBS = _load_jobs()
FROZEN = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
EXPECTED = FROZEN["jacobi-window"]


def test_library_calls_match_the_frozen_expectation(tmp_path):
    paths = JOBS.write_inputs("jacobi-window", 0, str(tmp_path), lx)
    state: dict = {}
    diagnostics = {}
    for name in JOBS.LIBRARY_CALLS:
        result = JOBS.run_library_call(name, lx, paths, state)
        got = {"exit": 0, **JOBS.summarize_library(name, result)}
        assert JOBS.mismatches(JOBS.Call(name, (), True), 0, got, EXPECTED[name]) == []
        diagnostics[name] = got["diagnostics"]
    # The diagnostic counters are outside the gate, so they are pinned here.
    assert diagnostics == {name: EXPECTED[name]["diagnostics"] for name in JOBS.LIBRARY_CALLS}
    assert diagnostics["check_subalgebra"] == {"window_censored": 84}
    assert diagnostics["check_symmetric_coset"] == {"window_censored": 252}
    assert diagnostics["jacobi_residuals"] == {"triples_checked": 40095}
    assert diagnostics["contracted_jacobi_residuals"] == {"triples_checked": 40095}


@pytest.mark.parametrize("seed", [0, 3])
def test_mc_job_matches_the_frozen_expectation(tmp_path, seed):
    """Exit, verdicts and counts at any seed; the digest too at seed 0, whose
    generated input is epsilon3 without relabelling."""
    paths = JOBS.write_inputs("mc-residual", seed, str(tmp_path), lx)
    (call,) = JOBS.job_calls("mc-residual", seed, paths)
    out = os.path.join(tmp_path, call.id + ".out")
    got = {"exit": main([*call.argv, "--out", out]),
           **JOBS.summarize_cli_output(call, out)}
    assert JOBS.mismatches(call, seed, got, FROZEN["mc-residual"][call.id]) == []
