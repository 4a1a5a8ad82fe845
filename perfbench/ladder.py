"""Reproduce the baseline table of ROADMAP open item 1, one run per row.

    python3 perfbench/ladder.py

Run it from the root of a loopexp checkout; it prints a Markdown table.
It is not part of the benchmark command: the D=6 residual alone runs for
about half a minute.  README.md records what it gave next to the table.
The last row is split into layers with the benchmark's own tracer.
"""

from __future__ import annotations

import os
import sys
import time

import jobs
import spans


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import loopexp as lx
    import loopexp.cli

    eps = lx.builtin_algebra("epsilon3")
    gl3 = lx.algebra_from_dict(jobs.algebra_definition("gl3", 9, jobs.gl3_entries(),
                                                        jobs.relabelling(0, 9)))
    coset = lx.make_splitting(lx.SplitKind.MODE_PARITY_COSET)
    rows = []

    def series_and_verify(label, f, window, degree):
        w = lx.ModeWindow(window)
        series_s, series = timed(lambda: lx.canonical_form_series(f, w, degree))
        terms = sum(len(p.terms) for p in series.forms.values())
        graded = lx.rescale_and_collect(series, coset)
        verify_s, report = timed(
            lambda: lx.verify_mc_equations(graded, f, coset, degree - 1, w))
        rows.append((f"{label}, M={window}, D={degree}: series / verify (alpha={degree - 1})",
                     f"{series_s:.2f} / {verify_s:.2f} s ({terms} terms, ok={report.ok})"))

    for degree in (4, 5, 6):
        series_and_verify("eps3", eps, 2, degree)
    series_and_verify("gl3", gl3, 1, 4)
    for window in (2, 3):
        seconds, report = timed(lambda: lx.check_jacobi_expanded(
            eps, coset, 4, 5, lx.ModeWindow(window)))
        rows.append((f"check_jacobi_expanded, eps3, coset (4,5), M={window}",
                     f"{seconds:.2f} s (ok={report.ok})"))

    tracer = spans.Tracer()
    tracer.install()
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, f"ladder-{os.getpid()}.json")
    try:
        seconds, code = timed(lambda: lx.cli.main(
            ["mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "5",
             "--alpha-max", "2", "-M", "2", "--out", out]))
    finally:
        if os.path.exists(out):
            os.remove(out)
    layers = tracer.job_stats()[0]["spans"]
    rows.append(("`loopexp mc -D 5 --alpha-max 2 -M 2`, end to end",
                 f"{seconds:.2f} s (exit {code}): residual "
                 f"{layers['mcforms.verify_mc_equations']['s']:.2f}, cli.main self "
                 f"(JSON emit) {layers['cli.main']['self_s']:.2f}, series "
                 f"{layers['mcforms.canonical_form_series']['s']:.2f}, "
                 f"graded_series_json {layers['mcforms.graded_series_json']['s']:.2f} s"))

    print("| Workload | Time |\n| --- | --- |")
    for label, value in rows:
        print(f"| {label} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
