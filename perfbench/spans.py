"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps public loopexp functions at every module attribute
that refers to them: in their own module and at the names other loopexp
modules imported.  Calls the package makes internally (``check_jacobi_expanded``
calling ``check_closure``, ``cli.main`` calling ``verify_mc_equations``) are
therefore caught too, and nothing in the package is edited.  Counts are read
from the returned report objects.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _mc_counts(report) -> dict:
    return {"mcforms.residual_terms_checked": report.terms_checked,
            "mcforms.mode_censored": report.mode_censored,
            "mcforms.degree_censored": report.degree_censored}


def _series_counts(series) -> dict:
    return {"mcforms.series_terms": sum(len(p.terms) for p in series.forms.values()),
            "mcforms.series_censored": series.censored}


def _expanded_jacobi_counts(report) -> dict:
    return {"expansion.triples_checked": report.triples_checked,
            "expansion.window_skipped": report.window_skipped}


# (module, function, counts taken from its return value or None)
TRACED = (
    ("algebra", "load_algebra", None),
    ("algebra", "validate", None),
    ("loop", "jacobi_residuals", lambda r: {"loop.triples_checked": r[1]}),
    ("splitting", "check_subalgebra", None),
    ("splitting", "check_symmetric_coset", None),
    ("expansion", "generator_set", None),
    ("expansion", "check_closure", None),
    ("expansion", "check_jacobi_expanded", _expanded_jacobi_counts),
    ("contraction", "compare_with_expansion", None),
    ("contraction", "contracted_jacobi_residuals",
     lambda r: {"contraction.triples_checked": r[1]}),
    ("mcforms", "canonical_form_series", _series_counts),
    ("mcforms", "rescale_and_collect", None),
    ("mcforms", "verify_mc_equations", _mc_counts),
    ("mcforms", "check_grading", None),
    ("mcforms", "graded_series_json", None),
    ("cli", "main", None),
)


class Tracer:
    """Spans ``[name, start, end, parent index or -1, job]`` kept in memory.

    ``job`` is set by the caller before each job; it is the identifier the
    spans of one job share.
    """

    def __init__(self) -> None:
        self.job = 0
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.job])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                for key, value in count(result).items():
                    self.counts[self.job][key] += value
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "loopexp" or name.startswith("loopexp.")]
        for module_name, func_name, count in TRACED:
            original = getattr(sys.modules[f"loopexp.{module_name}"], func_name)
            traced = self.wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def job_stats(self) -> dict[int, dict]:
        """Per job: inclusive seconds, self seconds and calls per span name,
        plus the counts.  Self time is a span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict] = {}
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            spans = out.setdefault(job, {"spans": {}, "counts": {}})["spans"]
            entry = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        for job, counts in self.counts.items():
            out.setdefault(job, {"spans": {}, "counts": {}})["counts"] = dict(counts)
        return out
