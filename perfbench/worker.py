"""One benchmark child process: a timed set-up, then a closed loop of jobs.

    python3 perfbench/worker.py --root ROOT --workdir DIR --workload NAME
        --seed N --seconds S [--setup-only] [--trace]

Set-up imports ``loopexp`` from ``ROOT/src``, generates the workload's inputs,
writes them under ``DIR`` and refuses to go on unless ``validate`` accepts
every generated algebra.  The loop then runs whole jobs one after another
until ``S`` seconds have passed; each job's report files go to their own
directory.  Results, including this process's peak RSS, are written to
``DIR/result.json``; ``run.py`` checks the report files afterwards, so the
checking does not count towards this process's memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

import jobs
import spans


PROBE_EVERY_S = 2.0


def probe() -> float:
    """Seconds taken by a fixed pure-Python task shaped like loopexp's inner
    loops (exact Fraction sums into a dict keyed by sorted tuples, then a
    JSON dump).  It uses no loopexp code, so it measures the host's speed at
    the moment; run.py scales job times by it."""
    start = time.perf_counter()
    for _ in range(3):
        acc: dict = {}
        for i in range(1, 130):
            for j in range(1, 60):
                key = tuple(sorted((i % 7, j % 11, (i * j) % 13)))
                acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j) * Fraction(j + 1, i + 2)
        json.dumps({str(k): str(v) for k, v in acc.items()}, sort_keys=True)
    return time.perf_counter() - start


def _import_loopexp(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import loopexp
    import loopexp.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(loopexp.__file__))) != src:
        raise SystemExit(f"error: imported loopexp from {loopexp.__file__}, not {src}")
    return loopexp


def run_job(lx, calls: list[jobs.Call], paths: dict, job_dir: str) -> tuple[float, list]:
    """Run every call of one job; return its wall seconds and raw outcomes.

    Exceptions are outcomes, not crashes: the gate counts the job as failed.
    """
    outcomes = []
    state: dict = {}
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        outcome = {"id": call.id}
        try:
            if call.is_cli:
                outcome["command"] = call.argv[0]
                out = os.path.join(job_dir, call.id + ".out")
                try:
                    outcome["exit"] = lx.cli.main([*call.argv, "--out", out])
                except SystemExit as exc:
                    outcome["exit"] = exc.code
            else:
                outcome["result"] = jobs.run_library_call(call.id, lx, paths, state)
                outcome["exit"] = 0
        except Exception as exc:  # a crashing call fails its job, not the run
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["seconds"] = time.perf_counter() - t0
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    lx = _import_loopexp(args.root)
    inputs_dir = os.path.join(args.workdir, "inputs")
    os.makedirs(inputs_dir)
    try:
        paths = jobs.write_inputs(args.workload, args.seed, inputs_dir, lx)
    except jobs.InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result: dict = {"setup_s": time.perf_counter() - start, "paths": paths, "jobs": []}
    # A probe follows the set-up and, at most PROBE_EVERY_S apart, the jobs:
    # a job runs between probes[job["probe"]] and the probe after it.
    result["probes"] = [probe()]

    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        calls = jobs.job_calls(args.workload, args.seed, paths)
        loop_start = last_probe = time.perf_counter()
        while True:
            index = len(result["jobs"])
            probe_index = len(result["probes"]) - 1
            job_dir = os.path.join(args.workdir, f"job-{index:04d}")
            os.makedirs(job_dir)
            if tracer is not None:
                tracer.job = index
            seconds, outcomes = run_job(lx, calls, paths, job_dir)
            for outcome in outcomes:
                if "result" in outcome:
                    outcome["summary"] = jobs.summarize_library(outcome["id"],
                                                                outcome.pop("result"))
            report_bytes = sum(os.path.getsize(os.path.join(job_dir, name))
                               for name in os.listdir(job_dir))
            result["jobs"].append({"dir": job_dir, "verdict_s": seconds,
                                   "probe": probe_index,
                                   "report_bytes": report_bytes, "calls": outcomes})
            done = time.perf_counter() - loop_start >= args.seconds
            if done or time.perf_counter() - last_probe >= PROBE_EVERY_S:
                result["probes"].append(probe())
                last_probe = time.perf_counter()
            if done:
                break
        if tracer is not None:
            stats = tracer.job_stats()
            for index, job in enumerate(result["jobs"]):
                job["trace"] = stats.get(index, {"spans": {}, "counts": {}})

    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
