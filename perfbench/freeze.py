"""Write expected.json, the reference of the benchmark's correctness gate.

    python3 perfbench/freeze.py

Run it from the root of a loopexp checkout whose outputs are known to be
right.  It runs one seed-0 job per workload and records, per call, the exit
code, the verdict fields, the relabelling-invariant counts, the content
digest and (never compared) the diagnostic counters.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import jobs
import run


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench_work", f"freeze-{os.getpid()}")
    expected = {}
    try:
        for workload in jobs.WORKLOADS:
            child = run.run_child(root, os.path.join(workdir, workload),
                                  ["--workload", workload, "--seed", "0", "--seconds", "0"],
                                  time.monotonic() + 600)
            calls = {c.id: c for c in jobs.job_calls(workload, 0, child["paths"])}
            job = child["jobs"][0]
            expected[workload] = {outcome["id"]: run.observed(calls[outcome["id"]],
                                                              outcome, job)
                                  for outcome in job["calls"]}
    except (run.BenchmarkError, run.WrongOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
