"""Benchmark of loopexp: time to verdict, peak memory and set-up time on three
workloads, and a separate traced run that gives per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a loopexp checkout, the directory holding
``src/loopexp`` and ``BENCHMARK.json``.  It prints a human summary on stderr
and, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.

With ``--trace 0`` it runs ``SETUP_REPEATS`` set-up-only children, then one
child that runs the workload's jobs in a closed loop for ``S`` seconds.  With
``--trace 1`` it runs an untraced child and then a traced child, ``S/2``
seconds each; their difference is ``trace.overhead_s``.  Children run one
after another, never side by side.  Every job's outputs are then checked
against ``expected.json``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 4
BUDGET_S = 170.0  # the whole run, children included, must end within 180 s
# Seconds the worker's probe takes at reference speed.  A shared host's speed
# drifts by tens of percent over minutes (README.md), so every time is
# reported as measured seconds * REFERENCE_PROBE_S / probe seconds measured
# next to it.
REFERENCE_PROBE_S = 0.2


def _span(name: str, field: str = "s"):
    return lambda job: job["trace"]["spans"].get(name, {}).get(field, 0)


def _count(name: str):
    return lambda job: job["trace"]["counts"].get(name, 0)


def _ratio(useful: str, wasted: str):
    """useful / (useful + wasted), 0 where the layer did no work."""
    def value(job):
        u, w = _count(useful)(job), _count(wasted)(job)
        return u / (u + w) if u + w else 0.0
    return value


def _subcommand(name: str):
    return lambda job: sum(c["seconds"] for c in job["calls"] if c.get("command") == name)


# Per-layer metrics, each a function of one traced job; the reported value is
# the median over the traced jobs.  trace.overhead_s is computed in main().
PER_LAYER = {
    "mcforms.verify_mc_equations.s": _span("mcforms.verify_mc_equations"),
    "mcforms.residual_terms_checked": _count("mcforms.residual_terms_checked"),
    "mcforms.mode_censored": _count("mcforms.mode_censored"),
    "mcforms.degree_censored": _count("mcforms.degree_censored"),
    "mcforms.residual_useful_ratio": _ratio("mcforms.residual_terms_checked",
                                            "mcforms.mode_censored"),
    "mcforms.canonical_form_series.s": _span("mcforms.canonical_form_series"),
    "mcforms.series_terms": _count("mcforms.series_terms"),
    "mcforms.series_censored": _count("mcforms.series_censored"),
    "mcforms.rescale_and_collect.s": _span("mcforms.rescale_and_collect"),
    "mcforms.check_grading.s": _span("mcforms.check_grading"),
    "mcforms.graded_series_json.s": _span("mcforms.graded_series_json"),
    "cli.main.self_s": _span("cli.main", "self_s"),
    "cli.report_bytes": lambda job: job["report_bytes"],
    "cli.validate.s": _subcommand("validate"),
    "cli.expand.s": _subcommand("expand"),
    "cli.contract.s": _subcommand("contract"),
    "cli.mc.s": _subcommand("mc"),
    "cli.sweep.s": _subcommand("sweep"),
    "expansion.check_jacobi_expanded.self_s": _span("expansion.check_jacobi_expanded",
                                                    "self_s"),
    "expansion.triples_checked": _count("expansion.triples_checked"),
    "expansion.jacobi_useful_ratio": _ratio("expansion.triples_checked",
                                            "expansion.window_skipped"),
    "expansion.check_closure.s": _span("expansion.check_closure"),
    "expansion.check_closure.calls": _span("expansion.check_closure", "calls"),
    "expansion.generator_set.s": _span("expansion.generator_set"),
    "loop.jacobi_residuals.s": _span("loop.jacobi_residuals"),
    "loop.triples_checked": _count("loop.triples_checked"),
    "contraction.compare_with_expansion.s": _span("contraction.compare_with_expansion"),
    "contraction.contracted_jacobi_residuals.s":
        _span("contraction.contracted_jacobi_residuals"),
    "contraction.triples_checked": _count("contraction.triples_checked"),
    "splitting.check_subalgebra.s": _span("splitting.check_subalgebra"),
    "splitting.check_symmetric_coset.s": _span("splitting.check_symmetric_coset"),
    "algebra.validate.s": _span("algebra.validate"),
    "algebra.load_algebra.s": _span("algebra.load_algebra"),
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result: no source tree, a child failed, or time ran out."""


def _load_catalogue(root: str) -> dict:
    """Units of every metric in BENCHMARK.json, checked against this file."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(end_to_end) != {"verdict_s", "peak_rss_mib", "setup_s"}:
        raise BenchmarkError(f"BENCHMARK.json end_to_end {sorted(end_to_end)} "
                             f"does not match run.py")
    if set(per_layer) != set(PER_LAYER) | {"trace.overhead_s"}:
        raise BenchmarkError("BENCHMARK.json per_layer does not match run.py")
    return {"end_to_end": end_to_end, "per_layer": per_layer}


def run_child(root: str, workdir: str, args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its result.json."""
    os.makedirs(workdir)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", root, "--workdir", workdir, *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child")
    try:
        subprocess.run(command, cwd=root, stdin=subprocess.DEVNULL, check=True,
                       timeout=remaining)
    except subprocess.CalledProcessError as exc:
        raise BenchmarkError(f"worker exited with code {exc.returncode}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("worker did not finish in time") from exc
    with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


class WrongOutput(ValueError):
    """A call raised, or its report file is missing or unreadable."""


def observed(call: jobs.Call, outcome: dict, job: dict) -> dict:
    """Exit code and summary of one call of a finished job."""
    if "error" in outcome:
        raise WrongOutput(f"{call.id}: raised {outcome['error']}")
    summary = outcome.get("summary")
    if summary is None:
        try:
            summary = jobs.summarize_cli_output(
                call, os.path.join(job["dir"], call.id + ".out"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise WrongOutput(f"{call.id}: unreadable report: {exc}") from exc
    return {"exit": outcome["exit"], **summary}


def check_jobs(workload: str, seed: int, child: dict, expected: dict) -> list[list[str]]:
    """The correctness gate: one list of problems per job, empty if it passed."""
    calls = {c.id: c for c in jobs.job_calls(workload, seed, child["paths"])}
    results = []
    for job in child["jobs"]:
        problems = []
        for outcome in job["calls"]:
            call = calls[outcome["id"]]
            try:
                got = observed(call, outcome, job)
            except WrongOutput as exc:
                problems.append(str(exc))
                continue
            problems += jobs.mismatches(call, seed, got, expected[workload][call.id])
        results.append(problems)
    return results


def speed_factors(child: dict) -> list[float]:
    """Per job, REFERENCE_PROBE_S over the mean of the two probes that bracket it."""
    probes = child["probes"]
    return [REFERENCE_PROBE_S / ((probes[job["probe"]] + probes[job["probe"] + 1]) / 2)
            for job in child["jobs"]]


def scaled_job_times(child: dict) -> list[float]:
    """Job wall times at reference speed."""
    return [job["verdict_s"] * factor
            for job, factor in zip(child["jobs"], speed_factors(child))]


def scaled_setup(child: dict) -> float:
    """Set-up time at reference speed, scaled by the probe run right after it."""
    return child["setup_s"] * REFERENCE_PROBE_S / child["probes"][0]


def _timing_line(label: str, times: list[float]) -> str:
    """Median, quartiles and, given at least 20 samples, the highest
    percentile with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    line = f"{label}: median {statistics.median(ordered):.4f} s over {n} jobs"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        line += f", quartiles {q1:.4f}-{q3:.4f} s"
    if n >= 20:
        line += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopexp", "__init__.py")):
        print("error: no src/loopexp here; run from the root of a loopexp checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    try:
        catalogue = _load_catalogue(root)
        with open(os.path.join(HERE, "expected.json"), "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        child_args = ["--workload", args.workload, "--seed", str(args.seed)]

        def child(name: str, *extra: str) -> dict:
            return run_child(root, os.path.join(workdir, name),
                             [*child_args, *extra], deadline)

        if args.trace:
            half = str(args.seconds / 2)
            loops = [child("untraced", "--seconds", half),
                     child("traced", "--seconds", half, "--trace")]
        else:
            setups = [scaled_setup(child(f"setup-{i}", "--seconds", "0", "--setup-only"))
                      for i in range(SETUP_REPEATS)]
            loops = [child("loop", "--seconds", str(args.seconds))]
        job_problems = [p for loop in loops
                        for p in check_jobs(args.workload, args.seed, loop, expected)]
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(job_problems)
    failed = sum(1 for problems in job_problems if problems)
    for problems in job_problems:
        for problem in problems[:5]:
            print(f"wrong: {problem}", file=sys.stderr)
    times = [scaled_job_times(loop) for loop in loops]
    wall = [[job["verdict_s"] for job in loop["jobs"]] for loop in loops]
    probes = [p for loop in loops for p in loop["probes"]]
    print(f"probe: median {statistics.median(probes):.4f} s over {len(probes)}, "
          f"reference {REFERENCE_PROBE_S} s", file=sys.stderr)

    if args.trace:
        units = catalogue["per_layer"]
        traced = list(zip(loops[1]["jobs"], speed_factors(loops[1])))
        # Seconds are scaled to reference speed like verdict_s; counts are not.
        values = {name: statistics.median(fn(job) * (factor if units[name] == "s" else 1)
                                          for job, factor in traced)
                  for name, fn in PER_LAYER.items()}
        values["trace.overhead_s"] = statistics.median(times[1]) - statistics.median(times[0])
        print(_timing_line("untraced verdict_s", times[0]), file=sys.stderr)
        print(_timing_line("traced verdict_s", times[1]), file=sys.stderr)
        print(_timing_line("traced wall", wall[1]), file=sys.stderr)
        self_times = {}
        for job, factor in traced:
            for name, entry in job["trace"]["spans"].items():
                self_times.setdefault(name, []).append(entry["self_s"] * factor)
        ranking = sorted(((statistics.median(v), k) for k, v in self_times.items()),
                         reverse=True)
        print("self time per job: " + ", ".join(f"{k} {v:.4f} s" for v, k in ranking),
              file=sys.stderr)
    else:
        values = {"verdict_s": statistics.median(times[0]),
                  "peak_rss_mib": loops[0]["peak_rss_kib"] / 1024,
                  "setup_s": statistics.median(setups + [scaled_setup(loops[0])])}
        units = catalogue["end_to_end"]
        print(_timing_line("verdict_s", times[0]), file=sys.stderr)
        print("verdict_s samples: " + " ".join(f"{t:.4f}" for t in times[0]),
              file=sys.stderr)
        print(_timing_line("wall", wall[0]), file=sys.stderr)
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}, "
              f"{scaled_setup(loops[0]):.4f} (loop child)", file=sys.stderr)
    print(f"failed_frac: {failed}/{attempted}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
