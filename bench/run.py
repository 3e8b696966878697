#!/usr/bin/env python3
"""sdlab benchmark: one command, three workloads (window, contour, series).

    python3 bench/run.py --workload window --seed 0 --seconds 20 --trace 0

Each workload is a closed loop: one client runs its jobs one after another in
this single process, without threads, and repeats whole passes until
--seconds have gone by.  Every job's output is checked (see workloads.py).

--trace 0 reports the end-to-end metrics:
  setup_s        median wall time of fresh interpreters that import sdlab.cli
                 and fill the workload's one-time tables
  wall_s         median wall time of one pass through the workload's jobs
  job_geomean_s  geometric mean over job kinds of each kind's median time
  peak_rss_mb    peak resident set of this process

--trace 1 reports the per-layer metrics instead, from a traced pass of every
workload (so each layer is measured whatever --workload names), plus
trace.overhead_s: the traced pass of --workload minus the mean of untraced
passes before and after it.  The
spans go to bench/out/trace-<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
import tracemalloc

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_INTERPRETERS = 7

sys.path.insert(0, BENCH)
import workloads  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402


class Tally:
    """Operations attempted and failed, and every wrong output seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[str, None] = {}  # ordered set

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.failures.update(dict.fromkeys(outcome.failures))


def load_sdlab():
    if not os.path.isfile(os.path.join(SRC, "sdlab", "__init__.py")):
        raise SystemExit(f"error: no sdlab package under {SRC}")
    sys.path.insert(0, SRC)
    mods = {n: importlib.import_module(f"sdlab.{n}") for n in MODULES}
    return types.SimpleNamespace(**mods), mods


def load_reference() -> dict:
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters that run the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = workloads.setup_code(workload)
    times = []
    for _ in range(SETUP_INTERPRETERS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up interpreter failed:\n{proc.stderr.decode()}")
    return statistics.median(times)


def run_job(job, tally: Tally, tracer=None) -> float:
    """Run one job, check its output, and return its wall time."""
    gc.collect()
    span = tracer.open(f"job.{job.kind}") if tracer else None
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception:
        tally.add(workloads.Outcome(failed=1, problems=[
            f"{job.kind} raised:\n{traceback.format_exc()}"]))
        return time.perf_counter() - t0
    finally:
        if span is not None:
            tracer.close(span)
    elapsed = time.perf_counter() - t0
    tally.add(job.check(result))
    return elapsed


def run_pass(jobs, tally: Tally, tracer=None) -> dict[str, float]:
    return {job.kind: run_job(job, tally, tracer) for job in jobs}


def alloc_peaks(jobs, tally: Tally) -> dict[str, float]:
    """tracemalloc peak (MiB) of each job, in an untimed pass of its own:
    tracemalloc slows the window jobs' Python loops up to 7x, which would
    distort the spans."""
    peaks = {}
    for job in jobs:
        gc.collect()
        tracemalloc.start()
        try:
            result = job.run()
            peaks[job.kind] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        tally.add(job.check(result))
    return peaks


def end_to_end(workload: str, seed: int, seconds: float, sd, ref) -> tuple[Tally, dict]:
    setup_s = measure_setup(workload)
    jobs = workloads.jobs(workload, sd, ref, seed)
    workloads.warm(workload, sd)
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, tally))
    walls = [sum(p.values()) for p in passes]
    kinds = [job.kind for job in jobs]
    medians = [statistics.median(p[k] for p in passes) for k in kinds]
    geomean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload}: {len(passes)} passes, pass walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s", file=sys.stderr)
    for k, m in zip(kinds, medians):
        print(f"  {k}: median {m:.4f} s", file=sys.stderr)
    return tally, {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_geomean_s": (geomean, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def traced(workload: str, seed: int, sd, mods, ref) -> tuple[Tally, dict]:
    tracer = Tracer()
    tally = Tally()
    others = Tally()  # other workloads: checked, but not this workload's operations
    order = [workload] + [w for w in workloads.NAMES if w != workload]
    plans = {w: workloads.jobs(w, sd, ref, seed) for w in order}

    tracer.install(mods)
    for w in order:  # the one-time tables are filled under the tracer
        workloads.warm(w, sd)
    tracer.uninstall()
    # the overhead's baseline is the mean of untraced passes before and after
    # the traced one, so a slow first pass or a drift in host speed biases it less
    untraced = [sum(run_pass(plans[workload], tally).values())]
    walls = {}
    for w in order:
        tracer.install(mods)
        walls[w] = sum(run_pass(plans[w], tally if w == workload else others, tracer).values())
        tracer.uninstall()
        if w == workload:
            untraced.append(sum(run_pass(plans[workload], tally).values()))
    tracer.alloc_peaks = alloc_peaks(plans["window"], others)
    tally.problems.extend(others.problems)

    metrics = tracer.metrics(overhead_s=walls[workload] - statistics.mean(untraced))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}.json"), {
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": untraced,
        "traced_wall_s": walls,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sd, mods = load_sdlab()
    ref = load_reference()
    if args.trace:
        tally, metrics = traced(args.workload, args.seed, sd, mods, ref)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds, sd, ref)

    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for problem in tally.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
