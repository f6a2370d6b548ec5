"""Run one porcupine benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client runs jobs in a closed loop: each job starts when the previous
one has finished and been checked.  The loop runs whole rounds (one job of
every class of the workload) until ``--seconds`` have passed, so every run
measures the same mix.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed number of round pairs, one
round of each pair traced and the other not, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a source checkout: the benchmark imports porcupine
from ``src/`` and exits with code 2 when it is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("sweep", "train", "oracle")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads(workload: str) -> int:
    """BLAS threads per job, fixed before numpy is imported.

    Every core for the large eigen-solves of sweep; one where jobs pass
    --threads or run Monte Carlo threads themselves, so that no job runs
    more compute threads than there are cores.
    """
    return nproc() if workload == "sweep" else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write every span to this JSONL file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up job, print 'ready' and exit "
                        "(the parent times this for setup_s)")
    return parser.parse_args(argv)


def nominal_jobs(workload, seconds: float) -> int:
    """Jobs a timed loop of ``seconds`` runs at the nominal round time."""
    return math.ceil(seconds / workload.nominal_round_s) * len(workload.classes)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    return max(50, int(100 * (n - TAIL_BEYOND) / n)) if n > TAIL_BEYOND else 50


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def environment(workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # Threads a job starts itself: train passes --threads nproc, oracle runs
    # Monte Carlo on up to two threads, sweep uses the CLI default of one.
    threads = {"sweep": 1, "train": nproc(), "oracle": 2}[workload]
    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(workload),
        "nproc": nproc(),
        "cpu": cpu,
        "job_threads": threads,
        "thread_budget": threads * blas_threads(workload),
    }


def commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its first timed job."""
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up run failed with exit code %d" % code)
        samples.append(ready - start)
    return samples


def class_median(times, classes) -> float:
    """Median over job classes of each class's median job time.

    Every class runs once a round.  The median of all jobs of a run falls
    between two classes when their number is even, so it reads the slowest
    job of one class and the fastest of the next; the median of class
    medians does not hinge on single jobs.
    """
    per_class: dict = {}
    for cls, t in zip(classes, times):
        per_class.setdefault(cls, []).append(t)
    return statistics.median(statistics.median(ts) for ts in per_class.values())


def timed_loop(schedule, runner, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns (times, classes, failed, elapsed)."""
    times, classes, failed = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        for job in schedule.round(index):
            t0 = time.perf_counter()
            ok = runner.run(job)
            times.append(time.perf_counter() - t0)
            classes.append(job.cls)
            if not ok:
                failed += 1
                print("FAILED %s" % runner.last_error, file=sys.stderr)
        index += 1
        if time.perf_counter() - start >= seconds:
            return times, classes, failed, time.perf_counter() - start


def traced_loop(workload, schedule, runner, seconds: float, tracer):
    """Round pairs, traced and untraced in alternating order.

    The number of pairs depends only on ``seconds`` and the workload, so the
    traced counts repeat exactly.  Returns (jobs, failed, traced_s, untraced_s)
    where jobs and failed cover both halves.
    """
    pairs = max(1, round(seconds / (2 * workload.nominal_round_s)))
    jobs = failed = 0
    spent = {True: 0.0, False: 0.0}
    for index in range(pairs):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                for job in schedule.round(index):
                    tracer.job = jobs
                    ok = runner.run(job)
                    jobs += 1
                    if not ok:
                        failed += 1
                        print("FAILED %s" % runner.last_error, file=sys.stderr)
                spent[traced] += time.perf_counter() - start
            finally:
                tracer.uninstall()
    return jobs, failed, spent[True], spent[False]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "porcupine", "__init__.py")):
        print("error: no porcupine sources under %s" % SRC, file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads(args.workload))
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace == 0 and not args.setup_only:
        setup = measure_setup(args)
    scratch = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        refs = workloads.load_references()
        schedule = workloads.Schedule(workload, args.seed)
        runner = workloads.Runner(workload, scratch, nproc(), refs)
        if not runner.run(schedule.warmup_job()):
            print("error: warm-up job failed: %s" % runner.last_error, file=sys.stderr)
            return 1
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print("# env: %s" % json.dumps(environment(args.workload), sort_keys=True))
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            jobs, failed, traced_s, untraced_s = traced_loop(
                workload, schedule, runner, args.seconds, tracer)
            metrics = tracer.metrics(traced_s, traced_s / untraced_s - 1.0)
            if args.spans:
                tracer.write_spans(args.spans)
            attempted = jobs
        else:
            times, classes, failed, elapsed = timed_loop(schedule, runner, args.seconds)
            attempted = len(times)
            job_ms = [1000.0 * t for t in times]
            nominal = nominal_jobs(workload, args.seconds)
            tail = tail_percentile(nominal)
            metrics = {
                "jobs_per_s": {"value": (attempted - failed) / elapsed, "unit": "jobs/s"},
                "job_ms.p50": {"value": class_median(job_ms, classes), "unit": "ms"},
                "job_ms.tail": {"value": percentile(job_ms, tail), "unit": "ms"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MiB"},
            }
            print("# %s seed %d: %d jobs in %d rounds, %.3f s; job_ms.tail is p%d of the %d jobs "
                  "(p%d leaves ten of the nominal %d jobs beyond it); setup_s is the median of "
                  "%d set-ups" % (args.workload, args.seed, attempted,
                                  attempted // len(workload.classes), elapsed, tail, attempted,
                                  tail, nominal, len(setup)))
            print("%-24s %.6g ratio (%d of %d jobs)" % ("failed_frac", failed / attempted,
                                                         failed, attempted))
        for name, metric in metrics.items():
            print("%-24s %.6g %s" % (name, metric["value"], metric["unit"]))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
