"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --out results.jsonl [--seed 1]
    python3 bench/compare.py report results.jsonl

``run`` executes the benchmark command of ``BENCHMARK.json`` in two source
checkouts, ten pairs per workload of ``BENCHMARK.json``, alternating which
side runs first, and appends one JSON record per run to ``--out``; then it
reports.  ``report`` prints, per workload and end-to-end metric, each
side's median and quartiles and a verdict:

- better: the change wins at least nine tenths of the pairs run and the
  medians differ by more than the parent's quartile spread, no change run
  errored and the change fails no more jobs than the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's quartile spread is wider than the bound and not
  every change run beats every parent run;
- unchanged: otherwise.

A run that errors (crash, timeout, non-zero exit) loses its pair for the
change and counts as one failed job of its side.  With ``--trace 1`` the
runs are traced and the report lists the per-layer medians and whether
each count repeated exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
WIN_SHARE = 0.9
COUNT_UNITS = ("count", "flop", "B")  # computed counts, which must repeat exactly


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench: dict, root: str, workload: str, seed: int, trace: int) -> dict:
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])}
    env = next((json.loads(line[len("# env: "):]) for line in lines
                if line.startswith("# env: ")), None)
    return {"env": env, **json.loads(lines[-1])}


def collect(args) -> None:
    bench = load_benchmark()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_once(bench, sides[side], workload, args.seed, args.trace)
                    record = {"workload": workload, "pair": pair, "side": side,
                              "first": position == 0, "seed": args.seed,
                              "trace": args.trace, "result": result}
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    print("%s pair %d %s: %s" % (workload, pair, side,
                                                 result.get("error", "ok")), file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(parent, change, better: str) -> int:
    """Pairs in which the change reads better than the parent.

    ``None`` marks a run that errored; such a pair, like a tie, is not won.
    """
    sign = 1.0 if better == "higher" else -1.0
    return sum(p is not None and c is not None and sign * (c - p) > 0
               for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float, fails_more: bool) -> str:
    """Verdict for one metric.

    ``parent`` and ``change`` are aligned by pair, one entry per pair run,
    with ``None`` for a run that errored.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_ok = [p for p in parent if p is not None]
    c_ok = [c for c in change if c is not None]
    if not c_ok:
        return "worse"
    if not p_ok:
        return "unresolved"
    p_med, c_med = statistics.median(p_ok), statistics.median(c_ok)
    q1, q3 = quartiles(p_ok)
    spread = q3 - q1
    won = wins(parent, change, better)
    if (not fails_more and len(c_ok) == len(change) and won >= WIN_SHARE * len(change)
            and sign * (c_med - p_med) > spread):
        return "better"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    all_better = min(sign * c for c in c_ok) > max(sign * p for p in p_ok)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def _fmt(values):
    values = [v for v in values if v is not None]
    if not values:
        return "no run"
    q1, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (statistics.median(values), q1, q3)


def report(path: str) -> int:
    bench = load_benchmark()
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    errors = [r for r in records if "error" in r["result"]]
    for r in errors:
        print("run error: %s pair %d %s: %s" % (r["workload"], r["pair"], r["side"],
                                                r["result"]["error"]))
    print("%-8s %-14s %-36s %-36s %-6s %s" % ("workload", "metric", "parent median [q1, q3]",
                                              "change median [q1, q3]", "wins", "verdict"))
    for workload, traced in dict.fromkeys((r["workload"], r["trace"]) for r in records):
        runs = {side: {r["pair"]: r["result"] for r in records if r["workload"] == workload
                       and r["trace"] == traced and r["side"] == side}
                for side in ("parent", "change")}
        # Every pair either side ran; a missing or errored run reads None.
        pairs = sorted(set(runs["parent"]) | set(runs["change"]))
        ok = {side: {p: r for p, r in runs[side].items() if "error" not in r} for side in runs}
        # An errored run counts as one failed job: how many it would have run is unknown.
        failed = {side: sum(r["failed"] for r in ok[side].values())
                  + len(pairs) - len(ok[side]) for side in runs}
        attempted = {side: sum(r["attempted"] for r in ok[side].values())
                     + len(pairs) - len(ok[side]) for side in runs}
        print("%-8s %-14s %-36s %-36s" % (workload, "failed", "%d of %d" % (failed["parent"],
              attempted["parent"]), "%d of %d" % (failed["change"], attempted["change"])))
        specs = bench["per_layer"] if traced else bench["end_to_end"]
        for spec in specs:
            name = spec["name"]
            parent, change = ([ok[side][p]["metrics"][name]["value"] if p in ok[side] else None
                               for p in pairs] for side in ("parent", "change"))
            if traced:
                repeat = ("repeats" if len(set(parent)) == 1 and len(set(change)) == 1
                          else "varies") if spec["unit"] in COUNT_UNITS else ""
                print("%-8s %-36s %-36s %-36s %s" % (workload, name, _fmt(parent),
                                                      _fmt(change), repeat))
                continue
            won = wins(parent, change, spec["better"])
            print("%-8s %-14s %-36s %-36s %-6s %s" % (
                workload, name, _fmt(parent), _fmt(change), "%d/%d" % (won, len(pairs)),
                verdict(parent, change, spec["better"], spec["bound"],
                        failed["change"] > failed["parent"])))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run parent and change in alternating order")
    p_run.add_argument("parent", help="source checkout of the parent commit")
    p_run.add_argument("change", help="source checkout of the change")
    p_run.add_argument("--out", required=True, help="JSONL file the runs are appended to")
    p_run.add_argument("--seed", type=int, default=1,
                       help="workload seed; 1 is the development seed, 2 the held-out seed")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_rep = sub.add_parser("report", help="print medians, quartiles and verdicts")
    p_rep.add_argument("results")
    args = parser.parse_args(argv)
    if args.action == "run":
        collect(args)
        return report(args.out)
    return report(args.results)


if __name__ == "__main__":
    sys.exit(main())
