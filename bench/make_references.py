"""Regenerate ``references.json``: the CSV body of every sweep and train pool job.

    python3 bench/make_references.py

Run it only at a commit whose outputs are trusted; the benchmark compares
every later run against these bodies.  It refuses to write the file when a
sweep body breaks a Schur invariant (``workloads.sweep_invariants``) or
when any pool job of the three workloads fails its check against the new
references, a training run that ends off its lines included.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    refs: dict = {}
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for name in ("sweep", "train"):
            workload = workloads.WORKLOADS[name]
            runner = workloads.Runner(workload, scratch, 1, None)
            for cls in workload.classes:
                refs[cls] = [runner.output(workloads.Job(cls, entry))
                             for entry in range(workloads.POOL_SIZE)]
        problems += workloads.sweep_invariants(refs)
        for name in ("sweep", "train", "oracle"):
            workload = workloads.WORKLOADS[name]
            runner = workloads.Runner(workload, scratch, 1, refs)
            for cls in workload.classes:
                for entry in range(workloads.POOL_SIZE):
                    if not runner.run(workloads.Job(cls, entry)):
                        problems.append(runner.last_error)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
