"""Out-of-program spans around the public functions of each porcupine module.

The package modules bind each other's functions with ``from .x import y``,
so a function is reachable through several module namespaces.  The tracer
replaces the function in every ``porcupine.*`` namespace that binds it and
puts the original back on ``uninstall``.  Each call records a span
``(id, name, start, end, parent id, job id)`` in memory; counters are
computed from the arguments and results at the same boundary.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import porcupine  # noqa: F401  (imports every module the tracer patches)

LAYERS = ("lines", "kernel", "schur", "risk", "landscape", "minimax", "trainer", "cli")


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_psi(counters, fn, args, kwargs, result, seconds):
    counters["kernel.psi.entries"] += int(np.size(args[0] if args else kwargs["x"]))


def _count_eig(counters, fn, args, kwargs, result, seconds):
    n = np.shape(args[0] if args else kwargs["matrix"])[0]
    counters["kernel.eig.flops_computed"] += n ** 3


def _count_mc(counters, fn, args, kwargs, result, seconds):
    a = _arguments(fn, args, kwargs)
    key = "t%d" % max(1, int(a["threads"]))
    counters["risk.mc.pairs." + key] += (int(a["n_samples"]) + 1) // 2
    counters["risk.mc.seconds." + key] += seconds


def _count_sgd(counters, fn, args, kwargs, result, seconds):
    a = _arguments(fn, args, kwargs)
    n = len(a["data"][0])
    counters["trainer.sgd_steps"] += result.epochs_run * math.ceil(n / a["config"].batch_size)


def _count_net(counters, fn, args, kwargs, result, seconds):
    counters["minimax.net_vectors"] += result.size


def _count_probes(counters, fn, args, kwargs, result, seconds):
    counters["minimax.probes"] += int(_arguments(fn, args, kwargs)["n_probes"])
    counters["minimax.probe_seconds"] += seconds


def _count_cli(counters, fn, args, kwargs, result, seconds):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if result == 0 and "--out" in argv:
        counters["cli.bytes_written"] += os.path.getsize(argv[argv.index("--out") + 1])


# (module, attribute, span name, counter): every public function the
# per-layer metrics need.  Class attributes are written "Class.method".
TARGETS = (
    ("lines", "random_line_set", "lines.random_line_set", None),
    ("lines", "PNNWeights.__post_init__", "lines.PNNWeights", None),
    ("kernel", "psi", "kernel.psi", _count_psi),
    ("kernel", "kernel_bundle", "kernel.kernel_bundle", None),
    ("kernel", "symmetric_pseudo_inverse", "kernel.eig", _count_eig),
    ("kernel", "min_eigenvalue", "kernel.eig", _count_eig),
    ("kernel", "spectral_norm", "kernel.eig", _count_eig),
    ("schur", "schur_complement", "schur.schur_complement", None),
    ("schur", "nearest_line_subset", "schur.nearest_line_subset", None),
    ("risk", "monte_carlo_risk", "risk.monte_carlo_risk", _count_mc),
    ("risk", "matched_risk", "risk.closed_form", None),
    ("risk", "mismatched_risk", "risk.closed_form", None),
    ("risk", "pairwise_population_risk", "risk.closed_form", None),
    ("risk", "truncated_covariance", "risk.truncated_covariance", None),
    ("risk", "network_output", "risk.network_output", None),
    ("landscape", "analytic_gradient", "landscape.analytic_gradient", None),
    ("trainer", "sgd_train", "trainer.sgd_train", _count_sgd),
    ("trainer", "generate_dataset", "trainer.generate_dataset", None),
    ("trainer", "classify_outcome", "trainer.classify_outcome", None),
    ("minimax", "greedy_angular_net", "minimax.greedy_angular_net", _count_net),
    ("minimax", "coverage_gap", "minimax.coverage_gap", _count_probes),
    ("cli", "main", "cli.main", _count_cli),
)

# Per-layer metrics in output order, with units.
METRICS = (
    ("lines.random_line_set.calls", "count"),
    ("lines.random_line_set.self_s", "s"),
    ("lines.PNNWeights.self_s", "s"),
    ("kernel.psi.calls", "count"),
    ("kernel.psi.entries", "count"),
    ("kernel.psi.self_s", "s"),
    ("kernel.kernel_bundle.self_s", "s"),
    ("kernel.eig.calls", "count"),
    ("kernel.eig.self_s", "s"),
    ("kernel.eig.flops_computed", "flop"),
    ("schur.schur_complement.calls", "count"),
    ("schur.schur_complement.self_s", "s"),
    ("schur.nearest_line_subset.self_s", "s"),
    ("risk.monte_carlo_risk.calls", "count"),
    ("risk.monte_carlo_risk.self_s", "s"),
    ("risk.mc.pairs_per_s.t1", "pairs/s"),
    ("risk.mc.pairs_per_s.t2", "pairs/s"),
    ("risk.closed_form.self_s", "s"),
    ("risk.truncated_covariance.calls", "count"),
    ("risk.network_output.self_s", "s"),
    ("landscape.analytic_gradient.calls", "count"),
    ("landscape.analytic_gradient.self_s", "s"),
    ("trainer.sgd_train.calls", "count"),
    ("trainer.sgd_train.self_s", "s"),
    ("trainer.sgd_steps", "count"),
    ("trainer.sgd_step_us", "us"),
    ("trainer.generate_dataset.self_s", "s"),
    ("trainer.classify_outcome.self_s", "s"),
    ("minimax.greedy_angular_net.self_s", "s"),
    ("minimax.net_vectors", "count"),
    ("minimax.coverage_gap.self_s", "s"),
    ("minimax.probes_per_s", "probes/s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
) + tuple(("layer.%s.self_s" % layer, "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

SPAN_NAMES = frozenset(target[2] for target in TARGETS)


def _rate(amount, seconds):
    """``amount / seconds``, or 0 where the workload never did the work."""
    return amount / seconds if seconds else 0.0


def _resolve(module, attr):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while installed; ``job`` tags each span with a job id."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(int)
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "porcupine" or name.startswith("porcupine.")) and m is not None]
        for module_name, attr, span, counter in TARGETS:
            owner, name = _resolve(sys.modules["porcupine." + module_name], attr)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span, counter)
            if owner is sys.modules["porcupine." + module_name]:
                owners = [m for m in modules if vars(m).get(name) is original]
            else:  # a method: the class is the only binding
                owners = [owner]
            self._patches += [(o, name, original, wrapper, span) for o in owners]

    def _wrap(self, fn, span_name, counter):
        spans, counters, ids, local = self.spans, self.counters, self._ids, self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, span_name, start, end, parent, tracer.job))
            if counter is not None:
                counter(counters, fn, args, kwargs, result, end - start)
            return result

        return traced

    def install(self) -> None:
        for owner, name, _, wrapper, _ in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _, _ in self._patches:
            setattr(owner, name, original)

    def bindings(self, span_name: str) -> list:
        """Names of the namespaces patched for one span, e.g. ``porcupine.cli``."""
        return sorted(getattr(owner, "__name__", "") for owner, _, _, _, span in self._patches
                      if span == span_name)

    def per_span(self) -> dict:
        """``{span name: {"calls", "self_s"}}`` over all spans."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[span_id]
        return out

    def metrics(self, wall_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics; ``wall_s`` is the traced loop's wall time."""
        spans = self.per_span()
        c = self.counters
        values = {}
        for name, _ in METRICS:
            base, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and base in SPAN_NAMES:
                values[name] = spans.get(base, {}).get(field, 0)
        for name in ("kernel.psi.entries", "kernel.eig.flops_computed", "trainer.sgd_steps",
                     "minimax.net_vectors", "cli.bytes_written"):
            values[name] = c[name]
        for key in ("t1", "t2"):
            values["risk.mc.pairs_per_s." + key] = _rate(c["risk.mc.pairs." + key],
                                                         c["risk.mc.seconds." + key])
        sgd_self = spans.get("trainer.sgd_train", {}).get("self_s", 0.0)
        values["trainer.sgd_step_us"] = 1e6 * _rate(sgd_self, c["trainer.sgd_steps"])
        values["minimax.probes_per_s"] = _rate(c["minimax.probes"], c["minimax.probe_seconds"])
        attributed = 0.0
        for layer in LAYERS:
            layer_self = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer)
            values["layer.%s.self_s" % layer] = layer_self
            attributed += layer_self
        values["trace.wall_s"] = wall_s
        values["trace.remainder_s"] = wall_s - attributed
        values["trace.overhead_frac"] = overhead_frac
        units = dict(METRICS)
        return {name: {"value": values[name], "unit": units[name]} for name, _ in METRICS}

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
