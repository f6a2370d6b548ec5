"""The three benchmark workloads: job pools, seeded schedules and output checks.

A workload is a fixed list of job classes.  Every class has a pool of
``POOL_SIZE`` concrete jobs whose outputs were checked when
``references.json`` was made.  A run is a sequence of rounds; each round
holds one job of every class, so every run measures the same mix of job
sizes.  The workload seed decides the order of the jobs inside each round
and which pool entry each class uses in each round.

Jobs of ``sweep`` and ``train`` are in-process calls to
``porcupine.cli.main(argv)`` that write their CSV to a scratch file;
``oracle`` jobs call the library directly because the CLI has no gradient
path.  A job that raises, exits non-zero or fails its check counts as
failed.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

import porcupine as p
from porcupine import cli, trainer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

POOL_SIZE = 8

# Float fields are compared with |got - want| <= RTOL * max(1, |want|).
# float64 carries about 16 digits; 1e-9 leaves seven digits for a later
# change that reorders sums, for example in BLAS, eigen-solves or SGD steps,
# while any change of the computed quantity itself still fails.
RTOL = 1e-9
# Schur complements are PSD; their smallest eigenvalue may dip below zero
# only by roundoff.  Checked on the references when they are made.
MIN_EIG_TOL = 1e-9
# Monte Carlo must agree with each closed form within this many stderrs.
MC_SIGMAS = 4.0
MC_SAMPLES = 200_000
# Projected gradients against central differences of the closed form,
# with the step and tolerance of acceptance criterion 9.
FD_STEP = 1e-5
FD_RTOL = 1e-5


class CheckFailed(Exception):
    """A job produced output that does not pass its check."""


@dataclass(frozen=True)
class Job:
    cls: str
    entry: int


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    warmup: str
    # Seconds one round took at the commit that defined the benchmark.  It
    # fixes the number of round pairs of a traced run, so traced counts
    # repeat exactly, and the percentile job_ms.tail reports, so a run that
    # finishes one round more or less still reports the same percentile.
    nominal_round_s: float


class Schedule:
    """Seeded, endless sequence of rounds for one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self._entries = {c: rng.permutation(POOL_SIZE) for c in workload.classes}

    def round(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, 1, index])
        order = rng.permutation(len(self.workload.classes))
        return [
            Job(c, int(self._entries[c][index % POOL_SIZE]))
            for c in (self.workload.classes[i] for i in order)
        ]

    def warmup_job(self) -> Job:
        return Job(self.workload.warmup, int(self._entries[self.workload.warmup][0]))


# --------------------------------------------------------------- sweep

SWEEP_SIZES = ((256, 256), (256, 512), (512, 512), (512, 1024), (1024, 1024), (1024, 2048))


def _sweep_class(d, r, nearest):
    return "d%d_r%d_%s" % (d, r, "nearest" if nearest else "full")


SWEEP = Workload(
    name="sweep",
    classes=tuple(_sweep_class(d, r, n) for d, r in SWEEP_SIZES for n in (False, True)),
    warmup=_sweep_class(256, 256, True),
    nominal_round_s=10.0,
)


def _parse_sweep_class(cls):
    d, r, kind = cls.split("_")
    return int(d[1:]), int(r[1:]), kind == "nearest"


def sweep_argv(job: Job, out: str, nproc: int) -> list:
    d, r, nearest = _parse_sweep_class(job.cls)
    argv = ["schur-sweep", "--d", str(d), "--r-star", str(d), "--r", str(r),
            "--trials", "1", "--asymptotic", "--seed", str(100 + job.entry),
            "--out", out]
    if nearest:
        argv.append("--nearest")
    return argv


# --------------------------------------------------------------- train

TRAIN_MATCHED_K = (10, 20)
TRAIN_MISMATCHED_K = (10, 20, 40, 80)

TRAIN = Workload(
    name="train",
    classes=tuple("matched_k%d" % k for k in TRAIN_MATCHED_K)
    + tuple("mismatched_k%d" % k for k in TRAIN_MISMATCHED_K),
    warmup="mismatched_k10",
    nominal_round_s=1.8,
)


def train_argv(job: Job, out: str, nproc: int) -> list:
    mode, k = job.cls.split("_k")
    common = ["--k", k, "--seed", str(200 + job.entry), "--threads", str(nproc),
              "--out", out]
    # Ten training runs per job: jobs of a few hundred ms average over the
    # machine's scheduling hiccups, which dominate the tail of 50 ms jobs.
    if mode == "matched":
        return ["train", "matched", "--d", "5", "--trials", "10", "--epochs", "30"] + common
    return ["train", "mismatched", "--d", "15", "--k-star", "20", "--trials", "2",
            "--inits", "5", "--epochs", "8"] + common


# --------------------------------------------------------------- oracle

ORACLE_D = 8
ORACLE_K = (8, 32, 64)
NET_CASES = {"net_d3": (3, 0.3), "net_d4": (4, 0.4)}
NET_PROBES = 20_000

ORACLE = Workload(
    name="oracle",
    classes=tuple("%s_k%d" % (kind, k) for k in ORACLE_K for kind in ("matched", "mismatched"))
    + tuple(NET_CASES),
    warmup="matched_k8",
    nominal_round_s=4.8,
)


def oracle_shape(cls):
    """``(matched, k, r, k_star, r_star)`` of a certificate class."""
    kind, k = cls.split("_k")
    k = int(k)
    if kind == "matched":
        return True, k, k // 2, k, k // 2
    return False, k, k // 2, k // 2, max(1, k // 4)


def _random_weights(line_set, k, seq):
    r = line_set.num_lines
    rng = np.random.default_rng(seq)
    assignment = tuple(np.concatenate([np.arange(r), rng.integers(0, r, k - r)]))
    neuron_map = p.NeuronLineMap(k, assignment)
    # Masses bounded away from zero keep central differences off the kink.
    masses = rng.uniform(0.4, 2.0, k) * rng.choice([-1, 1], k)
    return neuron_map, masses


def oracle_instance(job: Job):
    """The random network pair of one certificate job."""
    matched, k, r, k_star, r_star = oracle_shape(job.cls)
    seq = np.random.SeedSequence([300, ORACLE.classes.index(job.cls), job.entry]).spawn(4)
    lines = p.random_line_set(ORACLE_D, r, seq[0])
    neuron_map, masses = _random_weights(lines, k, seq[1])
    weights = p.weights_from_masses(lines, neuron_map, masses)
    if matched:
        rng = np.random.default_rng(seq[2])
        star_masses = rng.uniform(0.4, 2.0, k) * rng.choice([-1, 1], k)
        star = p.weights_from_masses(lines, neuron_map, star_masses)
    else:
        star_lines = p.random_line_set(ORACLE_D, r_star, seq[2])
        star_map, star_masses = _random_weights(star_lines, k_star, seq[3])
        star = p.weights_from_masses(star_lines, star_map, star_masses)
    return weights, star


def _close(got, want, rtol=RTOL):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _tian_block(w_j, w_i):
    """Closed form of ``E[1{w_j'x>0, w_i'x>0} x x'] w_i`` (Tian, ICML 2017).

    Independent of ``truncated_covariance``, which assembles the d x d
    matrix first.
    """
    u_j = w_j / np.linalg.norm(w_j)
    u_i = w_i / np.linalg.norm(w_i)
    theta = math.acos(min(1.0, max(-1.0, float(u_j @ u_i))))
    return ((math.pi - theta) * w_i + np.linalg.norm(w_i) * math.sin(theta) * u_j) / (2 * math.pi)


def run_certificate(job: Job) -> None:
    matched, k, *_ = oracle_shape(job.cls)
    weights, star = oracle_instance(job)
    risk = p.matched_risk if matched else p.mismatched_risk
    closed = risk(weights, star).total
    pairwise = p.pairwise_population_risk(weights.matrix, star.matrix)
    if not _close(pairwise, closed):
        raise CheckFailed("pairwise risk %.17g != closed form %.17g" % (pairwise, closed))
    seed = [400, job.entry]
    mc1, err1 = p.monte_carlo_risk(weights, star, n_samples=MC_SAMPLES, seed=seed, threads=1)
    mc2, err2 = p.monte_carlo_risk(weights, star, n_samples=MC_SAMPLES, seed=seed, threads=2)
    for mc, err in ((mc1, err1), (mc2, err2)):
        if abs(mc - closed) > MC_SIGMAS * err:
            raise CheckFailed("MC %.6g +- %.3g misses closed form %.6g" % (mc, err, closed))
    if not _close(mc2, mc1, 1e-12):
        raise CheckFailed("MC differs between 1 and 2 threads")

    _, projected = p.analytic_gradient(weights, star)
    fd = np.empty(k)
    for j in range(k):
        unit = weights.line_set.line(weights.neuron_map.assignment[j])
        up = weights.matrix.copy()
        up[:, j] += FD_STEP * unit
        down = weights.matrix.copy()
        down[:, j] -= FD_STEP * unit
        lift = p.PNNWeights(up, weights.line_set, weights.neuron_map)
        drop = p.PNNWeights(down, weights.line_set, weights.neuron_map)
        fd[j] = (risk(lift, star).total - risk(drop, star).total) / (2 * FD_STEP)
    rel = float(np.max(np.abs(fd - projected))) / max(float(np.max(np.abs(projected))), 1e-6)
    if rel > FD_RTOL:
        raise CheckFailed("projected gradient off central differences by %.3g" % rel)

    w_j, w_i = weights.matrix[:, 0], star.matrix[:, -1]
    block = p.truncated_covariance(w_j, w_i) @ w_i
    if not np.allclose(block, _tian_block(w_j, w_i), rtol=1e-12, atol=1e-12):
        raise CheckFailed("truncated covariance disagrees with its contracted form")


def run_net(job: Job) -> None:
    d, delta = NET_CASES[job.cls]
    net = p.greedy_angular_net(d, delta, seed=[500, d, job.entry])
    gap = p.coverage_gap(net, n_probes=NET_PROBES, seed=[501, d, job.entry])
    if not gap <= delta:
        raise CheckFailed("coverage gap %.6g exceeds delta %.6g" % (gap, delta))


# --------------------------------------------------------------- checks

def csv_body(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("#")]


def _field_matches(got: str, want: str) -> bool:
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        return _close(float(got), float(want))
    except ValueError:
        return got == want


def compare_body(got: list, want: list) -> None:
    """Raise CheckFailed unless two CSV bodies agree field by field."""
    if len(got) != len(want):
        raise CheckFailed("%d rows, reference has %d" % (len(got), len(want)))
    if got[0] != want[0]:
        raise CheckFailed("header %r != %r" % (got[0], want[0]))
    for row, (g, w) in enumerate(zip(got[1:], want[1:])):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf) or not all(map(_field_matches, gf, wf)):
            raise CheckFailed("row %d: %r != reference %r" % (row, g, w))


def check_sweep(job: Job, body: list, refs: dict) -> None:
    compare_body(body, refs[job.cls][job.entry])


def _sweep_row(body: list) -> dict:
    return dict(zip(body[0].split(","), body[1].split(",")))


def sweep_invariants(refs: dict) -> list:
    """Problems of the sweep bodies in ``refs``, which hold the program's outputs.

    Schur ``min_eig`` is at least -MIN_EIG_TOL and the ``--nearest``
    spectral norm is at least the full-set norm on the same seed.  A run
    must match the references within RTOL, so these hold for every
    checked job once they hold for the references.
    """
    problems = []
    for d, r in SWEEP_SIZES:
        for entry in range(POOL_SIZE):
            rows = {nearest: _sweep_row(refs[_sweep_class(d, r, nearest)][entry])
                    for nearest in (False, True)}
            for nearest, row in rows.items():
                if float(row["min_eig"]) < -MIN_EIG_TOL:
                    problems.append("%s/%d: Schur complement min eigenvalue %s < 0"
                                    % (_sweep_class(d, r, nearest), entry, row["min_eig"]))
            full, near = (float(rows[n]["spectral_norm"]) for n in (False, True))
            if near < full * (1.0 - RTOL):
                problems.append("%s/%d: nearest-subset norm %.17g below full-set norm %.17g"
                                % (_sweep_class(d, r, True), entry, near, full))
    return problems


def check_train(job: Job, body: list, refs: dict) -> None:
    compare_body(body, refs[job.cls][job.entry])


@contextlib.contextmanager
def feasibility_watch():
    """Collect training runs that end off their lines.

    Wraps ``sgd_train`` as currently bound (the tracer's wrapper in a traced
    round) in every ``porcupine.*`` namespace that binds it, for one job.
    """
    current = trainer.sgd_train
    owners = [m for name, m in list(sys.modules.items())
              if (name == "porcupine" or name.startswith("porcupine.")) and m is not None
              and vars(m).get("sgd_train") is current]
    infeasible = []

    @functools.wraps(current)
    def watched(*args, **kwargs):
        result = current(*args, **kwargs)
        if not result.line_feasibility_ok:
            infeasible.append(result)
        return result

    for owner in owners:
        owner.sgd_train = watched
    try:
        yield infeasible
    finally:
        for owner in owners:
            owner.sgd_train = current


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (SWEEP, TRAIN, ORACLE)}
CLI_ARGV = {"sweep": sweep_argv, "train": train_argv}


class Runner:
    """Runs and checks jobs of one workload; ``run`` returns True on success."""

    def __init__(self, workload: Workload, scratch: str, nproc: int, refs: dict | None):
        self.workload = workload
        self.scratch = scratch
        self.jobs = 0
        self.nproc = nproc
        self.refs = refs
        self.last_error = None

    def output(self, job: Job) -> list:
        """Run one CLI job and return its CSV body."""
        # A fresh file per job: rewriting one file makes ext4 flush it on
        # every close, which adds disk latency that is not porcupine's.
        self.jobs += 1
        out = os.path.join(self.scratch, "job%d.csv" % self.jobs)
        argv = CLI_ARGV[self.workload.name](job, out, self.nproc)
        try:
            code = cli.main(argv)
            if code != 0:
                raise CheckFailed("porcupine %s exited %d" % (" ".join(argv), code))
            with open(out, encoding="utf-8") as fh:
                return csv_body(fh.read())
        finally:
            if os.path.exists(out):
                os.remove(out)

    def execute(self, job: Job) -> None:
        name = self.workload.name
        if name == "oracle":
            (run_net if job.cls in NET_CASES else run_certificate)(job)
        elif name == "train":
            with feasibility_watch() as infeasible:
                body = self.output(job)
            if infeasible:
                raise CheckFailed("%d training runs ended off their lines" % len(infeasible))
            check_train(job, body, self.refs)
        else:
            check_sweep(job, self.output(job), self.refs)

    def run(self, job: Job) -> bool:
        try:
            self.execute(job)
        except Exception as exc:  # any failure of the program counts against it
            self.last_error = "%s/%d: %s: %s" % (job.cls, job.entry, type(exc).__name__, exc)
            return False
        return True
