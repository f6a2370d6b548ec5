"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They check that a perturbed output counts as failed, that traced counts
equal the counts predicted from the job list and repeat exactly, that the
benchmark refuses to run without sources, and the verdict rules of
``compare.py``.  They run a few small jobs and take seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from porcupine import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return wl.load_references()


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def _traced(runner, jobs):
    tracer = Tracer()
    tracer.install()
    try:
        results = [runner.run(job) for job in jobs]
    finally:
        tracer.uninstall()
    assert all(results), runner.last_error
    return tracer


# ---------------------------------------------------------- output checks

def test_reference_outputs_pass(refs, scratch):
    runner = wl.Runner(wl.TRAIN, scratch, 2, refs)
    assert all(runner.run(wl.Job(cls, 0)) for cls in wl.TRAIN.classes), runner.last_error


def test_perturbed_cli_output_counts_as_failed(refs, scratch, monkeypatch):
    # Six significant digits instead of seventeen: every float moves by
    # far more than the tolerance.
    monkeypatch.setattr(cli, "_FMT", "%.6g")
    runner = wl.Runner(wl.TRAIN, scratch, 2, refs)
    assert not runner.run(wl.Job("mismatched_k10", 3))
    assert "row 0" in runner.last_error


@pytest.mark.parametrize("edit", ["float", "label", "row"])
def test_perturbed_train_body_fails(refs, edit):
    body = list(refs["matched_k10"][0])
    fields = body[1].split(",")
    if edit == "float":
        fields[7] = repr(float(fields[7]) * (1 + 1e-7))
        body[1] = ",".join(fields)
    elif edit == "label":
        fields[9] = "Global" if fields[9] != "Global" else "NotConverged"
        body[1] = ",".join(fields)
    else:
        body.pop()
    wl.check_train(wl.Job("matched_k10", 0), list(refs["matched_k10"][0]), refs)
    with pytest.raises(wl.CheckFailed):
        wl.check_train(wl.Job("matched_k10", 0), body, refs)


def test_sweep_checks(refs):
    job = wl.Job("d256_r512_nearest", 2)
    body = list(refs[job.cls][job.entry])
    wl.check_sweep(job, body, refs)
    columns = body[0].split(",")
    for column, value in (("min_eig", "-1e-6"), ("spectral_norm", "0.1")):
        fields = body[1].split(",")
        fields[columns.index(column)] = value
        with pytest.raises(wl.CheckFailed, match="row 0"):
            wl.check_sweep(job, [body[0], ",".join(fields)], refs)


def _edit_sweep_ref(refs, cls, entry, column, value):
    bad = dict(refs)
    bad[cls] = list(refs[cls])
    header, row = refs[cls][entry]
    fields = row.split(",")
    fields[header.split(",").index(column)] = value
    bad[cls][entry] = [header, ",".join(fields)]
    return bad


def test_sweep_invariants(refs):
    assert wl.sweep_invariants(refs) == []
    bad = _edit_sweep_ref(refs, "d512_r512_full", 3, "min_eig", "-1e-6")
    assert wl.sweep_invariants(bad) == [
        "d512_r512_full/3: Schur complement min eigenvalue -1e-6 < 0"]
    # A full-set norm above the nearest-subset norm of the same seed.
    near = refs["d256_r512_nearest"][1]
    norm = float(dict(zip(near[0].split(","), near[1].split(",")))["spectral_norm"])
    bad = _edit_sweep_ref(refs, "d256_r512_full", 1, "spectral_norm", repr(norm * 1.01))
    (problem,) = wl.sweep_invariants(bad)
    assert problem.startswith("d256_r512_nearest/1: nearest-subset norm")


def test_infeasible_training_run_counts_as_failed(refs, scratch, monkeypatch):
    import dataclasses

    from porcupine import trainer

    original = trainer.sgd_train

    def off_lines(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), line_feasibility_ok=False)

    monkeypatch.setattr(trainer, "sgd_train", off_lines)
    runner = wl.Runner(wl.TRAIN, scratch, 2, refs)
    assert not runner.run(wl.Job("matched_k10", 2))
    assert "10 training runs ended off their lines" in runner.last_error
    monkeypatch.undo()
    assert trainer.sgd_train is original
    assert runner.run(wl.Job("matched_k10", 2)), runner.last_error


def test_oracle_detects_wrong_monte_carlo(scratch, monkeypatch):
    import porcupine

    runner = wl.Runner(wl.ORACLE, scratch, 2, None)
    assert runner.run(wl.Job("mismatched_k8", 5)), runner.last_error
    original = porcupine.monte_carlo_risk

    def biased(*args, **kwargs):
        mean, err = original(*args, **kwargs)
        return mean + 5 * err, err

    monkeypatch.setattr(porcupine, "monte_carlo_risk", biased)
    assert not runner.run(wl.Job("mismatched_k8", 5))
    assert "MC" in runner.last_error


def test_oracle_detects_wrong_gradient(scratch, monkeypatch):
    import porcupine

    original = porcupine.analytic_gradient

    def skewed(*args, **kwargs):
        grad, projected = original(*args, **kwargs)
        return grad, projected * (1 + 1e-4)

    monkeypatch.setattr(porcupine, "analytic_gradient", skewed)
    runner = wl.Runner(wl.ORACLE, scratch, 2, None)
    assert not runner.run(wl.Job("matched_k8", 0))
    assert "central differences" in runner.last_error


# ---------------------------------------------------------- traced counts

def test_every_binding_is_patched():
    tracer = Tracer()
    assert tracer.bindings("lines.random_line_set") == [
        "porcupine", "porcupine.cli", "porcupine.lines", "porcupine.trainer"]
    assert "porcupine.schur" in tracer.bindings("kernel.eig")
    assert "porcupine.risk" in tracer.bindings("kernel.kernel_bundle")
    import porcupine.schur

    original = porcupine.schur.schur_complement
    tracer.install()
    assert porcupine.schur.schur_complement is not original
    tracer.uninstall()
    assert porcupine.schur.schur_complement is original


def test_sweep_counts_match_job_list(refs, scratch):
    jobs = [wl.Job(cls, entry) for cls in ("d256_r256_full", "d256_r512_nearest",
                                           "d256_r512_full") for entry in (0, 1)]
    tracer = _traced(wl.Runner(wl.SWEEP, scratch, 2, refs), jobs)
    spans = tracer.per_span()
    n = len(jobs)
    assert spans["cli.main"]["calls"] == n
    assert spans["schur.schur_complement"]["calls"] == n
    assert spans["kernel.eig"]["calls"] == 3 * n
    assert spans["lines.random_line_set"]["calls"] == 2 * n
    assert spans["schur.nearest_line_subset"]["calls"] == 2
    assert spans["kernel.psi"]["calls"] == 3 * n
    entries = flops = 0
    for job in jobs:
        d, r, nearest = wl._parse_sweep_class(job.cls)
        model = d if nearest else r  # the nearest subset keeps one line per target
        entries += model * model + d * d + model * d
        flops += model ** 3 + 2 * d ** 3
    assert tracer.counters["kernel.psi.entries"] == entries
    assert tracer.counters["kernel.eig.flops_computed"] == flops


def test_train_counts_match_job_list(refs, scratch):
    jobs = [wl.Job(cls, 4) for cls in wl.TRAIN.classes]
    runner = wl.Runner(wl.TRAIN, scratch, 2, refs)
    tracer = _traced(runner, jobs)
    spans = tracer.per_span()
    assert spans["cli.main"]["calls"] == len(jobs)
    assert spans["trainer.sgd_train"]["calls"] == 10 * len(jobs)  # trials x inits
    assert spans["trainer.generate_dataset"]["calls"] == sum(
        10 if job.cls.startswith("matched") else 2 for job in jobs)  # one per trial
    steps = 0
    for job in jobs:
        body = refs[job.cls][job.entry]
        column = body[0].split(",").index("epochs_run")
        per_epoch = 20 if job.cls.startswith("matched") else 40  # samples / batch 100
        steps += sum(int(row.split(",")[column]) * per_epoch for row in body[1:])
    assert tracer.counters["trainer.sgd_steps"] == steps
    assert tracer.counters["cli.bytes_written"] > 0


def test_oracle_counts_match_job_list(scratch):
    jobs = [wl.Job("matched_k8", 1), wl.Job("mismatched_k8", 2), wl.Job("net_d3", 0)]
    tracer = _traced(wl.Runner(wl.ORACLE, scratch, 2, None), jobs)
    spans = tracer.per_span()
    certificates = [job for job in jobs if job.cls in ("matched_k8", "mismatched_k8")]
    assert spans["risk.monte_carlo_risk"]["calls"] == 2 * len(certificates)
    assert spans["landscape.analytic_gradient"]["calls"] == len(certificates)
    blocks = 0
    for job in certificates:
        _, k, _, k_star, _ = wl.oracle_shape(job.cls)
        blocks += k * (k + k_star) + 1  # gradient blocks plus the direct check
    assert spans["risk.truncated_covariance"]["calls"] == blocks
    assert spans["minimax.greedy_angular_net"]["calls"] == 1
    assert spans["minimax.coverage_gap"]["calls"] == 1
    assert tracer.counters["risk.mc.pairs.t1"] == len(certificates) * wl.MC_SAMPLES // 2
    assert tracer.counters["minimax.probes"] == wl.NET_PROBES


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_traced_run_counts_repeat_and_account_for_wall_time():
    argv = ["--workload", "train", "--seed", "3", "--seconds", "1", "--trace", "1"]
    first, second = _run(argv), _run(argv)
    assert first["correct"] and first["failed"] == 0
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name
    m = {name: metric["value"] for name, metric in first["metrics"].items()}
    layers = sum(value for name, value in m.items() if name.startswith("layer."))
    assert math.isclose(layers + m["trace.remainder_s"], m["trace.wall_s"])
    assert 0 <= m["trace.remainder_s"] < 0.5 * m["trace.wall_s"]
    assert m["trainer.sgd_train.calls"] > 0 and m["trainer.sgd_step_us"] > 0


# ---------------------------------------------------------- command line and report

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 36, 40, 100, 450):
        pct = run.tail_percentile(n)
        assert n * (100 - pct) / 100 >= 10
        assert n * (100 - pct - 1) / 100 < 10 or pct == 99
    assert run.tail_percentile(5) == run.tail_percentile(19) == 50  # never below the median


def test_class_median_does_not_hinge_on_single_jobs():
    classes = ["a", "b"] * 3
    times = [1.0, 3.0, 1.0, 3.0, 1.5, 2.5]
    assert run.class_median(times, classes) == 2.0
    times[4] = 1.9  # the slowest job of class a; the median of all six jobs moves to 2.2
    assert run.class_median(times, classes) == 2.0


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1, False) == "better"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1, True) != "better"
    assert compare.verdict(parent, [x * 0.8 for x in parent], "higher", 0.1, False) == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1, False) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1, False) == "unresolved"
    # A change that crashes in 3 of 10 pairs and wins the other 7 is not better.
    crashed = [None] * 3 + [x * 1.2 for x in parent[3:]]
    assert compare.wins(parent, crashed, "higher") == 7
    assert compare.verdict(parent, crashed, "higher", 0.1, False) != "better"
    assert compare.verdict(parent, [None] * 10, "higher", 0.1, False) == "worse"


def test_report_counts_errored_runs(tmp_path, capsys):
    metrics = {spec["name"]: spec for spec in compare.load_benchmark()["end_to_end"]}
    records = []
    for pair in range(compare.PAIRS):
        for side in ("parent", "change"):
            scale = 1.0 if side == "parent" else 0.8  # the change reads better on every metric
            result = {"correct": True, "attempted": 50, "failed": 0, "metrics": {
                name: {"value": (100.0 + pair % 3) * (scale if spec["better"] == "lower"
                                                      else 1 / scale), "unit": spec["unit"]}
                for name, spec in metrics.items()}}
            if side == "change" and pair < 3:
                result = {"error": "exit 1: Traceback"}
            records.append({"workload": "train", "pair": pair, "side": side, "first": True,
                            "seed": 1, "trace": 0, "result": result})
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert compare.report(str(path)) == 1
    out = capsys.readouterr().out
    assert out.count("run error: train pair") == 3
    assert "0 of 500" in out and "3 of 353" in out  # three errored runs count as failed
    rows = [line.split() for line in out.splitlines() if line.split()[1] in metrics]
    assert len(rows) == len(metrics)
    assert all(row[-2] == "7/10" and row[-1] != "better" for row in rows)
