"""Command-line entry point for seeded, reproducible experiments.

Subcommands: ``risk``, ``landscape``, ``schur-sweep``, ``asymptotic``,
``train``, ``minimax``.  Every CSV output starts with comment lines that
echo the tool version, the spec (every argument the run reads but --out,
--save-net and --threads) and the master seed; rerunning the same spec
reproduces the file byte for byte (--timing opts into wall-clock times).  Each subcommand checks its arguments and returns its columns
and rows; ``main`` alone writes them, so a run that fails writes no CSV
and leaves an existing file untouched.

Exit codes: 0 success, 2 validation error (bad arguments, an unwritable
output path, and the library's DomainError, ParameterOutOfRange and
ConfigError), 3 numeric failure (every other library error).
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from ._checks import count, seed_sequence
from .errors import ConfigError, DomainError, ParameterOutOfRange, PorcupineError
from .kernel import kernel_bundle
from .landscape import GOOD_REGION, MAY_HAVE_BAD_LOCAL, scalar_region_classify
from .lines import NeuronLineMap, random_line_set, save_vectors_csv, weights_from_masses
from .minimax import (
    coverage_gap,
    greedy_angular_net,
    minimax_risk_bound,
    net_size_bound,
    sparse_net_size,
)
from .risk import _ordered_map, matched_risk, mismatched_risk, monte_carlo_risk, scalar_risk
from .schur import asymptotic_reference, nearest_line_subset, schur_complement
from .trainer import (
    desk_matched_config,
    desk_mismatched_config,
    experiment_matched_degree_one,
    experiment_mismatched_random,
)

_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _write_csv(args, columns, rows) -> None:
    """Write one CSV to ``--out`` (or stdout): the header, columns and rows.

    The spec line holds the command and every set argument but ``--out``,
    ``--save-net`` and ``--threads``, which cannot change the body.  Every
    value is formatted before the file is opened: the output is all or nothing.
    """
    spec = {k: v for k, v in vars(args).items()
            if k not in ("func", "out", "save_net", "threads") and v is not None}
    lines = [
        "# porcupine %s" % __version__,
        "# spec: %s" % json.dumps(spec, sort_keys=True),
        "# master_seed: %s" % args.seed,
        ",".join(columns),
    ]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _number_list(text: str, kind, flag: str) -> list:
    """The comma-separated values of ``flag``, each read by ``kind``; an
    integer must also pass ``count``."""
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParameterOutOfRange("%s needs a comma-separated list: %r" % (flag, text)) from exc
    if not values:
        raise ParameterOutOfRange("%s needs at least one value: %r" % (flag, text))
    return [count(value, flag) for value in values] if kind is int else values


def _check_line_count(d: int, most_lines: int) -> None:
    """A line set in d = 1 has a single line: more can never be drawn."""
    if d == 1 and most_lines >= 2:
        raise ParameterOutOfRange("d = 1 has one line; cannot draw %d distinct lines" % most_lines)


def _reject_ignored(args, action: str, dests) -> None:
    """ParameterOutOfRange naming every flag among ``dests`` that is set
    although ``action`` does not read it, so no spec line echoes a flag that
    cannot change its body."""
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ParameterOutOfRange("%s does not read %s" % (action, " or ".join(given)))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")


def _random_instance(d, r, k, seed):
    seq = seed.spawn(3)
    line_set = random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.concatenate([np.arange(r), rng.integers(0, r, size=k - r)]))
    masses = np.random.default_rng(seq[2]).standard_normal(k)
    neuron_map = NeuronLineMap(num_neurons=k, assignment=assignment)
    return weights_from_masses(line_set, neuron_map, masses)


def _cmd_risk(args):
    # Checked apart: "if args.mc_samples" below would skip Monte Carlo at 0.
    if args.mc_samples is not None:
        count(args.mc_samples, "--mc-samples")
    # (name, model, target, closed-form breakdown) per row; the model and
    # target are what monte_carlo_risk takes.
    instances = []
    if args.demo == "scalar" and args.mismatched:
        raise ParameterOutOfRange("--demo scalar is a matched demo; drop --mismatched")
    if args.demo == "scalar":
        demos = [
            ("flat-valley", np.array([5.0, 5.0]), np.array([6.0, 4.0])),
            ("same-point", np.array([6.0, 4.0]), np.array([6.0, 4.0])),
            ("mixed-target", np.array([1.0, 1.0]), np.array([6.0, -4.0])),
            ("global-mixed", np.array([7.0, -5.0]), np.array([6.0, -4.0])),
        ]
        for name, w, w_star in demos:
            instances.append((name, w[None, :], w_star[None, :], scalar_risk(w, w_star)))
    else:
        if args.d is None or args.r is None or args.k is None:
            raise ParameterOutOfRange("need --d, --r, --k (or --demo scalar)")
        if args.k < args.r:
            raise ParameterOutOfRange("need k >= r so the line map can be surjective")
        r_star = args.r if args.r_star is None else args.r_star
        k_star = args.k if args.k_star is None else args.k_star
        if args.mismatched and k_star < r_star:
            raise ParameterOutOfRange("need k_star >= r_star")
        _check_line_count(args.d, max(args.r, r_star) if args.mismatched else args.r)
        seq = seed_sequence(args.seed, "--seed").spawn(2)
        weights = _random_instance(args.d, args.r, args.k, seq[0])
        if args.mismatched:
            star = _random_instance(args.d, r_star, k_star, seq[1])
            instances.append(("mismatched", weights, star, mismatched_risk(weights, star)))
        else:
            star_masses = np.random.default_rng(seq[1]).standard_normal(args.k)
            star = weights_from_masses(weights.line_set, weights.neuron_map, star_masses)
            instances.append(("matched", weights, star, matched_risk(weights, star)))

    columns = ["instance", "linear_term", "kernel_term", "total"]
    if args.mc_samples:
        columns += ["mc_estimate", "mc_stderr"]
    rows = []
    for name, model, target, breakdown in instances:
        row = [name, breakdown.linear_term, breakdown.kernel_term, breakdown.total]
        if args.mc_samples:
            row.extend(monte_carlo_risk(model, target, n_samples=args.mc_samples,
                                        seed=args.seed, threads=args.threads))
        rows.append(row)
    return columns, rows


def _cmd_landscape(args):
    if not args.scalar:
        raise ParameterOutOfRange("only --scalar classification tables are supported")
    w_star = np.array(_number_list(args.w_star, float, "--w-star"))
    if w_star.size > 16:
        raise ParameterOutOfRange("sign table grows as 2^k; need k <= 16")
    rows = [
        ("".join("+" if s > 0 else "-" for s in signs),
         scalar_region_classify(np.array(signs), w_star).label)
        for signs in itertools.product((1, -1), repeat=w_star.size)
    ]
    return ["region", "label"], rows


def _schur_trial(d, r_star, r, trial, master_seed, nearest):
    seq = seed_sequence((master_seed, r, trial), "--seed").spawn(2)
    seed_id = int(np.random.default_rng(seq[0]).integers(2**31))
    start = time.perf_counter()
    lines = random_line_set(d, r, seq[0])
    star = random_line_set(d, r_star, seq[1])
    if nearest:
        lines = nearest_line_subset(lines, star).line_set
    report = schur_complement(kernel_bundle(lines, star))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return seed_id, report.spectral_norm, report.min_eigenvalue, elapsed_ms


def _cmd_schur_sweep(args):
    grid = _number_list(args.r, int, "--r")
    count(args.d, "--d")
    count(args.r_star, "--r-star")
    count(args.trials, "--trials")
    if args.nearest and min(grid) < args.r_star:
        raise ParameterOutOfRange("--nearest needs every r >= r_star")
    _check_line_count(args.d, max(max(grid), args.r_star))
    columns = ["d", "r_star", "r", "trial", "seed", "spectral_norm", "min_eig", "runtime_ms"]
    if args.asymptotic:
        columns.append("asymptotic_ref")
        limits = {r: asymptotic_reference(args.d, r, args.r_star).limit for r in grid}
    jobs = [(r, trial) for r in grid for trial in range(args.trials)]

    def run(job):
        r, trial = job
        seed_id, norm, min_eig, elapsed = _schur_trial(
            args.d, args.r_star, r, trial, args.seed, args.nearest)
        row = [args.d, args.r_star, r, trial, seed_id, norm, min_eig,
               elapsed if args.timing else 0.0]
        return row + [limits[r]] if args.asymptotic else row

    return columns, _ordered_map(run, jobs, args.threads)


def _cmd_asymptotic(args):
    reference = asymptotic_reference(args.d, args.r, args.r_star)
    rows = [("limit", reference.limit)]
    for value, multiplicity in reference.eigenvalues:
        rows += [("reference_eigenvalue", value), ("reference_multiplicity", multiplicity)]
    return ["quantity", "value"], rows


def _cmd_train(args):
    k_grid = _number_list(args.k, int, "--k")
    count(args.d, "--d")
    count(args.trials, "--trials")
    if args.samples is None:  # written back, like --epochs, so the spec line shows it
        args.samples = 2000 if args.mode == "matched" else 4000
    count(args.samples, "--samples")
    if args.mode == "matched" and any(k % args.d for k in k_grid):
        raise ParameterOutOfRange("matched runs need k divisible by d")
    if args.mode == "matched":
        _reject_ignored(args, "train matched", ("inits", "k_star"))
    else:
        count(args.k_star, "--k-star")
        args.inits = count(5 if args.inits is None else args.inits, "--inits")
    preset = desk_matched_config if args.mode == "matched" else desk_mismatched_config
    config = preset(seed=args.seed)
    if args.epochs is not None:
        config = replace(config, epochs=args.epochs)
    args.epochs = config.epochs

    rows = []
    if args.mode == "matched":
        for k in k_grid:
            summary = experiment_matched_degree_one(
                args.d, k, args.trials, config, n_train=args.samples
            )
            rows += [
                ("matched", args.d, k, k, row.trial, row.seed, row.epochs_run,
                 row.final_train_loss, row.normalized_test_mse, row.outcome,
                 row.violated_lines)
                for row in summary.trials
            ]
    else:
        summary = experiment_mismatched_random(
            args.d, args.k_star, k_grid, args.trials, config,
            inits_per_trial=args.inits, n_train=args.samples, n_test=args.samples,
        )
        rows = [
            ("mismatched", args.d, run.k, args.k_star, run.trial, run.seed,
             run.epochs_run, run.final_train_loss, run.normalized_test_mse,
             GOOD_REGION if run.region_condition_ok else MAY_HAVE_BAD_LOCAL,
             run.violated_lines)
            for run in summary.runs
        ]
    columns = ["experiment", "d", "k", "k_star", "trial", "seed", "epochs_run",
               "final_train_loss", "normalized_test_mse", "outcome",
               "signature_violations"]
    return columns, rows


def _cmd_minimax(args):
    if args.delta is None:
        raise ParameterOutOfRange("--delta is required")
    if args.action == "bound":
        # --M scales the minimax risk bound, which needs --k.
        _reject_ignored(args, "minimax bound",
                        ("probes", "save_net") + (() if args.k is not None else ("M",)))
        rows = [("net_size_bound", net_size_bound(args.d, args.delta))]
        if args.s is not None:
            rows.append(("sparse_net_size", sparse_net_size(args.d, args.s, args.delta)))
            if args.k is not None:
                rows.append(("sparse_net_size_known_patterns",
                             sparse_net_size(args.d, args.s, args.delta, k=args.k)))
        if args.k is not None:
            args.M = 1.0 if args.M is None else args.M
            rows.append(("minimax_risk_bound",
                         minimax_risk_bound(args.k, args.M, args.d, args.delta)))
    else:
        _reject_ignored(args, "minimax net", ("k", "s", "M"))
        args.probes = count(100_000 if args.probes is None else args.probes, "--probes")
        net = greedy_angular_net(args.d, args.delta, seed=args.seed)
        gap = coverage_gap(net, n_probes=args.probes, seed=args.seed + 1)
        rows = [("net_size", net.size), ("coverage_gap", gap), ("delta", args.delta),
                ("size_bound", net_size_bound(args.d, args.delta))]
        if args.save_net:
            save_vectors_csv(args.save_net, net.vectors)
    return ["quantity", "value"], rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porcupine",
        description="Line-constrained two-layer relu networks: closed-form "
        "risks, landscape analysis, approximation bounds, and training "
        "experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_risk = sub.add_parser("risk", help="closed-form risk breakdowns")
    kind = p_risk.add_mutually_exclusive_group()
    kind.add_argument("--matched", action="store_true")
    kind.add_argument("--mismatched", action="store_true")
    p_risk.add_argument("--demo", choices=["scalar"], default=None)
    p_risk.add_argument("--d", type=int)
    p_risk.add_argument("--r", type=int)
    p_risk.add_argument("--k", type=int)
    p_risk.add_argument("--r-star", type=int, dest="r_star")
    p_risk.add_argument("--k-star", type=int, dest="k_star")
    p_risk.add_argument("--mc-samples", type=int, default=None,
                        help="Monte Carlo sample count (enables MC cross-checks)")
    _add_common(p_risk)
    p_risk.set_defaults(func=_cmd_risk)

    p_land = sub.add_parser("landscape", help="region classification tables")
    p_land.add_argument("action", choices=["classify"])
    p_land.add_argument("--scalar", action="store_true")
    p_land.add_argument("--w-star", dest="w_star", required=True)
    _add_common(p_land)
    p_land.set_defaults(func=_cmd_landscape)

    p_sweep = sub.add_parser("schur-sweep", help="approximation-error sweeps")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--r-star", dest="r_star", type=int, required=True)
    p_sweep.add_argument("--r", required=True, help="comma-separated grid")
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--nearest", action="store_true",
                         help="use the nearest-line subset instead of all lines")
    p_sweep.add_argument("--asymptotic", action="store_true",
                         help="append the high-dimensional reference column")
    p_sweep.add_argument("--timing", action="store_true",
                         help="record wall-clock times (breaks byte-identical reruns)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_schur_sweep)

    p_asym = sub.add_parser("asymptotic", help="high-dimensional reference values")
    p_asym.add_argument("--d", type=int, required=True)
    p_asym.add_argument("--r", type=int, required=True)
    p_asym.add_argument("--r-star", dest="r_star", type=int, required=True)
    _add_common(p_asym)
    p_asym.set_defaults(func=_cmd_asymptotic)

    p_train = sub.add_parser("train", help="seeded training experiments")
    p_train.add_argument("mode", choices=["matched", "mismatched"])
    p_train.add_argument("--d", type=int, required=True)
    p_train.add_argument("--k", required=True, help="comma-separated grid")
    p_train.add_argument("--k-star", dest="k_star", type=int)
    p_train.add_argument("--trials", type=int, default=10)
    p_train.add_argument("--inits", type=int, default=None, help="default 5")
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--samples", type=int, default=None)
    _add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_mini = sub.add_parser("minimax", help="angular nets and risk bounds")
    p_mini.add_argument("action", choices=["bound", "net"])
    p_mini.add_argument("--d", type=int, required=True)
    p_mini.add_argument("--s", type=int, default=None)
    p_mini.add_argument("--delta", type=float, default=None)
    p_mini.add_argument("--k", type=int, default=None)
    p_mini.add_argument("--M", type=float, default=None, help="default 1")
    p_mini.add_argument("--probes", type=int, default=None, help="default 100000")
    p_mini.add_argument("--save-net", dest="save_net", default=None)
    _add_common(p_mini)
    p_mini.set_defaults(func=_cmd_minimax)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Checked apart: "args.threads > 1" would run --threads 0 serially.
        count(args.threads, "--threads")
        count(args.seed, "--seed", 0)
        _write_csv(args, *args.func(args))
        return 0
    # These library errors mean an argument was out of range, not that the
    # numerics failed; an OSError means --out or --save-net cannot be written.
    except (DomainError, ParameterOutOfRange, ConfigError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (PorcupineError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
