"""Command-line entry point for seeded, reproducible experiments.

Subcommands: ``risk``, ``landscape``, ``schur-sweep``, ``asymptotic``,
``train``, ``minimax``.  Every CSV output starts with comment lines that
echo the full parameter map, the tool version, and the master seed;
rerunning the same spec reproduces the body byte for byte (timing
measurements are opt-in via --timing for that reason).

Exit codes: 0 success, 2 validation error (bad arguments, and the
library's DomainError, ParameterOutOfRange and ConfigError), 3 numeric
failure (every other library error).
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from ._seeds import as_seed_sequence
from .errors import ConfigError, DomainError, ParameterOutOfRange, PorcupineError
from .kernel import kernel_bundle
from .landscape import scalar_region_classify
from .lines import NeuronLineMap, random_line_set, save_vectors_csv, weights_from_masses
from .minimax import (
    coverage_gap,
    greedy_angular_net,
    minimax_risk_bound,
    net_size_bound,
    sparse_net_size,
)
from .risk import matched_risk, mismatched_risk, monte_carlo_risk, scalar_risk
from .schur import asymptotic_reference, nearest_line_subset, schur_complement
from .trainer import (
    TrainConfig,
    desk_matched_config,
    desk_mismatched_config,
    experiment_matched_degree_one,
    experiment_mismatched_random,
)

_FMT = "%.17g"


class ValidationError(Exception):
    """Bad command-line arguments (exit code 2)."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _int_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError("expected a comma-separated integer list: %r" % text) from exc
    if not values:
        raise ValidationError("empty grid: %r" % text)
    return values


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError("expected a comma-separated float list: %r" % text) from exc
    if not values:
        raise ValidationError("empty vector: %r" % text)
    return values


class _Output:
    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.handle = open(self.path, "w", encoding="utf-8", newline="") if self.path else sys.stdout
        return self.handle

    def __exit__(self, *exc):
        if self.path:
            self.handle.close()
        return False


def _write_header(fh, command: str, spec: dict, seed) -> None:
    echoed = {"command": command, **spec}
    fh.write("# porcupine %s\n" % __version__)
    fh.write("# spec: %s\n" % json.dumps(echoed, sort_keys=True))
    fh.write("# master_seed: %s\n" % seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument("--mc-samples", type=int, default=None,
                        help="Monte Carlo sample count (enables MC cross-checks)")


def _mc_samples(args):
    if args.mc_samples is not None and args.mc_samples < 1:
        raise ValidationError("--mc-samples must be >= 1")
    return args.mc_samples


def _random_instance(d, r, k, seed, scale=1.0):
    seq = as_seed_sequence(seed).spawn(3)
    line_set = random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.concatenate([np.arange(r), rng.integers(0, r, size=k - r)]))
    masses = np.random.default_rng(seq[2]).standard_normal(k) * scale
    neuron_map = NeuronLineMap(num_neurons=k, assignment=assignment)
    return weights_from_masses(line_set, neuron_map, masses)


def _cmd_risk(args) -> int:
    mc = _mc_samples(args)
    rows = []
    if args.demo == "scalar":
        demos = [
            ("flat-valley", np.array([5.0, 5.0]), np.array([6.0, 4.0])),
            ("same-point", np.array([6.0, 4.0]), np.array([6.0, 4.0])),
            ("mixed-target", np.array([1.0, 1.0]), np.array([6.0, -4.0])),
            ("global-mixed", np.array([7.0, -5.0]), np.array([6.0, -4.0])),
        ]
        for name, w, w_star in demos:
            breakdown = scalar_risk(w, w_star)
            row = {
                "instance": name,
                "linear_term": breakdown.linear_term,
                "kernel_term": breakdown.kernel_term,
                "total": breakdown.total,
            }
            if mc:
                estimate, stderr = monte_carlo_risk(
                    w[None, :], w_star[None, :], n_samples=mc, seed=args.seed,
                    threads=args.threads,
                )
                row["mc_estimate"] = estimate
                row["mc_stderr"] = stderr
            rows.append(row)
    else:
        if args.d is None or args.r is None or args.k is None:
            raise ValidationError("need --d, --r, --k (or --demo scalar)")
        if args.k < args.r:
            raise ValidationError("need k >= r so the line map can be surjective")
        seq = np.random.SeedSequence(args.seed).spawn(2)
        weights = _random_instance(args.d, args.r, args.k, seq[0])
        if args.mismatched:
            r_star = args.r_star or args.r
            k_star = args.k_star or args.k
            if k_star < r_star:
                raise ValidationError("need k_star >= r_star")
            star = _random_instance(args.d, r_star, k_star, seq[1])
            breakdown = mismatched_risk(weights, star)
        else:
            star_masses = np.random.default_rng(seq[1]).standard_normal(args.k)
            star = weights_from_masses(weights.line_set, weights.neuron_map, star_masses)
            breakdown = matched_risk(weights, star)
        row = {
            "instance": "mismatched" if args.mismatched else "matched",
            "linear_term": breakdown.linear_term,
            "kernel_term": breakdown.kernel_term,
            "total": breakdown.total,
        }
        if mc:
            estimate, stderr = monte_carlo_risk(
                weights, star, n_samples=mc, seed=args.seed, threads=args.threads
            )
            row["mc_estimate"] = estimate
            row["mc_stderr"] = stderr
        rows.append(row)

    spec = {k: v for k, v in vars(args).items()
            if k not in ("func", "out") and v is not None}
    with _Output(args.out) as fh:
        _write_header(fh, "risk", spec, args.seed)
        columns = list(rows[0].keys())
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    return 0


def _cmd_landscape(args) -> int:
    if args.action != "classify":
        raise ValidationError("supported landscape action: classify")
    if not args.scalar:
        raise ValidationError("only --scalar classification tables are supported")
    w_star = np.array(_float_list(args.w_star))
    k = w_star.size
    if k > 16:
        raise ValidationError("sign table grows as 2^k; need k <= 16")
    spec = {"action": args.action, "scalar": True, "w_star": list(w_star)}
    with _Output(args.out) as fh:
        _write_header(fh, "landscape", spec, args.seed)
        fh.write("region,label\n")
        for signs in itertools.product((1, -1), repeat=k):
            label = scalar_region_classify(np.array(signs), w_star).label
            pattern = "".join("+" if s > 0 else "-" for s in signs)
            fh.write("%s,%s\n" % (pattern, label))
    return 0


def _schur_trial(d, r_star, r, trial, master_seed, nearest):
    seq = np.random.SeedSequence((master_seed, r, trial)).spawn(2)
    seed_id = int(np.random.default_rng(seq[0]).integers(2**31))
    start = time.perf_counter()
    lines = random_line_set(d, r, seq[0])
    star = random_line_set(d, r_star, seq[1])
    if nearest:
        lines = nearest_line_subset(lines, star).line_set
    report = schur_complement(kernel_bundle(lines, star))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return seed_id, report.spectral_norm, report.min_eigenvalue, elapsed_ms


def _cmd_schur_sweep(args) -> int:
    grid = _int_list(args.r)
    if args.d < 1 or args.r_star < 1 or args.trials < 1:
        raise ValidationError("need positive --d, --r-star, --trials")
    if min(grid) < 1:
        raise ValidationError("--r grid entries must be positive")
    if args.nearest and min(grid) < args.r_star:
        raise ValidationError("--nearest needs every r >= r_star")
    spec = {
        "d": args.d, "r_star": args.r_star, "r": grid, "trials": args.trials,
        "nearest": bool(args.nearest), "asymptotic": bool(args.asymptotic),
        "timing": bool(args.timing), "seed": args.seed,
    }
    jobs = [(r, trial) for r in grid for trial in range(args.trials)]

    def run(job):
        r, trial = job
        return job, _schur_trial(args.d, args.r_star, r, trial, args.seed, args.nearest)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    with _Output(args.out) as fh:
        _write_header(fh, "schur-sweep", spec, args.seed)
        columns = "d,r_star,r,trial,seed,spectral_norm,min_eig,runtime_ms"
        if args.asymptotic:
            columns += ",asymptotic_ref"
        fh.write(columns + "\n")
        for (r, trial), (seed_id, norm, min_eig, elapsed) in results:
            runtime = elapsed if args.timing else 0.0
            row = [args.d, args.r_star, r, trial, seed_id,
                   _FMT % norm, _FMT % min_eig, _FMT % runtime]
            if args.asymptotic:
                row.append(_FMT % asymptotic_reference(args.d, r, args.r_star).limit)
            fh.write(",".join(str(x) for x in row) + "\n")
    return 0


def _cmd_asymptotic(args) -> int:
    if args.d < 1 or args.r < 1 or args.r_star < 1:
        raise ValidationError("need positive --d, --r, --r-star")
    reference = asymptotic_reference(args.d, args.r, args.r_star)
    spec = {"d": args.d, "r": args.r, "r_star": args.r_star}
    with _Output(args.out) as fh:
        _write_header(fh, "asymptotic", spec, args.seed)
        fh.write("quantity,value\n")
        fh.write("limit,%s\n" % (_FMT % reference.limit))
        for value, multiplicity in reference.eigenvalues:
            fh.write("reference_eigenvalue,%s\n" % (_FMT % value))
            fh.write("reference_multiplicity,%d\n" % multiplicity)
    return 0


def _cmd_train(args) -> int:
    k_grid = _int_list(args.k)
    if args.d < 1 or args.trials < 1:
        raise ValidationError("need positive --d and --trials")
    if args.mode == "matched":
        config = desk_matched_config(seed=args.seed)
    else:
        config = desk_mismatched_config(seed=args.seed)
    if args.epochs is not None:
        config = replace(config, epochs=args.epochs)
    spec = {
        "mode": args.mode, "d": args.d, "k": k_grid, "trials": args.trials,
        "k_star": args.k_star, "inits": args.inits, "epochs": config.epochs,
        "samples": args.samples, "seed": args.seed,
    }
    with _Output(args.out) as fh:
        _write_header(fh, "train", spec, args.seed)
        fh.write(
            "experiment,d,k,k_star,trial,seed,epochs_run,final_train_loss,"
            "normalized_test_mse,outcome,signature_violations\n"
        )
        if args.mode == "matched":
            for k in k_grid:
                if k % args.d != 0:
                    raise ValidationError("matched runs need k divisible by d")
                summary = experiment_matched_degree_one(
                    args.d, k, args.trials, config, n_train=args.samples
                )
                for row in summary.trials:
                    fh.write(
                        "matched,%d,%d,%d,%d,%d,%d,%s,%s,%s,%d\n"
                        % (
                            args.d, k, k, row.trial, row.seed, row.epochs_run,
                            _FMT % row.final_train_loss,
                            _FMT % row.normalized_test_mse,
                            row.outcome, row.violated_lines,
                        )
                    )
        else:
            if args.k_star is None:
                raise ValidationError("mismatched runs need --k-star")
            summary = experiment_mismatched_random(
                args.d, args.k_star, k_grid, args.trials, config,
                inits_per_trial=args.inits, n_train=args.samples,
                n_test=args.samples,
            )
            for run in summary.runs:
                outcome = "GoodRegion" if run.region_condition_ok else "MayHaveBadLocal"
                fh.write(
                    "mismatched,%d,%d,%d,%d,%d,%d,%s,%s,%s,%d\n"
                    % (
                        args.d, run.k, args.k_star, run.trial, run.seed,
                        run.epochs_run, _FMT % run.final_train_loss,
                        _FMT % run.normalized_test_mse, outcome,
                        run.violated_lines,
                    )
                )
    return 0


def _cmd_minimax(args) -> int:
    if args.action == "bound":
        if args.delta is None:
            raise ValidationError("--delta is required")
        rows = [("net_size_bound", net_size_bound(args.d, args.delta))]
        if args.s is not None:
            rows.append(("sparse_net_size", sparse_net_size(args.d, args.s, args.delta)))
            if args.k is not None:
                rows.append(
                    ("sparse_net_size_known_patterns",
                     sparse_net_size(args.d, args.s, args.delta, k=args.k))
                )
        if args.k is not None:
            rows.append(
                ("minimax_risk_bound",
                 minimax_risk_bound(args.k, args.M, args.d, args.delta))
            )
        spec = {k: v for k, v in vars(args).items()
                if k not in ("func", "out") and v is not None}
        with _Output(args.out) as fh:
            _write_header(fh, "minimax", spec, args.seed)
            fh.write("quantity,value\n")
            for name, value in rows:
                fh.write("%s,%s\n" % (name, _FMT % value))
        return 0
    if args.action == "net":
        if args.delta is None:
            raise ValidationError("--delta is required")
        net = greedy_angular_net(args.d, args.delta, seed=args.seed)
        gap = coverage_gap(net, n_probes=args.probes, seed=args.seed + 1)
        spec = {"action": "net", "d": args.d, "delta": args.delta,
                "probes": args.probes, "seed": args.seed}
        if args.save_net:
            save_vectors_csv(args.save_net, net.vectors)
        with _Output(args.out) as fh:
            _write_header(fh, "minimax", spec, args.seed)
            fh.write("quantity,value\n")
            fh.write("net_size,%d\n" % net.size)
            fh.write("coverage_gap,%s\n" % (_FMT % gap))
            fh.write("delta,%s\n" % (_FMT % args.delta))
            fh.write("size_bound,%s\n" % (_FMT % net_size_bound(args.d, args.delta)))
        return 0
    raise ValidationError("supported minimax actions: bound, net")


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
    p_risk.add_argument("--matched", action="store_true")
    p_risk.add_argument("--mismatched", action="store_true")
    p_risk.add_argument("--demo", choices=["scalar"], default=None)
    p_risk.add_argument("--d", type=int)
    p_risk.add_argument("--r", type=int)
    p_risk.add_argument("--k", type=int)
    p_risk.add_argument("--r-star", type=int, dest="r_star")
    p_risk.add_argument("--k-star", type=int, dest="k_star")
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
    p_train.add_argument("--inits", type=int, default=5)
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
    p_mini.add_argument("--M", type=float, default=1.0)
    p_mini.add_argument("--probes", type=int, default=100_000)
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
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        if args.command == "train" and args.samples is None:
            args.samples = 2000 if args.mode == "matched" else 4000
        return args.func(args)
    # These library errors mean an argument was out of range, not that the
    # numerics failed.
    except (ValidationError, DomainError, ParameterOutOfRange, ConfigError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (PorcupineError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
