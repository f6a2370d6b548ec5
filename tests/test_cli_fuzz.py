"""Seeded CLI fuzz: argv drawn from a fixed grammar of the six subcommands
must end in exit code 0 (success), 2 (validation error) or 3 (numeric
failure), never in an uncaught exception or a traceback on stderr.

Each flag is left out, given a value the command accepts, or given one of
``BAD``: zero, negative, NaN, infinite, overflowing, non-numeric or empty.
Sizes stay at desk scale (``--d`` <= 7, at most 2 trials, at most 200
samples and probes), ``--threads`` is one of -1, 0, 1 and 2, and a net is only built
where it stays small (``d = 1`` for any angle, else ``delta >= 0.3``).
"""

import random

from porcupine import cli

CASES = 300
BAD = ["0", "-1", "nan", "inf", "-inf", "1e400", "x", ""]
# Always given, so that no default (10 or 20 trials, 4000 samples, 100 000
# probes) leaves desk scale.
SIZED = ("--trials", "--samples", "--probes")
WIDE_DELTAS = ["0.3", "1", "1.5707963267948966", "1e-9", "1e-300", "5e-324", "2"]

# command -> (positional prefixes, switches, {flag: accepted values})
GRAMMAR = {
    "risk": ([[], ["--matched"], ["--mismatched"], ["--matched", "--mismatched"]], [], {
        "--demo": ["scalar"], "--d": ["1", "2", "3", "5", "7"], "--r": ["1", "2", "3"],
        "--k": ["2", "3", "5"], "--r-star": ["1", "2", "3"], "--k-star": ["2", "4"],
        "--mc-samples": ["2", "50", "200"]}),
    "landscape": ([["classify"], ["x"]], ["--scalar"], {
        "--w-star": ["6,-4", "1", "1,1,1", "-2,3,0", "nan,1", "1,,2", "1e400,1",
                     ",".join(["1"] * 17)]}),
    "schur-sweep": ([[]], ["--nearest", "--asymptotic", "--timing"], {
        "--d": ["1", "2", "3", "7"], "--r-star": ["1", "2", "3"],
        "--r": ["1", "2", "3,5", "4,7", "7,2"], "--trials": ["1", "2"]}),
    "asymptotic": ([[]], [], {
        "--d": ["1", "3", "7"], "--r": ["1", "2", "5", "1000000000"],
        "--r-star": ["1", "4", "1000000000"]}),
    "train": ([["matched"], ["mismatched"], ["x"]], [], {
        "--d": ["1", "2", "3"], "--k": ["2", "3", "2,4", "6"], "--k-star": ["1", "2", "3"],
        "--trials": ["1", "2"], "--inits": ["1", "2"], "--epochs": ["1", "2"],
        "--samples": ["50", "100", "200"]}),
    "minimax": ([["bound"], ["net"], ["x"]], [], {
        "--d": ["1", "2", "3", "7"], "--s": ["1", "2", "3", "8"], "--delta": WIDE_DELTAS,
        "--k": ["1", "3"], "--M": ["1", "0.5", "1e-300"], "--probes": ["10", "200"]}),
}


def draw_argv(rng):
    command = rng.choice(sorted(GRAMMAR))
    prefixes, switches, flags = GRAMMAR[command]
    argv = [command] + rng.choice(prefixes)
    argv += [switch for switch in switches if rng.random() < 0.5]
    bad_rate = rng.choice([0.0, 0.1, 0.3])
    values = {flag: rng.choice(BAD) if rng.random() < bad_rate else rng.choice(accepted)
              for flag, accepted in sorted({**flags, "--seed": ["0", "7"]}.items())
              if flag in SIZED or rng.random() < 0.85}
    values["--threads"] = rng.choice(["-1", "0", "1", "2"])
    if argv[1:2] == ["net"] and values.get("--d", "1") in ("2", "3", "7") \
            and values.get("--delta") in WIDE_DELTAS[3:]:
        values["--delta"] = "0.3"  # a net for small angles stays small only at d = 1
    return argv + [item for pair in values.items() for item in pair]


def test_every_argv_exits_cleanly(capsys):
    rng = random.Random(24)
    failures, codes = [], set()
    for _ in range(CASES):
        argv = draw_argv(rng)
        try:
            code = cli.main(argv)
        except Exception as exc:  # an exception escaping main is a failure
            failures.append((argv, repr(exc)))
            continue
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 2, 3) or "Traceback" in err:
            failures.append((argv, code, err[-200:]))
    assert failures == []
    assert {0, 2} <= codes  # the grammar reaches both successful and rejected runs
