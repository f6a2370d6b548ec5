"""Pinned CLI specs: each reruns in-process and must reproduce its stored body.

The bodies under ``pinned_cli/`` (the column line and the rows, without the
``#`` header) were written by the CLI: the two ``risk`` bodies before the
Monte Carlo oracle was walked in blocks, the two ``train`` bodies before the
unconstrained d-space trainer and its ``projection`` switch were removed,
the next six bodies and the ``minimax net --save-net`` vector file
before the bad-region stationary point dropped its projector solve and
sign parsing rejected non-finite values, and the two d=64 sweeps, whose
Grams span more than one evaluation block, before ``psi``,
``coverage_gap`` and line orientation were evaluated in blocks.  The
``BadLocal`` train body and the matched ``risk`` body were written before
the closed-form risks and the stationarity test were read from one
line-coordinate quadratic (the stationarity test decides each ``BadLocal``
row).  Two rows of the d=2 sweep (r=40 trial 0 and r=60 trial 1, whose
model-line blocks have condition numbers near 6e8) were rewritten when the
pseudo-inverse's solve moved from an LU solve to one inverse Cholesky
factor; they moved at the rounding floor of ``psi_star``.  The same two
rows were rewritten again when that factor's last 128-row blocks stopped
going to LAPACK's Cholesky and LU inverse and were halved down to single
entries instead; each moved toward a 60-digit Schur complement of its
blocks (``test_factor_route_rows_match_a_60_digit_schur_complement``).  The
current code must reproduce them.  A change that alters these numbers on purpose regenerates the files.

Integers and labels must match exactly.  Floats must match within
``FLOAT_RTOL`` of the stored value: the bodies are bit-identical on one
machine, and the bound leaves room only for BLAS builds that round a
product differently in the last bits.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import porcupine as p
from porcupine import cli
from porcupine._checks import seed_sequence
from porcupine.kernel import _guarded_factor

PINNED = pathlib.Path(__file__).parent / "pinned_cli"
FLOAT_RTOL = 1e-12

SPECS = {
    "risk_matched_demo_scalar.csv": [
        "risk", "--matched", "--demo", "scalar", "--mc-samples", "200000"],
    "risk_mismatched_d6.csv": [
        "risk", "--mismatched", "--d", "6", "--r", "5", "--k", "8", "--r-star", "3",
        "--k-star", "5", "--seed", "7", "--mc-samples", "300000"],
    "train_matched_d5.csv": [
        "train", "matched", "--d", "5", "--k", "10,15", "--trials", "3", "--epochs", "20"],
    # three BadLocal rows, each decided by stationarity_check
    "train_matched_d5_k10_badlocal.csv": [
        "train", "matched", "--d", "5", "--k", "10", "--trials", "10", "--epochs", "30"],
    "risk_matched_d5.csv": [
        "risk", "--matched", "--d", "5", "--r", "4", "--k", "7", "--seed", "3"],
    "train_mismatched_d15.csv": [
        "train", "mismatched", "--d", "15", "--k-star", "20", "--k", "10,20", "--trials", "2",
        "--inits", "2", "--epochs", "5"],
    "landscape_classify_scalar.csv": [
        "landscape", "classify", "--scalar", "--w-star", "6,-4"],
    "schur_sweep_d16_nearest_asymptotic.csv": [
        "schur-sweep", "--d", "16", "--r-star", "8", "--r", "8,16", "--trials", "3",
        "--nearest", "--asymptotic"],
    "schur_sweep_d2_eig.csv": [  # many lines in few dimensions: the eigendecomposition route
        "schur-sweep", "--d", "2", "--r-star", "3", "--r", "40,60", "--trials", "2"],
    # r=128 gives a 16 384-entry Gram, so psi and the blocked passes see more than one block
    "schur_sweep_d64_asymptotic.csv": [
        "schur-sweep", "--d", "64", "--r-star", "64", "--r", "64,128", "--trials", "2",
        "--asymptotic"],
    "schur_sweep_d64_nearest_asymptotic.csv": [
        "schur-sweep", "--d", "64", "--r-star", "64", "--r", "64,128", "--trials", "2",
        "--nearest", "--asymptotic"],
    "asymptotic_d256.csv": ["asymptotic", "--d", "256", "--r", "256", "--r-star", "256"],
    "minimax_net_d3.csv": ["minimax", "net", "--d", "3", "--delta", "0.3"],
    "minimax_bound_d4.csv": [
        "minimax", "bound", "--d", "4", "--s", "2", "--delta", "0.3", "--k", "8", "--M", "1"],
}
SAVED_NET = {"minimax_net_d3.csv": "minimax_net_d3_vectors.csv"}  # the --save-net file


def parse_field(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def assert_field_matches(got, want, where):
    got, want = parse_field(got), parse_field(want)
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert abs(got - want) <= FLOAT_RTOL * abs(want), where
    else:
        assert type(got) is type(want) and got == want, where


def assert_rows_match(got, want, name):
    """The column line exactly, then every row field by field."""
    assert len(got) == len(want)
    assert got[0] == want[0]  # column names, or the net file's "d,count" header
    columns = got[0].split(",")
    for row, (got_line, want_line) in enumerate(zip(got[1:], want[1:]), start=1):
        got_fields, want_fields = got_line.split(","), want_line.split(",")
        assert len(got_fields) == len(want_fields), "row %d" % row
        for column, pair in enumerate(zip(got_fields, want_fields)):
            label = columns[column] if column < len(columns) else column
            assert_field_matches(*pair, "%s row %d column %s" % (name, row, label))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_reproduces_pinned_body(tmp_path, name, threads):
    out = tmp_path / name
    argv = SPECS[name] + ["--threads", str(threads), "--out", str(out)]
    saved = SAVED_NET.get(name)
    if saved:
        argv += ["--save-net", str(tmp_path / saved)]
    assert cli.main(argv) == 0
    got = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert_rows_match(got, (PINNED / name).read_text().splitlines(), name)
    if saved:
        assert_rows_match((tmp_path / saved).read_text().splitlines(),
                          (PINNED / saved).read_text().splitlines(), saved)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_line_is_the_body_identity(tmp_path, name):
    """The whole file, header included, is the same at --threads 1 and 2, and
    its spec line is the command and every set argument but --out,
    --save-net and --threads, with the defaults the run reads resolved:
    train's per-mode --samples and minimax net's --probes."""
    argv = SPECS[name] + (["--save-net", str(tmp_path / SAVED_NET[name])]
                          if name in SAVED_NET else [])
    texts = []
    for threads in (1, 2):
        out = tmp_path / ("threads%d.csv" % threads)
        assert cli.main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    parsed = vars(cli.build_parser().parse_args(argv))
    want = {k: v for k, v in parsed.items()
            if k not in ("func", "save_net", "threads") and v is not None}
    if argv[0] == "train":  # every pinned train spec sets --epochs, mismatched --inits
        want["samples"] = 2000 if argv[1] == "matched" else 4000
    if argv[:2] == ["minimax", "net"]:  # the pinned bound spec sets its --M
        want["probes"] = 100_000
    spec_line = texts[0].splitlines()[1]
    assert spec_line.startswith("# spec: ")
    assert json.loads(spec_line[len("# spec: "):]) == want


BLAS_STABLE = ["schur_sweep_d64_asymptotic.csv", "schur_sweep_d64_nearest_asymptotic.csv"]
RUN_SPECS = ("import json, sys\nfrom porcupine import cli\n"
             "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")


def bodies_at_blas_threads(tmp_path, names, blas_threads):
    """The bodies of the pinned ``names``, run in one subprocess whose
    OpenBLAS uses ``blas_threads`` threads."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    outs = [tmp_path / ("blas%d_%s" % (blas_threads, name)) for name in names]
    argvs = [SPECS[name] + ["--out", str(out)] for name, out in zip(names, outs)]
    done = subprocess.run([sys.executable, "-c", RUN_SPECS, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return ["".join(line for line in out.read_text().splitlines(keepends=True)
                    if not line.startswith("#")) for out in outs]


def test_d64_sweep_bodies_do_not_depend_on_blas_threads(tmp_path):
    # The factor route is built from products and square roots alone, and at
    # these sizes the eigen-solves are bit-stable too (aim 3).
    one = bodies_at_blas_threads(tmp_path, BLAS_STABLE, 1)
    two = bodies_at_blas_threads(tmp_path, BLAS_STABLE, 2)
    for name, body_one, body_two in zip(BLAS_STABLE, one, two):
        assert body_one == body_two, name


# Measured relative errors of these rows sit at 1e-4 and 1.6e-3 of kappa * eps,
# kappa the condition number of the model-line block; the eigen route's
# rows of the same spec at up to 1.5e-3.  A factor whose leaf inverted
# Cholesky blocks by LU reached 1.6e-2 on r=60 trial 1.
KAPPA_EPS_MULTIPLE = 1e-2


def schur_norm_at_60_digits(bundle) -> float:
    """Spectral norm of ``psi_star - psi_cross' psi_lines^-1 psi_cross``
    for the float64 blocks taken as exact, by Gaussian elimination of the
    block matrix ``[[psi_lines, psi_cross], [psi_cross', psi_star]]`` at 60
    digits: an oracle independent of ``kernel``'s factor."""
    mpmath = pytest.importorskip("mpmath")
    r, cross = bundle.num_lines, bundle.psi_cross
    with mpmath.workdps(60):
        rows = [[mpmath.mpf(x) for x in row] for row in
                np.block([[bundle.psi_lines, cross], [cross.T, bundle.psi_star]]).tolist()]
        for k in range(r):
            pivot_row = rows[k]
            for row in rows[k + 1:]:
                factor = row[k] / pivot_row[k]
                for j in range(k + 1, len(row)):
                    row[j] -= factor * pivot_row[j]
        schur = mpmath.matrix([row[r:] for row in rows[r:]])
        values = mpmath.eigsy((schur + schur.T) / 2, eigvals_only=True)
        return float(max(abs(value) for value in values))


@pytest.mark.parametrize("r, trial", [(40, 0), (60, 1)])
def test_factor_route_rows_match_a_60_digit_schur_complement(r, trial):
    name = "schur_sweep_d2_eig.csv"
    d, r_star, seed = 2, 3, 0  # the spec's --d, --r-star and default --seed
    row = next(line.split(",") for line in (PINNED / name).read_text().splitlines()[1:]
               if line.startswith("%d,%d,%d,%d," % (d, r_star, r, trial)))
    seq = seed_sequence((seed, r, trial), "--seed").spawn(2)
    bundle = p.kernel_bundle(p.random_line_set(d, r, seq[0]), p.random_line_set(d, r_star, seq[1]))
    assert _guarded_factor(bundle.psi_lines) is not None  # the factor route
    norm = p.schur_complement(bundle).spectral_norm
    assert_field_matches(repr(norm), row[5], "%s r=%d trial %d" % (name, r, trial))
    eigenvalues = np.linalg.eigvalsh(bundle.psi_lines)
    kappa = eigenvalues[-1] / eigenvalues[0]
    exact = schur_norm_at_60_digits(bundle)
    assert abs(norm - exact) <= KAPPA_EPS_MULTIPLE * kappa * np.finfo(float).eps * exact
