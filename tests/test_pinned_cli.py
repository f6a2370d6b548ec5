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
row).  The current code must reproduce them.  A change that alters these numbers on purpose regenerates the files.

Integers and labels must match exactly.  Floats must match within
``FLOAT_RTOL`` of the stored value: the bodies are bit-identical on one
machine, and the bound leaves room only for BLAS builds that round a
product differently in the last bits.
"""

import json
import pathlib

import pytest

from porcupine import cli

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
