"""Command-line interface: outputs, determinism, exit codes."""

import numpy as np
import pytest

from porcupine import cli


def run_cli(args):
    return cli.main(args)


def read_body(path):
    """CSV rows after the comment header."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines


class TestRiskCommand:
    def test_scalar_demo_prints_breakdowns(self, tmp_path, capsys):
        out = tmp_path / "risk.csv"
        assert run_cli(["risk", "--matched", "--demo", "scalar", "--out", str(out)]) == 0
        body = read_body(out)
        assert body[0].startswith("instance,linear_term,kernel_term,total")
        rows = {line.split(",")[0]: line.split(",") for line in body[1:]}
        # flat valley against (6, 4): total exactly zero
        assert float(rows["flat-valley"][3]) == 0.0
        # all-plus point against (6, -4): kernel term 16
        assert float(rows["mixed-target"][2]) == pytest.approx(16.0)

    def test_demo_with_monte_carlo_column(self, tmp_path):
        out = tmp_path / "risk.csv"
        code = run_cli(
            ["risk", "--matched", "--demo", "scalar", "--mc-samples", "200000",
             "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        header = body[0].split(",")
        assert "mc_estimate" in header and "mc_stderr" in header
        for line in body[1:]:
            parts = dict(zip(header, line.split(",")))
            assert abs(float(parts["mc_estimate"]) - float(parts["total"])) <= max(
                4.0 * float(parts["mc_stderr"]), 1e-9
            )

    def test_zero_mc_samples_is_validation_error(self):
        assert run_cli(["risk", "--matched", "--demo", "scalar", "--mc-samples", "0"]) == 2

    def test_random_matched_instance(self, tmp_path):
        out = tmp_path / "risk.csv"
        code = run_cli(
            ["risk", "--matched", "--d", "4", "--r", "3", "--k", "5",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        parts = body[1].split(",")
        assert float(parts[3]) >= 0.0

    def test_matched_is_the_default_with_one_spec(self, tmp_path):
        # --matched and --mismatched share one dest, so the spec line echoes
        # the mode the run reads, given or not.
        paths = [tmp_path / "given.csv", tmp_path / "default.csv"]
        for path, mode in zip(paths, (["--matched"], [])):
            argv = ["risk"] + mode + ["--d", "3", "--r", "2", "--k", "3", "--out", str(path)]
            assert run_cli(argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert '"mismatched": false' in paths[0].read_text()

    def test_missing_dimensions_rejected(self):
        assert run_cli(["risk", "--matched"]) == 2

    @pytest.mark.parametrize("mode", [["--matched"], ["--mismatched", "--r-star", "2", "--k-star", "3"]])
    def test_monte_carlo_threads_do_not_change_output(self, tmp_path, mode):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        # 150000 antithetic pairs: three Monte Carlo chunks
        base = ["risk"] + mode + ["--d", "5", "--r", "3", "--k", "6", "--seed", "4",
                                  "--mc-samples", "300000"]
        assert run_cli(base + ["--threads", "1", "--out", str(out_a)]) == 0
        assert run_cli(base + ["--threads", "2", "--out", str(out_b)]) == 0
        assert "mc_estimate" in read_body(out_a)[0]
        assert out_a.read_bytes().split(b"\n", 3)[3] == out_b.read_bytes().split(b"\n", 3)[3]


class TestLandscapeCommand:
    def test_scalar_classification_table(self, tmp_path):
        out = tmp_path / "landscape.csv"
        code = run_cli(
            ["landscape", "classify", "--scalar", "--w-star", "6,-4", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        table = dict(line.split(",") for line in body[1:])
        assert table["++"] == "OnlyBadLocal"
        assert table["--"] == "OnlyBadLocal"
        assert table["+-"] == "OnlyGlobal"
        assert table["-+"] == "OnlyGlobal"

    def test_constant_target_table(self, tmp_path):
        out = tmp_path / "landscape.csv"
        run_cli(["landscape", "classify", "--scalar", "--w-star", "6,4", "--out", str(out)])
        table = dict(line.split(",") for line in read_body(out)[1:])
        assert table["++"] == "OnlyGlobal"
        assert table["+-"] == "NoOptima"


class TestSchurSweepCommand:
    def test_trend_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["schur-sweep", "--d", "8", "--r-star", "4", "--r", "6,12,24",
                "--trials", "5", "--seed", "1"]
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        body = read_body(out_a)
        header = body[0].split(",")
        norms = {}
        for line in body[1:]:
            row = dict(zip(header, line.split(",")))
            norms.setdefault(int(row["r"]), []).append(float(row["spectral_norm"]))
        means = [np.mean(norms[r]) for r in sorted(norms)]
        assert means[0] > means[1] > means[2]

    def test_asymptotic_reference_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["schur-sweep", "--d", "64", "--r-star", "64", "--r", "64",
             "--trials", "2", "--asymptotic", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        header = body[0].split(",")
        assert header[-1] == "asymptotic_ref"
        value = float(body[1].split(",")[-1])
        assert value == pytest.approx(2.0 * (1.0 - 2.0 / np.pi), abs=1e-12)

    def test_threads_do_not_change_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["schur-sweep", "--d", "6", "--r-star", "3", "--r", "4,8",
                "--trials", "4", "--seed", "3"]
        run_cli(base + ["--out", str(out_a)])
        run_cli(base + ["--threads", "4", "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_empty_grid_rejected(self):
        assert run_cli(["schur-sweep", "--d", "4", "--r-star", "2", "--r", ""]) == 2


class TestAsymptoticCommand:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "asym.csv"
        code = run_cli(
            ["asymptotic", "--d", "128", "--r", "128", "--r-star", "128",
             "--out", str(out)]
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in read_body(out)[1:]
        )
        assert float(rows["limit"]) == pytest.approx(0.7267596, abs=1e-6)


class TestTrainCommand:
    def test_matched_csv_schema(self, tmp_path):
        out = tmp_path / "train.csv"
        code = run_cli(
            ["train", "matched", "--d", "2", "--k", "4", "--trials", "2",
             "--epochs", "5", "--samples", "400", "--out", str(out)]
        )
        assert code == 0
        body = read_body(out)
        assert body[0] == (
            "experiment,d,k,k_star,trial,seed,epochs_run,final_train_loss,"
            "normalized_test_mse,outcome,signature_violations"
        )
        assert len(body) == 3

    def test_mismatched_requires_k_star(self):
        assert run_cli(["train", "mismatched", "--d", "4", "--k", "4"]) == 2

    def test_mismatched_small_run(self, tmp_path):
        out = tmp_path / "train.csv"
        code = run_cli(
            ["train", "mismatched", "--d", "3", "--k", "4", "--k-star", "4",
             "--trials", "1", "--inits", "2", "--epochs", "4",
             "--samples", "400", "--out", str(out)]
        )
        assert code == 0
        assert len(read_body(out)) == 3


class TestMinimaxCommand:
    def test_bound_values(self, tmp_path):
        out = tmp_path / "minimax.csv"
        code = run_cli(
            ["minimax", "bound", "--d", "4", "--s", "2", "--delta", "0.3",
             "--k", "8", "--M", "1", "--out", str(out)]
        )
        assert code == 0
        rows = dict(line.split(",") for line in read_body(out)[1:])
        assert float(rows["minimax_risk_bound"]) == pytest.approx(
            8.0 * np.sqrt(2.0 * 4.0 * (1.0 - np.cos(0.3))), abs=1e-12
        )
        assert float(rows["sparse_net_size"]) == pytest.approx(
            0.5 * 6 * (1 + np.sqrt(2.0) / np.sqrt(1 - np.cos(0.3))) ** 2, rel=1e-12
        )

    def test_net_construction_reports_coverage(self, tmp_path):
        out = tmp_path / "net.csv"
        code = run_cli(
            ["minimax", "net", "--d", "2", "--delta", "0.4", "--probes", "20000",
             "--out", str(out)]
        )
        assert code == 0
        rows = dict(line.split(",") for line in read_body(out)[1:])
        assert float(rows["coverage_gap"]) <= 0.4
        assert int(rows["net_size"]) <= float(rows["size_bound"])


class TestExitCodes:
    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch):
        from porcupine.errors import SingularKernel

        def boom(*args, **kwargs):
            raise SingularKernel("synthetic numeric failure")

        monkeypatch.setattr(cli, "_schur_trial", boom)
        code = run_cli(
            ["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3",
             "--trials", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3

    def test_unknown_argument_exits_two(self):
        assert run_cli(["risk", "--definitely-not-a-flag"]) == 2

    def test_out_of_domain_delta_exits_two(self, capsys):
        code = run_cli(["minimax", "bound", "--d", "4", "--s", "2", "--delta", "0",
                        "--k", "8", "--M", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parameter_out_of_range_exits_two(self):
        # net_size_bound raises ParameterOutOfRange for n < 1
        assert run_cli(["minimax", "bound", "--d", "0", "--delta", "0.3"]) == 2

    def test_batch_larger_than_samples_exits_two(self, capsys):
        code = run_cli(["train", "matched", "--d", "2", "--k", "4", "--trials", "1",
                        "--epochs", "2", "--samples", "50"])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_exit_two(self, threads, tmp_path):
        code = run_cli(["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3",
                        "--trials", "1", "--threads", threads,
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "matched", "--d", "2", "--k", "4", "--trials", "1", "--epochs", "1"],
        ["landscape", "classify", "--scalar", "--w-star", "1,-1"],
        ["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3", "--trials", "1"],
        ["asymptotic", "--d", "4", "--r", "4", "--r-star", "4"],
        ["minimax", "bound", "--d", "4", "--delta", "0.3"],
    ])
    def test_mc_samples_is_a_risk_flag_only(self, argv, capsys):
        assert run_cli(argv + ["--mc-samples", "5"]) == 2
        captured = capsys.readouterr()
        assert "--mc-samples" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_non_positive_epochs_exit_two(self, epochs, tmp_path):
        code = run_cli(["train", "matched", "--d", "2", "--k", "4", "--trials", "1",
                        "--epochs", epochs, "--samples", "400",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2


    @pytest.mark.parametrize("mode", [["matched"], ["mismatched", "--k-star", "3"]])
    def test_zero_dimension_train_exits_two(self, mode, capsys):
        code = run_cli(["train", *mode, "--d", "0", "--k", "4", "--trials", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_train_config_exits_two(self, monkeypatch, capsys):
        # No flag sets a float field, so make the preset carry a NaN.
        from dataclasses import replace

        preset = cli.desk_matched_config
        monkeypatch.setattr(
            cli, "desk_matched_config",
            lambda seed: replace(preset(seed), learning_rate=float("nan")),
        )
        code = run_cli(["train", "matched", "--d", "2", "--k", "4", "--trials", "1"])
        assert code == 2
        assert "finite" in capsys.readouterr().err


class TestHeaderEcho:
    def test_header_lines(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3",
                 "--trials", "1", "--seed", "5", "--out", str(out)])
        text = out.read_text().splitlines()
        assert text[0].startswith("# porcupine ")
        assert text[1].startswith("# spec: ")
        assert '"seed": 5' in text[1]
        assert text[2] == "# master_seed: 5"


class TestAllOrNothingOutput:
    @pytest.mark.parametrize("argv", [
        ["train", "matched", "--d", "5", "--k", "-5"],
        ["train", "mismatched", "--d", "4", "--k", "-2", "--k-star", "3"],
        ["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3,0"],
        ["train", "mismatched", "--d", "2", "--k", "4", "--k-star", "0"],
        ["train", "mismatched", "--d", "2", "--k", "8", "--k-star", "-2"],
    ])
    def test_non_positive_size_exits_two(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("k_star", ["0", "4"])
    def test_zero_target_sizes_exit_two(self, k_star, capsys):
        code = run_cli(["risk", "--mismatched", "--d", "5", "--r", "3", "--k", "6",
                        "--r-star", "0", "--k-star", k_star])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("w_star", ["1,nan", "inf,2", "3,-inf"])
    def test_non_finite_target_exits_two(self, w_star, capsys):
        assert run_cli(["landscape", "classify", "--scalar", "--w-star", w_star]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--out", "--save-net"])
    def test_unwritable_path_exits_two(self, tmp_path, flag, capsys):
        missing = tmp_path / "missing" / "x.csv"
        code = run_cli(["minimax", "net", "--d", "2", "--delta", "0.4", "--probes", "1000",
                        flag, str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not missing.parent.exists()

    def test_bad_grid_trains_nothing_and_keeps_existing_file(self, tmp_path, monkeypatch):
        calls = []
        experiment = cli.experiment_matched_degree_one
        monkeypatch.setattr(cli, "experiment_matched_degree_one",
                            lambda *a, **kw: calls.append(a) or experiment(*a, **kw))
        out = tmp_path / "p.csv"
        out.write_text("previous run\n")
        code = run_cli(["train", "matched", "--d", "2", "--k", "4,3", "--trials", "1",
                        "--epochs", "2", "--samples", "400", "--out", str(out)])
        assert code == 2
        assert calls == []
        assert out.read_text() == "previous run\n"

    def test_numeric_failure_on_second_trial_writes_no_file(self, tmp_path, monkeypatch):
        from porcupine.errors import SingularKernel

        trial = cli._schur_trial
        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise SingularKernel("synthetic failure on the second trial")
            return trial(*args)

        monkeypatch.setattr(cli, "_schur_trial", fail_second)
        out = tmp_path / "x.csv"
        code = run_cli(["schur-sweep", "--d", "4", "--r-star", "2", "--r", "3",
                        "--trials", "3", "--out", str(out)])
        assert code == 3
        assert len(calls) == 2
        assert not out.exists()


class TestArgumentChecks:
    """Bad values exit 2 before any work and write no CSV."""

    @pytest.mark.parametrize("probes", ["0", "-3"])
    def test_non_positive_probes_exit_two_before_building_a_net(
            self, probes, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "greedy_angular_net", lambda *a, **kw: calls.append(a))
        out = tmp_path / "n.csv"
        code = run_cli(["minimax", "net", "--d", "2", "--delta", "0.4", "--probes", probes,
                        "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "matched", "--d", "2", "--k", "4", "--trials", "1", "--epochs", "1",
         "--samples", "-5"],
        ["train", "matched", "--d", "2", "--k", "4", "--trials", "1", "--epochs", "1",
         "--samples", "0"],
        ["train", "mismatched", "--d", "3", "--k", "4", "--k-star", "4", "--trials", "1",
         "--epochs", "1", "--samples", "0"],
        ["train", "mismatched", "--d", "3", "--k", "4", "--k-star", "4", "--trials", "1",
         "--inits", "0", "--epochs", "1", "--samples", "400"],
        ["train", "mismatched", "--d", "3", "--k", "4", "--k-star", "4", "--trials", "1",
         "--inits", "-2", "--epochs", "1", "--samples", "400"],
    ])
    def test_bad_train_values_exit_two_and_train_nothing(
            self, argv, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("experiment_matched_degree_one", "experiment_mismatched_random"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a))
        out = tmp_path / "t.csv"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_risk_scale_exits_two(self, scale, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run_cli(["minimax", "bound", "--d", "3", "--delta", "0.4", "--k", "2",
                        "--M=" + scale, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["risk", "--matched", "--d", "1", "--r", "2", "--k", "8"],
        ["risk", "--mismatched", "--d", "1", "--r", "1", "--k", "2", "--r-star", "2",
         "--k-star", "2"],
        ["risk", "--mismatched", "--d", "1", "--r", "3", "--k", "3", "--r-star", "1",
         "--k-star", "1"],
        ["schur-sweep", "--d", "1", "--r-star", "3", "--r", "2", "--trials", "1"],
        ["schur-sweep", "--d", "1", "--r-star", "1", "--r", "1,2", "--trials", "1"],
        ["schur-sweep", "--d", "1", "--r-star", "2", "--r", "1", "--trials", "1"],
    ])
    def test_many_lines_in_one_dimension_exit_two_without_drawing(
            self, argv, monkeypatch, capsys):
        calls = []
        for name in ("random_line_set", "_schur_trial"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a))
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["risk", "--matched", "--d", "1", "--r", "1", "--k", "3"],
        ["risk", "--mismatched", "--d", "1", "--r", "1", "--k", "2", "--r-star", "1",
         "--k-star", "2"],
        ["schur-sweep", "--d", "1", "--r-star", "1", "--r", "1", "--trials", "2"],
    ])
    def test_one_line_in_one_dimension_still_runs(self, argv, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert len(read_body(out)) >= 2

    @pytest.mark.parametrize("argv, flag", [
        (["minimax", "net", "--d", "2", "--delta", "0.4", "--k", "3"], "--k"),
        (["minimax", "net", "--d", "2", "--delta", "0.4", "--s", "1"], "--s"),
        (["minimax", "net", "--d", "2", "--delta", "0.4", "--M", "2"], "--M"),
        (["minimax", "bound", "--d", "4", "--delta", "0.3", "--probes", "10"], "--probes"),
        (["minimax", "bound", "--d", "4", "--delta", "0.3", "--M", "2"], "--M"),
        (["minimax", "bound", "--d", "4", "--delta", "0.3", "--save-net", "v.csv"],
         "--save-net"),
        (["train", "matched", "--d", "2", "--k", "4", "--trials", "1", "--epochs", "1",
          "--inits", "3"], "--inits"),
        (["train", "matched", "--d", "2", "--k", "4", "--trials", "1", "--epochs", "1",
          "--k-star", "4"], "--k-star"),
    ])
    def test_flag_the_action_ignores_exits_two_without_work(
            self, argv, flag, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("greedy_angular_net", "net_size_bound", "experiment_matched_degree_one"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a))
        out = tmp_path / "x.csv"
        assert run_cli(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert calls == []
        assert not out.exists()
