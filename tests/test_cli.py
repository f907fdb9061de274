import csv
import os

import pytest

from pathfx.cli import main
from pathfx.core import write_csv
from pathfx.simulation import draw_dataset


@pytest.fixture
def study_csv(tmp_path):
    path = tmp_path / "draw.csv"
    write_csv(draw_dataset(1500, 77), path)
    return str(path)


def _read_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestSimulateCommand:
    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main([
            "simulate", "--regime", "int", "--n", "300", "--reps", "20",
            "--seed", "7", "--out", out,
        ])
        assert code == 0
        lines = _read_lines(capsys)
        assert lines[0].startswith("regime=int")
        assert len([l for l in lines[2:] if l.strip()]) == 4  # one row per estimator
        assert os.path.exists(os.path.join(out, "replicates_int.csv"))
        assert os.path.exists(os.path.join(out, "summary_int.csv"))

    def test_same_args_identical_files(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["simulate", "--regime", "b", "--n", "250", "--reps", "10", "--seed", "3"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("replicates_b.csv", "summary_b.csv"):
            with open(os.path.join(out1, name)) as f1, open(os.path.join(out2, name)) as f2:
                assert f1.read() == f2.read()

    def test_bad_regime_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--regime", "z", "--reps", "5"])
        assert err.value.code == 2


class TestEstimateCommand:
    def test_point_estimates_on_study_draw(self, study_csv, capsys):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--estimator", "mle,mr",
        ])
        assert code == 0
        lines = _read_lines(capsys)
        assert lines[0].split()[0] == "estimator"
        values = {row.split()[0]: float(row.split()[7]) for row in lines[1:]}
        # both should land near the true contrast on a draw of this size
        assert values["mle"] == pytest.approx(-0.918, abs=0.4)
        assert values["mr"] == pytest.approx(-0.918, abs=0.4)

    def test_csv_round_trips_printed_numbers(self, study_csv, tmp_path, capsys):
        out = str(tmp_path / "res")
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--estimator", "mr", "--bootstrap", "wild_exp1", "--reps", "20",
            "--seed", "5", "--out", out,
        ])
        assert code == 0
        lines = _read_lines(capsys)
        printed = lines[1].split()
        with open(os.path.join(out, "estimates.csv")) as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["beta_hat"] == printed[5]
        assert row["effect"] == printed[7]
        assert row["ci_lower"] == printed[8]

    def test_identity_pair_without_flag_exits_2(self, study_csv):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "1",
        ])
        assert code == 2

    def test_identity_check_runs(self, study_csv, capsys):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "1",
            "--identity-check", "--estimator", "a",
        ])
        assert code == 0

    def test_logrr_with_negative_mean_exits_3(self, tmp_path):
        ds = draw_dataset(800, 3)
        from pathfx.core import dataset_from_arrays

        shifted = dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, ds.y - 10.0)
        path = tmp_path / "neg.csv"
        write_csv(shifted, path)
        code = main([
            "estimate", "--data", str(path), "--comparison", "1", "--baseline", "0",
            "--scale", "logrr",
        ])
        assert code == 3

    def test_absent_level_exits_1(self, study_csv):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "4", "--baseline", "0",
        ])
        assert code == 1

    def test_unknown_estimator_exits_2(self, study_csv):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--estimator", "zeta",
        ])
        assert code == 2

    def test_print_models(self, study_csv, capsys):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--print-models",
        ])
        assert code == 0
        lines = _read_lines(capsys)
        roles = {line.split(" = ")[0] for line in lines}
        assert {"outcome", "mediator_mean", "prop_base", "prop_c1", "prop_m",
                "marginal_outcome", "c1_mean_1", "c1_mean_2", "c1_mean_3"} <= roles

    def test_config_file_overrides_models(self, study_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[models]\n"
            "outcome = gaussian: 1, c0_1, e, c1_1, c1_2, c1_3, m, e*m\n"
            "mediator_mean = gaussian: 1, c0_1, e, c1_1, c1_2, c1_3, e*c1_1\n"
            "[estimate]\n"
            "scale = diff\n"
            "stabilize = none\n"
        )
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--config", str(cfg), "--print-models",
        ])
        assert code == 0
        lines = _read_lines(capsys)
        outcome = next(l for l in lines if l.startswith("outcome ="))
        assert "e*m" in outcome

    def test_bad_config_exits_2(self, study_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[models]\nwhatever = gaussian: 1\n")
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--config", str(cfg),
        ])
        assert code == 2

    def test_missing_file_exits_1(self):
        code = main(["estimate", "--data", "/nonexistent.csv", "--comparison", "1", "--baseline", "0"])
        assert code == 1

    def test_one_bootstrap_matches_single_estimator_runs(self, study_csv, tmp_path, capsys):
        kinds = ["mle", "a", "b", "mr", "mr_seq"]
        base = ["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                "--bootstrap", "wild_exp1", "--reps", "12", "--seed", "4"]

        def rows(kind_list, out):
            assert main(base + ["--estimator", kind_list, "--out", out]) == 0
            with open(os.path.join(out, "estimates.csv"), newline="") as fh:
                return fh.read().splitlines()

        together = rows(",".join(kinds), str(tmp_path / "all"))
        singles = [rows(k, str(tmp_path / k)) for k in kinds]
        assert together[0] == singles[0][0]
        assert together[1:] == [single[1] for single in singles]
        capsys.readouterr()

    def test_failed_replicates_reported_on_stderr(self, study_csv, tmp_path, monkeypatch, capsys):
        import pathfx.cli as cli_mod

        argv = ["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                "--estimator", "mle,mr", "--bootstrap", "wild_exp1", "--reps", "30",
                "--seed", "6", "--threads", "1"]
        assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""

        real_bootstrap = cli_mod.bootstrap

        def failing_bootstrap(ds, statistic, spec, **kwargs):
            replicate = iter(range(spec.replicates))

            def stat(data, weights):
                r = next(replicate)  # one thread: replicates run in order
                if r in (4, 17):
                    raise ValueError(f"synthetic failure {r}")
                return statistic(data, weights)

            return real_bootstrap(ds, stat, spec, **kwargs)

        monkeypatch.setattr(cli_mod, "bootstrap", failing_bootstrap)
        out = str(tmp_path / "failing")
        assert main(argv + ["--out", out]) == 0
        failing = capsys.readouterr()
        assert failing.err == "bootstrap: 2 of 30 replicates failed; first: replicate 4: synthetic failure 4\n"
        # stdout keeps its layout: a header and one row per estimator
        assert [line.split()[0] for line in failing.out.splitlines()] == ["estimator", "mle", "mr"]
        assert [line.split()[0] for line in clean.out.splitlines()] == ["estimator", "mle", "mr"]
        with open(os.path.join(out, "estimates.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["ci_lower"] for r in rows] == [line.split()[8] for line in failing.out.splitlines()[1:]]


class TestOracleCommand:
    def test_prints_all_three_lines(self, capsys):
        code = main(["oracle", "--draws", "200000", "--seed", "1"])
        assert code == 0
        lines = _read_lines(capsys)
        assert lines[0].startswith("beta0") and lines[1].startswith("delta0") and lines[2].startswith("effect")
        beta = float(lines[0].split()[1])
        assert beta == pytest.approx(2.678, abs=0.05)

    def test_too_few_draws_exits_2(self):
        assert main(["oracle", "--draws", "10"]) == 2

    def test_deterministic(self, capsys):
        assert main(["oracle", "--draws", "150000", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "--draws", "150000", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestThreadsEnv:
    def test_env_fallback(self, study_csv, monkeypatch, capsys):
        monkeypatch.setenv("PATHFX_THREADS", "2")
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--estimator", "mle", "--bootstrap", "nonparametric", "--reps", "8", "--seed", "1",
        ])
        assert code == 0

    def test_bad_env_exits_2(self, study_csv, monkeypatch):
        monkeypatch.setenv("PATHFX_THREADS", "lots")
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--bootstrap", "nonparametric", "--reps", "4",
        ])
        assert code == 2
