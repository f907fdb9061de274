import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

import pathfx.cli as cli_mod
import pathfx.estimators as estimators_mod
import pathfx.glm as glm_mod
import pathfx.inference as inference_mod
import pathfx.simulation as simulation_mod
from pathfx.cli import main
from pathfx.core import PairCoding, TreatmentPair, build_design_matrix, dataset_from_arrays, write_csv
from pathfx.estimators import DEFAULT_DELTA_FOR, Analysis, evaluate
from pathfx.glm import predict_mean
from pathfx.inference import derived_rng
from pathfx.nuisance import StabilizeFlags, WorkingModelSet, default_working_set, stabilize_probabilities
from pathfx.simulation import draw_dataset


@pytest.fixture
def study_csv(tmp_path):
    path = tmp_path / "draw.csv"
    write_csv(draw_dataset(1500, 77), path)
    return str(path)


def _read_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _no_study(*args, **kwargs):
    raise AssertionError("a replicate ran")


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--regime", "int", "--n", "200", "--reps", "5", "--seed", "-1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("alpha", ["2", "0", "1", "-0.1", "nan"])
    def test_alpha_outside_the_unit_interval_exits_2(self, alpha, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "int", "--n", "200", "--reps", "5", "--alpha", alpha,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --alpha must lie in (0, 1), got {float(alpha)}\n"

    @pytest.mark.parametrize("reps", ["1", "0", "-4"])
    def test_fewer_than_two_reps_exit_2_before_any_replicate(self, reps, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "int", "--n", "200", "--reps", reps, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --reps must be at least 2 for the t test, got {reps}\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_exits_2_before_any_replicate(self, n, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "int", "--n", n, "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"

    @pytest.mark.parametrize("estimators, message", [
        (",", "no estimator given; expected a comma list of mle, a, b, mr, mr_seq"),
        ("foo", "unknown estimator 'foo'; expected one of ('mle', 'a', 'b', 'mr', 'mr_seq')"),
        ("mle, foo", "unknown estimator 'foo'; expected one of ('mle', 'a', 'b', 'mr', 'mr_seq')"),
        ("mr,mle,mr", "estimator 'mr' is named twice"),
    ])
    def test_unusable_estimators_exit_2_before_any_replicate(self, estimators, message, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "int", "--n", "200", "--reps", "5", "--estimators", estimators,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_an_unusable_out_exits_2_before_any_replicate(self, below, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / below) if below else str(taken)
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "int", "--n", "200", "--reps", "5", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"

    @pytest.mark.parametrize("name", ["replicates_c.csv", "summary_c.csv"])
    def test_an_output_file_taken_by_a_directory_exits_2_before_any_replicate(self, name, tmp_path, monkeypatch,
                                                                             capsys):
        (tmp_path / name).mkdir()
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        code = main(["simulate", "--regime", "c", "--n", "200", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {tmp_path}: {name} is a directory\n"

    def test_paper_scale_is_not_an_option(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "run_monte_carlo", _no_study)
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--regime", "int", "--paper-scale", "--reps", "50", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_tolerated_failures_reported_on_stderr(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--regime", "int", "--n", "300", "--reps", "100", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        real_draw = simulation_mod.draw_dataset

        def draw(n, seed, *, rep):
            ds = real_draw(n, seed, rep=rep)
            # treatment set by the baseline covariate: the propensities are separated
            return cli_mod.replace(ds, e=(ds.c0[:, 0] > 1.0).astype(int)) if rep == 3 else ds

        monkeypatch.setattr(simulation_mod, "draw_dataset", draw)
        out = str(tmp_path / "failing")
        assert main(argv + ["--out", out]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"simulate: 1 of 100 replicates failed; first: replicate 3: prop_base: "
                            r"the responses are separated: [^\n]*\n", err), err
        with open(os.path.join(out, "replicates_int.csv")) as fh:
            empty = [(r["rep"], r["estimator"]) for r in csv.DictReader(fh) if r["value"] == ""]
        assert empty == [("3", kind) for kind in ("mle", "a", "b", "mr")]

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

    @pytest.mark.parametrize("ignore_extra", [False, True])
    def test_a_utf8_byte_order_mark_gives_the_plain_file_s_estimates(self, tmp_path, ignore_extra, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(draw_dataset(400, 1), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, marked):
            argv = ["estimate", "--data", str(path), "--comparison", "1", "--baseline", "0",
                    "--bootstrap", "wild_exp1", "--reps", "5", "--seed", "1", "--out", str(tmp_path / path.stem)]
            assert main(argv + ["--ignore-extra"] * ignore_extra) == 0
        capsys.readouterr()
        assert (tmp_path / "marked" / "estimates.csv").read_bytes() == (tmp_path / "plain" / "estimates.csv").read_bytes()

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

    def test_a_quasi_separated_propensity_exits_3(self, tmp_path, capsys):
        # c0_1 marks 15 exposed records and no unexposed one
        ds = draw_dataset(300, 5)
        c0 = np.zeros_like(ds.c0)
        c0[np.flatnonzero(ds.e == 1)[:15], 0] = 1.0
        path = tmp_path / "quasi.csv"
        write_csv(dataset_from_arrays(c0, ds.e, ds.c1, ds.m, ds.y), path)
        code = main(["estimate", "--data", str(path), "--comparison", "1", "--baseline", "0"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "estimation error: prop_base: the responses are separated: the coefficient of c0_1 diverges")

    def test_an_overflowing_covariate_exits_3_without_a_warning(self, tmp_path):
        # 1e200 squared overflows X'X: the fit must say so at once, not warn
        # and then report separation after 100 iterations
        ds = draw_dataset(400, 1)
        c0 = ds.c0.copy()
        c0[4, 0] = 1e200
        path = tmp_path / "huge.csv"
        write_csv(dataset_from_arrays(c0, ds.e, ds.c1, ds.m, ds.y), path)
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pathfx.cli", "estimate", "--data", str(path),
             "--comparison", "1", "--baseline", "0", "--estimator", "mle,a,b,mr,mr_seq",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 3, out.stderr
        assert re.fullmatch(r"estimation error: \w+: the system X'WX or its right-hand side is not finite .*\n",
                            out.stderr)

    def test_overlong_cell_exits_1_with_a_data_error(self, tmp_path, capsys):
        # the 0x1c byte sends the file to csv's row reader, which refuses a
        # cell over its 131,072-character limit
        path = tmp_path / "long.csv"
        path.write_text("c0_1,e,c1_1,m,y\n0.1,0,0.2," + "0.3" + " " * 140_000 + ",0.4\n0.1,1\x1c,0.2,0.3,0.4\n")
        code = main(["estimate", "--data", str(path), "--comparison", "1", "--baseline", "0"])
        assert code == 1
        assert capsys.readouterr().err == f"data error: {path}: row 0: field larger than field limit (131072)\n"

    def test_absent_level_exits_1(self, study_csv):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "4", "--baseline", "0",
        ])
        assert code == 1

    def test_negative_seed_exits_2(self, study_csv, capsys):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--bootstrap", "wild_exp1", "--reps", "5", "--seed", "-3",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -3\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--reps", "1", "--reps must be at least 2 for a bootstrap, got 1"),
        ("--reps", "0", "--reps must be at least 2 for a bootstrap, got 0"),
        ("--ci-level", "1.5", "--ci-level must lie in (0, 1), got 1.5"),
        ("--ci-level", "0", "--ci-level must lie in (0, 1), got 0.0"),
        ("--ci-level", "1", "--ci-level must lie in (0, 1), got 1.0"),
        ("--ci-level", "nan", "--ci-level must lie in (0, 1), got nan"),
    ])
    @pytest.mark.parametrize("kind", ["wild_exp1", "nonparametric"])
    def test_bad_bootstrap_option_exits_2_before_reading_data(
        self, kind, option, value, message, tmp_path, monkeypatch, capsys
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli_mod, "read_csv", no_read)
        code = main(["estimate", "--data", str(tmp_path / "absent.csv"), "--comparison", "1",
                     "--baseline", "0", "--bootstrap", kind, option, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bootstrap_options_unchecked_without_a_bootstrap(self, study_csv):
        code = main(["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                     "--reps", "1", "--ci-level", "2"])
        assert code == 0

    def test_unknown_estimator_exits_2(self, study_csv):
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--estimator", "zeta",
        ])
        assert code == 2

    @pytest.mark.parametrize("estimator, message", [
        (",", "no estimator given; expected a comma list of mle, a, b, mr, mr_seq"),
        ("mr,zeta", "unknown estimator 'zeta'; expected one of ('mle', 'a', 'b', 'mr', 'mr_seq')"),
        ("mr,mr", "estimator 'mr' is named twice"),
    ])
    def test_unusable_estimators_exit_2_before_reading_data(self, estimator, message, tmp_path, monkeypatch,
                                                            capsys):
        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli_mod, "read_csv", no_read)
        code = main(["estimate", "--data", str(tmp_path / "absent.csv"), "--comparison", "1", "--baseline", "0",
                     "--estimator", estimator])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_an_unusable_out_exits_2_before_reading_data(self, below, study_csv, tmp_path, monkeypatch, capsys):
        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")

        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / below) if below else str(taken)
        monkeypatch.setattr(cli_mod, "read_csv", no_read)
        code = main(["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"

    def test_an_output_file_taken_by_a_directory_exits_2_before_reading_data(self, study_csv, tmp_path,
                                                                            monkeypatch, capsys):
        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")

        (tmp_path / "estimates.csv").mkdir()
        monkeypatch.setattr(cli_mod, "read_csv", no_read)
        code = main(["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {tmp_path}: estimates.csv is a directory\n"

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

    def test_self_referencing_mean_model_exits_3(self, study_csv, tmp_path, capsys):
        cfg = tmp_path / "self.ini"
        cfg.write_text("[models]\nmediator_mean = gaussian: 1, c0_1, e, c1_1, c1_2, c1_3, m\n")
        code = main(["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                     "--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == "estimation error: mediator_mean: design may not reference the mediator\n"

    def test_bad_config_exits_2(self, study_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[models]\nwhatever = gaussian: 1\n")
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--config", str(cfg),
        ])
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("c1_mean_1 = gaussian: 1\n", "no section headers"),
        ("[models]\nc1_mean_1 = gaussian: 1\nc1_mean_1 = gaussian: 1, e\n", "already exists"),
        ("[models]\nc1_mean_1 = gaussian: 1\n[models]\nc1_mean_2 = gaussian: 1\n", "already exists"),
        ("[models]\nc1_mean_x = gaussian: 1\n", "unknown model role 'c1_mean_x'"),
        ("[models]\nc1_mean_0 = gaussian: 1\n", "unknown model role 'c1_mean_0'"),
        ("[models]\nc1_mean_01 = gaussian: 1\n", "unknown model role 'c1_mean_01'"),
        ("[models]\nc1_mean_4 = gaussian: 1\n", "1 <= j <= 3"),
        ("[model]\noutcome = gaussian: 1\n", "unknown section [model]"),
        ("[DEFAULT]\nscale = logrr\n", "unknown section [DEFAULT]"),
        ("[estimate]\nscal = logrr\n", "unknown [estimate] key 'scal'"),
    ], ids=["no-section", "duplicate-option", "duplicate-section", "c1-not-a-number", "c1-zero",
            "c1-not-canonical", "c1-beyond-d1", "misspelt-section", "default-section", "misspelt-estimate-key"])
    def test_malformed_config_exits_2(self, study_csv, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main([
            "estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
            "--config", str(cfg), "--print-models",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config") and message in err

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
        argv = ["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                "--estimator", "mle,mr", "--bootstrap", "wild_exp1", "--reps", "30",
                "--seed", "6"]
        assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""

        real_bootstrap = cli_mod.bootstrap

        def failing_bootstrap(ds, *, spec, point, batch):
            replicate_of = _replicate_of(spec, ds.n)

            def chunk(weights):
                # the batch fails replicates 4 and 17, with their reasons
                values, failures = batch(weights)
                values = np.array(values, dtype=float)
                for b, row in enumerate(weights):
                    if replicate_of(row) in (4, 17):
                        values[b] = np.nan
                        failures[b] = f"synthetic failure {replicate_of(row)}"
                return values, failures

            return real_bootstrap(ds, spec=spec, point=point, batch=chunk)

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


PROBIT_PROPENSITIES = """[models]
prop_base = probit: 1, c0_1
prop_c1 = probit: 1, c0_1, c1_1, c1_2, c1_3
prop_m = probit: 1, c0_1, c1_1, c1_2, c1_3, m
"""


def _replicate_of(spec, n):
    """Map a wild replicate's weight row to its index, by its first weight."""
    first = {float(derived_rng(spec.seed, r).exponential(1.0, n)[0]): r for r in range(spec.replicates)}
    return lambda weights: first[float(weights[0])]


def _bootstrap_run(argv, monkeypatch, *, cold=False):
    """Run ``estimate`` and return its bootstrap interval, the ``start`` each
    ``fit_nuisances`` call received, what each call returned and the weights
    it was given; ``cold`` drops the start so every replicate fits from zero."""
    intervals, starts, fitted, weights = [], [], [], []
    real_bootstrap, real_fit = cli_mod.bootstrap, estimators_mod.fit_nuisances

    def spy_bootstrap(ds, **kwargs):
        intervals.append(real_bootstrap(ds, **kwargs))
        return intervals[-1]

    def spy_fit(*args, start=None, **kwargs):
        starts.append(start)
        weights.append(kwargs.get("weights"))
        fitted.append(real_fit(*args, start=None if cold else start, **kwargs))
        return fitted[-1]

    with monkeypatch.context() as m:
        m.setattr(cli_mod, "bootstrap", spy_bootstrap)
        m.setattr(estimators_mod, "fit_nuisances", spy_fit)
        assert main(argv) == 0
    return intervals[0], starts, fitted, weights


def _alone_run(argv, monkeypatch):
    """Run ``estimate`` with every bootstrap replicate evaluated on its own,
    and return its interval: the reference for "evaluated alone".  A wild
    replicate is ``evaluate`` on the original rows under its weights, a
    nonparametric one ``evaluate`` on its resampled rows in the order drawn,
    each from the point fit; what a replicate raises is its failure.  The
    bootstrap then takes each chunk's values and failures from these."""
    intervals, points = [], []
    real_evaluate, real_bootstrap = cli_mod.evaluate, cli_mod.bootstrap

    def spy_evaluate(*args, **kwargs):
        points.append((args, real_evaluate(*args, **kwargs)))
        return points[-1][1]

    def alone_bootstrap(ds, *, spec, point, batch):
        [((_, analysis, coding), fitted)] = points
        values = np.full((spec.replicates,) + np.shape(point), np.nan)
        raised = {}
        for r in range(spec.replicates):
            rng = derived_rng(spec.seed, r)
            try:
                if spec.kind == "nonparametric":
                    rows = rng.integers(0, ds.n, size=ds.n)
                    values[r] = evaluate(ds.take(rows), analysis, coding, start=fitted.fits).effect
                else:
                    weights = inference_mod._draw_wild_weights(rng, ds.n)
                    values[r] = evaluate(ds, analysis, coding, weights=weights, start=fitted.fits).effect
            except Exception as exc:  # noqa: BLE001 - replicate failures are data
                raised[r] = str(exc)
        served = []

        def replay(W):
            lo = sum(served)
            served.append(len(W))
            return values[lo:lo + len(W)], {r - lo: raised[r] for r in raised if lo <= r < lo + len(W)}

        intervals.append(real_bootstrap(ds, spec=spec, point=point, batch=replay))
        return intervals[-1]

    with monkeypatch.context() as m:
        m.setattr(cli_mod, "evaluate", spy_evaluate)
        m.setattr(cli_mod, "bootstrap", alone_bootstrap)
        assert main(argv) == 0
    return intervals[0]


def _steep_data(seed):
    """The steep-exposure data of the near-separation test: ``e ~ expit(5 c0_1)``, n = 200."""
    rng = np.random.default_rng(seed)
    ds = draw_dataset(200, seed)
    return dataset_from_arrays(ds.c0, (rng.random(ds.n) < expit(5.0 * ds.c0[:, 0])).astype(int), ds.c1, ds.m, ds.y)


def _rare_data():
    """c0_1 is 1 on three of 60 rows, of which row 0 alone is unexposed."""
    ds = draw_dataset(60, 4)
    c0 = np.zeros_like(ds.c0)
    c0[:3, 0] = 1.0
    return dataset_from_arrays(c0, ds.e, ds.c1, ds.m, ds.y)


class TestBootstrapWarmStart:
    @pytest.mark.parametrize("kind", ["wild_exp1", "nonparametric"])
    @pytest.mark.parametrize("probit", [False, True], ids=["logit", "probit"])
    def test_replicates_match_cold_starts(self, kind, probit, study_csv, tmp_path, monkeypatch, capsys):
        argv = ["estimate", "--data", study_csv, "--comparison", "1", "--baseline", "0",
                "--estimator", "mle,a,b,mr", "--bootstrap", kind, "--reps", "12", "--seed", "9"]
        if probit:
            config = tmp_path / "probit.ini"
            config.write_text(PROBIT_PROPENSITIES)
            argv += ["--config", str(config)]
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", 10 * 1500)
        warm, starts, fitted, weights = _bootstrap_run(argv, monkeypatch)
        cold, _, _, _ = _bootstrap_run(argv, monkeypatch, cold=True)
        capsys.readouterr()
        # the point fit starts from zero; every batch chunk (10 replicates of
        # 1,500 rows, then 2) fits all its replicates from the point fit
        assert starts[0] is None and weights[0] is None
        assert [w.shape for w in weights[1:]] == [(10, 1500), (2, 1500)]
        assert all(start is fitted[0] for start in starts[1:])
        assert warm.errors == cold.errors == []
        # both stop within the score tolerance of one maximum; measured <= 6.1e-13
        np.testing.assert_allclose(warm.replicate_values, cold.replicate_values, rtol=1e-9, atol=0.0)

    @staticmethod
    def _steep(tmp_path, seed):
        """An exposure nearly determined by c0_1, ``e ~ expit(5 c0_1)`` on
        n = 200: a few bootstrap replicates separate.  Returns the data and
        the ``estimate`` arguments of a 40-replicate bootstrap of it without
        clipping, short of the bootstrap kind."""
        data = _steep_data(seed)
        path = tmp_path / "steep.csv"
        write_csv(data, path)
        return data, ["estimate", "--data", str(path), "--comparison", "1", "--baseline", "0",
                      "--estimator", "mle,mr", "--reps", "40", "--seed", "3", "--clip", "none", "--bootstrap"]

    @pytest.mark.parametrize("kind, seed", [("nonparametric", 1), ("wild_exp1", 2)])
    def test_near_separation_fails_the_same_replicates(self, kind, seed, tmp_path, monkeypatch, capsys):
        data, argv = self._steep(tmp_path, seed)
        argv.append(kind)
        warm, _, warm_fits, weights = _bootstrap_run(argv, monkeypatch)
        cold, _, cold_fits, _ = _bootstrap_run(argv, monkeypatch, cold=True)
        alone = _alone_run(argv, monkeypatch)
        capsys.readouterr()
        assert warm.errors
        # the point fit, then one chunk of all 40 replicates: each replicate,
        # failed or not, is evaluated once
        assert [np.shape(w) for w in weights] == [(), (40, data.n)]

        def kinds(errors):
            # a separated fit stops after fewer iterations, at other score and
            # coefficient norms, from a warm start: compare all but the numbers
            return [(int(text.split(":")[0].split()[1]), re.sub(r"\d+(\.\d+)?(e[-+]\d+)?", "#", text))
                    for text in errors]

        # each replicate evaluated alone fails the same way: byte for byte for
        # a wild replicate, whose batch row is bitwise its single evaluation;
        # a nonparametric batch row names a record of the original rows, and
        # its resample evaluated alone a row of the resample
        if kind == "wild_exp1":
            assert warm.errors == alone.errors
        assert kinds(warm.errors) == kinds(alone.errors)
        assert kinds(warm.errors) == kinds(cold.errors)
        binomial = [(role, fit) for role, fit in warm_fits[1].fits.items() if fit.family.is_binomial]
        # The effects of every replicate whose fitted propensities all keep
        # 1 - p above a few ulp.  With clipping off, 1 - p is only a few ulp
        # wide closer to 1, so a 1e-13 change of the linear predictor moved
        # an effect by 3.8e-8 (wild_exp1-2, replicate 34, 1 - p = 1.8e-15).
        # Near separation the propensities are pinned down only to the score
        # tolerance; measured <= 3.9e-10.
        ok = ~np.isnan(cold.replicate_values).any(axis=1)
        for _, fit in binomial:
            p = predict_mean(fit, build_design_matrix(data, fit.design))
            ok &= (1.0 - p > 64 * np.finfo(float).eps).all(axis=1)
        assert ok.sum() >= 30
        np.testing.assert_allclose(warm.replicate_values[ok], cold.replicate_values[ok], rtol=1e-8, atol=0.0)
        # and, for every replicate, what a warm start can move: each binomial
        # fit's linear predictors; measured <= 7.0e-10
        for role, warm_fit in binomial:
            cold_fit = cold_fits[1][role]
            X = build_design_matrix(data, warm_fit.design)
            both = warm_fit.converged & cold_fit.converged
            eta_warm, eta_cold = warm_fit.coef[both] @ X.T, cold_fit.coef[both] @ X.T
            np.testing.assert_allclose(eta_warm, eta_cold, rtol=1e-8, atol=0.0)

    def test_a_nonparametric_positivity_failure_names_a_drawn_record(self, tmp_path, monkeypatch, capsys):
        # a batch row weights each original record by how often the
        # resample drew it, and its positivity check looks at the drawn
        # records alone: the record it names was drawn, and its fitted
        # probability is the degenerate value quoted
        data, argv = self._steep(tmp_path, 1)
        argv.append("nonparametric")
        interval, _, fitted, weights = _bootstrap_run(argv, monkeypatch)
        capsys.readouterr()
        pattern = r"replicate (\d+): (\w+): fitted probability (\S+) at record (\d+) is degenerate; "
        named = [re.match(pattern, text) for text in interval.errors]
        assert named and all(named)
        for match in named:
            r, role, value, i = int(match[1]), match[2], float(match[3]), int(match[4])
            fit = fitted[1][role]
            p = predict_mean(fit, build_design_matrix(data, fit.design))[r]
            assert weights[1][r, i] > 0
            assert p[i] == value and value in (0.0, 1.0)
            # and it is the first drawn record at 0 or 1
            assert i == np.flatnonzero((weights[1][r] > 0) & ((p <= 0.0) | (p >= 1.0)))[0]

    def test_a_degenerate_probability_at_an_undrawn_record_leaves_its_replicate(self, tmp_path, monkeypatch,
                                                                                 capsys):
        # one unexposed record far out on c0_1: a resample that does not
        # draw it fits a steep propensity, which is 1.0 at that record.  The
        # record is absent from the replicate, as from its resample.
        rng = np.random.default_rng(5)
        ds = draw_dataset(200, 5)
        c0 = ds.c0.copy()
        e = (rng.random(ds.n) < expit(2.0 * (c0[:, 0] - 1.0))).astype(int)
        c0[0, 0], e[0] = 40.0, 0
        data = dataset_from_arrays(c0, e, ds.c1, ds.m, ds.y)
        path = tmp_path / "outlier.csv"
        write_csv(data, path)
        argv = ["estimate", "--data", str(path), "--comparison", "1", "--baseline", "0", "--estimator", "mle,mr,mr_seq",
                "--bootstrap", "nonparametric", "--reps", "40", "--seed", "3", "--clip", "none", "--stabilize", "all"]
        batched, _, fitted, weights = _bootstrap_run(argv, monkeypatch)
        alone = _alone_run(argv, monkeypatch)
        capsys.readouterr()
        fit = fitted[1]["prop_base"]
        p = predict_mean(fit, build_design_matrix(data, fit.design))
        assert (p[weights[1][:, 0] == 0, 0] == 1.0).sum() >= 5
        assert batched.errors == alone.errors == []
        np.testing.assert_allclose(batched.replicate_values, alone.replicate_values, rtol=1e-8, atol=0.0)

    @staticmethod
    def _rare_csv(tmp_path):
        """``_rare_data`` as a CSV file, and the exposure of its three rare rows."""
        data = _rare_data()
        assert list(data.e[:3]) == [0, 1, 1]
        path = tmp_path / "rare.csv"
        write_csv(data, path)
        return str(path), data.e[:3]

    def test_rank_deficient_replicates_fail_in_the_qr_fallback(self, tmp_path, monkeypatch, capsys):
        # A resample that draws none of the rare rows leaves c0_1 zero, and
        # the batch's QR fallback names it.  The propensities leave c0_1
        # out: a resample that draws the rare rows from one arm only
        # separates any propensity on c0_1 (see the test below).
        path, _ = self._rare_csv(tmp_path)
        config = tmp_path / "no_c0.ini"
        config.write_text("[models]\nprop_base = logit: 1\nprop_c1 = logit: 1, c1_1, c1_2, c1_3\n"
                          "prop_m = logit: 1, c1_1, c1_2, c1_3, m\n")
        argv = ["estimate", "--data", path, "--comparison", "1", "--baseline", "0", "--config", str(config),
                "--estimator", "mle,mr", "--bootstrap", "nonparametric", "--reps", "40", "--seed", "3"]
        qr_steps = []

        def counted_qr_step(*args, **kwargs):
            qr_steps.append(1)
            return qr_step(*args, **kwargs)

        qr_step = glm_mod._qr_step
        monkeypatch.setattr(glm_mod, "_qr_step", counted_qr_step)
        warm, _, _, weights = _bootstrap_run(argv, monkeypatch)
        assert qr_steps
        del qr_steps[:]
        alone = _alone_run(argv, monkeypatch)
        assert qr_steps
        capsys.readouterr()
        unseen = np.flatnonzero(weights[1][:, :3].sum(axis=1) == 0)
        assert len(unseen) == 3
        assert warm.errors == [f"replicate {r}: outcome: design matrix is rank deficient at c0_1 "
                               "(relative pivot magnitude 0.000e+00)" for r in unseen]
        # each replicate evaluated alone fails the same way, byte for byte
        assert warm.errors == alone.errors

    def test_one_arm_resamples_separate_the_propensity(self, tmp_path, monkeypatch, capsys):
        # With prop_base = logit: 1, c0_1, a resample that draws the rare
        # rows from one arm only is quasi-separated: its c0_1 coefficient
        # has no finite maximum.  Those batch rows fail naming c0_1, beside
        # the resamples that draw no rare row, whose c0_1 column is zero.
        path, e_rare = self._rare_csv(tmp_path)
        argv = ["estimate", "--data", path, "--comparison", "1", "--baseline", "0",
                "--estimator", "mle,mr", "--bootstrap", "nonparametric", "--reps", "40", "--seed", "3"]
        batch_errors, weights = [], []
        real_score_batch, real_fit = glm_mod._score_batch, estimators_mod.fit_nuisances

        def spy_score_batch(X, y, family, prior, start, labels):
            out = real_score_batch(X, y, family, prior, start, labels)
            if prior.shape == (40, 60) and tuple(labels) == ("1", "c0_1"):
                batch_errors.append(out[2])
            return out

        def spy_fit(*args, **kwargs):
            weights.append(kwargs.get("weights"))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(glm_mod, "_score_batch", spy_score_batch)
        monkeypatch.setattr(estimators_mod, "fit_nuisances", spy_fit)
        assert main(argv) == 3
        assert "16/40 bootstrap replicates failed" in capsys.readouterr().err
        drawn = weights[1][:, :3] > 0
        one_arm = np.flatnonzero((drawn & (e_rare == 0)).any(axis=1) != (drawn & (e_rare == 1)).any(axis=1))
        unseen = np.flatnonzero(~drawn.any(axis=1))
        assert (len(one_arm), len(unseen)) == (13, 3)
        [errors] = batch_errors
        assert sorted(errors) == sorted([*one_arm, *unseen])
        for r in one_arm:
            assert str(errors[r]).startswith("the responses are separated: the coefficient of c0_1 diverges")
        for r in unseen:
            assert str(errors[r]).startswith("design matrix is rank deficient at c0_1")


DISCRETE_MODELS = """[models]
outcome = gaussian: 1, c0_1, e, c1_1, c1_2, m, e*m
mediator_mean = logit: 1, c0_1, e, c1_1, c1_2
c1_mean_1 = logit: 1, c0_1, e
c1_mean_2 = logit: 1, c0_1, e
prop_c1 = logit: 1, c0_1, c1_1, c1_2
prop_m = logit: 1, c0_1, c1_1, c1_2, m
[estimate]
pathway = discrete
"""


@pytest.fixture
def binary_csv(tmp_path):
    """A draw with a binary mediator and two binary post-treatment components."""
    ds = draw_dataset(1500, 78)
    c1 = (ds.c1[:, :2] > 0).astype(float)
    m = (ds.m > np.median(ds.m)).astype(float)
    path = tmp_path / "binary.csv"
    write_csv(dataset_from_arrays(ds.c0, ds.e, c1, m, ds.y), path)
    return str(path)


# (bootstrap kind, estimate options): logit and probit propensities, both
# pathways, mr_seq, both stabilization settings, identity check, no clipping
BATCH_GRID = [
    ("wild_exp1", []),
    ("nonparametric", []),
    ("wild_exp1", ["probit"]),
    ("nonparametric", ["probit"]),
    ("wild_exp1", ["discrete"]),
    ("nonparametric", ["discrete"]),
    ("wild_exp1", ["--estimator", "mr_seq,mr", "--stabilize", "all"]),
    ("nonparametric", ["--estimator", "mr_seq,a", "--stabilize", "none"]),
    ("wild_exp1", ["--comparison", "1", "--identity-check", "--estimator", "a,b,mr,mr_seq"]),
    ("nonparametric", ["--comparison", "1", "--identity-check", "--estimator", "a,mr"]),
    ("wild_exp1", ["--clip", "none"]),
    ("nonparametric", ["--clip", "none", "--stabilize", "all"]),
]


class TestBatchedBootstrap:
    @staticmethod
    def _argv(data, kind, options, tmp_path, reps=12, seed=5):
        argv = ["estimate", "--data", data, "--comparison", "1", "--baseline", "0",
                "--estimator", "mle,a,b,mr", "--bootstrap", kind, "--reps", str(reps), "--seed", str(seed)]
        for option in options:
            if option in ("probit", "discrete"):
                config = tmp_path / f"{option}.ini"
                config.write_text(PROBIT_PROPENSITIES if option == "probit" else DISCRETE_MODELS)
                argv += ["--config", str(config)]
            else:
                argv.append(option)
        return argv

    @pytest.mark.parametrize("kind, options", BATCH_GRID, ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_matches_the_per_replicate_path(self, kind, options, study_csv, binary_csv, tmp_path,
                                            monkeypatch, capsys):
        data = binary_csv if "discrete" in options else study_csv
        argv = self._argv(data, kind, options, tmp_path)
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", 10 * 1500)  # 12 replicates in chunks of 10 and 2
        batched, _, _, weights = _bootstrap_run(argv, monkeypatch)
        alone = _alone_run(argv, monkeypatch)
        capsys.readouterr()
        assert [np.ndim(w) for w in weights] == [0, 2, 2]  # the point fit, then two chunks
        assert batched.errors == alone.errors == []
        # measured <= 2.2e-13 (nonparametric frequency weights against row resampling)
        np.testing.assert_allclose(batched.replicate_values, alone.replicate_values, rtol=1e-8, atol=0.0)
        if kind == "wild_exp1":
            # a wild replicate's fits are bitwise its single fits, and so are its effects
            assert np.array_equal(batched.replicate_values, alone.replicate_values)

    def test_a_failed_replicate_leaves_its_chunk_mates_alone(self, study_csv, tmp_path, monkeypatch, capsys):
        argv = self._argv(study_csv, "wild_exp1", [], tmp_path, reps=20)
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", 10 * 1500)  # two chunks of 10 replicates
        clean, _, _, _ = _bootstrap_run(argv, monkeypatch)
        ds = cli_mod.recode_pair(cli_mod.read_csv(study_csv), cli_mod.TreatmentPair(1, 0))[0]
        spec = cli_mod.BootstrapSpec(kind="wild_exp1", replicates=20, seed=5)
        replicate_of = _replicate_of(spec, ds.n)
        real_draw = inference_mod._draw_wild_weights

        def draw(rng, n):
            # replicate 13 weights no comparison-arm record: its propensity fits separate
            w = real_draw(rng, n)
            return np.where(ds.e == 1, 0.0, w) if replicate_of(w) == 13 else w

        monkeypatch.setattr(inference_mod, "_draw_wild_weights", draw)
        failing, _, _, weights = _bootstrap_run(argv, monkeypatch)
        alone = _alone_run(argv, monkeypatch)
        capsys.readouterr()
        assert len(failing.errors) == 1 and failing.errors[0].startswith("replicate 13: ")
        assert failing.errors == alone.errors
        # no replicate is evaluated again alone, and its chunk-mates keep their batched values
        assert [np.ndim(w) for w in weights] == [0, 2, 2]
        assert np.isnan(failing.replicate_values[13]).all()
        kept = np.arange(20) != 13
        assert np.array_equal(failing.replicate_values[kept], clean.replicate_values[kept])

    @pytest.mark.parametrize("size", [1, 7, 40])
    @pytest.mark.parametrize("kind", ["wild_exp1", "nonparametric"])
    def test_values_do_not_depend_on_the_replicate_count(self, kind, size, study_csv, tmp_path, monkeypatch,
                                                         capsys):
        argv = self._argv(study_csv, kind, ["--estimator", "mle,mr,mr_seq"], tmp_path, reps=40)
        default, _, _, _ = _bootstrap_run(argv, monkeypatch)  # chunks of 21 replicates at n = 1,500
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", size * 1500)
        many, _, _, weights = _bootstrap_run(argv, monkeypatch)
        few, _, _, _ = _bootstrap_run(
            self._argv(study_csv, kind, ["--estimator", "mle,mr,mr_seq"], tmp_path, reps=7), monkeypatch)
        capsys.readouterr()
        assert [len(w) for w in weights[1:]] == [size] * (40 // size) + [40 % size] * (40 % size > 0)
        assert np.all(np.isfinite(many.replicate_values))
        assert np.array_equal(many.replicate_values, default.replicate_values)
        assert np.array_equal(few.replicate_values, many.replicate_values[:7])


def _baseline_c1_2_constant(ds, keep=0):
    """``ds`` with c1_2 at 0 on the baseline arm but for its first ``keep``
    records there: the outcome's refit on that arm loses rank at c1_2."""
    c1 = ds.c1.copy()
    c1[np.flatnonzero(ds.e == 0)[keep:], 1] = 0.0
    return dataset_from_arrays(ds.c0, ds.e, c1, ds.m, ds.y)


def _numbers_out(text):
    return re.sub(r"\d+(\.\d+)?(e[-+]\d+)?", "#", text)


class TestFailureParity:
    """The reason a batch records for a failed replicate is the text that
    evaluating that replicate alone raises: byte for byte for wild weights
    and Monte Carlo datasets, whose batch rows are bitwise their single
    evaluations, and up to numbers for nonparametric frequency weights,
    which name records of the original rows where the resample names its
    own rows."""

    @staticmethod
    def _bootstrap_case(data, kind, *, reps=40, seed=3, estimators=("mle", "mr"), config="", zero=None, **options):
        """The batch's reasons and each replicate's evaluation alone, for a
        bootstrap of ``estimate``'s statistic (``estimators`` with their
        default delta estimators) on ``data``; ``zero`` maps replicates to
        records whose wild weight is set to zero."""
        ds, coding = cli_mod.recode_pair(data, TreatmentPair(1, 0))
        models = dict(default_working_set(ds.d0, ds.d1).models)
        for line in config.strip().splitlines():
            role, text = line.split("=", 1)
            models[role.strip()] = cli_mod._parse_model_line(role.strip(), text)
        analysis = Analysis(WorkingModelSet(models), tuple((beta, DEFAULT_DELTA_FOR[beta]) for beta in estimators),
                            stabilize=StabilizeFlags(m_ratio=True, c1_ratio=True), **options)
        if kind == "wild_exp1":
            W = np.array([derived_rng(seed, r).exponential(1.0, ds.n) for r in range(reps)])
            for r, rows in (zero or {}).items():
                W[r, rows] = 0.0
            alone = lambda r: evaluate(ds, analysis, coding, weights=W[r])
        else:
            drawn = [derived_rng(seed, r).integers(0, ds.n, size=ds.n) for r in range(reps)]
            W = np.array([np.bincount(x, minlength=ds.n) for x in drawn], dtype=float)
            alone = lambda r: evaluate(ds.take(drawn[r]), analysis, coding)
        return evaluate(ds, analysis, coding, weights=W).comp.failures, alone

    @staticmethod
    def _monte_carlo_case(monkeypatch, change, estimators):
        """The reason ``simulate`` records for replicate 3 of 12 (the only
        failing one), whose dataset ``change`` alters, and that dataset's
        evaluation alone."""
        real_draw = simulation_mod.draw_dataset
        draw = lambda n, seed, *, rep: change(real_draw(n, seed, rep=rep)) if rep == 3 else real_draw(n, seed, rep=rep)
        monkeypatch.setattr(simulation_mod, "draw_dataset", draw)
        spec = simulation_mod.SimulationSpec(regime="int", n=300, replications=12, seed=1)
        with pytest.raises(simulation_mod.SimulationError) as err:
            simulation_mod.run_monte_carlo(spec, estimators=estimators)
        head, reason = str(err.value).split("; first: replicate 3: ", 1)
        assert head == "1/12 replicates failed"
        analysis = Analysis(simulation_mod.working_models_for("int").working_set,
                            tuple((kind, None) for kind in estimators))
        alone = lambda r: evaluate(draw(spec.n, spec.seed, rep=r), analysis, PairCoding(pair=TreatmentPair(1, 0)))
        return {3: reason}, alone

    # case: (the batch's reasons and the evaluation alone, what every reason says)
    CASES = {
        # a separated propensity: the exposure is set by c0_1 on one Monte Carlo dataset
        "steep-exposure-monte-carlo": (lambda self, mp: self._monte_carlo_case(
            mp, lambda ds: cli_mod.replace(ds, e=(ds.c0[:, 0] > 1.0).astype(int)), ("mle", "a", "b", "mr")),
            "prop_base: the responses are separated: "),
        # no clipping: the steep exposure's fitted propensities reach 1
        "positivity-wild": (lambda self, mp: self._bootstrap_case(_steep_data(2), "wild_exp1", clip=None),
                            " is degenerate; positivity is violated"),
        "positivity-nonparametric": (lambda self, mp: self._bootstrap_case(
            _steep_data(1), "nonparametric", clip=None), " is degenerate; positivity is violated"),
        # a zero weight on the one unexposed c0_1 = 1 row leaves c0_1 = 1 on exposed rows alone
        "quasi-separation-wild": (lambda self, mp: self._bootstrap_case(
            _rare_data(), "wild_exp1", zero={2: [0], 5: [0], 11: [0]}), "the coefficient of c0_1 diverges"),
        "quasi-separation-nonparametric": (lambda self, mp: self._bootstrap_case(_rare_data(), "nonparametric"),
                                           "c0_1"),
        # a resample that draws none of the rare rows leaves c0_1 zero
        "rank-deficient-resample": (lambda self, mp: self._bootstrap_case(
            _rare_data(), "nonparametric",
            config="prop_base = logit: 1\nprop_c1 = logit: 1, c1_1, c1_2, c1_3\nprop_m = logit: 1, c1_1, c1_2, c1_3, m"),
            "outcome: design matrix is rank deficient at c0_1"),
        "mr-seq-refit-monte-carlo": (lambda self, mp: self._monte_carlo_case(
            mp, _baseline_c1_2_constant, ("mle", "a", "b", "mr", "mr_seq")),
            "outcome: design matrix is rank deficient at c1_2"),
        # a resample that draws none of the three baseline-arm records with c1_2 set
        "mr-seq-refit-nonparametric": (lambda self, mp: self._bootstrap_case(
            _baseline_c1_2_constant(draw_dataset(400, 12), keep=3), "nonparametric", reps=60,
            estimators=("mle", "mr_seq", "mr")), "outcome: design matrix is rank deficient at c1_2"),
        # logit-shift stabilization of a probability at 0 or 1, or of a level without weight
        "degenerate-stabilization": (lambda self, mp: self._stabilization_case(), "stabilization "),
        # the outcome scaled and shifted so that the contrast mean lies near zero
        "log-risk-ratio-wild": (lambda self, mp: self._bootstrap_case(
            TestFailureParity._small_mean_data(), "wild_exp1", scale="log_risk_ratio"),
            "log risk ratio needs positive means"),
        "log-risk-ratio-nonparametric": (lambda self, mp: self._bootstrap_case(
            TestFailureParity._small_mean_data(), "nonparametric", scale="log_risk_ratio"),
            "log risk ratio needs positive means"),
    }

    @staticmethod
    def _stabilization_batch():
        """Probabilities, a level indicator and weights of four replicates:
        replicate 1 has a probability at 1, replicate 2 no weight on the
        level (its share is 0), and replicate 3 both, where the first check
        wins."""
        rng = np.random.default_rng(4)
        ind = (rng.random(50) < 0.5).astype(float)
        P, W = rng.uniform(0.2, 0.8, (4, 50)), rng.exponential(1.0, (4, 50))
        P[1, 7], P[3, 9] = 1.0, 0.0
        W[2:, ind == 1] = 0.0
        return P, ind, W

    @staticmethod
    def _stabilization_case():
        P, ind, W = TestFailureParity._stabilization_batch()
        failures = {}
        stabilize_probabilities(P, ind, W, failures)
        return failures, lambda b: stabilize_probabilities(P[b], ind, W[b])

    @staticmethod
    def _small_mean_data():
        ds = draw_dataset(300, 11)
        return dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, 0.05 * (ds.y - ds.y.mean()) + 0.07)

    @pytest.mark.parametrize("case", list(CASES))
    def test_the_batch_records_what_evaluating_the_replicate_alone_raises(self, case, monkeypatch):
        build, says = self.CASES[case]
        reasons, alone = build(self, monkeypatch)
        assert reasons and all(says in reason for reason in reasons.values()), reasons
        exact = "nonparametric" not in case and "resample" not in case
        for r, reason in reasons.items():
            with pytest.raises(Exception) as raised:
                alone(r)
            if exact:
                assert str(raised.value) == reason, r
            else:
                assert _numbers_out(str(raised.value)) == _numbers_out(reason), r
        # and a replicate that the batch keeps evaluates alone without raising
        alone(min(set(range(max(reasons) + 2)) - set(reasons)))

    def test_a_refit_short_of_records_names_its_arm_and_count(self):
        # The near-separation test's nonparametric data (seed 1): 8 of its
        # 200 records are in the baseline arm, where the outcome's refit has
        # 6 columns.  The resamples that draw fewer of them are the ones that
        # failed before the count was checked, when the QR named the column
        # at which rounding ended it.
        data = _steep_data(1)
        reasons, _ = self._bootstrap_case(data, "nonparametric", estimators=("mle", "a", "b", "mr", "mr_seq"))
        ds, coding = cli_mod.recode_pair(data, cli_mod.TreatmentPair(1, 0))
        base = ds.e == coding.baseline_internal
        records = [np.count_nonzero(base[np.unique(derived_rng(3, r).integers(0, ds.n, size=ds.n))])
                   for r in range(40)]
        assert sorted(reasons) == [0, 1, 2, 4, 10, 11, 12, 15, 17, 18, 19, 20, 26, 27, 29, 30, 31, 32, 34, 35,
                                   36, 37, 38]
        assert reasons == {r: f"outcome (mr_seq refit, baseline arm): {records[r]} records for 6 columns"
                           for r in reasons}
        # an evaluation alone says the same
        analysis = Analysis(default_working_set(ds.d0, ds.d1), (("mr_seq", DEFAULT_DELTA_FOR["mr_seq"]),),
                            stabilize=StabilizeFlags(m_ratio=True, c1_ratio=True))
        kept = np.r_[np.flatnonzero(~base), np.flatnonzero(base)[:5]]
        with pytest.raises(cli_mod.NuisanceError, match=r"^outcome \(mr_seq refit, baseline arm\): 5 records for 6 "
                                                        r"columns$"):
            evaluate(ds.take(kept), analysis, coding)

    def test_a_batch_stabilizes_each_replicate_as_alone(self):
        P, ind, W = self._stabilization_batch()
        failures = {}
        batch = stabilize_probabilities(P, ind, W, failures)
        assert failures == {1: "stabilization requires probabilities strictly inside (0, 1)",
                            2: "stabilization is degenerate: the designated level has empirical share 0.0",
                            3: "stabilization requires probabilities strictly inside (0, 1)"}
        assert np.isnan(batch[1:]).all()
        assert np.array_equal(batch[0], stabilize_probabilities(P[0], ind, W[0]))


class TestOracleCommand:
    def test_prints_all_three_lines(self, capsys):
        code = main(["oracle", "--draws", "200000", "--seed", "1"])
        assert code == 0
        lines = _read_lines(capsys)
        assert lines[0].startswith("beta0") and lines[1].startswith("delta0") and lines[2].startswith("effect")
        beta = float(lines[0].split()[1])
        assert beta == pytest.approx(2.678, abs=0.05)

    def test_negative_seed_exits_2(self, capsys):
        assert main(["oracle", "--draws", "200000", "--seed", "-2"]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -2\n"

    def test_too_few_draws_exits_2(self):
        assert main(["oracle", "--draws", "10"]) == 2

    def test_deterministic(self, capsys):
        assert main(["oracle", "--draws", "150000", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "--draws", "150000", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestRemovedOptions:
    @pytest.mark.parametrize("command", [
        ["simulate", "--regime", "int", "--reps", "5"],
        ["estimate", "--data", "unused.csv", "--comparison", "1", "--baseline", "0"],
    ], ids=["simulate", "estimate"])
    def test_threads_is_not_an_option(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main(command + ["--threads", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# Run in a fresh interpreter where every scipy import fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from pathfx import DesignSpec, Family, RankDeficiencyError, build_design_matrix, dataset_from_arrays
from pathfx import draw_dataset, fit_glm_irls, mc_t_test, write_csv
from pathfx.cli import main

work = sys.argv[1]
assert main(["simulate", "--regime", "int", "--n", "300", "--reps", "3", "--seed", "1", "--out", work]) == 0
write_csv(draw_dataset(600, 1), work + "/study.csv")
with open(work + "/probit.ini", "w") as fh:
    fh.write("[models]\\nprop_base = probit: 1, c0_1\\nprop_c1 = probit: 1, c0_1, c1_1, c1_2, c1_3\\n"
             "prop_m = probit: 1, c0_1, c1_1, c1_2, c1_3, m\\n")
assert main(["estimate", "--data", work + "/study.csv", "--comparison", "1", "--baseline", "0",
             "--config", work + "/probit.ini", "--bootstrap", "nonparametric", "--reps", "5",
             "--seed", "1", "--out", work]) == 0
assert main(["oracle", "--draws", "100000", "--seed", "1"]) == 0
print("critical", mc_t_test(np.arange(6.0), 2.0).critical)
ds = draw_dataset(200, 2)
flat = dataset_from_arrays(np.full_like(ds.c0, 0.5), ds.e, ds.c1, ds.m, ds.y)
design = DesignSpec.parse("1, c0_1, c1_1")
try:
    fit_glm_irls(build_design_matrix(flat, design), (ds.m > 0).astype(float), Family.PROBIT, design=design)
except RankDeficiencyError as exc:
    print("rank", exc)
print("scipy modules", sorted(name for name in sys.modules if name.startswith("scipy.")))
"""


class TestWithoutScipy:
    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        critical = float(next(line for line in lines if line.startswith("critical")).split()[1])
        assert critical == pytest.approx(2.5705818356363146, rel=1e-12)  # t_{0.975} on 5 df
        assert re.fullmatch(r"rank design matrix is rank deficient at c0_1 \(relative pivot magnitude \S+\)",
                            next(line for line in lines if line.startswith("rank")))
        assert lines[-1] == "scipy modules []"
        for name in ("summary_int.csv", "replicates_int.csv", "estimates.csv"):
            assert (tmp_path / name).stat().st_size > 0
