import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

import pathfx.inference as inference_mod
import pathfx.simulation as simulation_mod
from pathfx.core import DesignSpec, PairCoding, TreatmentPair
from pathfx.estimators import BETA_KINDS, Analysis, evaluate
from pathfx.glm import Family, fit_glm
from pathfx.nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1,
    ROLE_PROP_C1_IN_M_RATIO,
    ROLE_PROP_M,
    NuisanceError,
    c1_mean_role,
    fit_nuisances,
)
from pathfx.simulation import (
    REGIMES,
    SimulationError,
    SimulationSpec,
    closed_form_beta0,
    closed_form_delta0,
    draw_dataset,
    oracle_beta0_mc,
    oracle_delta0_mc,
    oracle_nested_mean_mc,
    run_monte_carlo,
    truth,
    working_models_for,
    write_replicates_csv,
    write_summary_csv,
)


class TestDrawDataset:
    def test_deterministic_and_stream_separated(self):
        a = draw_dataset(500, 7)
        b = draw_dataset(500, 7)
        c = draw_dataset(500, 8)
        d = draw_dataset(500, 7, rep=1)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.c1, b.c1)
        assert not np.array_equal(a.y, c.y)
        assert not np.array_equal(a.y, d.y)

    def test_baseline_covariate_moments(self):
        n = 1_000_000
        ds = draw_dataset(n, 10)
        c0 = ds.c0[:, 0]
        sd = 2.0 / math.sqrt(12.0)
        assert abs(c0.mean() - 1.0) < 3 * sd / math.sqrt(n)
        assert c0.min() >= 0.0 and c0.max() <= 2.0

    def test_treatment_probability_near_zero_covariate(self):
        ds = draw_dataset(4_000_000, 11)
        mask = ds.c0[:, 0] < 0.01
        share = ds.e[mask].mean()
        n = int(mask.sum())
        want = expit(0.9)
        assert n > 10_000
        assert abs(share - want) < 3 * math.sqrt(want * (1 - want) / n)

    def test_outcome_equation_recovered_by_ols(self):
        n = 1_000_000
        ds = draw_dataset(n, 12)
        spec = DesignSpec.parse("1, c0_1, e, c1_1, c1_2, c1_3, m, e*m")
        from pathfx.core import build_design_matrix

        X = build_design_matrix(ds, spec)
        fit = fit_glm(X, ds.y, Family.GAUSSIAN)
        resid = ds.y - X @ fit.coef
        sigma2 = float(resid @ resid) / (n - X.shape[1])
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(X.T @ X)))
        want = np.array([0.2, 0.2, 0.6, 1.0, 0.7, 0.3, -0.9, -0.8])
        assert np.all(np.abs(fit.coef - want) < 3 * se)

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            draw_dataset(0, 1)

    def test_draws_are_pinned(self):
        # recorded values: existing draws must stay put when the generator
        # grows (a new block takes a new stream); c1, m and y at rtol 1e-13,
        # so that BLAS differences do not trip it
        ds = draw_dataset(4, 9, rep=2)
        assert ds.c0.tolist() == [[1.848149001750042], [0.9894720748366761], [1.9031986910613004],
                                  [1.8948520796652921]]
        assert ds.e.tolist() == [1, 1, 1, 1]
        np.testing.assert_allclose(ds.c1, [
            [3.393042055138136, 0.33387589571995235, 0.8157234205272856],
            [2.139294113699922, 2.1755451296268817, 1.190757680912883],
            [1.2308076768710707, 3.750592910942984, 0.06209250157198354],
            [3.2237899493298863, 1.0870997039301487, 0.9662159878083486],
        ], rtol=1e-13, atol=0)
        np.testing.assert_allclose(ds.m, [1.4070090765309993, 1.5748820257653673, -0.2949571429574315,
                                          1.082964986710834], rtol=1e-13, atol=0)
        np.testing.assert_allclose(ds.y, [2.891120783574132, 3.336635826869108, 4.71989591655666,
                                          1.910535169507193], rtol=1e-13, atol=0)

    def test_a_stacked_chunk_row_is_pinned(self, monkeypatch):
        # record 4 of replicate 2 (a baseline-arm record) in the stacked chunk a Monte Carlo run evaluates
        stacks = []

        def spy(ds, *args, **kwargs):
            stacks.append(ds)
            return evaluate(ds, *args, **kwargs)

        monkeypatch.setattr(simulation_mod, "evaluate", spy)
        run_monte_carlo(SimulationSpec(regime="int", n=200, replications=3, seed=4), estimators=("mle",))
        ds = stacks[0]
        assert ds.c1.shape == (3, 200, 3)
        assert ds.c0[1, 3].tolist() == [1.9091791873038864]
        assert ds.e[1, 3] == 0
        np.testing.assert_allclose(ds.c1[1, 3], [1.990401632369218, -0.35146551800737547, 0.4381533348786307],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(ds.m[1, 3], -1.6361120875733413, rtol=1e-13, atol=0)
        np.testing.assert_allclose(ds.y[1, 3], 4.434412592700411, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("field, value", [("n", 100.0), ("seed", 1.5), ("rep", 0.5)])
    def test_rejects_a_non_integer(self, field, value):
        # a float seed would otherwise be truncated, and draw seed 1's data
        with pytest.raises(SimulationError) as err:
            draw_dataset(**{"n": 100, "seed": 1, "rep": 0, field: value})
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_are_integers(self):
        a, b = draw_dataset(np.int64(50), np.int32(1), rep=np.uint8(2)), draw_dataset(50, 1, rep=2)
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("c0", "e", "c1", "m", "y"))

    @pytest.mark.parametrize("seed, rep", [(-1, 0), (0, -2)])
    def test_rejects_a_negative_seed_or_rep(self, seed, rep):
        with pytest.raises(SimulationError) as err:
            draw_dataset(10, seed, rep=rep)
        assert str(err.value) == f"seed and rep must be non-negative integers, got seed={seed}, rep={rep}"


class TestTruth:
    def test_closed_forms(self):
        assert closed_form_beta0() == pytest.approx(2.678, abs=1e-12)
        assert closed_form_delta0() == pytest.approx(3.596, abs=1e-12)

    def test_nested_mean_line(self):
        c0 = np.array([0.0, 1.0, 2.0])
        assert truth.b_doubleprime(c0) == pytest.approx(1.447 + 1.231 * c0, abs=1e-12)

    def test_baseline_mean_line(self):
        c0 = np.array([0.0, 1.0, 2.0])
        assert truth.marginal_outcome(c0, 0) == pytest.approx(2.005 + 1.591 * c0, abs=1e-12)

    def test_per_record_treatment_is_each_arm_s_level(self):
        # draw_dataset passes one treatment value per record; each arm's rows
        # must be bitwise what the scalar level gives on those rows alone
        ds = draw_dataset(1000, 3)
        for level in (0, 1):
            arm = ds.e == level
            c0, c1, m = ds.c0[arm], ds.c1[arm], ds.m[arm]
            assert 0 < arm.sum() < ds.n
            assert np.array_equal(truth.c1_mean(ds.c0, ds.e)[arm], truth.c1_mean(c0, level))
            assert np.array_equal(truth.m_mean(ds.c1, ds.c0, ds.e)[arm], truth.m_mean(c1, c0, level))
            assert np.array_equal(truth.outcome_mean(ds.m, ds.c1, ds.c0, ds.e)[arm],
                                  truth.outcome_mean(m, c1, c0, level))

    def test_inverted_propensity_coefficients_reproduce_density_ratios(self):
        # the coefficient expansions must match the analytic normal ratios
        rng = np.random.default_rng(5)
        n = 200
        c0 = rng.uniform(0, 2, n)
        c1 = rng.standard_normal((n, 3)) * 2.0
        m = rng.standard_normal(n) * 2.0
        from pathfx.core import build_design_matrix, dataset_from_arrays
        from pathfx.simulation import PROP_C1_CORRECT, PROP_M_CORRECT

        ds = dataset_from_arrays(c0[:, None], np.zeros(n, dtype=int), c1, m, np.zeros(n))
        Xl = build_design_matrix(ds, DesignSpec.parse(PROP_C1_CORRECT))
        Xg = build_design_matrix(ds, DesignSpec.parse(PROP_M_CORRECT))
        # Bayes: logit P(E=1|c1,c0) - logit P(E=1|c0) = log c1-density ratio
        log_c1_ratio = Xl @ truth.prop_c1_coef() - (0.9 + 0.3 * c0)
        assert np.max(np.abs(log_c1_ratio - np.log(truth.c1_ratio(c1, c0)))) < 1e-10
        log_m_ratio = Xg @ truth.prop_m_coef() - Xl @ truth.prop_c1_coef()
        assert np.max(np.abs(log_m_ratio - np.log(truth.m_ratio(m, c1, c0)))) < 1e-10

    def test_a_design_that_misses_the_log_odds_is_refused(self):
        # PROP_C1_WRONG lacks c0_1^2 and the c0_1*c1_j terms of the exact log-odds
        from pathfx.simulation import PROP_C1_WRONG

        with pytest.raises(SimulationError, match=r"^the log-odds lie outside the span of '1, c0_1, c1_1, "):
            truth._coef_on(PROP_C1_WRONG, lambda ds: truth.prop_c1_log_odds(ds.c1, ds.c0))


class TestOracles:
    def test_beta0_monte_carlo(self):
        est = oracle_beta0_mc(1_000_000, 3)
        assert abs(est.value - closed_form_beta0()) < 3 * est.se
        assert est.se < 0.01

    def test_delta0_monte_carlo(self):
        est = oracle_delta0_mc(1_000_000, 3)
        assert abs(est.value - closed_form_delta0()) < 3 * est.se

    @pytest.mark.parametrize("field, kwargs", [
        ("n_draws", {"n_draws": 1000.0, "seed": 1}), ("seed", {"n_draws": 1000, "seed": 1.5}),
        ("stream", {"n_draws": 1000, "seed": 1, "stream": 0.5}),
    ], ids=["n_draws", "seed", "stream"])
    def test_rejects_a_non_integer(self, field, kwargs):
        with pytest.raises(SimulationError) as err:
            oracle_nested_mean_mc(mediator_level=1, **kwargs)
        assert str(err.value) == f"{field} must be an integer, got {kwargs[field]!r}"

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_rejects_a_negative_seed_or_stream(self, seed, stream):
        with pytest.raises(SimulationError) as err:
            oracle_nested_mean_mc(1000, seed, mediator_level=1, stream=stream)
        assert str(err.value) == f"seed and stream must be non-negative integers, got seed={seed}, stream={stream}"

    @pytest.mark.parametrize("level", [2, -1, 0.5])
    def test_rejects_a_mediator_level_outside_0_and_1(self, level):
        with pytest.raises(SimulationError) as err:
            oracle_nested_mean_mc(1000, 1, mediator_level=level)
        assert str(err.value) == f"mediator_level must be 0 or 1, got {level!r}"

    def test_collapse_to_baseline_mean(self):
        a = oracle_nested_mean_mc(200_000, 9, mediator_level=0, stream=1)
        b = oracle_delta0_mc(200_000, 9)
        assert a.value == b.value  # same construction once the mediator arm matches

    def test_effect_difference(self):
        beta = oracle_beta0_mc(2_000_000, 4)
        delta = oracle_delta0_mc(2_000_000, 4)
        se = math.hypot(beta.se, delta.se)
        assert abs((beta.value - delta.value) - (-0.918)) < 3 * se

    def test_ipw_identity_under_true_law(self):
        ds = draw_dataset(2_000_000, 13)
        w = (ds.e == 0) / (1 - truth.propensity(ds.c0))
        est = float(np.mean(w * ds.y))
        sd = float(np.std(w * ds.y, ddof=1))
        assert abs(est - closed_form_delta0()) < 3 * sd / math.sqrt(ds.n)


class TestRegimeRegistry:
    def test_intersection_all_correct(self):
        models = working_models_for("int")
        ws = models.working_set
        assert ws[ROLE_OUTCOME].design.labels == ("1", "c0_1", "e", "c1_1", "c1_2", "c1_3", "m", "e*m")
        assert ws[ROLE_MEDIATOR].design.labels == ("1", "c0_1", "e", "c1_1", "c1_2", "c1_3", "e*c1_1")
        assert ws[c1_mean_role(1)].design.labels == ("1", "c0_1", "e", "c0_1*e")
        assert ws[ROLE_PROP_BASE].family is Family.LOGIT
        assert ROLE_PROP_BASE_IN_C1_RATIO not in ws
        assert ROLE_PROP_C1_IN_M_RATIO not in ws

    def test_regime_a_breaks_outcome_and_covariate_models(self):
        ws = working_models_for("a").working_set
        assert ws[ROLE_OUTCOME].design.labels == ("1", "c0_1", "e", "c1_1", "c1_2", "c1_3", "m")
        assert ws[c1_mean_role(2)].design.labels == ("1", "c0_1", "e")
        assert ws[ROLE_PROP_C1].design.labels == ("1", "c0_1", "c1_1", "c1_2", "c1_3")
        # the mediator ratio keeps the correct covariate propensity internally
        assert ws[ROLE_PROP_C1_IN_M_RATIO].design.labels[:3] == ("1", "c0_1", "c0_1^2")
        assert ws[ROLE_MEDIATOR].design.labels[-1] == "e*c1_1"

    def test_regime_b_breaks_mediator_models(self):
        ws = working_models_for("b").working_set
        assert ws[ROLE_MEDIATOR].design.labels == ("1", "c0_1", "e", "c1_1", "c1_2", "c1_3")
        assert ws[ROLE_PROP_M].design.labels == ("1", "c0_1", "c1_1", "c1_2", "c1_3", "m")
        assert ws[ROLE_OUTCOME].design.labels[-1] == "e*m"

    def test_regime_c_swaps_the_base_propensity_link(self):
        ws = working_models_for("c").working_set
        base = ws[ROLE_PROP_BASE]
        assert base.family is Family.LOGIT and base.predict_family is Family.PROBIT
        ratio_base = ws[ROLE_PROP_BASE_IN_C1_RATIO]
        assert ratio_base.family is Family.LOGIT and ratio_base.predict_family is None

    def test_unknown_regime(self):
        with pytest.raises(SimulationError, match="regime"):
            working_models_for("z")


class TestMonteCarloRunner:
    def test_report_shape_and_determinism(self):
        spec = SimulationSpec(regime="int", n=400, replications=25, seed=5)
        a = run_monte_carlo(spec)
        b = run_monte_carlo(spec)
        assert [s.kind for s in a.summaries] == ["mle", "a", "b", "mr"]
        for k in a.values:
            assert np.array_equal(a.values[k], b.values[k])
        assert a.n_failed == 0

    @pytest.mark.parametrize("n, estimators, message", [
        (0, ("mle",), "n must be at least 1, got 0"),
        (-3, ("mle",), "n must be at least 1, got -3"),
        (300, (), "no estimator requested"),
        (300, ("mr", "mle", "mr"), "estimator kind 'mr' requested twice"),
    ])
    def test_unusable_spec_raises_before_any_replicate(self, n, estimators, message, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation_mod, "draw_dataset", no_draw)
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(SimulationSpec(regime="int", n=n, replications=5, seed=1), estimators=estimators)
        assert str(err.value) == message

    @pytest.mark.parametrize("replications", [1, 0])
    def test_too_few_replications_raise_before_any_replicate(self, replications, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation_mod, "draw_dataset", no_draw)
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(SimulationSpec(regime="int", n=200, replications=replications, seed=1))
        assert str(err.value) == f"replications must be at least 2, got {replications}"

    @pytest.mark.parametrize("field, value", [("n", 200.5), ("replications", 2.5), ("seed", 1.5)])
    def test_a_non_integer_raises_before_any_replicate(self, field, value, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation_mod, "draw_dataset", no_draw)
        spec = replace(SimulationSpec(regime="int", n=200, replications=3, seed=1), **{field: value})
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(spec)
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    def test_a_negative_seed_raises_before_any_replicate(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation_mod, "draw_dataset", no_draw)
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(SimulationSpec(regime="int", n=200, replications=3, seed=-1))
        assert str(err.value) == "seed must be a non-negative integer, got -1"

    def test_sequential_estimator_supported(self):
        spec = SimulationSpec(regime="int", n=400, replications=10, seed=7)
        rep = run_monte_carlo(spec, estimators=("mr_seq",))
        assert rep.summaries[0].kind == "mr_seq"
        assert np.all(np.isfinite(rep.values["mr_seq"]))

    def test_se_scales_with_sample_size(self):
        # quadrupling n halves the spread; the two weighted estimators are
        # heavy-tailed below n=1000 and only enter the band on the larger pair
        sds = {}
        for n in (250, 1000, 4000):
            rep = run_monte_carlo(SimulationSpec(regime="int", n=n, replications=300, seed=111))
            sds[n] = {s.kind: s.mc_se * math.sqrt(300) for s in rep.summaries}
        for kind in ("mle", "mr"):
            assert 0.4 < sds[1000][kind] / sds[250][kind] < 0.6, kind
            assert 0.4 < sds[4000][kind] / sds[1000][kind] < 0.6, kind
        for kind in ("a", "b"):
            assert 0.4 < sds[4000][kind] / sds[1000][kind] < 0.6, kind

    def test_failure_quoted_first_is_the_lowest_numbered(self, monkeypatch):
        # replicate 9 fails at the first role, the outcome, and replicate 3
        # later, at the propensities: the batch records 9 first
        real_draw = simulation_mod.draw_dataset

        def draw(n, seed, *, rep):
            ds = real_draw(n, seed, rep=rep)
            if rep == 9:  # a constant baseline covariate: the outcome design loses rank
                ds = replace(ds, c0=np.ones_like(ds.c0))
            if rep == 3:  # treatment set by the baseline covariate: the propensities are separated
                ds = replace(ds, e=(ds.c0[:, 0] > 1.0).astype(int))
            return ds

        monkeypatch.setattr(simulation_mod, "draw_dataset", draw)
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(SimulationSpec(regime="int", n=200, replications=12, seed=1))
        assert str(err.value).startswith("2/12 replicates failed; first: replicate 3: prop_base: ")

    def test_a_chunk_that_raises_fails_all_its_replicates(self, monkeypatch):
        # n = 200 makes chunks of 81 replicates: a draw that raises fails
        # the first chunk with its text, and the second does not fail
        real_draw = simulation_mod.draw_dataset

        def draw(n, seed, *, rep):
            if rep == 5:
                raise NuisanceError("synthetic failure")
            return real_draw(n, seed, rep=rep)

        monkeypatch.setattr(simulation_mod, "draw_dataset", draw)
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(SimulationSpec(regime="int", n=200, replications=90, seed=1))
        assert str(err.value) == "81/90 replicates failed; first: replicate 1: synthetic failure"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SimulationError, match="estimator"):
            run_monte_carlo(SimulationSpec(regime="int", n=100, replications=5, seed=1), estimators=("x",))


class TestMonteCarloChunks:
    """A chunk of replicates is fitted as one stacked batch; each replicate's
    values depend on the seed and its index alone."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_values_do_not_depend_on_the_chunk_size(self, regime, monkeypatch):
        spec = SimulationSpec(regime=regime, n=300, replications=9, seed=4)
        runs = {}
        for size in (1, 4, 9):
            monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", size * 2 * spec.n)
            runs[size] = run_monte_carlo(spec, estimators=BETA_KINDS).values
        for kind in BETA_KINDS:
            assert np.all(np.isfinite(runs[1][kind])), kind
            assert np.array_equal(runs[4][kind], runs[1][kind]), kind
            assert np.array_equal(runs[9][kind], runs[1][kind]), kind

    @pytest.mark.parametrize("regime", REGIMES)
    def test_values_do_not_depend_on_the_replicate_count(self, regime):
        few = run_monte_carlo(SimulationSpec(regime=regime, n=300, replications=7, seed=4), estimators=BETA_KINDS)
        many = run_monte_carlo(SimulationSpec(regime=regime, n=300, replications=40, seed=4), estimators=BETA_KINDS)
        for kind in BETA_KINDS:
            assert np.array_equal(few.values[kind], many.values[kind][:7]), kind

    @pytest.mark.parametrize("regime", REGIMES)
    def test_a_batched_replicate_is_its_dataset_evaluated_alone(self, regime):
        # every fit and product of a stacked replicate is the same BLAS call
        # as on its dataset alone, so the values agree bitwise
        spec = SimulationSpec(regime=regime, n=300, replications=6, seed=4)
        report = run_monte_carlo(spec, estimators=BETA_KINDS)
        analysis = Analysis(working_models_for(regime).working_set, tuple((kind, None) for kind in BETA_KINDS))
        coding = PairCoding(pair=TreatmentPair(1, 0))
        for r in range(spec.replications):
            alone = evaluate(draw_dataset(spec.n, spec.seed, rep=r + 1), analysis, coding).beta
            for k, kind in enumerate(BETA_KINDS):
                assert report.values[kind][r] == alone[k], (r, kind)

    @pytest.mark.parametrize("estimators", [("mle", "a", "b", "mr"), BETA_KINDS])
    def test_a_failed_replicate_is_evaluated_once(self, estimators, monkeypatch):
        real_draw = simulation_mod.draw_dataset
        drawn = []

        def draw(n, seed, *, rep):
            drawn.append(rep)
            ds = real_draw(n, seed, rep=rep)
            if rep == 3:  # treatment set by the baseline covariate: the propensities are separated
                ds = replace(ds, e=(ds.c0[:, 0] > 1.0).astype(int))
            return ds

        # n = 1,000 makes chunks of 16 replicates
        spec = SimulationSpec(regime="int", n=1000, replications=100, seed=1)
        clean = run_monte_carlo(spec, estimators=estimators)
        models = working_models_for("int")
        with pytest.raises(NuisanceError) as alone:
            fit_nuisances(draw(spec.n, spec.seed, rep=3), models.working_set, PairCoding(pair=TreatmentPair(1, 0)))
        drawn.clear()
        monkeypatch.setattr(simulation_mod, "draw_dataset", draw)
        report = run_monte_carlo(spec, estimators=estimators)
        assert report.n_failed == 1
        assert report.errors == [f"replicate 3: {alone.value}"]
        # every replicate is drawn once, the failed one too: it fails in its
        # chunk, whose other replicates' mr_seq refits succeed beside its NaN
        # weights, with the text its evaluation alone raises
        assert sorted(drawn) == list(range(1, spec.replications + 1))
        for kind in estimators:
            assert np.isnan(report.values[kind][2]), kind
            others = np.arange(spec.replications) != 2
            assert np.array_equal(report.values[kind][others], clean.values[kind][others]), kind
        with pytest.raises(SimulationError) as err:
            run_monte_carlo(replace(spec, replications=12), estimators=estimators)
        assert str(err.value) == f"1/12 replicates failed; first: replicate 3: {alone.value}"


class TestCsvOutputs:
    def test_replicates_and_summary_round_trip(self, tmp_path):
        rep = run_monte_carlo(SimulationSpec(regime="int", n=300, replications=12, seed=9))
        rpath = tmp_path / "replicates.csv"
        spath = tmp_path / "summary.csv"
        write_replicates_csv(rep, rpath)
        write_summary_csv(rep, spath)
        with open(rpath) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 4
        got = np.array([float(r["value"]) for r in rows if r["estimator"] == "mle"])
        assert np.array_equal(got, rep.values["mle"])
        with open(spath) as fh:
            srows = list(csv.DictReader(fh))
        assert [r["estimator"] for r in srows] == ["mle", "a", "b", "mr"]
        mle_row = srows[0]
        assert float(mle_row["mc_mean"]) == rep.summaries[0].mc_mean
