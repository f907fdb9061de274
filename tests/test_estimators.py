import math
import re
from dataclasses import replace

import numpy as np
import pytest

import pathfx.estimators as estimators_mod
import pathfx.nuisance as nuisance_mod
from pathfx.core import Dataset, DesignSpec, PairCoding, TreatmentPair, dataset_from_arrays, recode_pair, wmean
from pathfx.estimators import (
    BETA_KINDS,
    DEFAULT_DELTA_FOR,
    Analysis,
    EstimationError,
    beta_a,
    beta_b,
    beta_mle,
    beta_mr,
    beta_mr_sequential,
    combine_effect,
    delta_aipw,
    delta_gformula,
    delta_ipw,
    evaluate,
    influence_values,
    weight_diagnostics,
)
from pathfx.glm import Family
from pathfx.nuisance import (
    ModelSpec,
    NuisanceComponents,
    NuisanceError,
    NuisanceFunctions,
    StabilizeFlags,
    WorkingModelSet,
    components_from_functions,
    compute_components,
    default_working_set,
    fit_nuisances,
)
from pathfx.simulation import (
    closed_form_beta0,
    closed_form_delta0,
    draw_dataset,
    truth,
    working_models_for,
)

CODING = PairCoding(pair=TreatmentPair(1, 0))


def _true_functions(with_marginal=False):
    return NuisanceFunctions(
        prob_comparison_base=truth.propensity,
        m_ratio=truth.m_ratio,
        c1_ratio=truth.c1_ratio,
        b=truth.b,
        b_prime=truth.b_prime,
        b_doubleprime=truth.b_doubleprime,
        y0_marginal=(lambda c0: truth.marginal_outcome(c0, 0)) if with_marginal else None,
    )


def _fitted(ds, regime="int", marginal=True):
    models = working_models_for(regime, include_marginal=marginal)
    fits = fit_nuisances(ds, models.working_set, CODING)
    return compute_components(ds, fits), fits


class TestIdentityCollapse:
    def _identity_components(self, seed):
        ds = draw_dataset(500, seed)
        models = working_models_for("int", include_marginal=True)
        fits = fit_nuisances(ds, models.working_set, CODING)
        rec, id_coding = recode_pair(ds, TreatmentPair(0, 0), allow_identity=True)
        fits_id = replace(fits, coding=id_coding)
        comp = compute_components(rec, fits_id, stabilize=StabilizeFlags.all_on())
        return rec, comp

    def test_beta_a_equals_delta_ipw(self):
        rec, comp = self._identity_components(70)
        assert abs(beta_a(rec, comp) - delta_ipw(rec, comp)) < 1e-10

    def test_beta_mr_equals_delta_aipw_with_nested_mean(self):
        rec, comp = self._identity_components(71)
        lhs = beta_mr(rec, comp)
        rhs = delta_aipw(rec, replace(comp, y0_marginal=comp.b_doubleprime))
        assert abs(lhs - rhs) < 1e-10

    def test_collapse_holds_under_weights(self):
        rec, comp = self._identity_components(72)
        comp = replace(comp, weights=np.random.default_rng(1).exponential(1.0, rec.n))
        assert abs(beta_a(rec, comp) - delta_ipw(rec, comp)) < 1e-10
        nested = replace(comp, y0_marginal=comp.b_doubleprime)
        assert abs(beta_mr(rec, comp) - delta_aipw(rec, nested)) < 1e-10

    def test_beta_b_with_saturated_regression_equals_delta_ipw(self):
        # when the outcome regression reproduces Y exactly, the comparison-arm
        # representation collapses onto the weighted outcome mean
        rec, comp = self._identity_components(73)
        comp_sat = replace(comp, b=rec.y.copy())
        assert abs(beta_b(rec, comp_sat) - delta_ipw(rec, comp)) < 1e-10

    def test_beta_mle_near_delta_gformula_in_identity_mode(self):
        # population identity only; on one draw they differ by sampling noise
        ds = draw_dataset(4000, 74)
        rec, id_coding = recode_pair(ds, TreatmentPair(0, 0), allow_identity=True)
        models = working_models_for("int", include_marginal=True)
        fits = fit_nuisances(rec, models.working_set, id_coding)
        comp = compute_components(rec, fits)
        assert beta_mle(rec, comp) == pytest.approx(delta_gformula(rec, comp), abs=0.25)


class TestWeightsEnterOnce:
    """The weights given to ``fit_nuisances`` reach every estimator through
    the components: each value is bitwise the mean of its summands under
    them."""

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_every_estimator_means_under_the_fit_weights(self, shape, monkeypatch):
        ds = draw_dataset(1000, 3)
        working_set = working_models_for("int", include_marginal=True).working_set
        w = np.random.default_rng(1).exponential(1.0, (3, ds.n) if shape == "batch" else ds.n)
        comp = compute_components(ds, fit_nuisances(ds, working_set, CODING, w))
        w_base, w_comp = comp.ind_baseline / comp.p_baseline, comp.ind_comparison / comp.p_comparison
        summands = {
            beta_mle: comp.b_doubleprime,
            beta_a: w_base * comp.m_ratio * ds.y,
            beta_b: w_comp / comp.c1_ratio * comp.b,
            beta_mr: influence_values(ds, comp, 0.0),
            delta_gformula: comp.y0_marginal,
            delta_ipw: comp.ind_baseline * ds.y / comp.p_baseline,
            delta_aipw: w_base * (ds.y - comp.y0_marginal) + comp.y0_marginal,
        }
        for estimator, values in summands.items():
            assert np.array_equal(estimator(ds, comp), wmean(values, w)), estimator.__name__
        assert comp.weights is w

        # mr_seq's residual terms and its value are means of the refits'
        # summands, each under the fit weights
        means = []

        def recording_wmean(values, weights):
            means.append((values, weights))
            return wmean(values, weights)

        monkeypatch.setattr(estimators_mod, "wmean", recording_wmean)
        seq = beta_mr_sequential(ds, working_set, CODING, comp=comp)
        assert len(means) == 4
        for _, weights in means:
            assert np.array_equal(weights, w)
        assert np.array_equal(seq.value, wmean(means[-1][0], w))


class TestNullAndLinearity:
    def test_zero_outcome_gives_zero(self):
        ds = draw_dataset(200, 75)
        comp, fits = _fitted(ds)
        comp0 = replace(comp, b=np.zeros(ds.n), b_prime=np.zeros(ds.n), b_doubleprime=np.zeros(ds.n))
        assert beta_mle(ds, comp0) == 0.0
        assert beta_b(ds, comp0) == 0.0

    def test_zero_y_gives_zero_beta_a(self):
        ds = draw_dataset(200, 76)
        comp, _ = _fitted(ds)
        ds0 = dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, np.zeros(ds.n))
        assert beta_a(ds0, comp) == 0.0

    def test_residual_free_mr_reduces_to_nested_mean_average(self):
        ds = draw_dataset(200, 77)
        comp, _ = _fitted(ds)
        flat = np.full(ds.n, 1.7)
        comp_flat = replace(comp, b=flat, b_prime=flat, b_doubleprime=flat)
        ds_flat = dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, flat)
        assert beta_mr(ds_flat, comp_flat) == pytest.approx(1.7, abs=1e-12)


class TestInfluenceFunction:
    def test_mean_zero_at_beta_mr(self):
        ds = draw_dataset(600, 78)
        comp, _ = _fitted(ds)
        bmr = beta_mr(ds, comp)
        assert abs(float(np.mean(influence_values(ds, comp, bmr)))) < 1e-12

    def test_mean_equals_beta_mr_minus_beta(self):
        ds = draw_dataset(300, 79)
        comp, _ = _fitted(ds)
        bmr = beta_mr(ds, comp)
        v = influence_values(ds, comp, 1.234)
        assert float(np.mean(v)) == pytest.approx(bmr - 1.234, abs=1e-12)

    def test_degenerate_record_gives_zero(self):
        beta = 2.0
        flat = np.array([beta])
        ds = dataset_from_arrays(
            np.array([[0.5]]), np.array([0]), np.array([[0.1, 0.2, 0.3]]),
            np.array([0.4]), flat,
        )
        comp = NuisanceComponents(
            ind_comparison=np.array([0.0]), ind_baseline=np.array([1.0]),
            p_baseline=np.array([0.5]), p_comparison=np.array([0.5]),
            m_ratio=np.array([1.3]), c1_ratio=np.array([0.8]),
            b=flat.copy(), b_prime=flat.copy(), b_doubleprime=flat.copy(),
        )
        assert influence_values(ds, comp, beta)[0] == 0.0

    def test_unbiased_at_true_nuisances(self):
        ds = draw_dataset(1_000_000, 80)
        comp = components_from_functions(ds, CODING, _true_functions())
        v = influence_values(ds, comp, closed_form_beta0())
        se = float(v.std(ddof=1)) / math.sqrt(ds.n)
        assert abs(float(v.mean())) < 3 * se


class TestDeltas:
    def test_ipw_constant_propensity_closed_form(self):
        ds = draw_dataset(400, 81)
        comp, _ = _fitted(ds)
        share0 = float((ds.e == 0).mean())
        comp_const = replace(comp, p_baseline=np.full(ds.n, share0))
        want = float(ds.y[ds.e == 0].sum()) / (ds.n * share0)
        assert delta_ipw(ds, comp_const) == pytest.approx(want, abs=1e-12)

    def test_aipw_with_zero_outcome_model_is_ipw(self):
        ds = draw_dataset(400, 82)
        comp, _ = _fitted(ds)
        assert delta_aipw(ds, replace(comp, y0_marginal=np.zeros(ds.n))) == pytest.approx(
            delta_ipw(ds, comp), abs=1e-12
        )

    def test_aipw_with_perfect_outcome_model_is_its_mean(self):
        ds = draw_dataset(400, 83)
        comp, _ = _fitted(ds)
        ds_pred = dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, comp.y0_marginal)
        assert delta_aipw(ds_pred, comp) == pytest.approx(float(comp.y0_marginal.mean()), abs=1e-12)

    def test_gformula_on_large_draw(self):
        ds = draw_dataset(200_000, 84)
        comp, _ = _fitted(ds)
        assert delta_gformula(ds, comp) == pytest.approx(closed_form_delta0(), abs=0.02)

    def test_ipw_centers_on_baseline_mean(self):
        vals = []
        for r in range(150):
            ds = draw_dataset(1000, 96, rep=r + 1)
            comp, _ = _fitted(ds)
            vals.append(delta_ipw(ds, comp))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - closed_form_delta0()) < 3 * se

    def test_gformula_zero_coefficients(self):
        ds = draw_dataset(100, 97)
        comp, _ = _fitted(ds)
        assert delta_gformula(ds, replace(comp, y0_marginal=np.zeros(ds.n))) == 0.0

    def test_gformula_all_baseline_is_outcome_mean(self):
        # with every record at baseline, the marginal fit's baseline
        # prediction averages to the sample outcome mean (no extrapolation)
        rng = np.random.default_rng(98)
        n = 300
        ds = dataset_from_arrays(
            rng.uniform(0, 2, (n, 1)), np.zeros(n, dtype=int),
            rng.standard_normal((n, 3)), rng.standard_normal(n), rng.standard_normal(n),
        )
        from pathfx.core import DesignSpec, build_design_matrix
        from pathfx.glm import fit_glm, predict_mean

        spec = DesignSpec.parse("1, c0_1")
        fit = fit_glm(build_design_matrix(ds, spec), ds.y, Family.GAUSSIAN, design=spec)
        y0 = np.asarray(predict_mean(fit, build_design_matrix(ds, spec)))
        assert float(y0.mean()) == pytest.approx(float(ds.y.mean()), abs=1e-10)

    def test_beta_mle_large_draw_near_target(self):
        ds = draw_dataset(200_000, 99)
        comp, _ = _fitted(ds, marginal=False)
        assert beta_mle(ds, comp) == pytest.approx(closed_form_beta0(), abs=0.02)

    def test_aipw_consistent_under_wrong_propensity(self):
        # correct outcome model + link-swapped propensity: residual term centers at 0
        vals = []
        for r in range(150):
            ds = draw_dataset(1000, 85, rep=r + 1)
            comp, _ = _fitted(ds, regime="c")
            vals.append(delta_aipw(ds, comp))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - closed_form_delta0()) < 3 * se


class TestCombineEffect:
    def test_mean_difference(self):
        assert combine_effect(2.678, 3.596, "mean_difference") == pytest.approx(-0.918)

    def test_log_risk_ratio_identity(self):
        assert combine_effect(1.7, 1.7, "log_risk_ratio") == 0.0

    def test_log_risk_ratio_requires_positive(self):
        with pytest.raises(EstimationError, match="positive"):
            combine_effect(-0.1, 1.0, "log_risk_ratio")

    def test_unknown_scale(self):
        with pytest.raises(EstimationError, match="scale"):
            combine_effect(1.0, 1.0, "odds")


class TestAffineEquivariance:
    def _shifted(self, ds, c):
        return dataset_from_arrays(ds.c0, ds.e, ds.c1, ds.m, ds.y + c)

    def test_exact_for_nested_mean_estimators(self):
        c = 3.7
        ds = draw_dataset(500, 86)
        ds_c = self._shifted(ds, c)
        comp, _ = _fitted(ds)
        comp_c, _ = _fitted(ds_c)
        assert beta_mle(ds_c, comp_c) - beta_mle(ds, comp) == pytest.approx(c, abs=1e-10)
        assert delta_gformula(ds_c, comp_c) - delta_gformula(ds, comp) == pytest.approx(c, abs=1e-10)

    def test_exact_for_residual_structured_estimators(self):
        c = -2.2
        ds = draw_dataset(500, 87)
        ds_c = self._shifted(ds, c)
        comp, _ = _fitted(ds)
        comp_c, _ = _fitted(ds_c)
        assert beta_mr(ds_c, comp_c) - beta_mr(ds, comp) == pytest.approx(c, abs=1e-10)
        assert delta_aipw(ds_c, comp_c) - delta_aipw(ds, comp) == pytest.approx(c, abs=1e-10)

    def test_weighted_forms_shift_by_weight_mean(self):
        # the pure inverse-probability forms shift by c * Pn[w] exactly
        c = 1.9
        ds = draw_dataset(500, 88)
        ds_c = self._shifted(ds, c)
        comp, _ = _fitted(ds)
        comp_c, _ = _fitted(ds_c)
        w_a = comp.ind_baseline / comp.p_baseline * comp.m_ratio
        assert beta_a(ds_c, comp_c) - beta_a(ds, comp) == pytest.approx(
            c * float(w_a.mean()), abs=1e-10
        )
        w_d = comp.ind_baseline / comp.p_baseline
        assert delta_ipw(ds_c, comp_c) - delta_ipw(ds, comp) == pytest.approx(
            c * float(w_d.mean()), abs=1e-10
        )


class TestSequential:
    def test_terms_vanish(self):
        ds = draw_dataset(1200, 89)
        models = working_models_for("int")
        seq = beta_mr_sequential(ds, models.working_set, CODING)
        for term in seq.term_values:
            assert abs(term) < 1e-8

    def test_terms_vanish_under_weights_and_stabilization(self):
        ds = draw_dataset(800, 90)
        models = working_models_for("int")
        w = np.random.default_rng(2).exponential(1.0, ds.n)
        comp = compute_components(ds, fit_nuisances(ds, models.working_set, CODING, w),
                                  stabilize=StabilizeFlags.all_on())
        seq = beta_mr_sequential(ds, models.working_set, CODING, comp=comp)
        for term in seq.term_values:
            assert abs(term) < 1e-8

    def test_identity_mode_reduces_to_nested_mean_estimator(self):
        ds = draw_dataset(600, 91)
        rec, id_coding = recode_pair(ds, TreatmentPair(1, 1), allow_identity=True)
        models = working_models_for("int")
        seq = beta_mr_sequential(rec, models.working_set, id_coding)
        fits = fit_nuisances(rec, models.working_set, id_coding)
        comp = compute_components(rec, fits)
        assert seq.value == pytest.approx(beta_mle(rec, comp), abs=1e-10)

    def test_given_components_match_the_default_fit(self):
        ds = draw_dataset(700, 93)
        models = working_models_for("b")
        comp = compute_components(ds, fit_nuisances(ds, models.working_set, CODING))
        given = beta_mr_sequential(ds, models.working_set, CODING, comp=comp)
        default = beta_mr_sequential(ds, models.working_set, CODING)
        assert given.value == default.value
        assert given.term_values == default.term_values

    def test_a_failed_replicate_leaves_its_batch_mates(self):
        # a replicate whose nuisances failed carries NaN components into the
        # batch's refits; only its own refits fail, and the chunk stands
        ds = draw_dataset(500, 96)
        working_set = working_models_for("int").working_set
        W = np.random.default_rng(97).exponential(1.0, (4, ds.n))
        comp = compute_components(ds, fit_nuisances(ds, working_set, CODING, weights=W))
        clean = beta_mr_sequential(ds, working_set, CODING, comp=comp)
        for field in ("m_ratio", "c1_ratio", "p_baseline"):
            broken = getattr(comp, field).copy()
            broken[1, 7] = np.nan
            seq = beta_mr_sequential(ds, working_set, CODING, comp=replace(comp, **{field: broken}))
            assert np.isnan(seq.value[1]), field
            assert np.array_equal(seq.value[[0, 2, 3]], clean.value[[0, 2, 3]]), field

    def test_row_subsets_stay_column_major(self, monkeypatch):
        layouts = []
        least_squares = estimators_mod._least_squares

        def recording_fit(X, *args, **kwargs):
            layouts.append(X.flags.f_contiguous)
            return least_squares(X, *args, **kwargs)

        monkeypatch.setattr(estimators_mod, "_least_squares", recording_fit)
        ds = draw_dataset(500, 95)
        beta_mr_sequential(ds, working_models_for("int").working_set, CODING)
        assert layouts == [True] * 3  # outcome, mediator and the c1 means' one design

    @pytest.mark.parametrize("given", [False, True], ids=["own-fit", "given-components"])
    def test_discrete_pathway_set_is_refused(self, given):
        ds = draw_dataset(600, 94)
        binary = dataset_from_arrays(ds.c0, ds.e, (ds.c1 > 0).astype(float),
                                     (ds.m > np.median(ds.m)).astype(float), ds.y)
        models = dict(working_models_for("int").working_set.models)
        models["mediator_mean"] = ModelSpec(Family.LOGIT, DesignSpec.parse("1, c0_1, e, c1_1, c1_2, c1_3"))
        for j in (1, 2, 3):
            models[f"c1_mean_{j}"] = ModelSpec(Family.LOGIT, DesignSpec.parse("1, c0_1, e"))
        models["prop_m"] = ModelSpec(Family.LOGIT, DesignSpec.parse("1, c0_1, c1_1, c1_2, c1_3, m"))
        working_set = WorkingModelSet(models)
        comp = None
        if given:
            comp = compute_components(binary, fit_nuisances(binary, working_set, CODING, pathway="discrete"))
        with pytest.raises(NuisanceError) as err:
            beta_mr_sequential(binary, working_set, CODING, comp=comp)
        assert str(err.value) == "mediator_mean: linear pathway requires a gaussian mean model"

    def test_agrees_with_mr_across_replicates(self):
        diffs = []
        for r in range(120):
            ds = draw_dataset(1000, 92, rep=r + 1)
            models = working_models_for("int")
            fits = fit_nuisances(ds, models.working_set, CODING)
            comp = compute_components(ds, fits)
            seq = beta_mr_sequential(ds, models.working_set, CODING)
            diffs.append(seq.value - beta_mr(ds, comp))
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3 * max(se, 1e-6)


class TestMonteCarloBehavior:
    def test_weighted_estimators_center_on_target(self):
        vals_a, vals_b = [], []
        for r in range(150):
            ds = draw_dataset(1000, 93, rep=r + 1)
            comp, _ = _fitted(ds, marginal=False)
            vals_a.append(beta_a(ds, comp))
            vals_b.append(beta_b(ds, comp))
        tgt = closed_form_beta0()
        for vals in (np.array(vals_a), np.array(vals_b)):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - tgt) < 3 * se

    def test_estimator_spread_shrinks_with_n(self):
        spreads = {250: [], 1000: []}
        for n in spreads:
            for r in range(50):
                ds = draw_dataset(n, 94, rep=r + 1)
                comp, _ = _fitted(ds, marginal=False)
                vals = [beta_mle(ds, comp), beta_a(ds, comp), beta_b(ds, comp), beta_mr(ds, comp)]
                spreads[n].append(max(vals) - min(vals))
        assert np.median(spreads[1000]) < np.median(spreads[250])


class TestDiagnostics:
    def test_weight_diagnostics_fields(self):
        ds = draw_dataset(300, 95)
        comp, _ = _fitted(ds)
        diag = weight_diagnostics(comp)
        assert diag["max_weight_baseline"] > 0
        assert 0 < diag["ess_baseline"] <= ds.n
        assert 0 < diag["ess_comparison"] <= ds.n


class TestEvaluate:
    # every estimator with its default baseline mean, and mr alone
    PAIRS = tuple((kind, DEFAULT_DELTA_FOR[kind]) for kind in BETA_KINDS) + (("mr", None),)

    @staticmethod
    def _assert_rows_are_alone(batch, alone):
        for b, single in enumerate(alone):
            for field in ("beta", "delta", "effect"):
                assert np.array_equal(getattr(batch, field)[b], getattr(single, field), equal_nan=True), (b, field)

    def test_a_wild_batch_row_is_its_single_evaluation(self):
        ds = draw_dataset(400, 31)
        analysis = Analysis(working_models_for("int", include_marginal=True).working_set, self.PAIRS,
                            stabilize=StabilizeFlags(m_ratio=True, c1_ratio=True))
        W = np.random.default_rng(32).exponential(1.0, (3, ds.n))
        batch = evaluate(ds, analysis, CODING, weights=W)
        assert batch.beta.shape == batch.delta.shape == batch.effect.shape == (3, len(self.PAIRS))
        assert batch.comp.failures == {}
        self._assert_rows_are_alone(batch, [evaluate(ds, analysis, CODING, weights=w) for w in W])

    def test_a_stacked_chunk_row_is_its_dataset_evaluated_alone(self):
        drawn = [draw_dataset(300, 4, rep=r) for r in (1, 2, 3)]
        stacked = Dataset(**{f: np.stack([getattr(d, f) for d in drawn]) for f in Dataset.__dataclass_fields__})
        analysis = Analysis(working_models_for("a", include_marginal=True).working_set, self.PAIRS)
        batch = evaluate(stacked, analysis, CODING)
        assert batch.beta.shape == (3, len(self.PAIRS))
        self._assert_rows_are_alone(batch, [evaluate(d, analysis, CODING) for d in drawn])

    def test_a_replicate_that_fails_its_components_is_nan_for_every_pair(self):
        # the steep exposure, e ~ expit(5 c0_1), unclipped: some wild
        # replicates' fitted propensities reach 1
        rng = np.random.default_rng(2)
        ds = draw_dataset(200, 2)
        ds = dataset_from_arrays(ds.c0, (rng.random(ds.n) < 1.0 / (1.0 + np.exp(-5.0 * ds.c0[:, 0]))).astype(int),
                                 ds.c1, ds.m, ds.y)
        W = np.random.default_rng(3).exponential(1.0, (40, ds.n))
        analysis = Analysis(default_working_set(ds.d0, ds.d1), (("mle", "gformula"), ("mr", "aipw")), clip=None)
        batch = evaluate(ds, analysis, CODING, weights=W)
        failed = sorted(batch.comp.failures)
        assert failed and all("positivity is violated" in batch.comp.failures[b] for b in failed)
        kept = np.setdiff1d(np.arange(40), failed)
        for field in ("beta", "delta", "effect"):
            values = getattr(batch, field)
            assert np.isnan(values[failed]).all(), field
            assert np.isfinite(values[kept]).all(), field

    def test_a_refit_failure_is_nan_for_mr_seq_alone(self):
        # c1_2 is zero on the baseline arm but for three records, which
        # replicate 1 weights by zero: its outcome refit there loses rank
        ds = draw_dataset(400, 12)
        base = np.flatnonzero(ds.e == 0)
        c1 = ds.c1.copy()
        c1[base[3:], 1] = 0.0
        ds = dataset_from_arrays(ds.c0, ds.e, c1, ds.m, ds.y)
        W = np.random.default_rng(13).exponential(1.0, (3, ds.n))
        W[1, base[:3]] = 0.0
        analysis = Analysis(working_models_for("int", include_marginal=True).working_set, self.PAIRS)
        batch = evaluate(ds, analysis, CODING, weights=W)
        assert list(batch.comp.failures) == [1]
        assert batch.comp.failures[1].startswith("outcome: design matrix is rank deficient at c1_2")
        seq = BETA_KINDS.index("mr_seq")
        for field in ("beta", "effect"):
            values = getattr(batch, field)
            assert np.isnan(values[1, seq]), field
            assert np.isfinite(np.delete(values[1], [seq, len(self.PAIRS) - 1])).all(), field
        assert np.isfinite(batch.beta[[0, 2]]).all()

    @pytest.mark.parametrize("change, message", [
        ({"clip": (0.9, 0.1)}, "clip must be None or (lo, hi) with 0 < lo < hi < 1, got (0.9, 0.1)"),
        ({"clip": (0.0, 1.0)}, "clip must be None or (lo, hi) with 0 < lo < hi < 1, got (0.0, 1.0)"),
        ({"clip": (-1, 2)}, "clip must be None or (lo, hi) with 0 < lo < hi < 1, got (-1, 2)"),
        ({"pairs": ()}, "an analysis needs at least one (beta, delta) pair"),
        ({"pairs": (("foo", None),)}, "unknown estimator 'foo'"),
        ({"pairs": (("mr", "bar"),)}, "unknown delta estimator 'bar'"),
        ({"pairs": (("mle",),)}, "('mle',) is not a (beta, delta) pair"),
        ({"scale": "ratio"}, "unknown effect scale 'ratio'"),
    ], ids=["clip-reversed", "clip-0-1", "clip-outside", "no-pairs", "unknown-beta", "unknown-delta",
            "not-a-pair", "unknown-scale"])
    def test_a_malformed_analysis_is_refused_before_any_fit(self, change, message, monkeypatch):
        fits = []
        monkeypatch.setattr(nuisance_mod, "fit_glm", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(nuisance_mod, "_least_squares", lambda *args, **kwargs: fits.append(args))
        ds = draw_dataset(300, 1)
        analysis = Analysis(working_models_for("int").working_set, (("mr", None),))
        with pytest.raises(EstimationError, match=re.escape(message)):
            evaluate(ds, replace(analysis, **change), CODING)
        assert fits == []

    def test_pairs_that_share_a_baseline_mean_compute_it_once(self, monkeypatch):
        calls = []
        real = estimators_mod.DELTA_FUNCS["aipw"]
        monkeypatch.setitem(estimators_mod.DELTA_FUNCS, "aipw", lambda *args: calls.append(1) or real(*args))
        ds = draw_dataset(300, 34)
        analysis = Analysis(default_working_set(ds.d0, ds.d1), (("b", "aipw"), ("mr", "aipw")))
        evaluation = evaluate(ds, analysis, CODING)
        assert len(calls) == 1
        assert evaluation.delta[0] == evaluation.delta[1]

    def test_the_default_analysis_is_compute_components_default(self):
        # each pair's column holds its own estimators' values on
        # compute_components(ds, fits)' defaults
        ds = draw_dataset(500, 35)
        working_set = default_working_set(ds.d0, ds.d1)
        comp = compute_components(ds, fit_nuisances(ds, working_set, CODING))
        evaluation = evaluate(ds, Analysis(working_set, self.PAIRS), CODING)
        for k, (kind, delta_kind) in enumerate(self.PAIRS):
            beta = (beta_mr_sequential(ds, working_set, CODING, comp=comp).value if kind == "mr_seq"
                    else estimators_mod.BETA_FUNCS[kind](ds, comp))
            assert evaluation.beta[k] == beta, (kind, delta_kind)
            if delta_kind is None:
                assert np.isnan(evaluation.delta[k]) and np.isnan(evaluation.effect[k]), kind
                continue
            delta = estimators_mod.DELTA_FUNCS[delta_kind](ds, comp)
            assert evaluation.delta[k] == delta, (kind, delta_kind)
            assert evaluation.effect[k] == beta - delta, (kind, delta_kind)
