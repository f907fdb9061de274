import math
from dataclasses import replace

import numpy as np
import pytest

from pathfx.core import PairCoding, TreatmentPair, dataset_from_arrays, recode_pair
from pathfx.estimators import (
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
    influence_values,
    weight_diagnostics,
)
from pathfx.nuisance import (
    NuisanceComponents,
    NuisanceFunctions,
    StabilizeFlags,
    components_from_functions,
    compute_components,
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


def _fitted(ds, regime="int", marginal=True, stabilize=None):
    models = working_models_for(regime, include_marginal=marginal)
    fits = fit_nuisances(ds, models.working_set, CODING)
    return compute_components(ds, fits, stabilize=stabilize or models.stabilize), fits


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
        rhs = delta_aipw(rec, comp, y0=comp.b_doubleprime)
        assert abs(lhs - rhs) < 1e-10

    def test_collapse_holds_under_weights(self):
        rec, comp = self._identity_components(72)
        w = np.random.default_rng(1).exponential(1.0, rec.n)
        assert abs(beta_a(rec, comp, w) - delta_ipw(rec, comp, w)) < 1e-10
        assert abs(beta_mr(rec, comp, w) - delta_aipw(rec, comp, w, y0=comp.b_doubleprime)) < 1e-10

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
        comp, _ = _fitted(ds, stabilize=StabilizeFlags.all_off())
        share0 = float((ds.e == 0).mean())
        comp_const = replace(comp, p_baseline=np.full(ds.n, share0))
        want = float(ds.y[ds.e == 0].sum()) / (ds.n * share0)
        assert delta_ipw(ds, comp_const) == pytest.approx(want, abs=1e-12)

    def test_aipw_with_zero_outcome_model_is_ipw(self):
        ds = draw_dataset(400, 82)
        comp, _ = _fitted(ds)
        assert delta_aipw(ds, comp, y0=np.zeros(ds.n)) == pytest.approx(
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
        from pathfx.glm import fit_ols, predict_mean

        spec = DesignSpec.parse("1, c0_1")
        fit = fit_ols(build_design_matrix(ds, spec), ds.y, design=spec)
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
        seq = beta_mr_sequential(
            ds, models.working_set, CODING, stabilize=StabilizeFlags.all_on(), weights=w
        )
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

    @pytest.mark.parametrize("weighted", [False, True])
    def test_given_components_match_the_default_fit(self, weighted):
        ds = draw_dataset(700, 93)
        models = working_models_for("b")
        w = np.random.default_rng(3).exponential(1.0, ds.n) if weighted else None
        stab = StabilizeFlags.all_on()
        comp = compute_components(
            ds, fit_nuisances(ds, models.working_set, CODING, w), stabilize=stab, weights=w
        )
        given = beta_mr_sequential(ds, models.working_set, CODING, stabilize=stab, weights=w, comp=comp)
        default = beta_mr_sequential(ds, models.working_set, CODING, stabilize=stab, weights=w)
        assert given.value == default.value
        assert given.term_values == default.term_values
        assert np.array_equal(given.b_doubleprime, default.b_doubleprime)

    def test_agrees_with_mr_across_replicates(self):
        diffs = []
        for r in range(120):
            ds = draw_dataset(1000, 92, rep=r + 1)
            models = working_models_for("int")
            fits = fit_nuisances(ds, models.working_set, CODING)
            comp = compute_components(ds, fits, stabilize=models.stabilize)
            seq = beta_mr_sequential(ds, models.working_set, CODING, stabilize=models.stabilize)
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
