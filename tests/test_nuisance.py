import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logit

from pathfx.core import (
    DesignSpec,
    PairCoding,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    recode_pair,
)
from pathfx.glm import Family, FittedGlm
from pathfx.nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_C1,
    ROLE_PROP_M,
    ModelSpec,
    NuisanceError,
    NuisanceFits,
    PositivityError,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    c1_ratio,
    compute_components,
    fit_nuisances,
    m_ratio,
    nested_mean_b,
    nested_mean_b_doubleprime,
    nested_mean_b_prime,
    stabilize_probabilities,
)
from pathfx.simulation import (
    MEDIATOR_CORRECT,
    OUTCOME_CORRECT,
    PROP_BASE_DESIGN,
    PROP_C1_CORRECT,
    PROP_M_CORRECT,
    C1_MEAN_CORRECT,
    draw_dataset,
    truth,
    working_models_for,
)

CODING = PairCoding(pair=TreatmentPair(1, 0))


def _glm(design_text, coef, family=Family.GAUSSIAN):
    design = DesignSpec.parse(design_text)
    return FittedGlm(family, np.asarray(coef, dtype=float), True, 0, design)


def _true_fits(d1=3):
    """Working-model fits whose coefficients are the population values."""
    fits = {
        ROLE_OUTCOME: _glm(OUTCOME_CORRECT, [0.2, 0.2, 0.6, 1.0, 0.7, 0.3, -0.9, -0.8]),
        ROLE_MEDIATOR: _glm(MEDIATOR_CORRECT, [-0.5, -0.2, 0.3, -0.2, 0.1, 0.5, 0.4]),
        ROLE_PROP_BASE: _glm(PROP_BASE_DESIGN, [0.9, 0.3], Family.LOGIT),
        ROLE_PROP_C1: _glm(PROP_C1_CORRECT, truth.prop_c1_coef(), Family.LOGIT),
        ROLE_PROP_M: _glm(PROP_M_CORRECT, truth.prop_m_coef(), Family.LOGIT),
        c1_mean_role(1): _glm(C1_MEAN_CORRECT, [0.8, 1.0, 0.5, -0.1]),
        c1_mean_role(2): _glm(C1_MEAN_CORRECT, [0.6, 0.1, -0.4, 0.8]),
        c1_mean_role(3): _glm(C1_MEAN_CORRECT, [-0.3, 0.2, 0.5, -0.2]),
    }
    return NuisanceFits(fits=fits, coding=CODING, pathway="linear", d1=d1)


class TestFitNuisances:
    def test_full_set_converges(self):
        ds = draw_dataset(1500, 21)
        models = working_models_for("int", include_marginal=True)
        fits = fit_nuisances(ds, models.working_set, CODING)
        roles = set(models.working_set.roles())
        assert len(roles) == 6 + ds.d1
        for role in roles:
            assert fits[role].converged, role

    def test_unit_weights_match_unweighted(self):
        ds = draw_dataset(500, 22)
        models = working_models_for("int")
        a = fit_nuisances(ds, models.working_set, CODING)
        b = fit_nuisances(ds, models.working_set, CODING, weights=np.ones(ds.n))
        for role in models.working_set.roles():
            assert np.max(np.abs(a[role].coef - b[role].coef)) < 1e-12, role

    def test_bad_design_names_role(self):
        ds = draw_dataset(100, 23)
        models = working_models_for("int")
        broken = dict(models.working_set.models)
        broken[ROLE_MEDIATOR] = ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1, c1_9"))
        with pytest.raises(NuisanceError, match="mediator_mean"):
            fit_nuisances(ds, WorkingModelSet(broken), CODING)

    def test_linear_pathway_rejects_mediator_square(self):
        ds = draw_dataset(100, 24)
        models = working_models_for("int")
        broken = dict(models.working_set.models)
        broken[ROLE_OUTCOME] = ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1, c0_1, e, m, m^2"))
        with pytest.raises(NuisanceError, match="linearity"):
            fit_nuisances(ds, WorkingModelSet(broken), CODING)


class TestDensityRatios:
    def test_m_ratio_cancellation_when_m_terms_zero(self):
        ds = draw_dataset(200, 25)
        fits = _true_fits()
        # zero the mediator terms of the (m, c1, c0) propensity and make the
        # rest coincide with the (c1, c0) propensity on its shared terms
        coef = np.zeros(len(fits[ROLE_PROP_M].coef))
        coef[: len(truth.prop_c1_coef())] = truth.prop_c1_coef()
        patched = dict(fits.fits)
        patched[ROLE_PROP_M] = replace(fits[ROLE_PROP_M], coef=coef)
        fits = replace(fits, fits=patched)
        ratio = m_ratio(fits, ds)
        assert np.max(np.abs(ratio - 1.0)) < 1e-12

    def test_c1_ratio_cancellation_when_c1_terms_zero(self):
        ds = draw_dataset(200, 26)
        fits = _true_fits()
        coef = np.zeros(len(fits[ROLE_PROP_C1].coef))
        coef[:2] = [0.9, 0.3]
        patched = dict(fits.fits)
        patched[ROLE_PROP_C1] = replace(fits[ROLE_PROP_C1], coef=coef)
        fits = replace(fits, fits=patched)
        ratio = c1_ratio(fits, ds)
        assert np.max(np.abs(ratio - 1.0)) < 1e-12

    def test_m_ratio_matches_analytic_normal_ratio(self):
        ds = draw_dataset(500, 27)
        fits = _true_fits()
        got = m_ratio(fits, ds)
        want = truth.m_ratio(ds.m, ds.c1, ds.c0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_c1_ratio_matches_analytic_normal_ratio(self):
        ds = draw_dataset(500, 28)
        fits = _true_fits()
        got = c1_ratio(fits, ds)
        want = truth.c1_ratio(ds.c1, ds.c0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_ratios_strictly_positive(self):
        ds = draw_dataset(300, 29)
        fits = _true_fits()
        assert np.all(m_ratio(fits, ds) > 0)
        assert np.all(c1_ratio(fits, ds) > 0)

    def test_identity_mode_ratios_are_one(self):
        ds = draw_dataset(300, 30)
        rec, id_coding = recode_pair(ds, TreatmentPair(1, 1), allow_identity=True)
        fits = replace(_true_fits(), coding=id_coding)
        assert np.all(m_ratio(fits, rec) == 1.0)
        assert np.all(c1_ratio(fits, rec) == 1.0)

    def test_positivity_violation_reports_record(self):
        ds = draw_dataset(50, 31)
        fits = _true_fits()
        coef = fits[ROLE_PROP_M].coef.copy()
        coef[0] = 60.0  # pins probabilities at 1 numerically
        patched = dict(fits.fits)
        patched[ROLE_PROP_M] = replace(fits[ROLE_PROP_M], coef=coef)
        fits = replace(fits, fits=patched)
        with pytest.raises(PositivityError, match="record 0"):
            m_ratio(fits, ds, clip=None)
        clipped = m_ratio(fits, ds, clip=(1e-6, 1 - 1e-6))
        assert np.all(np.isfinite(clipped))


class TestStabilization:
    def test_fixed_point_at_constant_share(self):
        e = np.array([1, 1, 0, 1])
        share = 0.75
        p = np.full(4, share)
        out = stabilize_probabilities(p, (e == 1).astype(float))
        assert np.max(np.abs(out - p)) < 1e-14

    def test_identity_holds_on_random_fixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 200))
            p = rng.uniform(0.01, 0.99, n)
            ind = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
            if ind.sum() in (0, n):
                continue
            out = stabilize_probabilities(p, ind)
            lhs = np.mean(ind * (1 - out) / out)
            assert abs(lhs - (1 - ind.mean())) < 1e-10

    def test_weight_mean_is_one_after_stabilization(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, 500)
        ind = (rng.random(500) < 0.6).astype(float)
        out = stabilize_probabilities(p, ind)
        assert np.mean(ind / out) == pytest.approx(1.0, abs=1e-10)

    def test_four_record_hand_oracle(self):
        # apply the logit-shift formula by hand and compare
        p = np.array([0.2, 0.4, 0.6, 0.8])
        e = np.array([0, 0, 1, 1])
        ind = (e == 1).astype(float)
        share = 0.5
        odds_sum = np.mean(ind * (1 - p) / p)  # (0.4/0.6 + 0.2/0.8) / 4
        shift = -math.log(1 - share) + math.log(odds_sum)
        want = expit(logit(p) + shift)
        got = stabilize_probabilities(p, ind)
        assert np.max(np.abs(got - want)) < 1e-14
        assert odds_sum == pytest.approx((0.4 / 0.6 + 0.2 / 0.8) / 4)

    def test_degenerate_share_raises(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(NuisanceError, match="share"):
            stabilize_probabilities(p, np.array([1.0, 1.0]))


class TestNestedMeans:
    def test_b_equals_fitted_value_on_baseline_arm(self):
        ds = draw_dataset(300, 33)
        fits = _true_fits()
        b = nested_mean_b(fits, ds)
        X = build_design_matrix(ds, fits[ROLE_OUTCOME].design)
        plain = X @ fits[ROLE_OUTCOME].coef
        on_base = ds.e == 0
        assert np.max(np.abs(b[on_base] - plain[on_base])) < 1e-12

    def test_b_at_true_coefficients(self):
        ds = dataset_from_arrays(
            np.array([[1.0]]), np.array([1]), np.array([[1.0, 1.0, 1.0]]),
            np.array([0.0]), np.array([0.0]),
        )
        fits = _true_fits()
        assert nested_mean_b(fits, ds)[0] == pytest.approx(2.4, abs=1e-12)

    def test_zero_coefficients_give_zero(self):
        ds = draw_dataset(50, 34)
        fits = _true_fits()
        patched = dict(fits.fits)
        patched[ROLE_OUTCOME] = replace(fits[ROLE_OUTCOME], coef=np.zeros(8))
        fits = replace(fits, fits=patched)
        assert np.all(nested_mean_b(fits, ds) == 0.0)
        assert np.all(nested_mean_b_prime(fits, ds) == 0.0)
        assert np.all(nested_mean_b_doubleprime(fits, ds) == 0.0)

    def test_b_prime_drops_mediator_model_when_m_coefficients_zero(self):
        ds = draw_dataset(100, 35)
        fits = _true_fits()
        coef = fits[ROLE_OUTCOME].coef.copy()
        coef[-2:] = 0.0  # mediator main effect and interaction
        patched = dict(fits.fits)
        patched[ROLE_OUTCOME] = replace(fits[ROLE_OUTCOME], coef=coef)
        fits = replace(fits, fits=patched)
        assert np.max(np.abs(nested_mean_b_prime(fits, ds) - nested_mean_b(fits, ds))) < 1e-12

    def test_b_prime_matches_analytic_composition(self):
        ds = draw_dataset(400, 36)
        fits = _true_fits()
        got = nested_mean_b_prime(fits, ds)
        want = truth.b_prime(ds.c1, ds.c0)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_b_doubleprime_drops_c1_model_when_c1_terms_zero(self):
        ds = draw_dataset(100, 37)
        fits = _true_fits()
        out_coef = fits[ROLE_OUTCOME].coef.copy()
        out_coef[3:6] = 0.0  # c1 main effects in the outcome
        med_coef = fits[ROLE_MEDIATOR].coef.copy()
        med_coef[3:7] = 0.0  # c1 terms in the mediator mean
        patched = dict(fits.fits)
        patched[ROLE_OUTCOME] = replace(fits[ROLE_OUTCOME], coef=out_coef)
        patched[ROLE_MEDIATOR] = replace(fits[ROLE_MEDIATOR], coef=med_coef)
        fits = replace(fits, fits=patched)
        diff = nested_mean_b_doubleprime(fits, ds) - nested_mean_b_prime(fits, ds)
        assert np.max(np.abs(diff)) < 1e-12

    def test_b_doubleprime_closed_form(self):
        ds = draw_dataset(400, 38)
        fits = _true_fits()
        got = nested_mean_b_doubleprime(fits, ds)
        c0 = ds.c0[:, 0]
        assert np.max(np.abs(got - (1.447 + 1.231 * c0))) < 1e-10

    def test_b_doubleprime_monte_carlo_crosscheck(self):
        # simulate the two inner averages directly from the generating law
        rng = np.random.default_rng(99)
        n = 1_000_000
        c0 = np.full(n, 0.7)
        c1 = truth.c1_mean(c0, 0) + rng.standard_normal((n, 3))
        m = truth.m_mean(c1, c0, 1) + rng.standard_normal(n)
        vals = truth.b(m, c1, c0)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(mc - (1.447 + 1.231 * 0.7)) < 3 * se

    def test_tower_property_of_b_prime(self):
        # averaging the outcome regression over mediator draws reproduces it
        rng = np.random.default_rng(123)
        n = 100_000
        c0 = np.full(n, 1.3)
        c1 = np.tile(np.array([0.5, -0.2, 0.1]), (n, 1))
        m = truth.m_mean(c1, c0, 1) + rng.standard_normal(n)
        vals = truth.b(m, c1, c0)
        se = vals.std(ddof=1) / math.sqrt(n)
        want = truth.b_prime(c1[:1], c0[:1])[0]
        assert abs(vals.mean() - want) < 3 * se


class TestDiscretePathway:
    def _binary_fits(self, d1=1):
        outcome = _glm("1, m", [1.0, 2.0])  # B(0)=1, B(1)=3
        mediator = _glm("1", [logit(0.25)], Family.LOGIT)
        c1_1 = _glm("1", [0.0], Family.LOGIT)  # P(C1_1=1)=0.5
        fits = {ROLE_OUTCOME: outcome, ROLE_MEDIATOR: mediator, c1_mean_role(1): c1_1}
        return NuisanceFits(fits=fits, coding=CODING, pathway="discrete", d1=d1)

    def _binary_dataset(self):
        return dataset_from_arrays(
            np.array([[0.0], [1.0]]), np.array([0, 1]), np.array([[0.0], [1.0]]),
            np.array([0.0, 1.0]), np.array([0.0, 1.0]),
        )

    def test_two_point_mediator_mixture(self):
        fits = self._binary_fits()
        ds = self._binary_dataset()
        assert nested_mean_b_prime(fits, ds) == pytest.approx([1.5, 1.5], abs=1e-12)

    def test_two_point_c1_mixture(self):
        # B'(c1=0)=2, B'(c1=1)=4, P(C1=1)=0.5 -> 3
        outcome = _glm("1, c1_1", [2.0, 2.0])
        mediator = _glm("1", [0.0], Family.LOGIT)
        c1_1 = _glm("1", [0.0], Family.LOGIT)
        fits = NuisanceFits(
            fits={ROLE_OUTCOME: outcome, ROLE_MEDIATOR: mediator, c1_mean_role(1): c1_1},
            coding=CODING, pathway="discrete", d1=1,
        )
        ds = self._binary_dataset()
        assert nested_mean_b_doubleprime(fits, ds) == pytest.approx([3.0, 3.0], abs=1e-12)

    def test_linear_agrees_with_discrete_on_two_point_support(self):
        # intercept-only mediator models: the gaussian mean and the logistic
        # probability coincide, so the two pathways must agree
        rng = np.random.default_rng(55)
        n = 400
        c0 = rng.uniform(0, 2, (n, 1))
        e = (rng.random(n) < 0.6).astype(int)
        c1 = (rng.random((n, 1)) < 0.5).astype(float)
        m = (rng.random(n) < 0.3).astype(float)
        y = 1.0 + 2.0 * m + 0.5 * c1[:, 0] + rng.standard_normal(n)
        ds = dataset_from_arrays(c0, e, c1, m, y)

        linear_set = WorkingModelSet({
            ROLE_OUTCOME: ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1, m, c1_1")),
            ROLE_MEDIATOR: ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1")),
            c1_mean_role(1): ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1")),
            ROLE_PROP_BASE: ModelSpec(Family.LOGIT, DesignSpec.parse("1")),
            ROLE_PROP_C1: ModelSpec(Family.LOGIT, DesignSpec.parse("1, c1_1")),
            ROLE_PROP_M: ModelSpec(Family.LOGIT, DesignSpec.parse("1, c1_1, m")),
        })
        discrete_set = WorkingModelSet({
            **linear_set.models,
            ROLE_MEDIATOR: ModelSpec(Family.LOGIT, DesignSpec.parse("1")),
            c1_mean_role(1): ModelSpec(Family.LOGIT, DesignSpec.parse("1")),
        })
        lin = fit_nuisances(ds, linear_set, CODING, pathway="linear")
        dis = fit_nuisances(ds, discrete_set, CODING, pathway="discrete")
        assert np.max(np.abs(nested_mean_b_prime(lin, ds) - nested_mean_b_prime(dis, ds))) < 1e-10
        assert np.max(np.abs(
            nested_mean_b_doubleprime(lin, ds) - nested_mean_b_doubleprime(dis, ds)
        )) < 1e-10


class TestComponents:
    def test_components_shapes_and_diagnostics(self):
        ds = draw_dataset(300, 60)
        models = working_models_for("int", include_marginal=True)
        fits = fit_nuisances(ds, models.working_set, CODING)
        comp = compute_components(ds, fits, stabilize=StabilizeFlags.all_on())
        for arr in (comp.m_ratio, comp.c1_ratio, comp.b, comp.b_prime, comp.b_doubleprime):
            assert arr.shape == (ds.n,)
            assert np.all(np.isfinite(arr))
        assert comp.y0_marginal is not None
        assert "clip_count" in comp.diagnostics

    def test_clip_count_covers_every_propensity_once(self):
        ds = draw_dataset(2000, 3)
        fits = fit_nuisances(ds, working_models_for("int").working_set, CODING)
        clip = (0.05, 0.95)
        comp = compute_components(ds, fits, clip=clip)
        assert comp.diagnostics["clip_counts"] == {ROLE_PROP_C1: 82, ROLE_PROP_M: 437}
        assert comp.diagnostics["clip_count"] == 519
        assert np.array_equal(comp.m_ratio, m_ratio(fits, ds, clip=clip))
        assert np.array_equal(comp.c1_ratio, c1_ratio(fits, ds, clip=clip))

    def test_missing_base_propensity_is_an_error(self):
        ds = draw_dataset(100, 61)
        models = working_models_for("int")
        trimmed = {k: v for k, v in models.working_set.models.items() if k != ROLE_PROP_BASE}
        with pytest.raises(NuisanceError):
            WorkingModelSet(trimmed).validate(ds.d0, ds.d1, "linear")
