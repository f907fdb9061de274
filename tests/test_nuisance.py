import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import expit, logit

import pathfx.estimators as estimators_mod
import pathfx.nuisance as nuisance_mod
from pathfx.core import (
    Dataset,
    DesignSpec,
    PairCoding,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    recode_pair,
)
from pathfx.estimators import beta_mr_sequential
from pathfx.glm import Family, FittedGlm, fit_glm, predict_mean
from pathfx.nuisance import (
    ROLE_MARGINAL,
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
    compute_components,
    default_working_set,
    fit_nuisances,
    stabilize_probabilities,
    _response_for,
)
from pathfx.simulation import (
    REGIMES,
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
    return FittedGlm(family, np.asarray(coef, dtype=float), 0, design)


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

    @pytest.mark.parametrize("regime", ["int", "c"])
    def test_start_from_own_fit_takes_no_step(self, regime):
        # regime c predicts prop_base through a swapped link; its start is
        # still the logistic coefficients it was fitted with
        ds = draw_dataset(600, 23)
        models = working_models_for(regime, include_marginal=True)
        fits = fit_nuisances(ds, models.working_set, CODING)
        again = fit_nuisances(ds, models.working_set, CODING, start=fits)
        for role in models.working_set.roles():
            assert again[role].family is fits[role].family, role
            assert np.array_equal(again[role].coef, fits[role].coef), role
            if models.working_set[role].family.is_binomial:
                assert fits[role].iterations > 0 and again[role].iterations == 0, role

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_names_role(self, bad):
        ds = draw_dataset(300, 1)
        models = working_models_for("int")
        w = np.ones(ds.n)
        w[5] = bad
        first = next(iter(models.working_set.roles()))
        with pytest.raises(NuisanceError, match=rf"^{first}: weights must be finite and non-negative$"):
            fit_nuisances(ds, models.working_set, CODING, weights=w)

    def test_quasi_separated_propensity_names_role_and_column(self):
        # c0_1 marks 15 exposed records and no unexposed one: prop_base's
        # c0_1 coefficient has no finite maximum, and the fit must say so
        # rather than hand clipping a diverged propensity
        ds = draw_dataset(300, 5)
        c0 = np.zeros_like(ds.c0)
        c0[np.flatnonzero(ds.e == 1)[:15], 0] = 1.0
        quasi = dataset_from_arrays(c0, ds.e, ds.c1, ds.m, ds.y)
        with pytest.raises(NuisanceError, match=r"^prop_base: the responses are separated: "
                                                r"the coefficient of c0_1 diverges \(after \d+ iterations"):
            fit_nuisances(quasi, default_working_set(1, 3), CODING)

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

    @pytest.mark.parametrize("role, design, text", [
        (ROLE_OUTCOME, "1, c0_1, e, c1_1, c1_2, c1_1*c1_2, m", "outcome: term 'c1_1*c1_2' breaks linearity in c1_1"),
        (ROLE_MEDIATOR, "1, c0_1, e, c1_1, c0_1*c1_2", "mediator_mean: term 'c0_1*c1_2' breaks linearity in c1_2"),
    ])
    def test_linear_refusal_names_role_term_and_variable(self, role, design, text):
        broken = dict(working_models_for("int").working_set.models)
        broken[role] = ModelSpec(Family.GAUSSIAN, DesignSpec.parse(design))
        with pytest.raises(NuisanceError) as err:
            fit_nuisances(draw_dataset(100, 24), WorkingModelSet(broken), CODING)
        assert str(err.value) == f"{text} required by the linear pathway"


class TestChainOrder:
    """No mean model may condition on its own response or on a later link of
    the chain c0 -> e -> c1 -> m, on either pathway."""

    FOUND = "design may only use baseline covariates and treatment, found"
    CASES = {
        "mediator-on-m": (ROLE_MEDIATOR, "1, c0_1, e, c1_1, c1_2, c1_3, m",
                          "mediator_mean: design may not reference the mediator"),
        "c1-on-itself": (c1_mean_role(1), "1, c0_1, e, c1_1", f"c1_mean_1: {FOUND} ['c1_1']"),
        "c1-on-another": (c1_mean_role(1), "1, c0_1, e, c1_2", f"c1_mean_1: {FOUND} ['c1_2']"),
        "c1-on-m": (c1_mean_role(2), "1, c0_1, e, m", f"c1_mean_2: {FOUND} ['m']"),
        "marginal-on-m": (ROLE_MARGINAL, "1, c0_1, e, m", f"marginal_outcome: {FOUND} ['m']"),
        "marginal-on-c1": (ROLE_MARGINAL, "1, c0_1, e, c1_3", f"marginal_outcome: {FOUND} ['c1_3']"),
    }

    @staticmethod
    def _accepted(pathway):
        """The data and a working set that fits on ``pathway``."""
        ds = draw_dataset(300, 1)
        models = dict(default_working_set(1, 3).models)
        if pathway == "discrete":
            ds = dataset_from_arrays(ds.c0, ds.e, (ds.c1 > 0).astype(float),
                                     (ds.m > np.median(ds.m)).astype(float), ds.y)
            for role in (ROLE_MEDIATOR, c1_mean_role(1), c1_mean_role(2), c1_mean_role(3)):
                models[role] = replace(models[role], family=Family.LOGIT)
        return ds, models

    @pytest.mark.parametrize("pathway", ["linear", "discrete"])
    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case, pathway):
        role, design, text = self.CASES[case]
        ds, models = self._accepted(pathway)
        fit_nuisances(ds, WorkingModelSet(models), CODING, pathway=pathway)
        models[role] = replace(models[role], design=DesignSpec.parse(design))
        with pytest.raises(NuisanceError) as err:
            fit_nuisances(ds, WorkingModelSet(models), CODING, pathway=pathway)
        assert str(err.value) == text


def _ratios(fits, ds, clip=None):
    comp = compute_components(ds, fits, clip=clip)
    return comp.m_ratio, comp.c1_ratio


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
        ratio, _ = _ratios(fits, ds)
        assert np.max(np.abs(ratio - 1.0)) < 1e-12

    def test_c1_ratio_cancellation_when_c1_terms_zero(self):
        ds = draw_dataset(200, 26)
        fits = _true_fits()
        coef = np.zeros(len(fits[ROLE_PROP_C1].coef))
        coef[:2] = [0.9, 0.3]
        patched = dict(fits.fits)
        patched[ROLE_PROP_C1] = replace(fits[ROLE_PROP_C1], coef=coef)
        fits = replace(fits, fits=patched)
        _, ratio = _ratios(fits, ds)
        assert np.max(np.abs(ratio - 1.0)) < 1e-12

    def test_m_ratio_matches_analytic_normal_ratio(self):
        ds = draw_dataset(500, 27)
        got, _ = _ratios(_true_fits(), ds)
        want = truth.m_ratio(ds.m, ds.c1, ds.c0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_c1_ratio_matches_analytic_normal_ratio(self):
        ds = draw_dataset(500, 28)
        _, got = _ratios(_true_fits(), ds)
        want = truth.c1_ratio(ds.c1, ds.c0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_ratios_strictly_positive(self):
        ds = draw_dataset(300, 29)
        mr, cr = _ratios(_true_fits(), ds)
        assert np.all(mr > 0)
        assert np.all(cr > 0)

    def test_identity_mode_ratios_are_one(self):
        ds = draw_dataset(300, 30)
        rec, id_coding = recode_pair(ds, TreatmentPair(1, 1), allow_identity=True)
        fits = replace(_true_fits(), coding=id_coding)
        mr, cr = _ratios(fits, rec)
        assert np.all(mr == 1.0)
        assert np.all(cr == 1.0)

    def test_positivity_violation_reports_record(self):
        ds = draw_dataset(50, 31)
        fits = _true_fits()
        coef = fits[ROLE_PROP_M].coef.copy()
        coef[0] = 60.0  # pins probabilities at 1 numerically
        patched = dict(fits.fits)
        patched[ROLE_PROP_M] = replace(fits[ROLE_PROP_M], coef=coef)
        fits = replace(fits, fits=patched)
        with pytest.raises(PositivityError, match="record 0"):
            _ratios(fits, ds)
        clipped, _ = _ratios(fits, ds, clip=(1e-6, 1 - 1e-6))
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

    @pytest.mark.parametrize("flags, calls", [
        (StabilizeFlags(m_ratio=True, c1_ratio=True), 3),  # the CLI default: prop_c1 is in both ratios
        (StabilizeFlags.all_on(), 3),  # prop_base is p_comparison and the c1 ratio's denominator
        (StabilizeFlags(c1_ratio=True), 2),
    ], ids=["ratios", "all", "c1-ratio"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_each_role_is_stabilized_once_per_call(self, flags, calls, batch, monkeypatch):
        ds = draw_dataset(500, 64)
        W = np.random.default_rng(64).exponential(1.0, (4, ds.n)) if batch else None
        fits = fit_nuisances(ds, working_models_for("int").working_set, CODING, weights=W)
        stabilized = []
        real = nuisance_mod.stabilize_probabilities
        monkeypatch.setattr(nuisance_mod, "stabilize_probabilities",
                            lambda p, *args: stabilized.append(p) or real(p, *args))
        comp = compute_components(ds, fits, stabilize=flags)
        assert len(stabilized) == calls
        monkeypatch.undo()
        # a role stabilized for one place is stabilized wherever it is read
        # under an enabled flag, and read as fitted under a disabled one
        ind = CODING.ind_comparison(ds.e)
        fitted = {role: np.clip(predict_mean(fits[role], build_design_matrix(ds, fits[role].design)),
                                *nuisance_mod.DEFAULT_CLIP) for role in (ROLE_PROP_BASE, ROLE_PROP_C1, ROLE_PROP_M)}

        def prob(role, on):
            return stabilize_probabilities(fitted[role], ind, W) if on else fitted[role]

        def ratio(num, den, on):
            p_num, p_den = prob(num, on), prob(den, on)
            return p_num / (1.0 - p_num) * (1.0 - p_den) / p_den

        assert np.array_equal(comp.p_comparison, prob(ROLE_PROP_BASE, flags.base))
        assert np.array_equal(comp.m_ratio, ratio(ROLE_PROP_M, ROLE_PROP_C1, flags.m_ratio))
        assert np.array_equal(comp.c1_ratio, ratio(ROLE_PROP_C1, ROLE_PROP_BASE, flags.c1_ratio))


def _nested(fits, ds):
    """(b, b', b'') as ``compute_components`` reports them.  The nested means
    read no propensity model, so fits without one get intercept-only ones."""
    missing = {role: _glm("1", [0.0], Family.LOGIT)
               for role in (ROLE_PROP_BASE, ROLE_PROP_C1, ROLE_PROP_M) if role not in fits}
    comp = compute_components(ds, replace(fits, fits={**fits.fits, **missing}))
    return comp.b, comp.b_prime, comp.b_doubleprime


class TestNestedMeans:
    def test_b_equals_fitted_value_on_baseline_arm(self):
        ds = draw_dataset(300, 33)
        fits = _true_fits()
        b = _nested(fits, ds)[0]
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
        assert _nested(fits, ds)[0][0] == pytest.approx(2.4, abs=1e-12)

    def test_zero_coefficients_give_zero(self):
        ds = draw_dataset(50, 34)
        fits = _true_fits()
        patched = dict(fits.fits)
        patched[ROLE_OUTCOME] = replace(fits[ROLE_OUTCOME], coef=np.zeros(8))
        fits = replace(fits, fits=patched)
        assert np.all(_nested(fits, ds)[0] == 0.0)
        assert np.all(_nested(fits, ds)[1] == 0.0)
        assert np.all(_nested(fits, ds)[2] == 0.0)

    def test_b_prime_drops_mediator_model_when_m_coefficients_zero(self):
        ds = draw_dataset(100, 35)
        fits = _true_fits()
        coef = fits[ROLE_OUTCOME].coef.copy()
        coef[-2:] = 0.0  # mediator main effect and interaction
        patched = dict(fits.fits)
        patched[ROLE_OUTCOME] = replace(fits[ROLE_OUTCOME], coef=coef)
        fits = replace(fits, fits=patched)
        assert np.max(np.abs(_nested(fits, ds)[1] - _nested(fits, ds)[0])) < 1e-12

    def test_b_prime_matches_analytic_composition(self):
        ds = draw_dataset(400, 36)
        fits = _true_fits()
        got = _nested(fits, ds)[1]
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
        diff = _nested(fits, ds)[2] - _nested(fits, ds)[1]
        assert np.max(np.abs(diff)) < 1e-12

    def test_b_doubleprime_closed_form(self):
        ds = draw_dataset(400, 38)
        fits = _true_fits()
        got = _nested(fits, ds)[2]
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
        assert _nested(fits, ds)[1] == pytest.approx([1.5, 1.5], abs=1e-12)

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
        assert _nested(fits, ds)[2] == pytest.approx([3.0, 3.0], abs=1e-12)

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
        assert np.max(np.abs(_nested(lin, ds)[1] - _nested(dis, ds)[1])) < 1e-10
        assert np.max(np.abs(
            _nested(lin, ds)[2] - _nested(dis, ds)[2]
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

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_identity_pair_propensities_and_ratios_are_one(self, batch):
        # an identity pair fits no propensity model, so even stabilized and
        # unclipped its propensities and ratios are exactly one
        rec, id_coding = recode_pair(draw_dataset(300, 62), TreatmentPair(1, 1), allow_identity=True)
        W = np.random.default_rng(62).exponential(1.0, (4, rec.n)) if batch else None
        fits = fit_nuisances(rec, working_models_for("int").working_set, id_coding, weights=W)
        comp = compute_components(rec, fits, stabilize=StabilizeFlags.all_on(), clip=None)
        for arr in (comp.p_baseline, comp.p_comparison, comp.m_ratio, comp.c1_ratio):
            assert np.array_equal(arr, np.ones(rec.n))
        assert comp.b.shape == ((4, rec.n) if batch else (rec.n,))
        assert comp.diagnostics["clip_count"] == 0

    def test_missing_base_propensity_is_an_error(self):
        ds = draw_dataset(100, 61)
        models = working_models_for("int")
        trimmed = {k: v for k, v in models.working_set.models.items() if k != ROLE_PROP_BASE}
        with pytest.raises(NuisanceError):
            WorkingModelSet(trimmed).validate(ds.d0, ds.d1, "linear")


def _working_sets():
    sets = {regime: working_models_for(regime, include_marginal=True).working_set for regime in REGIMES}
    sets["cli"] = default_working_set(1, 3)
    return sets


def _role_by_role_fits(ds, working_set, weights, start):
    """Each role fitted alone, on its own build of its design."""
    fits = {}
    for role in working_set.roles():
        spec = working_set[role]
        fit = fit_glm(build_design_matrix(ds, spec.design), _response_for(role, ds), spec.family, weights,
                      design=spec.design, start=None if start is None else start[role].coef)
        fits[role] = replace(fit, family=spec.predict_family) if spec.predict_family else fit
    return NuisanceFits(fits=fits, coding=CODING, pathway="linear", d1=ds.d1, weights=weights)


def _one_at_a_time(dataset, requests):
    """Each prediction from its own build of its design."""
    for fit, overrides in requests:
        yield fit, np.asarray(predict_mean(fit, build_design_matrix(dataset, fit.design, overrides)))


def _assert_same(got, want, label):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), label
        for key in want:
            _assert_same(got[key], want[key], (label, key))
    elif want is None:
        assert got is None, label
    else:
        assert np.array_equal(got, want), label


class TestSharedBuilds:
    """Roles on one design share its build (and, gaussian, one Gram); every
    value is bitwise the one of fitting and predicting role by role."""

    @staticmethod
    def _case(mode):
        if mode == "stacked":
            drawn = [draw_dataset(400, 81, rep=r) for r in (1, 2, 3)]
            return Dataset(**{f.name: np.stack([getattr(d, f.name) for d in drawn]) for f in fields(Dataset)}), None
        ds = draw_dataset(400, 81)
        return ds, np.random.default_rng(82).exponential(1.0, (4, ds.n)) if mode == "weighted" else None

    @pytest.mark.parametrize("mode", ["single", "weighted", "stacked"])
    @pytest.mark.parametrize("name", [*REGIMES, "cli"])
    def test_values_equal_a_role_by_role_reference(self, name, mode, monkeypatch):
        working_set = _working_sets()[name]
        ds, weights = self._case(mode)
        start = fit_nuisances(draw_dataset(400, 81), working_set, CODING) if mode == "weighted" else None
        fits = fit_nuisances(ds, working_set, CODING, weights=weights, start=start)
        comp = compute_components(ds, fits)
        seq = beta_mr_sequential(ds, working_set, CODING, comp=comp)

        reference = _role_by_role_fits(ds, working_set, weights, start)
        monkeypatch.setattr(nuisance_mod, "_predictions", _one_at_a_time)
        monkeypatch.setattr(estimators_mod, "_least_squares", lambda X, ys, w, *, design: [
            fit_glm(X, y, Family.GAUSSIAN, w, design=design) for y in ys])
        ref_comp = compute_components(ds, reference)
        ref_seq = beta_mr_sequential(ds, working_set, CODING, comp=ref_comp)

        assert list(fits.fits) == list(working_set.roles())
        for role in working_set.roles():
            assert fits[role].family is reference[role].family, role
            assert np.array_equal(fits[role].coef, reference[role].coef), role
            assert np.array_equal(fits[role].iterations, reference[role].iterations), role
        for f in fields(comp):
            _assert_same(getattr(comp, f.name), getattr(ref_comp, f.name), f.name)
        for f in fields(seq):
            _assert_same(getattr(seq, f.name), getattr(ref_seq, f.name), f.name)

    @pytest.mark.parametrize("name", [*REGIMES, "cli"])
    def test_each_distinct_design_is_built_once_per_call(self, name, monkeypatch):
        working_set = _working_sets()[name]
        ds = draw_dataset(300, 83)
        builds = []

        def counted(dataset, design, overrides=None):
            builds.append((design, overrides))
            return build_design_matrix(dataset, design, overrides)

        for module in (nuisance_mod, estimators_mod):
            monkeypatch.setattr(module, "build_design_matrix", counted)
        calls = {}
        fits = fit_nuisances(ds, working_set, CODING)
        calls["fit"], builds[:] = list(builds), []
        comp = compute_components(ds, fits)
        calls["components"], builds[:] = list(builds), []
        beta_mr_sequential(ds, working_set, CODING, comp=comp)
        calls["mr_seq"] = list(builds)
        for stage, keys in calls.items():
            assert len(set(keys)) == len(keys), stage
        designs = {spec.design for spec in working_set.models.values()}
        assert len(calls["fit"]) == len(designs)
        if name == "int":
            # the three c1 means and the marginal share 1, c0_1, e, c0_1*e
            assert [len(calls[stage]) for stage in ("fit", "components", "mr_seq")] == [6, 6, 3]
