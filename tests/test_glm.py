import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.special import expit, log_ndtr, ndtr

import pathfx.glm as glm_mod
from pathfx.glm import (
    Family,
    GlmError,
    NonConvergenceError,
    RankDeficiencyError,
    fit_glm,
    fit_glm_irls,
    fit_ols,
    predict_mean,
    score_and_information,
    score_contributions,
)


def _logistic_newton_oracle(X, y, w=None, iters=60):
    """Independent full-Newton logistic fit with the analytic Hessian."""
    w = np.ones(X.shape[0]) if w is None else w
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (w * (y - mu))
        H = X.T @ (X * (w * mu * (1 - mu))[:, None])
        beta = beta + np.linalg.solve(H, grad)
    return beta


def _probit_fisher_oracle(X, y, w=None, iters=60):
    """Independent probit Fisher scoring from the normal CDF and density."""
    w = np.ones(X.shape[0]) if w is None else w
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        eta = X @ beta
        mu = ndtr(eta)
        dens = np.exp(-0.5 * eta**2) / math.sqrt(2.0 * math.pi)
        var = mu * (1.0 - mu)
        grad = X.T @ (w * (y - mu) * dens / var)
        info = X.T @ (X * (w * dens**2 / var)[:, None])
        beta = beta + np.linalg.solve(info, grad)
    return beta


def _qr_irls_reference(X, y, family, w=None, max_iter=100, tol=1e-10):
    """IRLS taking every Fisher step from the pivoted QR of sqrt(W) X.

    The reference for the Cholesky step: same likelihood, score test, step
    halving, separation check and rank rule, with no Cholesky factor.
    """
    w = np.ones(X.shape[0]) if w is None else w

    def terms(eta):
        if family is Family.LOGIT:
            mu = expit(eta)
            return np.sum(w * (y * eta - np.logaddexp(0.0, eta))), y - mu, mu * (1.0 - mu)
        lp, ln = log_ndtr(eta), log_ndtr(-eta)
        log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
        pos, neg = np.exp(log_phi - lp), np.exp(log_phi - ln)
        return np.sum(w * (y * lp + (1.0 - y) * ln)), y * pos - (1.0 - y) * neg, pos * neg

    coef = np.zeros(X.shape[1])
    ll, s, fisher = terms(X @ coef)
    for iteration in range(max_iter):
        score = X.T @ (w * s)
        if np.max(np.abs(score)) < tol:
            if np.median(np.abs(X @ coef)) > 20.0:
                raise NonConvergenceError(iteration, 0.0, 0.0)
            return coef
        _, R, piv = sla.qr(X * np.sqrt(w * fisher)[:, None], mode="raw", pivoting=True)
        diag = np.abs(np.diag(R))
        if diag[0] == 0.0 or np.any(diag < 1e-10 * diag[0]):
            raise RankDeficiencyError(int(piv[np.argmax(diag < 1e-10 * diag[0])]), 0.0)
        delta = np.empty_like(coef)
        delta[piv] = sla.solve_triangular(R, sla.solve_triangular(R, score[piv], trans="T"))
        for halvings in range(41):
            trial = coef + 0.5**halvings * delta
            ll_trial, s, fisher = terms(X @ trial)
            if halvings == 40 or ll_trial >= ll - 1e-12 * abs(ll):
                break
        coef, ll = trial, ll_trial
    raise NonConvergenceError(max_iter, 0.0, 0.0)


def _fallback_fixtures():
    """Adversarial IRLS fixtures: near-separation, n close to p, extreme
    prior weights and near-collinear columns, each logit and probit."""
    rng = np.random.default_rng(2026)
    out = []
    for k in range(6):
        n = 300
        x = rng.standard_normal((n, 3))
        X = np.column_stack([np.ones(n), x])
        eta = 1.5 * x[:, 0] - 0.5
        # near-separation: a steep index with a handful of rows on the wrong side
        y = (eta > 0).astype(float)
        flip = rng.choice(n, size=k + 1, replace=False)
        y[flip] = 1.0 - y[flip]
        out.append((f"near-separation-{k}", X, y, None))
        # n close to p
        m, p = 16 + 2 * k, 10 + k
        Xs = np.column_stack([np.ones(m), rng.standard_normal((m, p - 1))])
        out.append((f"n-near-p-{k}", Xs, (rng.random(m) < 0.5).astype(float), None))
        # extreme prior weights, spanning two to twelve orders of magnitude
        Xw = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
        yw = (rng.random(n) < expit(Xw @ np.array([0.2, 0.6, -0.4, 0.3, 0.1]))).astype(float)
        out.append((f"extreme-weights-{k}", Xw, yw, 10.0 ** rng.uniform(-k - 1, k + 1, n)))
        # near-collinear columns, from mildly to severely ill conditioned
        Xc = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        Xc = np.column_stack([Xc, Xc[:, 1] + 10.0 ** (-2 - 2 * k) * rng.standard_normal(n)])
        yc = (rng.random(n) < expit(Xc[:, :4] @ np.array([0.1, 0.5, -0.5, 0.3]))).astype(float)
        out.append((f"near-collinear-{k}", Xc, yc, rng.exponential(1.0, n)))
    return out


class TestOls:
    def test_intercept_only_is_mean(self):
        fit = fit_ols(np.ones((3, 1)), np.array([2.0, 4.0, 6.0]))
        assert fit.coef == pytest.approx([4.0], abs=1e-14)

    def test_exact_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_ols(X, np.array([1.0, 3.0, 5.0]))
        assert fit.coef == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        fit = fit_ols(X, y)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-10

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        w = rng.uniform(0.1, 2.0, 40)
        oracle = np.linalg.solve(X.T @ (X * w[:, None]), X.T @ (w * y))
        fit = fit_ols(X, y, w)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-10

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 3))
        X = np.column_stack([X, X[:, 1]])  # duplicate column 1 as column 3
        with pytest.raises(RankDeficiencyError) as err:
            fit_ols(X, rng.standard_normal(30))
        assert err.value.column in (1, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(GlmError, match="length"):
            fit_ols(np.ones((3, 1)), np.ones(4))


class TestIrls:
    def test_intercept_only_logit(self):
        y = np.array([1.0] * 3 + [0.0] * 7)
        fit = fit_glm_irls(np.ones((10, 1)), y, Family.LOGIT)
        assert fit.converged
        assert abs(fit.coef[0] - math.log(0.3 / 0.7)) < 1e-12

    def test_intercept_only_probit_balanced(self):
        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm_irls(np.ones((10, 1)), y, Family.PROBIT)
        assert fit.converged
        assert abs(fit.coef[0]) < 1e-12

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(11)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        truth = np.array([0.3, -0.5, 0.8, 0.2])
        y = (rng.random(n) < expit(X @ truth)).astype(float)
        oracle = _logistic_newton_oracle(X, y)
        fit = fit_glm_irls(X, y, Family.LOGIT)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-8

    def test_probit_matches_fisher_oracle(self):
        rng = np.random.default_rng(16)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = (rng.random(n) < ndtr(X @ np.array([-0.2, 0.4, 0.7, -0.3]))).astype(float)
        fit = fit_glm_irls(X, y, Family.PROBIT)
        assert np.max(np.abs(fit.coef - _probit_fisher_oracle(X, y))) < 1e-8

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
    @pytest.mark.parametrize("p", [2, 6, 14])
    def test_prior_weighted_matches_oracle(self, family, p):
        rng = np.random.default_rng(100 + p)
        n = 800
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        truth = rng.uniform(-0.4, 0.4, p)
        mean = expit if family is Family.LOGIT else ndtr
        y = (rng.random(n) < mean(X @ truth)).astype(float)
        w = rng.exponential(1.0, n)
        oracle = (_logistic_newton_oracle if family is Family.LOGIT else _probit_fisher_oracle)(X, y, w)
        fit = fit_glm_irls(X, y, family, w)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-8

    def test_weighted_all_ones_identical(self):
        rng = np.random.default_rng(12)
        n = 200
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < 0.4).astype(float)
        a = fit_glm_irls(X, y, Family.LOGIT)
        b = fit_glm_irls(X, y, Family.LOGIT, np.ones(n))
        assert np.max(np.abs(a.coef - b.coef)) < 1e-12

    def test_affine_recoding_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(13)
        n = 300
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < expit(0.5 + x)).astype(float)
        X2 = np.column_stack([np.ones(n), 3.0 * x - 7.0])
        p1 = predict_mean(fit_glm_irls(X, y, Family.LOGIT), X)
        p2 = predict_mean(fit_glm_irls(X2, y, Family.LOGIT), X2)
        assert np.max(np.abs(p1 - p2)) < 1e-8

    def test_gaussian_dispatch_matches_ols(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        a = fit_glm(X, y, Family.GAUSSIAN)
        b = fit_ols(X, y)
        assert np.max(np.abs(a.coef - b.coef)) < 1e-12

    def test_gaussian_is_rejected(self):
        with pytest.raises(GlmError, match="binomial"):
            fit_glm_irls(np.ones((5, 1)), np.zeros(5), Family.GAUSSIAN)

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(50)
        X = np.column_stack([np.ones(50), x, 2.0 * x])
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(RankDeficiencyError) as err:
            fit_glm_irls(X, y, Family.LOGIT)
        assert err.value.column in (1, 2)

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN], ids=lambda f: f.name.lower())
    def test_zero_weights_leave_a_column_unidentified(self, family):
        # X has full rank, but the only rows where column 2 is nonzero carry
        # zero prior weight, so X'WX is singular
        rng = np.random.default_rng(21)
        n = 200
        X = np.column_stack([np.ones(n), rng.standard_normal(n), np.r_[np.zeros(190), rng.standard_normal(10)]])
        y = (rng.random(n) < 0.5).astype(float)
        w = np.r_[rng.exponential(1.0, 190), np.zeros(10)]
        with pytest.raises(RankDeficiencyError) as err:
            fit_glm(X, y, family, w)
        assert err.value.column == 2
        assert str(err.value) == "design matrix is rank deficient at column 2 (relative pivot magnitude 0.000e+00)"

    def test_separation_raises_nonconvergence(self):
        # perfectly separated data has no ML solution
        x = np.concatenate([-np.ones(20), np.ones(20)])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(40), x])
        with pytest.raises(NonConvergenceError) as err:
            fit_glm_irls(X, y, Family.LOGIT, max_iter=50)
        assert err.value.coef_norm > 1.0

    def test_binary_response_required(self):
        with pytest.raises(GlmError, match=r"\[0, 1\]"):
            fit_glm_irls(np.ones((3, 1)), np.array([0.0, 2.0, 1.0]), Family.LOGIT)


class TestFisherStep:
    def test_ill_conditioned_information_takes_the_qr_step(self, monkeypatch):
        # A covariate on a scale 1e7 times too small: cond(X'WX) is far above
        # 1 / CHOL_RCOND_MIN, yet the pivoted QR of sqrt(W) X keeps full rank.
        rng = np.random.default_rng(22)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = (rng.random(n) < expit(0.3 + 0.8 * x - 0.5 * z)).astype(float)
        assert np.linalg.cond(X.T @ X, 1) > 1e3 / glm_mod.CHOL_RCOND_MIN

        def no_cholesky_solve(*args, **kwargs):
            raise AssertionError("the condition guard should have sent this step to QR")

        monkeypatch.setattr(glm_mod, "dpotrs", no_cholesky_solve)
        for family in (Family.LOGIT, Family.PROBIT):
            fit = fit_glm_irls(X, y, family)
            reference = _qr_irls_reference(X, y, family)
            assert fit.converged
            assert np.max(np.abs(fit.coef - reference)) <= 1e-10 * np.max(np.abs(reference))

    def test_well_conditioned_information_takes_the_cholesky_step(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < 0.4).astype(float)

        def no_qr(*args, **kwargs):
            raise AssertionError("a well-conditioned step should not need QR")

        monkeypatch.setattr(glm_mod.sla, "qr", no_qr)
        assert fit_glm_irls(X, y, Family.LOGIT).converged

    def test_ill_conditioned_least_squares_takes_the_qr_step(self, monkeypatch):
        # the same badly scaled covariate as above, on a gaussian response
        rng = np.random.default_rng(24)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = 0.3 + 0.8 * x - 0.5 * z + rng.standard_normal(n)
        w = rng.exponential(1.0, n)
        assert np.linalg.cond(X.T @ X, 1) > 1e3 / glm_mod.CHOL_RCOND_MIN

        def no_cholesky_solve(*args, **kwargs):
            raise AssertionError("the condition guard should have sent this solve to QR")

        qr_calls = []

        def counted_qr(*args, **kwargs):
            qr_calls.append(kwargs.get("mode"))
            return sla_qr(*args, **kwargs)

        sla_qr = glm_mod.sla.qr
        monkeypatch.setattr(glm_mod, "dpotrs", no_cholesky_solve)
        monkeypatch.setattr(glm_mod.sla, "qr", counted_qr)
        for weights, sw in ((None, np.ones(n)), (w, np.sqrt(w))):
            reference = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
            # measured gaps are below 6e-15 of each coefficient
            np.testing.assert_allclose(fit_ols(X, y, weights).coef, reference, rtol=1e-10)
        assert qr_calls == ["raw", "raw"]

    def test_well_conditioned_least_squares_takes_the_cholesky_step(self, monkeypatch):
        rng = np.random.default_rng(25)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(n)
        w = rng.exponential(1.0, n)

        def no_qr(*args, **kwargs):
            raise AssertionError("a well-conditioned solve should not need QR")

        monkeypatch.setattr(glm_mod.sla, "qr", no_qr)
        for weights, sw in ((None, np.ones(n)), (w, np.sqrt(w))):
            reference = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
            np.testing.assert_allclose(fit_ols(X, y, weights).coef, reference, rtol=1e-10)

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
    @pytest.mark.parametrize("case", _fallback_fixtures(), ids=lambda c: c[0])
    def test_matches_the_qr_reference_or_raises_alike(self, family, case):
        _, X, y, w = case
        try:
            reference = _qr_irls_reference(X, y, family, w)
        except GlmError as exc:
            with pytest.raises(type(exc)):
                fit_glm_irls(X, y, family, w)
            return
        fit = fit_glm_irls(X, y, family, w)
        assert np.max(np.abs(fit.coef - reference)) <= 1e-10 * max(1.0, np.max(np.abs(reference)))


class TestWarmStart:
    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
    @pytest.mark.parametrize("case", _fallback_fixtures(), ids=lambda c: c[0])
    def test_matches_the_cold_start_or_raises_alike(self, family, case):
        # The start plays a bootstrap point fit: a fit on Exp(1)-reweighted
        # rows, or small random coefficients where that fit fails.
        _, X, y, w = case
        n, p = X.shape
        rng = np.random.default_rng(7)
        prior = np.ones(n) if w is None else w
        try:
            start = fit_glm_irls(X, y, family, rng.exponential(1.0, n) * prior).coef
        except GlmError:
            start = rng.normal(0.0, 0.5, p)
        try:
            cold = fit_glm_irls(X, y, family, w)
        except GlmError as exc:
            with pytest.raises(type(exc)):
                fit_glm_irls(X, y, family, w, start=start)
            return
        cold_ll = glm_mod._binomial_terms(family, X @ cold.coef, y, prior)[0]
        if cold_ll > -1e-9:
            # Complete separation that the median-|eta| rule misses: no
            # maximum exists, so a warm start need only end at the boundary too.
            try:
                warm = fit_glm_irls(X, y, family, w, start=start)
            except NonConvergenceError:
                return
            assert glm_mod._binomial_terms(family, X @ warm.coef, y, prior)[0] > -1e-9
            return
        warm = fit_glm_irls(X, y, family, w, start=start)
        assert warm.converged
        # Both fits stop within the score tolerance of one maximum, so the
        # fitted linear predictors agree closely; coefficients along a nearly
        # collinear direction are determined only to about cond(X) times as much.
        # Measured: <= 1.2e-10 and <= 3.6e-9 (near-collinear-2, cond 2.1e6).
        eta = X @ cold.coef
        assert np.max(np.abs(X @ warm.coef - eta)) <= 1e-9 * max(1.0, np.max(np.abs(eta)))
        assert np.max(np.abs(warm.coef - cold.coef)) <= (
            1e-9 * max(1.0, np.max(np.abs(cold.coef))) * max(1.0, np.linalg.cond(X) / 1e3)
        )

    def test_start_at_the_maximum_takes_no_step(self):
        rng = np.random.default_rng(31)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.3, 0.8, -0.5]))).astype(float)
        cold = fit_glm_irls(X, y, Family.LOGIT)
        start = cold.coef.copy()
        warm = fit_glm_irls(X, y, Family.LOGIT, start=start)
        assert warm.iterations == 0
        assert np.array_equal(warm.coef, cold.coef)
        # the fit froze its own copy, not the caller's array
        assert start.flags.writeable and not np.shares_memory(warm.coef, start)

    @pytest.mark.parametrize(
        "start",
        [np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])],
        ids=["short", "column", "nan", "inf"],
    )
    def test_bad_start_raises(self, start):
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = (rng.random(50) < 0.5).astype(float)
        for family in (Family.LOGIT, Family.PROBIT):
            with pytest.raises(GlmError, match="start must be 3 finite coefficients"):
                fit_glm(X, y, family, start=start)

    def test_read_only_start_is_copied(self):
        rng = np.random.default_rng(33)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([-0.2, 0.5, 0.4]))).astype(float)
        start = fit_glm_irls(X, y, Family.LOGIT, rng.exponential(1.0, n)).coef
        assert not start.flags.writeable
        kept = start.copy()
        fit = fit_glm_irls(X, y, Family.LOGIT, start=start)
        assert np.array_equal(start, kept)
        assert not np.shares_memory(fit.coef, start)
        writable = kept.copy()
        fit_glm_irls(X, y, Family.PROBIT, start=writable)
        assert np.array_equal(writable, kept)

    def test_gaussian_ignores_start(self):
        rng = np.random.default_rng(34)
        X = np.column_stack([np.ones(60), rng.standard_normal(60)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(60)
        fit = fit_glm(X, y, Family.GAUSSIAN, start=np.array([5.0, 5.0]))
        assert np.array_equal(fit.coef, fit_ols(X, y).coef)


class TestSeparationRule:
    @staticmethod
    def _median_rule(eta):
        return bool(np.median(np.abs(eta)) > 20.0)

    def test_matches_the_median_on_random_arrays(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            eta = rng.normal(rng.uniform(-30.0, 30.0), rng.uniform(0.0, 15.0), n)
            assert glm_mod._separated(eta) == self._median_rule(eta)

    @pytest.mark.parametrize("half", [1, 2, 5, 50])
    def test_matches_the_median_when_exactly_half_exceed(self, half):
        # n = 2 * half and exactly half of the |eta| above 20: the median is
        # the mean of the two middle values and can land on either side
        for low, high in ((19.9, 20.05), (19.99, 21.0), (20.0, 20.5), (0.0, 40.0), (0.0, 39.0),
                          (19.5, 20.5), (-20.0, -20.0 - 1e-12)):
            eta = np.array([low] * half + [high] * half)
            for signs in (np.ones(2 * half), np.resize([1.0, -1.0], 2 * half)):
                assert glm_mod._separated(eta * signs) == self._median_rule(eta * signs)

    def test_ordinary_fit_takes_no_median(self, monkeypatch):
        rng = np.random.default_rng(43)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.1, 1.0, -1.0]))).astype(float)

        def no_median(*args, **kwargs):
            raise AssertionError("fewer than half the rows exceed 20; the count settles it")

        monkeypatch.setattr(glm_mod.np, "median", no_median)
        assert fit_glm_irls(X, y, Family.LOGIT).converged


class TestBatchFit:
    """``fit_glm`` with ``(B, n)`` weights: one fit per weight row."""

    @staticmethod
    def _case(seed=51, n=600):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = (rng.random(n) < expit(X @ np.array([0.2, 0.7, -0.5, 0.3]))).astype(float)
        yg = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.standard_normal(n)
        return rng, X, y, yg

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN])
    def test_rows_match_single_fits(self, family):
        rng, X, y, yg = self._case()
        response = yg if family is Family.GAUSSIAN else y
        W = rng.exponential(1.0, (7, X.shape[0]))
        batch = fit_glm(X, response, family, W)
        assert batch.coef.shape == (7, 4) and batch.converged.all()
        for b in range(7):
            single = fit_glm(X, response, family, W[b])
            # measured <= 1.9e-15 (gaussian) and <= 1.7e-15 (logit, probit)
            np.testing.assert_allclose(batch.coef[b], single.coef, rtol=1e-10 if family is Family.GAUSSIAN else 1e-8)
            if family.is_binomial:
                # every replicate passes the usual score test
                row = dataclasses.replace(single, coef=batch.coef[b].copy())
                assert np.max(np.abs(score_and_information(row, X, response, W[b])[0])) < glm_mod.DEFAULT_TOL

    def test_a_row_does_not_depend_on_its_batch_mates(self):
        rng, X, y, _ = self._case()
        W = rng.exponential(1.0, (9, X.shape[0]))
        full = fit_glm(X, y, Family.LOGIT, W).coef
        assert np.array_equal(fit_glm(X, y, Family.LOGIT, W[2:5]).coef, full[2:5])
        assert np.array_equal(fit_glm(X, y, Family.LOGIT, W[[4]]).coef, full[[4]])

    def test_a_failed_row_is_nan_and_leaves_the_others(self):
        rng, X, y, _ = self._case()
        W = rng.exponential(1.0, (4, X.shape[0]))
        clean = fit_glm(X, y, Family.LOGIT, W)
        W[1] = np.where(X[:, 1] > 0, y, 1.0 - y)  # row 1 weights a completely separated sample
        batch = fit_glm(X, y, Family.LOGIT, W)
        with pytest.raises(NonConvergenceError):
            fit_glm(X, y, Family.LOGIT, W[1])
        assert list(batch.converged) == [True, False, True, True]
        assert np.isnan(batch.coef[1]).all()
        assert np.array_equal(batch.coef[[0, 2, 3]], clean.coef[[0, 2, 3]])

    def test_frequency_weights_count_rows_as_drawn(self):
        rng = np.random.default_rng(52)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            eta = rng.normal(rng.uniform(-30.0, 30.0), rng.uniform(0.0, 15.0), n)
            counts = rng.integers(0, 4, n).astype(float)
            if counts.sum() == 0:
                continue
            drawn = np.repeat(eta, counts.astype(int))
            assert glm_mod._separated(eta[None], counts[None])[0] == glm_mod._separated(drawn)


class TestLogitTerms:
    def test_match_the_logaddexp_and_expit_forms(self):
        rng = np.random.default_rng(42)
        for scale in (0.1, 1.0, 3.0, 10.0, 40.0, 300.0):
            n = 2000
            eta = scale * rng.standard_normal(n)
            eta[:4] = [0.0, -745.0, 745.0, 1e-300]
            y = (rng.random(n) < expit(0.5 * eta)).astype(float)
            w = rng.exponential(1.0, n)
            ll, s, fisher = glm_mod._binomial_terms(Family.LOGIT, eta, y, w)
            mu = expit(eta)
            assert np.array_equal(s, y - mu)
            assert np.array_equal(fisher, mu * (1.0 - mu))
            reference = np.sum(w * (y * eta - np.logaddexp(0.0, eta)))
            # measured <= 2.5e-16
            assert abs(ll - reference) <= 1e-15 * abs(reference)


class TestPredict:
    def test_gaussian(self):
        fit = fit_ols(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.array([1.0, 3.0, 5.0]))
        assert predict_mean(fit, np.array([1.0, 3.0])) == pytest.approx(7.0, abs=1e-12)

    def test_logit_at_zero(self):
        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm_irls(np.ones((10, 1)), y, Family.LOGIT)
        assert predict_mean(fit, np.array([1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_probit_against_independent_cdf(self):
        from dataclasses import replace

        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm_irls(np.ones((10, 1)), y, Family.PROBIT)
        fit = replace(fit, coef=np.array([0.9, 0.3]))
        oracle = float(mpmath.ncdf(0.9))  # independent normal CDF
        assert predict_mean(fit, np.array([1.0, 0.0])) == pytest.approx(oracle, abs=1e-12)
        assert 0.81593 < oracle < 0.81595

    def test_length_mismatch(self):
        fit = fit_ols(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(GlmError, match="columns"):
            predict_mean(fit, np.array([1.0, 2.0]))


class TestScoreInformation:
    def test_score_vanishes_at_mle(self):
        rng = np.random.default_rng(15)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < expit(0.2 + 0.5 * X[:, 1])).astype(float)
        fit = fit_glm_irls(X, y, Family.LOGIT)
        score, _ = score_and_information(fit, X, y)
        assert np.max(np.abs(score)) < 1e-10

    def test_gaussian_information_formula(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        fit = fit_ols(X, y)
        _, info = score_and_information(fit, X, y)
        resid = y - X @ fit.coef
        sigma2 = float(resid @ resid / 60)
        assert np.max(np.abs(info - X.T @ X / sigma2)) < 1e-10

    def test_logit_information_matches_fd_hessian(self):
        rng = np.random.default_rng(17)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.1, 0.6, -0.4]))).astype(float)
        fit = fit_glm_irls(X, y, Family.LOGIT)

        def loglik(beta):
            eta = X @ beta
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        h = 1e-5
        p = fit.coef.size
        H = np.empty((p, p))
        for i in range(p):
            for j in range(p):
                bpp = fit.coef.copy(); bpp[i] += h; bpp[j] += h
                bpm = fit.coef.copy(); bpm[i] += h; bpm[j] -= h
                bmp = fit.coef.copy(); bmp[i] -= h; bmp[j] += h
                bmm = fit.coef.copy(); bmm[i] -= h; bmm[j] -= h
                H[i, j] = (loglik(bpp) - loglik(bpm) - loglik(bmp) + loglik(bmm)) / (4 * h * h)
        _, info = score_and_information(fit, X, y)
        assert np.max(np.abs(info + H)) < 1e-5 * max(1.0, np.max(np.abs(info)))

    def test_information_positive_semidefinite(self):
        rng = np.random.default_rng(18)
        n = 100
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < 0.6).astype(float)
        fit = fit_glm_irls(X, y, Family.LOGIT)
        _, info = score_and_information(fit, X, y)
        assert np.all(np.linalg.eigvalsh(info) > -1e-12)
        assert np.max(np.abs(info - info.T)) < 1e-12

    def test_score_contributions_sum_to_score(self):
        rng = np.random.default_rng(19)
        n = 80
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.standard_normal(n)
        fit = fit_ols(X, y)
        score, _ = score_and_information(fit, X, y)
        assert np.max(np.abs(score_contributions(fit, X, y).sum(axis=0) - score)) < 1e-10


class TestLinkNumerics:
    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_expit_complement(self, x):
        assert expit(x) + expit(-x) == pytest.approx(1.0, abs=1e-15)

    def test_normal_cdf_at_zero(self):
        from scipy.special import ndtr

        assert ndtr(0.0) == 0.5
