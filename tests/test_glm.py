import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

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


def _logistic_newton_oracle(X, y, iters=60):
    """Independent full-Newton logistic fit with the analytic Hessian."""
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu)
        H = X.T @ (X * (mu * (1 - mu))[:, None])
        beta = beta + np.linalg.solve(H, grad)
    return beta


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
