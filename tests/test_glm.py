import ast
import dataclasses
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.special import erfcx, expit, log_ndtr, ndtr, stdtrit

import pathfx
import pathfx.glm as glm_mod
import pathfx.inference as inference_mod
from pathfx.core import DesignSpec, build_design_matrix, dataset_from_arrays
from pathfx.glm import (
    Family,
    GlmError,
    NonConvergenceError,
    RankDeficiencyError,
    fit_glm,
    predict_mean,
)
from pathfx.simulation import draw_dataset, working_models_for


EPS = np.finfo(float).eps


def _binomial_score(family, X, y, coef, w=None):
    """The log-likelihood score X' diag(w) (y - mu) phi / (mu (1 - mu)) at
    ``coef``; for logit the factor phi / (mu (1 - mu)) is one."""
    w = np.ones(X.shape[0]) if w is None else w
    eta = X @ coef
    if family is Family.LOGIT:
        return X.T @ (w * (y - expit(eta)))
    mu = ndtr(eta)
    phi = np.exp(-0.5 * eta**2) / np.sqrt(2.0 * np.pi)
    return X.T @ (w * (y - mu) * phi / (mu * (1.0 - mu)))


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


def _qr_irls_reference(X, y, family, w=None):
    """IRLS taking every Fisher step from the pivoted QR of sqrt(W) X.

    The reference for the inverse step and the QR fallback: same
    likelihood, score test, step halving, separation rule and rank rule,
    with scipy's link functions, QR and triangular solves, and no inverse.
    Its probit steps are Fisher scoring, not the engine's Newton steps: an
    independent algorithm that reaches the same maximum.  Its separation
    rule is the engine's: at the stop, the rows of positive weight whose
    observed information is below 1e-8 are dropped, and the fit raises when
    no row is left or the rest of the design loses rank in scipy's QR.
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

    def observed_information(eta):
        if family is Family.LOGIT:
            return terms(eta)[2]
        log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
        pos, neg = np.exp(log_phi - log_ndtr(eta)), np.exp(log_phi - log_ndtr(-eta))
        return y * pos * (pos + eta) + (1.0 - y) * neg * (neg - eta)

    def rank_lost(A):
        if A.shape[0] < A.shape[1]:
            return True
        R = sla.qr(A, mode="r", pivoting=True)[0]
        diag = np.abs(np.diag(R))
        return diag[0] == 0.0 or bool(np.any(diag < 1e-10 * diag[0]))

    coef = np.zeros(X.shape[1])
    ll, s, fisher = terms(X @ coef)
    for iteration in range(100):
        score = X.T @ (w * s)
        if np.max(np.abs(score)) < 1e-10:
            present = w > 0
            dead = present & (observed_information(X @ coef) < 1e-8)
            if dead.any() and rank_lost(X[present & ~dead]):
                raise NonConvergenceError(iteration, 0.0, 0.0, "separated")
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
    raise NonConvergenceError(100, 0.0, 0.0)


def _mp_newton_eta(X, y, family, w, dps=40):
    """The linear predictors at the maximum likelihood, by Newton steps with
    the observed information in ``dps``-digit arithmetic from zero, until a
    step moves the coefficients by at most 10^(5 - dps) of the largest."""
    p = X.shape[1]
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(v)) for v in row] for row in X]
        weights = [mpmath.mpf(float(v)) for v in w]
        beta = [mpmath.mpf(0)] * p
        for _ in range(30):
            score = [mpmath.mpf(0)] * p
            H = [[mpmath.mpf(0)] * p for _ in range(p)]
            for x, wi, yi in zip(rows, weights, y):
                eta = mpmath.fdot(x, beta)
                if family is Family.LOGIT:
                    mu = 1 / (1 + mpmath.exp(-eta))
                    s, h = yi - mu, mu * (1 - mu)
                else:  # the Mills ratio of the observed side
                    side = 1 if yi else -1
                    r = mpmath.npdf(eta) / mpmath.ncdf(side * eta)
                    s, h = side * r, r * (r + side * eta)
                for j in range(p):
                    score[j] += wi * s * x[j]
                    for k in range(j + 1):
                        H[j][k] += wi * h * x[j] * x[k]
            for j in range(p):
                for k in range(j):
                    H[k][j] = H[j][k]
            step = mpmath.lu_solve(mpmath.matrix(H), mpmath.matrix(score))
            beta = [b + d for b, d in zip(beta, step)]
            if max(abs(d) for d in step) <= mpmath.mpf(10) ** (5 - dps) * max(abs(b) for b in beta):
                return np.array([float(mpmath.fdot(x, beta)) for x in rows])
    raise AssertionError("the high-precision Newton solve did not converge")


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
        fit = fit_glm(np.ones((3, 1)), np.array([2.0, 4.0, 6.0]), Family.GAUSSIAN)
        assert fit.coef == pytest.approx([4.0], abs=1e-14)

    def test_exact_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_glm(X, np.array([1.0, 3.0, 5.0]), Family.GAUSSIAN)
        assert fit.coef == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        fit = fit_glm(X, y, Family.GAUSSIAN)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-10

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        w = rng.uniform(0.1, 2.0, 40)
        oracle = np.linalg.solve(X.T @ (X * w[:, None]), X.T @ (w * y))
        fit = fit_glm(X, y, Family.GAUSSIAN, w)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-10

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 3))
        X = np.column_stack([X, X[:, 1]])  # duplicate column 1 as column 3
        with pytest.raises(RankDeficiencyError) as err:
            fit_glm(X, rng.standard_normal(30), Family.GAUSSIAN)
        assert err.value.column in (1, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(GlmError, match="length"):
            fit_glm(np.ones((3, 1)), np.ones(4), Family.GAUSSIAN)


class TestIrls:
    def test_intercept_only_logit(self):
        y = np.array([1.0] * 3 + [0.0] * 7)
        fit = fit_glm(np.ones((10, 1)), y, Family.LOGIT)
        assert fit.converged
        assert abs(fit.coef[0] - math.log(0.3 / 0.7)) < 1e-12

    def test_intercept_only_probit_balanced(self):
        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm(np.ones((10, 1)), y, Family.PROBIT)
        assert fit.converged
        assert abs(fit.coef[0]) < 1e-12

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(11)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        truth = np.array([0.3, -0.5, 0.8, 0.2])
        y = (rng.random(n) < expit(X @ truth)).astype(float)
        oracle = _logistic_newton_oracle(X, y)
        fit = fit_glm(X, y, Family.LOGIT)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-8

    def test_probit_matches_fisher_oracle(self):
        rng = np.random.default_rng(16)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = (rng.random(n) < ndtr(X @ np.array([-0.2, 0.4, 0.7, -0.3]))).astype(float)
        fit = fit_glm(X, y, Family.PROBIT)
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
        fit = fit_glm(X, y, family, w)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-8

    def test_weighted_all_ones_identical(self):
        rng = np.random.default_rng(12)
        n = 200
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < 0.4).astype(float)
        a = fit_glm(X, y, Family.LOGIT)
        b = fit_glm(X, y, Family.LOGIT, np.ones(n))
        assert np.max(np.abs(a.coef - b.coef)) < 1e-12

    def test_affine_recoding_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(13)
        n = 300
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < expit(0.5 + x)).astype(float)
        X2 = np.column_stack([np.ones(n), 3.0 * x - 7.0])
        p1 = predict_mean(fit_glm(X, y, Family.LOGIT), X)
        p2 = predict_mean(fit_glm(X2, y, Family.LOGIT), X2)
        assert np.max(np.abs(p1 - p2)) < 1e-8

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(50)
        X = np.column_stack([np.ones(50), x, 2.0 * x])
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(RankDeficiencyError) as err:
            fit_glm(X, y, Family.LOGIT)
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
            fit_glm(X, y, Family.LOGIT)
        assert err.value.coef_norm > 1.0

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_the_iteration_limit_claims_no_separation(self, family, monkeypatch):
        # a well-posed fit stopped early reports its iterations and norms
        # only: separation is named by the rank test, where it is real
        rng, X, y, _ = TestBatchFit._case(seed=22)
        monkeypatch.setattr(glm_mod, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as err:
            fit_glm(X, y, family)
        assert str(err.value).startswith("no convergence after 2 iterations: max|score|=")
        assert "separat" not in str(err.value)

    def test_binary_response_required(self):
        with pytest.raises(GlmError, match=r"\[0, 1\]"):
            fit_glm(np.ones((3, 1)), np.array([0.0, 2.0, 1.0]), Family.LOGIT)


class TestOneFit:
    """``fit_glm`` is the one fit: a single fit runs as its batch of one."""

    def test_no_module_calls_the_delegations_and_pathfx_exports_neither(self):
        names = {"fit_ols", "fit_glm_irls"}
        calls = []
        for path in sorted(pathlib.Path(pathfx.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "id", None) in names or getattr(func, "attr", None) in names:
                        calls.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and names & {alias.name for alias in node.names}:
                    calls.append(f"{path.name}:{node.lineno} (import)")
        assert calls == []
        assert not names & set(dir(pathfx))
        assert not names & set(glm_mod.__all__)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("case", ["rank-deficient", "not-finite", "separated-logit", "separated-probit"])
    def test_a_failed_single_fit_raises_its_batch_of_one_s_error(self, case, weighted):
        rng = np.random.default_rng(72)
        if case == "rank-deficient":
            X = rng.standard_normal((30, 3))
            X, y, family = np.column_stack([X, X[:, 1]]), rng.standard_normal(30), Family.GAUSSIAN
        elif case == "not-finite":
            (X, y), family = _nonfinite_case("inf-y"), Family.GAUSSIAN
        else:
            (X, y), family = TestBatchFit._quasi_separated(), Family[case.split("-")[1].upper()]
        w = rng.exponential(1.0, len(y)) if weighted else None
        want = fit_glm(X, y, family, np.ones((1, len(y))) if w is None else w[None]).errors[0]
        with pytest.raises(GlmError) as err:
            fit_glm(X, y, family, w)
        assert type(err.value) is type(want)
        assert str(err.value) == str(want)


class TestSolverGuard:
    def test_ill_conditioned_information_takes_the_qr_step(self, monkeypatch):
        # A covariate on a scale 1e7 times too small: cond(X'WX) is far above
        # 1 / CHOL_RCOND_MIN, yet the pivoted QR of sqrt(W) X keeps full rank.
        rng = np.random.default_rng(22)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = (rng.random(n) < expit(0.3 + 0.8 * x - 0.5 * z)).astype(float)
        assert np.linalg.cond(X.T @ X, 1) > 1e3 / glm_mod.CHOL_RCOND_MIN

        def no_inverse_step(*args, **kwargs):
            delta, passed = inverse_steps(*args, **kwargs)
            if passed:
                raise AssertionError("the condition guard should have sent this step to QR")
            return delta, passed

        inverse_steps = glm_mod._inverse_steps
        monkeypatch.setattr(glm_mod, "_inverse_steps", no_inverse_step)
        for family in (Family.LOGIT, Family.PROBIT):
            fit = fit_glm(X, y, family)
            reference = _qr_irls_reference(X, y, family)
            assert fit.converged
            assert np.max(np.abs(fit.coef - reference)) <= 1e-10 * np.max(np.abs(reference))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN], ids=lambda f: f.name.lower())
    def test_a_fallback_single_fit_is_its_batch_of_one(self, family, weighted, monkeypatch):
        # the badly scaled covariate above: every system fails the guard
        rng = np.random.default_rng(22)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = (rng.random(n) < expit(0.3 + 0.8 * x - 0.5 * z)).astype(float)
        w = rng.exponential(1.0, n) if weighted else None
        verdicts = []

        def guarded(H, scores):
            steps, passed = inverse_steps(H, scores)
            verdicts.append(passed)
            return steps, passed

        inverse_steps = glm_mod._inverse_steps
        monkeypatch.setattr(glm_mod, "_inverse_steps", guarded)
        single = fit_glm(X, y, family, w)
        assert verdicts and not np.concatenate(verdicts).any()
        rows = np.ones((1, n)) if w is None else w[None]
        assert np.array_equal(fit_glm(X, y, family, rows).coef[0], single.coef)
        assert np.array_equal(fit_glm(X[None], y[None], family, None if w is None else rows).coef[0], single.coef)

    def test_well_conditioned_information_takes_the_inverse_step(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < 0.4).astype(float)

        def no_qr(*args, **kwargs):
            raise AssertionError("a well-conditioned step should not need QR")

        monkeypatch.setattr(glm_mod, "_pivoted_qr", no_qr)
        assert fit_glm(X, y, Family.LOGIT).converged

    def test_ill_conditioned_least_squares_takes_the_qr_step(self, monkeypatch):
        # the same badly scaled covariate as above, on a gaussian response
        rng = np.random.default_rng(24)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = 0.3 + 0.8 * x - 0.5 * z + rng.standard_normal(n)
        w = rng.exponential(1.0, n)
        assert np.linalg.cond(X.T @ X, 1) > 1e3 / glm_mod.CHOL_RCOND_MIN

        def no_inverse_step(*args, **kwargs):
            delta, passed = inverse_steps(*args, **kwargs)
            if passed:
                raise AssertionError("the condition guard should have sent this solve to QR")
            return delta, passed

        qr_calls = []

        def counted_qr(A):
            qr_calls.append("raw")
            return pivoted_qr(A)

        inverse_steps, pivoted_qr = glm_mod._inverse_steps, glm_mod._pivoted_qr
        monkeypatch.setattr(glm_mod, "_inverse_steps", no_inverse_step)
        monkeypatch.setattr(glm_mod, "_pivoted_qr", counted_qr)
        for weights, sw in ((None, np.ones(n)), (w, np.sqrt(w))):
            reference = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
            # measured gaps are below 6e-15 of each coefficient
            np.testing.assert_allclose(fit_glm(X, y, Family.GAUSSIAN, weights).coef, reference, rtol=1e-10)
        assert qr_calls == ["raw", "raw"]

    def test_well_conditioned_least_squares_takes_the_inverse_step(self, monkeypatch):
        rng = np.random.default_rng(25)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(n)
        w = rng.exponential(1.0, n)

        def no_qr(*args, **kwargs):
            raise AssertionError("a well-conditioned solve should not need QR")

        monkeypatch.setattr(glm_mod, "_pivoted_qr", no_qr)
        for weights, sw in ((None, np.ones(n)), (w, np.sqrt(w))):
            reference = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
            np.testing.assert_allclose(fit_glm(X, y, Family.GAUSSIAN, weights).coef, reference, rtol=1e-10)

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
    @pytest.mark.parametrize("case", _fallback_fixtures(), ids=lambda c: c[0])
    def test_matches_the_qr_reference_or_raises_alike(self, family, case):
        name, X, y, w = case
        if name == "extreme-weights-5":
            # The prior weights span 12 orders, so the absolute score test
            # never passes (max|score| bottoms out at 3.6e-10 logit, 6.5e-10
            # probit) and the reference runs out of iterations; the engine
            # stops on the Newton decrement, at the maximum of a 40-digit
            # Newton solve.  Measured: <= 2.0e-16.
            with pytest.raises(NonConvergenceError):
                _qr_irls_reference(X, y, family, w)
            fit = fit_glm(X, y, family, w)
            eta = _mp_newton_eta(X, y, family, w)
            assert np.max(np.abs(X @ fit.coef - eta)) <= 1e-10 * max(1.0, np.max(np.abs(eta)))
            return
        try:
            reference = _qr_irls_reference(X, y, family, w)
        except GlmError as exc:
            with pytest.raises(type(exc)):
                fit_glm(X, y, family, w)
            return
        fit = fit_glm(X, y, family, w)
        # Compare the fitted linear predictors, which the maximum determines.
        # On near-collinear-2 (cond(X'WX) 5e12) the score tolerance is the
        # score's rounding floor (no fit reaches 1e-11), so the coefficients
        # along the collinear direction follow rounding: an IRLS run in
        # 50-digit arithmetic stops 1.1e-9 (logit) and 2.2e-10 (probit) from
        # this reference, relative to the largest coefficient.  Measured:
        # <= 4.1e-11 there, <= 7.8e-13 elsewhere.
        eta = X @ reference
        assert np.max(np.abs(X @ fit.coef - eta)) <= 1e-10 * max(1.0, np.max(np.abs(eta)))


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
            start = fit_glm(X, y, family, rng.exponential(1.0, n) * prior).coef
        except GlmError:
            start = rng.normal(0.0, 0.5, p)
        try:
            cold = fit_glm(X, y, family, w)
        except GlmError as exc:
            with pytest.raises(type(exc)):
                fit_glm(X, y, family, w, start=start)
            return
        # a log-likelihood this close to 0 leaves no row live, which raises
        assert glm_mod._binomial_terms(family, X @ cold.coef, y, prior)[0] <= -1e-9
        warm = fit_glm(X, y, family, w, start=start)
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

    @pytest.mark.parametrize("design", ["1, c0_1", "1, c0_1, c1_1, c1_2, c1_3", "1, c0_1, c1_1, c1_2, c1_3, m"],
                             ids=["prop_base", "prop_c1", "prop_m"])
    def test_probit_propensities_take_few_newton_steps(self, design):
        # Newton steps converge quadratically where Fisher scoring on the
        # probit link took 7-12 iterations; measured 5-6 for the point fits
        # and 3-4 for the warm-started replicates
        ds = draw_dataset(1500, 1)
        X = build_design_matrix(ds, DesignSpec.parse(design))
        y = ds.e.astype(float)
        point = fit_glm(X, y, Family.PROBIT)
        assert point.iterations <= 7
        W = np.random.default_rng(8).exponential(1.0, (10, X.shape[0]))
        batch = fit_glm(X, y, Family.PROBIT, W, start=point.coef)
        assert batch.converged.all()
        assert np.max(batch.iterations) <= 5

    def test_start_at_the_maximum_takes_no_step(self):
        rng = np.random.default_rng(31)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.3, 0.8, -0.5]))).astype(float)
        cold = fit_glm(X, y, Family.LOGIT)
        start = cold.coef.copy()
        warm = fit_glm(X, y, Family.LOGIT, start=start)
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
        start = fit_glm(X, y, Family.LOGIT, rng.exponential(1.0, n)).coef
        assert not start.flags.writeable
        kept = start.copy()
        fit = fit_glm(X, y, Family.LOGIT, start=start)
        assert np.array_equal(start, kept)
        assert not np.shares_memory(fit.coef, start)
        writable = kept.copy()
        fit_glm(X, y, Family.PROBIT, start=writable)
        assert np.array_equal(writable, kept)

    def test_gaussian_ignores_start(self):
        rng = np.random.default_rng(34)
        X = np.column_stack([np.ones(60), rng.standard_normal(60)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(60)
        fit = fit_glm(X, y, Family.GAUSSIAN, start=np.array([5.0, 5.0]))
        assert np.array_equal(fit.coef, fit_glm(X, y, Family.GAUSSIAN).coef)


class TestSeparationRule:
    @pytest.mark.parametrize("name", ["n-near-p-1", "n-near-p-2", "n-near-p-5"])
    def test_probit_separation_below_the_median_mark_raises(self, name):
        # probit tails are thin: these completely separated fits stop at a
        # median |eta| near 7, where every row's information is below DEAD_INFO
        _, X, y, w = next(case for case in _fallback_fixtures() if case[0] == name)
        with pytest.raises(NonConvergenceError, match="every row's fitted probability is at 0 or 1"):
            fit_glm(X, y, Family.PROBIT, w)

    def test_ordinary_fit_takes_no_qr(self, monkeypatch):
        rng = np.random.default_rng(43)
        n = 500
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.1, 1.0, -1.0]))).astype(float)

        def no_qr(*args, **kwargs):
            raise AssertionError("no row is dead at the stop; the comparison settles it")

        monkeypatch.setattr(glm_mod, "_pivoted_qr", no_qr)
        for family in (Family.LOGIT, Family.PROBIT):
            assert fit_glm(X, y, family).converged
            assert fit_glm(X, y, family, rng.exponential(1.0, (3, n))).converged.all()

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_dead_rows_that_leave_the_rank_alone_converge(self, family, monkeypatch):
        # three covariate outliers far out on the side their responses
        # agree with carry no information at the stop, but the other rows
        # still identify every coefficient: a maximum exists
        rng = np.random.default_rng(44)
        n = 300
        x = rng.standard_normal(n)
        x[:3] = (40.0, 45.0, -50.0)
        X = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < expit(0.2 + 1.0 * x)).astype(float)
        y[:3] = (1.0, 1.0, 0.0)
        qr_calls = []

        def counted_qr(A):
            qr_calls.append(A.shape)
            return pivoted_qr(A)

        pivoted_qr = glm_mod._pivoted_qr
        monkeypatch.setattr(glm_mod, "_pivoted_qr", counted_qr)
        fit = fit_glm(X, y, family)
        info = glm_mod._binomial_terms(family, X @ fit.coef, y, np.ones(n))[2]
        assert (info[:3] < glm_mod.DEAD_INFO).all() and (info[3:] >= glm_mod.DEAD_INFO).all()
        assert qr_calls == [(n - 3, 2)]  # the rank test of the live rows, and nothing else


def _cd4_fixture(n, seed=11):
    """A treatment-programme cohort: an intercept, CD4 count |N(300, 200)|,
    age N(38, 9) and weight N(60, 12), and a logit, then a probit, response
    on the index -0.6 + 0.002 cd4 - 0.01 age + 0.005 weight."""
    rng = np.random.default_rng(seed)
    covariates = rng.normal([300.0, 38.0, 60.0], [200.0, 9.0, 12.0], (n, 3))
    covariates[:, 0] = np.abs(covariates[:, 0])
    X = np.column_stack([np.ones(n), covariates])
    eta = X @ np.array([-0.6, 0.002, -0.01, 0.005])
    return X, {family: (rng.random(n) < mean(eta)).astype(float)
               for family, mean in ((Family.LOGIT, expit), (Family.PROBIT, ndtr))}


class TestDecrementStop:
    """A fit whose steps come from the inverse stops on its Newton
    decrement: the last step is taken without the link terms at its end."""

    def test_a_cohort_sized_probit_fit_converges(self):
        # The absolute score test's rounding floor grows with n and with the
        # covariates' units: here max|score| stalls at 6.2e-10, and the score
        # test alone ran out of its 100 iterations
        X, ys = _cd4_fixture(100_000)
        y = ys[Family.PROBIT]
        fit = fit_glm(X, y, Family.PROBIT)
        assert fit.iterations <= 6
        # at the maximum of an independent Fisher scoring; measured 5.8e-16
        eta = X @ _probit_fisher_oracle(X, y, iters=30)
        assert np.max(np.abs(X @ fit.coef - eta)) <= 1e-12 * np.max(np.abs(eta))
        W = np.random.default_rng(12).exponential(1.0, (2, len(y)))
        batch = fit_glm(X, y, Family.PROBIT, W)
        assert batch.converged.all()
        for b in range(2):
            single = fit_glm(X, y, Family.PROBIT, W[b])
            assert np.array_equal(batch.coef[b], single.coef)
            assert batch.iterations[b] == single.iterations <= 6

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_the_last_step_evaluates_no_link_terms(self, family, monkeypatch):
        # the study's prop_m fit: the start's terms, then one trial per step
        # but the last, where the score test evaluated iterations + 1
        ds = draw_dataset(1500, 1)
        X = build_design_matrix(ds, DesignSpec.parse("1, c0_1, c1_1, c1_2, c1_3, m"))
        calls = []
        terms = glm_mod._binomial_terms
        monkeypatch.setattr(glm_mod, "_binomial_terms", lambda *a: calls.append(a[1].shape) or terms(*a))
        fit = fit_glm(X, ds.e.astype(float), family)
        assert len(calls) == fit.iterations == 6

    def test_a_qr_fallback_fit_stops_on_the_score(self, monkeypatch):
        # the badly scaled covariate of the QR-step test: probit QR steps are
        # Fisher scoring, and its decrement would stop short of the maximum
        rng = np.random.default_rng(22)
        n = 400
        x, z = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 1e-7 * z])
        y = (rng.random(n) < expit(0.3 + 0.8 * x - 0.5 * z)).astype(float)
        calls = []
        terms = glm_mod._binomial_terms
        monkeypatch.setattr(glm_mod, "_binomial_terms", lambda *a: calls.append(a[1].shape) or terms(*a))
        for family in (Family.LOGIT, Family.PROBIT):
            calls.clear()
            fit = fit_glm(X, y, family)
            assert len(calls) == fit.iterations + 1
            assert np.max(np.abs(_binomial_score(family, X, y, fit.coef))) < glm_mod.DEFAULT_TOL

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_quasi_separation_stops_on_the_score(self, family, monkeypatch):
        # the DEAD_INFO fixture, y ~ 1 + d with every d = 1 row at y = 1: the
        # score vanishes with the dead rows' weight while the decrement stays
        # above DECREMENT_RTOL |ll|, so the score test stops it, at the point
        # whose link terms it evaluated, and the rank test names the column
        X, y = TestBatchFit._quasi_separated()
        calls = []
        terms = glm_mod._binomial_terms
        monkeypatch.setattr(glm_mod, "_binomial_terms", lambda *a: calls.append(a[1].shape) or terms(*a))
        with pytest.raises(NonConvergenceError) as err:
            fit_glm(X, y, family)
        assert str(err.value).startswith("the responses are separated: the coefficient of column 1 diverges (after ")
        assert err.value.score_norm < glm_mod.DEFAULT_TOL
        assert len(calls) == err.value.iterations + 1


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
    @pytest.mark.parametrize("kind", ["wild", "frequency"])
    def test_rows_match_single_fits(self, family, kind):
        # every Gram, product and solve of a batch row is the single fit's,
        # so the coefficients agree bitwise
        rng, X, y, yg = self._case()
        response = yg if family is Family.GAUSSIAN else y
        n = X.shape[0]
        if kind == "wild":
            W = rng.exponential(1.0, (7, n))
        else:
            W = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(7)], dtype=float)
        batch = fit_glm(X, response, family, W)
        assert batch.coef.shape == (7, 4) and batch.converged.all()
        for b in range(7):
            single = fit_glm(X, response, family, W[b])
            assert np.array_equal(batch.coef[b], single.coef)
            if family.is_binomial:
                # every replicate passes the usual score test
                assert np.max(np.abs(_binomial_score(family, X, response, batch.coef[b], W[b]))) < glm_mod.DEFAULT_TOL

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN], ids=lambda f: f.name.lower())
    def test_a_stack_of_designs_fits_each_replicate_on_its_own(self, family, weighted):
        # a chunk of Monte Carlo datasets: replicate b fits X[b] and y[b], and
        # its coefficients are bitwise its single fit's; a replicate whose
        # design repeats a column fails alone, in the QR fallback
        cases = [self._case(seed) for seed in (61, 62, 63, 64)]
        X = np.empty((4, 4, 600)).swapaxes(-1, -2)  # column-major, as build_design_matrix makes them
        X[...] = [case[1] for case in cases]
        X[2, :, 3] = X[2, :, 2]
        y = np.array([case[3] if family is Family.GAUSSIAN else case[2] for case in cases])
        W = np.random.default_rng(65).exponential(1.0, y.shape) if weighted else None
        batch = fit_glm(X, y, family, W)
        assert list(batch.converged) == [True, True, False, True]
        assert np.isnan(batch.coef[2]).all()
        with pytest.raises(RankDeficiencyError):
            fit_glm(X[2], y[2], family, None if W is None else W[2])
        for b in (0, 1, 3):
            assert np.array_equal(batch.coef[b], fit_glm(X[b], y[b], family, None if W is None else W[b]).coef)
        with pytest.raises(GlmError, match="weights have shape"):
            fit_glm(X, y, family, np.ones((3, 600)))

    def test_a_row_does_not_depend_on_its_batch_mates(self):
        rng, X, y, _ = self._case()
        W = rng.exponential(1.0, (9, X.shape[0]))
        full = fit_glm(X, y, Family.LOGIT, W).coef
        assert np.array_equal(fit_glm(X, y, Family.LOGIT, W[2:5]).coef, full[2:5])
        assert np.array_equal(fit_glm(X, y, Family.LOGIT, W[[4]]).coef, full[[4]])

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.LOGIT], ids=lambda f: f.name.lower())
    def test_a_rank_deficient_batch_of_one_is_nan(self, family):
        # a bootstrap of more than 32,768 rows fits one replicate per chunk;
        # its rank loss must fail that replicate, not raise
        _, X, y, yg = self._case()
        w = np.zeros(X.shape[0])
        w[:3] = 1.0  # three weighted rows for four coefficients
        response = yg if family is Family.GAUSSIAN else y
        with pytest.raises(RankDeficiencyError):
            fit_glm(X, response, family, w)
        batch = fit_glm(X, response, family, w[None])
        assert batch.coef.shape == (1, 4)
        assert list(batch.converged) == [False]
        assert np.isnan(batch.coef).all()

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

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_a_failed_row_leaves_the_others_means(self, family):
        # the NaN coefficients of a failed replicate reach predict_mean and
        # the link terms with the others, whose values they must not touch
        rng, X, y, _ = self._case()
        W = rng.exponential(1.0, (4, X.shape[0]))
        W[1] = np.where(X[:, 1] > 0, y, 1.0 - y)
        batch = fit_glm(X, y, family, W)
        assert list(batch.converged) == [True, False, True, True]
        mean = predict_mean(batch, X)
        assert np.isnan(mean[1]).all()
        for b in (0, 2, 3):
            single = dataclasses.replace(batch, coef=batch.coef[b], iterations=0, errors={})
            assert np.array_equal(mean[b], predict_mean(single, X))
        eta = batch.coef @ X.T
        terms = glm_mod._binomial_terms(family, eta, y, W)
        alone = glm_mod._binomial_terms(family, eta[[0, 2, 3]], y, W[[0, 2, 3]])
        for got, want in zip(terms, alone):
            assert np.isnan(got[1]).all()
            assert np.array_equal(got[[0, 2, 3]], want)

    def test_frequency_weights_count_rows_as_drawn(self):
        # a nonparametric replicate weights each row by how often it was
        # drawn; its verdict is the drawn data's, since only which rows are
        # present matters, and so are its coefficients up to rounding
        rng = np.random.default_rng(52)
        verdicts = set()
        for _ in range(200):
            n = int(rng.integers(10, 40))
            d = (rng.random(n) < 0.3).astype(float)
            X = np.column_stack([np.ones(n), d, rng.standard_normal(n)])
            y = (rng.random(n) < expit(X @ np.array([-0.3, 2.5, 1.0]))).astype(float)
            W = rng.integers(0, 4, (2, n)).astype(float)
            family = Family.LOGIT if rng.random() < 0.5 else Family.PROBIT
            batch = fit_glm(X, y, family, W)
            for b in range(2):
                drawn = W[b].astype(int)
                try:
                    want = fit_glm(np.repeat(X, drawn, axis=0), np.repeat(y, drawn), family)
                except GlmError as exc:
                    assert not batch.converged[b] and np.isnan(batch.coef[b]).all()
                    verdicts.add(type(exc))
                    continue
                assert batch.converged[b]
                np.testing.assert_allclose(batch.coef[b], want.coef, rtol=1e-7, atol=1e-9)
                verdicts.add(None)
        assert verdicts >= {None, NonConvergenceError, RankDeficiencyError}

    def test_a_whole_number_batch_counts_rows_as_drawn(self):
        X, y = self._quasi_separated()
        counts = np.r_[np.full(10, 4.0), np.ones(30)]
        drawn = counts.astype(int)
        with pytest.raises(NonConvergenceError) as alone:
            fit_glm(np.repeat(X, drawn, axis=0), np.repeat(y, drawn), Family.LOGIT)
        # however often the d = 1 rows are drawn, the replicate fails as the
        # drawn data does; one that draws none of them fails as its drawn
        # data does too, on the column that only undrawn rows hold
        W = np.array([counts, np.ones(40), np.r_[np.zeros(10), np.full(30, 2.0)]])
        batch = fit_glm(X, y, Family.LOGIT, W)
        assert not batch.converged.any() and np.isnan(batch.coef).all()
        errors = glm_mod._score_batch(X, y, Family.LOGIT, W, np.zeros(2), None)[2]
        for b in (0, 1):
            assert str(errors[b]).split(" (")[0] == str(alone.value).split(" (")[0]
        kept = W[2].astype(int)
        with pytest.raises(RankDeficiencyError) as none_drawn:
            fit_glm(np.repeat(X, kept, axis=0), np.repeat(y, kept), Family.LOGIT)
        assert type(errors[2]) is RankDeficiencyError and errors[2].column == none_drawn.value.column == 1

    def test_a_batch_with_a_fractional_weight_counts_each_row_once(self):
        # a fractional weight leaves every row's presence as it is: each
        # replicate of the batch is bitwise its single fit
        rng = np.random.default_rng(55)
        X, _ = self._quasi_separated()
        y = (rng.random(40) < 0.5).astype(float)
        W = np.array([np.r_[np.full(10, 4.0), np.ones(30)], np.ones(40)])
        W[1, -1] = 0.5
        for family in (Family.LOGIT, Family.PROBIT):
            batch = fit_glm(X, y, family, W)
            assert list(batch.converged) == [True, True]
            for b in range(2):
                assert np.array_equal(batch.coef[b], fit_glm(X, y, family, W[b]).coef)

    @staticmethod
    def _quasi_separated():
        # the d = 1 rows all have y = 1, so the slope's maximum likelihood is
        # +inf; they are a quarter of the rows, so their linear predictors
        # pass 20 (logit) without moving the median or the log-likelihood
        rng = np.random.default_rng(53)
        d = np.r_[np.ones(10), np.zeros(30)]
        X = np.column_stack([np.ones(40), d])
        y = np.r_[np.ones(10), (rng.random(30) < 0.4).astype(float)]
        return X, y

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_quasi_separation_raises_in_every_form(self, family):
        X, y = self._quasi_separated()
        diverges = "the responses are separated: the coefficient of column 1 diverges"
        with pytest.raises(NonConvergenceError, match=diverges):
            fit_glm(X, y, family)
        # a row of a whole-number batch (as a nonparametric replicate draws
        # the rows), a row of a fractional one, and a replicate of a stack:
        # each fails alone, with the single fit's message
        counts = np.r_[np.full(10, 4.0), np.ones(30)]
        fractional = np.r_[np.full(10, 0.5), np.ones(30)]
        for W in (np.array([counts, np.ones(40)]), np.array([fractional, np.ones(40)])):
            batch = fit_glm(X, y, family, W)
            assert list(batch.converged) == [False, False]
            assert np.isnan(batch.coef).all()
            _, _, errors = glm_mod._score_batch(X, y, family, W, np.zeros(2), None)
            assert all(diverges in str(errors[b]) for b in (0, 1))
            with pytest.raises(NonConvergenceError, match=diverges):
                fit_glm(X, y, family, W[0])
        ordinary = (np.random.default_rng(54).random(40) < 0.5).astype(float)
        Xs, ys = np.array([X, X]), np.array([ordinary, y])
        stack = fit_glm(Xs, ys, family)
        assert list(stack.converged) == [True, False]
        assert np.array_equal(stack.coef[0], fit_glm(X, ordinary, family).coef)
        assert np.isnan(stack.coef[1]).all()
        _, _, errors = glm_mod._score_batch(Xs, ys, family, np.ones((2, 40)), np.zeros(2), None)
        assert list(errors) == [1] and diverges in str(errors[1])


class TestSharedStart:
    """Every replicate of a batch on one design starts at the same point, so
    the linear predictor and link terms there are formed once."""

    @pytest.mark.parametrize("kind", ["wild", "frequency"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_the_start_terms_are_formed_once_and_every_row_is_its_single_fit(
            self, family, warm, kind, monkeypatch):
        rng, X, y, _ = TestBatchFit._case(seed=67)
        n = X.shape[0]
        if kind == "wild":
            W = rng.exponential(1.0, (6, n))
        else:
            W = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(6)], dtype=float)
        W[2] = 0.0
        W[2, :3] = 1.0  # three weighted rows for four coefficients: fails on its first step
        start = fit_glm(X, y, family).coef if warm else None
        if warm:
            W[5] = 1.0  # the start is this row's own fit: it converges at once
        shapes = []
        terms = glm_mod._binomial_terms
        monkeypatch.setattr(glm_mod, "_binomial_terms", lambda *a: shapes.append(a[1].shape) or terms(*a))
        batch = fit_glm(X, y, family, W, start=start)
        assert shapes[0] == (n,)  # the start, on n rows, once
        assert all(len(shape) == 2 for shape in shapes[1:])
        assert list(batch.converged) == [True, True, False, True, True, True]
        assert np.isnan(batch.coef[2]).all()
        with pytest.raises(RankDeficiencyError):
            fit_glm(X, y, family, W[2], start=start)
        for b in (0, 1, 3, 4, 5):
            single = fit_glm(X, y, family, W[b], start=start)
            assert np.array_equal(batch.coef[b], single.coef), b
            assert batch.iterations[b] == single.iterations, b
        assert (batch.iterations[5] == 0) == warm

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN],
                             ids=lambda f: f.name.lower())
    def test_a_row_of_non_finite_weights_fails_alone(self, family, stacked, bad):
        # the refits of a chunk holding a failed replicate get its NaN weights
        rng, X, y, yg = TestBatchFit._case(seed=68)
        response = yg if family is Family.GAUSSIAN else y
        W = rng.exponential(1.0, (3, X.shape[0]))
        W[1, 5] = bad
        Xs, ys = (np.stack([X] * 3), np.stack([response] * 3)) if stacked else (X, response)
        batch = fit_glm(Xs, ys, family, W)
        assert list(batch.converged) == [True, False, True]
        assert np.isnan(batch.coef[1]).all()
        for b in (0, 2):
            assert np.array_equal(batch.coef[b], fit_glm(X, response, family, W[b]).coef), b
        with pytest.raises(GlmError, match="^weights must be finite and non-negative$"):
            fit_glm(X, response, family, W[1])


class TestSharedSystem:
    """Gaussian fits of several responses on one design and weights share
    one Gram, guard and inverse, with one right-hand side each."""

    @pytest.mark.parametrize("kind", ["single", "weighted", "batch", "stacked"])
    def test_each_response_is_bitwise_its_own_fit(self, kind, monkeypatch):
        rng, X, _, _ = TestBatchFit._case(seed=69)
        n = X.shape[0]
        ys = [X @ rng.standard_normal(4) + rng.standard_normal(n) for _ in range(3)]
        weights = {"single": None, "weighted": rng.exponential(1.0, n),
                   "batch": rng.exponential(1.0, (5, n)), "stacked": rng.exponential(1.0, (5, n))}[kind]
        if kind == "stacked":
            X = np.stack([X] * 5)
            ys = [np.stack([y] * 5) for y in ys]
        inversions = []
        inverse_steps = glm_mod._inverse_steps
        monkeypatch.setattr(glm_mod, "_inverse_steps", lambda H, scores: inversions.append(len(scores))
                            or inverse_steps(H, scores))
        fits = glm_mod._least_squares(X, ys, weights)
        assert inversions == [3]
        monkeypatch.undo()
        for fit, y in zip(fits, ys):
            assert np.array_equal(fit.coef, fit_glm(X, y, Family.GAUSSIAN, weights).coef)

    def test_a_failing_single_system_is_each_response_s_error(self):
        rng, X, _, yg = TestBatchFit._case(seed=70)
        X[:, 3] = X[:, 2]
        fits = glm_mod._least_squares(X, [yg, 2.0 * yg], None)
        assert all(isinstance(fit, RankDeficiencyError) for fit in fits)
        with pytest.raises(RankDeficiencyError) as alone:
            fit_glm(X, yg, Family.GAUSSIAN)
        assert str(fits[0]) == str(alone.value)


class TestLayout:
    """Column-major designs, as ``build_design_matrix`` makes them, and C-ordered ones."""

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_a_weighted_least_squares_makes_no_copy_of_the_transpose(self, order):
        # only the weighted X' diag(w) is formed: one array of the design's size
        rng = np.random.default_rng(61)
        n, p = 25_000, 14
        X = np.asarray(rng.standard_normal((n, p)), order=order)
        y, w = rng.standard_normal(n), rng.exponential(1.0, n)
        tracemalloc.start()
        try:
            fit_glm(X, y, Family.GAUSSIAN, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * p * 8

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN])
    def test_batch_rows_on_a_column_major_design_are_their_single_fits(self, family):
        rng, X, y, yg = TestBatchFit._case(seed=62)
        X = np.asfortranarray(X)
        response = yg if family is Family.GAUSSIAN else y
        W = rng.exponential(1.0, (5, X.shape[0]))
        batch = fit_glm(X, response, family, W)
        for b in range(5):
            assert np.array_equal(batch.coef[b], fit_glm(X, response, family, W[b]).coef)

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN])
    def test_a_c_ordered_copy_fits_alike(self, family):
        # the layouts round differently, so the fits agree to rounding, not
        # bitwise (measured: <= 3.7e-16 binomial, 1.4e-14 gaussian)
        ds = draw_dataset(1500, 63)
        design = DesignSpec.parse("1, c0_1, c1_1, c1_2, c1_3, m")
        X = build_design_matrix(ds, design)
        response = ds.y if family is Family.GAUSSIAN else (ds.e == 1).astype(float)
        w = np.random.default_rng(64).exponential(1.0, ds.n)
        column_major = fit_glm(X, response, family, w).coef
        row_major = fit_glm(np.ascontiguousarray(X), response, family, w).coef
        assert np.max(np.abs(row_major - column_major)) <= 1e-12 * np.max(np.abs(column_major))


class TestGramBlocks:
    """Every Gram is summed over row blocks of ``GRAM_BLOCK // p`` rows."""

    P = 14

    @classmethod
    def _tall_case(cls, seed=71):
        # three whole blocks and a ragged fourth
        rows = glm_mod.GRAM_BLOCK // cls.P
        n = 3 * rows + rows // 3
        rng = np.random.default_rng(seed)
        X = np.empty((cls.P, n)).T  # column-major, as build_design_matrix makes them
        X[:, 0] = 1.0
        X[:, 1:] = rng.standard_normal((n, cls.P - 1))
        eta = X @ (0.15 * rng.standard_normal(cls.P))
        y = (rng.random(n) < expit(eta)).astype(float)
        return rng, X, y, eta + rng.standard_normal(n)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_the_gram_matches_an_extended_precision_sum(self, weighted):
        rng, X, _, _ = self._tall_case()
        n = X.shape[0]
        w = rng.exponential(1.0, n) if weighted else None
        H = glm_mod._gram(X, w)
        Xl = X.astype(np.longdouble)
        ref = (Xl.T * (1 if w is None else w.astype(np.longdouble))) @ Xl
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))  # |H_jk| <= sqrt(H_jj H_kk)
        assert np.max(np.abs(H - ref) / scale) < 1e-13
        # the blocks are summed, not one product over every row
        assert not np.array_equal(H, X.T @ X if w is None else (X.T * w) @ X)

    @pytest.mark.parametrize("p", [2, 7, 14])
    def test_a_design_of_one_block_is_the_single_product(self, p):
        rng = np.random.default_rng(72)
        n = glm_mod.GRAM_BLOCK // p
        X = np.asfortranarray(rng.standard_normal((n, p)))
        w = rng.exponential(1.0, n)
        assert np.array_equal(glm_mod._gram(X, w), (X.T * w) @ X)
        assert np.array_equal(glm_mod._gram(X, None), X.T @ X)
        W = rng.exponential(1.0, (3, n))
        assert np.array_equal(glm_mod._gram(X, W[:, None, :]), np.matmul(X.T * W[:, None, :], X))

    def test_no_weighted_copy_of_a_tall_design(self):
        rng, X, _, _ = self._tall_case()
        w = rng.exponential(1.0, X.shape[0])
        tracemalloc.start()
        try:
            glm_mod._gram(X, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * X.nbytes

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT, Family.GAUSSIAN], ids=lambda f: f.name.lower())
    def test_batch_and_stacked_rows_are_their_single_fits(self, family):
        rng, X, y, yg = self._tall_case()
        response = yg if family is Family.GAUSSIAN else y
        n = X.shape[0]
        W = rng.exponential(1.0, (3, n))
        batch = fit_glm(X, response, family, W)
        stack = np.empty((3, self.P, n)).swapaxes(-1, -2)
        stack[...] = X
        stacked = fit_glm(stack, np.stack([response] * 3), family, W)
        assert batch.converged.all() and stacked.converged.all()
        for b in range(3):
            single = fit_glm(X, response, family, W[b]).coef
            assert np.array_equal(batch.coef[b], single)
            assert np.array_equal(stacked.coef[b], single)
        if family is Family.GAUSSIAN:
            alone = fit_glm(X, response, family).coef
            assert np.allclose(alone, np.linalg.lstsq(X, response, rcond=None)[0], rtol=1e-12, atol=1e-13)


def _nonfinite_case(kind, n=200):
    """A logit-shaped sample with one NaN design cell, one inf response, or
    one design cell whose square overflows X'WX; row 3 holds the bad value."""
    rng = np.random.default_rng(65)
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.integers(0, 2, n)])
    y = (rng.random(n) < 0.5).astype(float)
    if kind == "nan-X":
        X[3, 1] = np.nan
    elif kind == "inf-y":
        y[3] = np.inf
    else:
        X[3, 1] = 1e200
    return X, y


class TestNonFiniteSystems:
    """A system that is not finite fails at once, with a message that says so."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("kind", ["nan-X", "inf-y", "overflow"])
    def test_least_squares_raises(self, kind, weighted):
        X, y = _nonfinite_case(kind)
        with pytest.raises(GlmError, match="is not finite"):
            fit_glm(X, y, Family.GAUSSIAN, np.full(len(y), 2.0) if weighted else None)

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
    @pytest.mark.parametrize("kind", ["nan-X", "overflow"])
    def test_a_binomial_fit_raises_before_iterating(self, kind, family, monkeypatch):
        X, y = _nonfinite_case(kind)
        calls = []
        terms = glm_mod._binomial_terms
        monkeypatch.setattr(glm_mod, "_binomial_terms", lambda *a: calls.append(a[1].size) or terms(*a))
        with pytest.raises(GlmError, match="is not finite"):
            fit_glm(X, y, family)
        assert np.count_nonzero(calls) == 1  # the start's terms, and no trial step

    def test_a_nan_binomial_response_is_refused(self):
        X, y = _nonfinite_case("nan-X")
        X[3, 1], y[3] = 0.5, np.nan
        with pytest.raises(GlmError, match=r"responses in \[0, 1\]"):
            fit_glm(X, y, Family.LOGIT)

    # (a binomial response outside [0, 1] is refused before any fit)
    @pytest.mark.parametrize("kind, family", [
        ("nan-X", Family.GAUSSIAN), ("inf-y", Family.GAUSSIAN), ("overflow", Family.GAUSSIAN),
        ("nan-X", Family.LOGIT), ("overflow", Family.LOGIT),
    ], ids=lambda v: v if isinstance(v, str) else v.name.lower())
    def test_a_batch_fails_only_the_replicates_that_reach_it(self, kind, family):
        X, y = _nonfinite_case(kind)
        W = np.random.default_rng(66).exponential(1.0, (3, len(y)))
        W[0, 3] = 0.0  # replicate 0 gives the bad row no weight
        batch = fit_glm(X, y, family, W)
        # a zero weight cancels an overflowing row, but not a NaN or an inf
        fits_0 = kind == "overflow"
        assert list(batch.converged) == [fits_0, False, False]
        assert np.isnan(batch.coef[1:]).all()
        if fits_0:
            assert np.array_equal(batch.coef[0], fit_glm(X, y, family, W[0]).coef)
        else:
            with pytest.raises(GlmError, match="is not finite"):
                fit_glm(X, y, family, W[0])


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
            # the mean from the softplus's exponential is within 2 ulp of
            # expit's 1 / (1 + e^-eta); measured <= 2.2e-16
            assert np.max(np.abs(s - (y - mu))) <= 2 * EPS
            assert np.max(np.abs(fisher - mu * (1.0 - mu))) <= 2 * EPS
            reference = np.sum(w * (y * eta - np.logaddexp(0.0, eta)))
            # measured <= 2.5e-16
            assert abs(ll - reference) <= 1e-15 * abs(reference)


class TestPredict:
    def test_gaussian(self):
        fit = fit_glm(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.array([1.0, 3.0, 5.0]), Family.GAUSSIAN)
        assert predict_mean(fit, np.array([1.0, 3.0])) == pytest.approx(7.0, abs=1e-12)

    def test_logit_at_zero(self):
        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm(np.ones((10, 1)), y, Family.LOGIT)
        assert predict_mean(fit, np.array([1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_probit_against_independent_cdf(self):
        from dataclasses import replace

        y = np.array([1.0] * 5 + [0.0] * 5)
        fit = fit_glm(np.ones((10, 1)), y, Family.PROBIT)
        fit = replace(fit, coef=np.array([0.9, 0.3]))
        oracle = float(mpmath.ncdf(0.9))  # independent normal CDF
        assert predict_mean(fit, np.array([1.0, 0.0])) == pytest.approx(oracle, abs=1e-12)
        assert 0.81593 < oracle < 0.81595

    def test_length_mismatch(self):
        fit = fit_glm(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), Family.GAUSSIAN)
        with pytest.raises(GlmError, match="columns"):
            predict_mean(fit, np.array([1.0, 2.0]))


class TestScoreInformation:
    def test_score_vanishes_at_mle(self):
        rng = np.random.default_rng(15)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < expit(0.2 + 0.5 * X[:, 1])).astype(float)
        fit = fit_glm(X, y, Family.LOGIT)
        assert np.max(np.abs(_binomial_score(Family.LOGIT, X, y, fit.coef))) < 1e-10

    @pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT], ids=lambda f: f.name.lower())
    def test_information_matches_fd_hessian(self, family):
        # the step weights are the observed information -d^2 ll / d eta^2
        rng = np.random.default_rng(17)
        n = 300
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.1, 0.6, -0.4]))).astype(float)
        fit = fit_glm(X, y, family)

        def loglik(beta):
            eta = X @ beta
            if family is Family.LOGIT:
                return float(np.sum(y * eta - np.logaddexp(0.0, eta)))
            return float(np.sum(y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta)))

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
        _, _, weight = glm_mod._binomial_terms(family, X @ fit.coef, y, np.ones(n))
        info = (X * weight[:, None]).T @ X
        assert np.max(np.abs(info + H)) < 1e-5 * max(1.0, np.max(np.abs(info)))


class TestLinkNumerics:
    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_expit_complement(self, x):
        assert glm_mod._expit(x) + glm_mod._expit(-x) == pytest.approx(1.0, abs=1e-15)

    def test_normal_cdf_at_zero(self):
        assert glm_mod._ndtr(0.0) == 0.5
        assert glm_mod._ndtr(-0.0) == 0.5


def _erfcx(t):
    """erfcx(t) for t >= 0 from the engine's kernel, which takes |eta| = t sqrt(2)."""
    return glm_mod._erfcx_at(math.sqrt(2.0) * np.asarray(t, dtype=float))[1]


def _log_ndtr(eta):
    """log Phi(eta) as the probit terms form it: log(g / 2) - t^2 on the tail
    side, log1p(-q) on the other."""
    t2, g = glm_mod._erfcx_at(eta)
    tail = np.log(0.5 * g) - t2
    return np.where(eta < 0.0, tail, np.log1p(-0.5 * g * np.exp(-t2)))


def _mp_log_ndtr(x):
    x = mpmath.mpf(x)
    return mpmath.log(mpmath.ncdf(x)) if x < 0 else mpmath.log1p(-mpmath.ncdf(-x))


def _mp_probit_information(eta, y):
    """-d^2 / d eta^2 of y log Phi(eta) + (1 - y) log Phi(-eta), in 50 digits:
    y L(eta) (L(eta) + eta) + (1 - y) L(-eta) (L(-eta) - eta), L = phi / Phi."""
    with mpmath.workdps(50):
        def one(x, yi):
            x = mpmath.mpf(float(x))
            pos, neg = mpmath.npdf(x) / mpmath.ncdf(x), mpmath.npdf(x) / mpmath.ncdf(-x)
            return float(yi * pos * (pos + x) + (1 - yi) * neg * (neg - x))

        return np.array([one(x, yi) for x, yi in zip(eta.ravel(), y.ravel())]).reshape(eta.shape)


def _relative_error(got, want):
    """Largest relative error where ``want`` is a normal double, and the
    largest absolute error elsewhere (subnormal or zero)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    normal = np.abs(want) >= np.finfo(float).tiny
    rel = np.max(np.abs(got[normal] - want[normal]) / np.abs(want[normal]), initial=0.0)
    return rel, np.max(np.abs(got[~normal] - want[~normal]), initial=0.0)


def _rational_every(coef, x):
    """Numerator over denominator of the pair ``coef`` at x, each by Horner's
    rule with every coefficient, padded zeros and monic ones too."""
    values = []
    for c in coef:
        p = x * c[0] + c[1]
        for ci in c[2:]:
            p = p * x + ci
        values.append(p)
    return values[0] / values[1]


def _erfcx_every_range(eta):
    """The reference ``_erfcx_at``: every range's approximation on every
    element, at its argument clipped into the range, chosen by ``np.where``."""
    a = np.minimum(np.abs(eta), glm_mod._ETA_CAP)
    t2, t = a * a * 0.5, a * glm_mod._SQRT_HALF
    x = np.minimum(t, 1.0)
    z = x * x
    low = (1.0 - _rational_every(glm_mod._ERF_TU, z) * x) * np.exp(z)
    mid = _rational_every(glm_mod._ERFCX_PQ, np.clip(t, 1.0, 8.0))
    high = _rational_every(glm_mod._ERFCX_RS, 1.0 / np.maximum(t, 8.0))
    return t2, np.where(t >= 8.0, high, np.where(t >= 1.0, mid, low))


def _assert_bitwise(got, want):
    """Equal shapes, NaN where ``want`` is NaN, and the same bits elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _eta_at_t(t):
    """The |eta| whose t = |eta| / sqrt(2), rounded as the kernel rounds it, is ``t``."""
    a = t / glm_mod._SQRT_HALF
    assert a * glm_mod._SQRT_HALF == t
    return a


class TestKernels:
    """The numpy link kernels against mpmath (40 digits) and scipy."""

    ETA = np.r_[np.linspace(-40.0, 40.0, 2001), -1e3, 1e3, -37.5, 37.5, 0.0, 1e-300, -1e-300]

    @pytest.fixture(scope="class")
    def exact(self):
        with mpmath.workdps(40):
            return {
                "ndtr": np.array([float(mpmath.ncdf(mpmath.mpf(x))) for x in self.ETA]),
                "log_ndtr": np.array([float(_mp_log_ndtr(x)) for x in self.ETA]),
                "expit": np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(x)))) for x in self.ETA]),
            }

    def test_ndtr_and_log_ndtr(self, exact):
        # measured 5.7e-14 for both: e^(-eta^2 / 2) carries the rounding of
        # eta^2, up to 700 ulp at |eta| 37.5
        for got, name in ((glm_mod._ndtr(self.ETA), "ndtr"), (_log_ndtr(self.ETA), "log_ndtr")):
            rel, tiny = _relative_error(got, exact[name])
            assert rel <= 1e-13, name
            assert tiny <= 1e-320, name
        # scipy's e^(-x^2) carries the rounding of x = eta / sqrt(2) as well
        scipy_ok = np.abs(self.ETA) <= 20.0
        np.testing.assert_allclose(glm_mod._ndtr(self.ETA[scipy_ok]), ndtr(self.ETA[scipy_ok]), rtol=1e-13, atol=0)
        np.testing.assert_allclose(_log_ndtr(self.ETA[scipy_ok]), log_ndtr(self.ETA[scipy_ok]), rtol=1e-13, atol=0)

    def test_erfcx(self):
        t = np.r_[np.linspace(0.0, 40.0, 4001), 0.999999, 1.0, 7.999999, 8.0, 100.0, 1e3, 1e10, 1e150]
        # measured 1.8e-15 against scipy and mpmath
        np.testing.assert_allclose(_erfcx(t), erfcx(t), rtol=1e-14, atol=0)
        with mpmath.workdps(40):
            want = [float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(mpmath.mpf(x))) for x in t[::50]]
        assert _relative_error(_erfcx(t[::50]), want)[0] <= 1e-14

    def test_logit_mean(self, exact):
        rel, tiny = _relative_error(glm_mod._expit(self.ETA), exact["expit"])
        assert rel <= 2 * EPS  # measured 3.1e-16
        assert tiny <= 1e-323

    def test_probit_terms_match_the_log_cdf_forms(self):
        # log Phi(+-eta) and Mills ratios phi / Phi(+-eta); the step weight
        # against the observed information -d^2 ll / d eta^2 in 50 digits
        rng = np.random.default_rng(7)
        for scale in (0.3, 1.0, 3.0, 10.0):
            eta = scale * rng.standard_normal((3, 500))
            eta[0, :3] = [0.0, -0.0, 1e-300]
            y = (rng.random(500) < 0.4).astype(float)
            w = rng.exponential(1.0, (3, 500))
            ll, s, info = glm_mod._binomial_terms(Family.PROBIT, eta, y, w)
            lp, ln = log_ndtr(eta), log_ndtr(-eta)
            log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
            pos, neg = np.exp(log_phi - lp), np.exp(log_phi - ln)
            np.testing.assert_allclose(ll, np.sum(w * (y * lp + (1.0 - y) * ln), axis=-1), rtol=1e-14)
            np.testing.assert_allclose(s, y * pos - (1.0 - y) * neg, rtol=1e-12)
            # measured <= 2.8e-13, at eta -27 with y 1: the tail's Mills
            # ratio minus |eta| cancels to about 1 / |eta|
            rel, tiny = _relative_error(info, _mp_probit_information(eta, np.broadcast_to(y, eta.shape)))
            assert rel <= 1e-12
            assert tiny <= 1e-320

    def test_no_warning_anywhere_on_the_real_line(self):
        eta = np.r_[-np.logspace(-300, 300, 601), 0.0, np.logspace(-300, 300, 601), -1.7e308, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in (Family.LOGIT, Family.PROBIT):
                for y in (np.zeros(1), np.ones(1)):  # one row per replicate, so that no sum overflows
                    ll, s, info = glm_mod._binomial_terms(family, eta[:, None], y, np.ones((eta.size, 1)))
                    assert not np.isnan(ll).any() and not np.isnan(s).any() and not np.isnan(info).any()
                    # each row's information is 1 minus a variance, in [0, 1]
                    assert np.all(np.isfinite(info)) and np.all((info >= 0.0) & (info <= 1.0))
            for f in (glm_mod._ndtr, _log_ndtr, glm_mod._expit):
                assert not np.isnan(f(eta)).any()

    def test_bitwise_the_every_range_reference(self, monkeypatch):
        # each range evaluated on its own elements, by scalar Horner passes,
        # against every range on every element: the same bits, for the
        # kernel and for the probit terms and CDF built on it
        edges = [_eta_at_t(1.0), _eta_at_t(8.0)]
        edges += [np.nextafter(a, side) for a in edges for side in (0.0, np.inf)]
        cases = {
            "grid": np.r_[0.0, -0.0, 1e-300, -1e-300, edges, -np.array(edges), np.inf, -np.inf,
                          glm_mod._ETA_CAP, np.nextafter(glm_mod._ETA_CAP, np.inf), -1e200, 1.7e308, np.nan],
            "nan rows": np.r_[[np.full(4, np.nan)], [[0.5, -2.0, 20.0, np.nan]]],
            "[0, 1) only": np.array([0.0, -0.7, 1.2, -_eta_at_t(1.0) / 2.0]),
            "[1, inf) only": np.array([_eta_at_t(1.0), -3.0, 11.0, -40.0, 1e200]),
            "[1, 8) only": np.array([-_eta_at_t(1.0), 2.0, np.nextafter(_eta_at_t(8.0), 0.0)]),
            "all three": np.array([0.3, -2.0, 30.0, -0.0, _eta_at_t(8.0)]),
        }
        rng = np.random.default_rng(27)
        for scale in (0.3, 1.0, 3.0, 10.0, 30.0):
            cases[f"scale {scale}"] = scale * rng.standard_normal((4, 300))
        for eta in cases.values():
            rows = eta if eta.ndim == 2 else eta[:, None]  # one row per replicate: no sum overflows
            y = (rng.random(rows.shape[-1]) < 0.4).astype(float)
            w = rng.exponential(1.0, rows.shape)
            t2, g = glm_mod._erfcx_at(eta)
            want_t2, want_g = _erfcx_every_range(eta)
            _assert_bitwise(t2, want_t2)
            _assert_bitwise(g, want_g)
            with np.errstate(invalid="ignore"):  # NaN rows
                got = (glm_mod._ndtr(eta), *glm_mod._binomial_terms(Family.PROBIT, rows, y, w))
                with monkeypatch.context() as m:
                    m.setattr(glm_mod, "_erfcx_at", _erfcx_every_range)
                    want = (glm_mod._ndtr(eta), *glm_mod._binomial_terms(Family.PROBIT, rows, y, w))
            for a, b in zip(got, want):
                _assert_bitwise(a, b)

    def test_later_ranges_run_on_their_own_elements(self, monkeypatch):
        sizes = []
        rational = glm_mod._rational

        def recorded(coef, x):
            sizes.append((coef, x.size))
            return rational(coef, x)

        monkeypatch.setattr(glm_mod, "_rational", recorded)
        t = np.r_[np.full(5, 0.5), np.full(3, 2.0), np.full(2, 20.0), np.nan]
        glm_mod._erfcx_at(np.sqrt(2.0) * np.r_[[t], [-t]])
        assert sizes == [(glm_mod._ERF_TU, 22), (glm_mod._ERFCX_RS, 4), (glm_mod._ERFCX_PQ, 6)]
        sizes.clear()
        glm_mod._erfcx_at(np.sqrt(2.0) * t[:8])  # no t >= 8: its range does not run
        assert sizes == [(glm_mod._ERF_TU, 8), (glm_mod._ERFCX_PQ, 3)]
        sizes.clear()
        glm_mod._erfcx_at(np.sqrt(2.0) * t[:5])
        assert sizes == [(glm_mod._ERF_TU, 5)]

    def test_zero_dimensional_and_empty_input(self):
        # a ufunc returns a scalar on 0-d input, so the write-back of the
        # later ranges must not land in a copy
        for eta in (0.5, -2.0, 20.0, np.nan):
            t2, g = glm_mod._erfcx_at(np.asarray(eta))
            want_t2, want_g = glm_mod._erfcx_at(np.array([eta]))
            assert t2.shape == g.shape == ()
            _assert_bitwise(t2, want_t2[0])
            _assert_bitwise(g, want_g[0])
            _assert_bitwise(glm_mod._ndtr(np.float64(eta)), glm_mod._ndtr(np.array([eta]))[0])
        for shape in ((0,), (3, 0)):
            t2, g = glm_mod._erfcx_at(np.empty(shape))
            assert t2.shape == g.shape == shape


def _mp_t_critical(df, alpha, guess):
    """The t with P(|T| > t) = alpha, by mpmath's root finder on log t."""
    with mpmath.workdps(40):
        df, alpha, half = mpmath.mpf(df), mpmath.mpf(alpha), mpmath.mpf(1) / 2

        def gap(u):
            t2 = mpmath.exp(2 * u)
            if alpha <= half:
                return mpmath.log(mpmath.betainc(df / 2, half, 0, df / (df + t2), regularized=True) / alpha)
            return mpmath.log(mpmath.betainc(half, df / 2, 0, t2 / (df + t2), regularized=True) / (1 - alpha))

        return float(mpmath.exp(mpmath.findroot(gap, mpmath.log(guess))))


class TestStudentQuantile:
    DF = (1, 2, 3, 4, 5, 9, 30, 100, 1000, 10_000)
    # the CLI accepts any alpha in (0, 1)
    ALPHA = (1e-300, 1e-12, 1e-4, 0.01, 0.05, 0.1, 0.5, 0.9, 1.0 - 1e-9)

    @pytest.mark.parametrize("df", DF)
    def test_matches_mpmath(self, df):
        for alpha in self.ALPHA:
            got = inference_mod._t_critical(df, alpha)
            # measured <= 9.4e-14 (df 1, alpha 1e-300)
            assert got == pytest.approx(_mp_t_critical(df, alpha, got), rel=1e-12), alpha

    @pytest.mark.parametrize("df", DF)
    def test_matches_scipy(self, df):
        for alpha in (1e-4, 0.01, 0.05, 0.1, 0.5):
            assert inference_mod._t_critical(df, alpha) == pytest.approx(stdtrit(df, 1.0 - alpha / 2.0), rel=1e-12)


def _pivot_outcome(R, piv):
    try:
        glm_mod._check_rank(R, piv)
    except RankDeficiencyError as exc:
        return exc.column, exc.pivot_magnitude, str(exc)
    return None


def _rank_designs():
    """Each design of ``_fallback_fixtures`` (and its sqrt-weighted form),
    and this file's rank-deficient designs."""
    out = []
    for name, X, _, w in _fallback_fixtures():
        out.append((name, X))
        if w is not None:
            out.append((f"{name}-weighted", X * np.sqrt(w)[:, None]))
    X = np.random.default_rng(9).standard_normal((30, 3))
    out.append(("duplicate-column", np.column_stack([X, X[:, 1]])))
    x = np.random.default_rng(15).standard_normal(50)
    out.append(("twice-a-column", np.column_stack([np.ones(50), x, 2.0 * x])))
    rng = np.random.default_rng(21)
    X = np.column_stack([np.ones(200), rng.standard_normal(200), np.r_[np.zeros(190), rng.standard_normal(10)]])
    out.append(("zero-weights", X * np.sqrt(np.r_[np.ones(190), np.zeros(10)])[:, None]))
    # the sandwich's outcome block where c0_1 is constant (test_inference.py)
    ds = draw_dataset(600, 27)
    flat = dataset_from_arrays(np.full_like(ds.c0, 0.5), ds.e, ds.c1, ds.m, ds.y)
    out.append(("constant-c0", build_design_matrix(flat, working_models_for("int").working_set["outcome"].design)))
    return out


class TestPivotedQr:
    @pytest.mark.parametrize("case", _rank_designs(), ids=lambda c: c[0])
    def test_matches_lapack(self, case):
        _, A = case
        _, R_ref, piv_ref = sla.qr(A, mode="raw", pivoting=True)
        R, piv = glm_mod._pivoted_qr(A)
        assert np.array_equal(piv, piv_ref)
        np.testing.assert_allclose(np.abs(np.diag(R)), np.abs(np.diag(R_ref)), rtol=1e-13, atol=1e-14 * np.abs(R_ref[0, 0]))
        got, want = _pivot_outcome(R, piv), _pivot_outcome(R_ref, piv_ref)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0]
            # the magnitude is a ratio of R's diagonal, exact to its rounding
            # floor; its 4-digit text is data, not rounding, from 1e-11 up
            assert abs(got[1] - want[1]) <= 1e-15
            if want[1] >= 1e-11 or want[1] == 0.0:
                assert got[2] == want[2]

    def test_reconstructs_the_pivoted_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-3, 3, 6)
        R, piv = glm_mod._pivoted_qr(A)
        Q, _ = np.linalg.qr(A[:, piv])
        # R'R = (A P)'(A P) whatever the signs of R's rows
        np.testing.assert_allclose(R.T @ R, A[:, piv].T @ A[:, piv], rtol=1e-12, atol=1e-12 * np.abs(A).max() ** 2)
        assert np.all(np.diff(np.abs(np.diag(R))) <= 0)
