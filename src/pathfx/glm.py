"""In-repo regression engine: OLS plus logistic/probit fits via Fisher scoring.

Every fit solves through one kernel, ``_fisher_step``: the p x p system
X'WX is solved from its Cholesky factor when LAPACK's condition estimate
shows it well conditioned, and otherwise from the pivoted QR of sqrt(W) X,
which names the offending column on rank loss.  Least squares is one such
solve (unweighted fits form X'X from X itself); each Fisher scoring step is
another.  Scoring starts from zero or from caller-supplied coefficients, which
is how bootstrap replicates start from the point fit.  The probit link uses
the standard-normal CDF computed from the complementary error function (Cephes
via ``scipy.special``), accurate to well below 1e-14; the logistic mean uses
``scipy.special.expit``, and the logistic log-likelihood the softplus form
max(eta, 0) + log1p(e^-|eta|) of log(1 + e^eta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs
from scipy.special import expit, log_ndtr, ndtr

from .core import DesignSpec

__all__ = [
    "Family",
    "FittedGlm",
    "GlmError",
    "RankDeficiencyError",
    "NonConvergenceError",
    "fit_ols",
    "fit_glm_irls",
    "fit_glm",
    "predict_mean",
    "score_and_information",
    "score_contributions",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
RANK_RTOL = 1e-10
# A Fisher step is taken from the Cholesky factor of X'WX only when LAPACK's
# reciprocal condition estimate exceeds this.  The pivoted-QR rank check can
# fail only when cond(sqrt(W) X) >= 1 / RANK_RTOL, i.e. cond(X'WX) >= 1e20, so
# every such system goes to the QR fallback with ten orders to spare; so do
# full-rank systems whose squared condition would cost the Cholesky step more
# than about 1e-6 of relative accuracy.
CHOL_RCOND_MIN = 1e-10


class Family(enum.Enum):
    GAUSSIAN = "gaussian-identity"
    LOGIT = "binomial-logit"
    PROBIT = "binomial-probit"

    @property
    def is_binomial(self) -> bool:
        return self is not Family.GAUSSIAN


class GlmError(RuntimeError):
    """Base class for fitting failures."""


class RankDeficiencyError(GlmError):
    def __init__(self, column: int, pivot_magnitude: float, labels=None):
        name = labels[column] if labels is not None else f"column {column}"
        super().__init__(
            f"design matrix is rank deficient at {name} "
            f"(relative pivot magnitude {pivot_magnitude:.3e})"
        )
        self.column = column
        self.pivot_magnitude = pivot_magnitude


class NonConvergenceError(GlmError):
    def __init__(self, iterations: int, score_norm: float, coef_norm: float):
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"max|score|={score_norm:.3e}, |coef|={coef_norm:.3e} "
            "(a large coefficient norm with a flat score suggests separation)"
        )
        self.iterations = iterations
        self.score_norm = score_norm
        self.coef_norm = coef_norm


@dataclass(frozen=True)
class FittedGlm:
    """A fitted regression: family, coefficients, and convergence state."""

    family: Family
    coef: np.ndarray
    converged: bool
    iterations: int
    design: DesignSpec | None = None

    def __post_init__(self):
        self.coef.setflags(write=False)


def _as_matrix(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise GlmError("design matrix must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise GlmError(f"response has length {y.shape}, expected ({n},)")
    if n < p:
        raise GlmError(f"need at least as many rows ({n}) as columns ({p})")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise GlmError(f"weights have shape {weights.shape}, expected ({n},)")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise GlmError("weights must be finite and non-negative")
    return X, y, weights


def _check_rank(R: np.ndarray, piv: np.ndarray, labels=None) -> None:
    """Raise on rank loss in a pivoted QR factor, naming the offending column."""
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size else 0.0
    if scale == 0.0 or np.any(diag < RANK_RTOL * scale):
        k = 0 if scale == 0.0 else int(np.argmax(diag < RANK_RTOL * scale))
        rel = 0.0 if scale == 0.0 else float(diag[k] / scale)
        raise RankDeficiencyError(int(piv[k]), rel, labels)


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    design: DesignSpec | None = None,
) -> FittedGlm:
    """Weighted least squares; coefficients minimize the weighted RSS.

    Solves the normal equations X'WX b = X'Wy with ``_fisher_step``, so rank
    loss raises ``RankDeficiencyError`` naming the offending column.  Their
    rounding error grows with cond(sqrt(W) X) squared, not with the
    condition itself as in a QR solve: on near-collinear designs the
    coefficients can move by up to about 1e-6 relative.
    """
    X, y, weights = _as_matrix(X, y, weights)
    labels = design.labels if design is not None else None
    rhs = X.T @ y if weights is None else X.T @ (weights * y)
    coef = _fisher_step(X, weights, rhs, labels)
    return FittedGlm(Family.GAUSSIAN, coef, True, 0, design)


def _binomial_mu(family: Family, eta: np.ndarray) -> np.ndarray:
    if family is Family.LOGIT:
        return expit(eta)
    return ndtr(eta)


def _binomial_terms(family: Family, eta: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Log-likelihood, per-row score factor s (score = X' diag(w) s) and
    Fisher weight at linear predictor ``eta``, each link function evaluated once."""
    if family is Family.LOGIT:
        # softplus log(1 + e^eta), within 2 ulp of np.logaddexp(0, eta) at
        # about a fifth of its cost; only the step-halving test reads ll
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        ll = float(np.sum(w * (y * eta - softplus)))
        mu = expit(eta)
        return ll, y - mu, mu * (1.0 - mu)
    # probit: use log-CDF forms so the tails stay finite
    log_cdf_pos = log_ndtr(eta)
    log_cdf_neg = log_ndtr(-eta)
    ll = float(np.sum(w * (y * log_cdf_pos + (1.0 - y) * log_cdf_neg)))
    log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
    mills_pos = np.exp(log_phi - log_cdf_pos)  # phi/Phi(eta)
    mills_neg = np.exp(log_phi - log_cdf_neg)  # phi/Phi(-eta)
    s = y * mills_pos - (1.0 - y) * mills_neg
    fisher = mills_pos * mills_neg  # phi^2 / (Phi * (1-Phi))
    return ll, s, fisher


def _fisher_step(X: np.ndarray, ww: np.ndarray | None, score: np.ndarray, labels) -> np.ndarray:
    """Solve (X'WX) delta = score for the row weights ``ww`` (None: unit weights).

    Cholesky of X'WX when it succeeds and its condition estimate passes
    ``CHOL_RCOND_MIN``; otherwise pivoted QR of sqrt(W) X, which raises
    ``RankDeficiencyError`` naming the offending column.  Unit weights form
    no weighted copy of X.
    """
    H = X.T @ X if ww is None else (X * ww[:, None]).T @ X
    factor, info = dpotrf(H)
    # potrf fails on a matrix that is not numerically positive definite;
    # pocon and potrs report only illegal arguments
    if info == 0 and dpocon(factor, np.abs(H).sum(axis=0).max())[0] > CHOL_RCOND_MIN:
        return dpotrs(factor, score)[0]
    # R alone is needed, so Q is never formed ("raw" mode)
    A = X if ww is None else X * np.sqrt(np.maximum(ww, 0.0))[:, None]
    _, R, piv = sla.qr(A, mode="raw", pivoting=True)
    _check_rank(R, piv, labels)
    rhs = sla.solve_triangular(R, sla.solve_triangular(R, score[piv], trans="T"))
    delta = np.empty_like(rhs)
    delta[piv] = rhs
    return delta


def _separated(eta: np.ndarray) -> bool:
    """Whether the median |eta| exceeds 20, the mark of complete separation.

    The median can exceed 20 only when at least half the rows do, so most
    fits settle it by a count and never partition ``eta``.
    """
    a = np.abs(eta)
    return 2 * int(np.count_nonzero(a > 20.0)) >= a.size and bool(np.median(a) > 20.0)


def fit_glm_irls(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    weights: np.ndarray | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    design: DesignSpec | None = None,
    start: np.ndarray | None = None,
) -> FittedGlm:
    """Binomial fit by iteratively reweighted least squares (Fisher scoring).

    Each step solves the information system X'WX from its Cholesky factor
    when LAPACK's reciprocal condition estimate exceeds ``CHOL_RCOND_MIN``,
    and otherwise from the pivoted QR of sqrt(W) X, whose rank check raises
    ``RankDeficiencyError`` naming the offending column.  Convergence
    requires the largest absolute score component to fall below ``tol``.
    Steps that lower the log-likelihood are halved; running out of
    iterations raises ``NonConvergenceError`` with the final score and
    coefficient norms, which is how separation surfaces; so does converging
    with the median |eta| above 20.  The logit log-likelihood's log(1 + e^eta) is
    computed as max(eta, 0) + log1p(e^-|eta|).

    Scoring starts from ``start`` (copied, never written to) or, when it is
    None, from zero.  A bootstrap replicate started from the point fit's
    coefficients needs fewer iterations and converges to the same maximum
    within the score tolerance.
    """
    if not family.is_binomial:
        raise GlmError(f"fit_glm_irls fits binomial families only, got {family.value}; use fit_glm")
    X, y, weights = _as_matrix(X, y, weights)
    if np.any((y < 0) | (y > 1)):
        raise GlmError("binomial families require responses in [0, 1]")
    labels = design.labels if design is not None else None
    w_prior = np.ones(X.shape[0]) if weights is None else weights

    if start is None:
        coef = np.zeros(X.shape[1])
    else:
        coef = np.array(start, dtype=float)
        if coef.shape != (X.shape[1],) or not np.all(np.isfinite(coef)):
            raise GlmError(f"start must be {X.shape[1]} finite coefficients, got shape {coef.shape}")
    eta = X @ coef
    ll, s, fisher = _binomial_terms(family, eta, y, w_prior)
    for iteration in range(1, max_iter + 1):
        score = X.T @ (w_prior * s)
        if np.max(np.abs(score)) < tol:
            # Complete separation drives every fitted probability to the
            # boundary, where the score vanishes without a maximum existing;
            # never return silently diverged coefficients.  Isolated extreme
            # linear predictors on legitimate fits are left alone.
            if _separated(eta):
                raise NonConvergenceError(
                    iteration - 1, float(np.max(np.abs(score))), float(np.linalg.norm(coef))
                )
            return FittedGlm(family, coef, True, iteration - 1, design)
        delta = _fisher_step(X, w_prior * fisher, score, labels)
        # Halve the step up to 40 times while it lowers the likelihood; the
        # accepted trial's terms carry into the next iteration.
        for halvings in range(41):
            trial = coef + 0.5**halvings * delta
            eta_trial = X @ trial
            ll_trial, s, fisher = _binomial_terms(family, eta_trial, y, w_prior)
            if halvings == 40 or ll_trial >= ll - 1e-12 * abs(ll):
                break
        coef, eta, ll = trial, eta_trial, ll_trial
    score = X.T @ (w_prior * s)
    raise NonConvergenceError(max_iter, float(np.max(np.abs(score))), float(np.linalg.norm(coef)))


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    weights: np.ndarray | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    design: DesignSpec | None = None,
    start: np.ndarray | None = None,
) -> FittedGlm:
    """Fit any supported family (gaussian dispatches to the OLS path, which
    is closed form and ignores ``start``)."""
    if family is Family.GAUSSIAN:
        return fit_ols(X, y, weights, design=design)
    return fit_glm_irls(X, y, family, weights, max_iter=max_iter, tol=tol, design=design, start=start)


def predict_mean(fit: FittedGlm, X: np.ndarray) -> np.ndarray | float:
    """Fitted mean at the given design row(s)."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    rows = X[None, :] if single else X
    if rows.shape[1] != fit.coef.shape[0]:
        raise GlmError(f"design has {rows.shape[1]} columns, coefficients expect {fit.coef.shape[0]}")
    eta = rows @ fit.coef
    if fit.family is Family.GAUSSIAN:
        mu = eta
    else:
        mu = _binomial_mu(fit.family, eta)
    return float(mu[0]) if single else mu


def _gaussian_sigma2(fit: FittedGlm, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    resid = y - X @ fit.coef
    return float(np.sum(w * resid**2) / np.sum(w))


def score_contributions(fit: FittedGlm, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-record score vectors at the fitted coefficients, shape (n, p)."""
    X, y, weights = _as_matrix(X, y, weights)
    w = np.ones(X.shape[0]) if weights is None else weights
    eta = X @ fit.coef
    if fit.family is Family.GAUSSIAN:
        sigma2 = _gaussian_sigma2(fit, X, y, w)
        s = (y - eta) / sigma2
    else:
        _, s, _ = _binomial_terms(fit.family, eta, y, w)
    return X * (w * s)[:, None]


def score_and_information(fit: FittedGlm, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None):
    """Total score vector and expected information matrix at the fit.

    Gaussian fits profile the error variance out at its maximum-likelihood
    value, so the information is X'WX / sigma^2.
    """
    X, y, weights = _as_matrix(X, y, weights)
    w = np.ones(X.shape[0]) if weights is None else weights
    eta = X @ fit.coef
    if fit.family is Family.GAUSSIAN:
        sigma2 = _gaussian_sigma2(fit, X, y, w)
        score = X.T @ (w * (y - eta)) / sigma2
        info = (X * w[:, None]).T @ X / sigma2
    else:
        _, s, fisher = _binomial_terms(fit.family, eta, y, w)
        score = X.T @ (w * s)
        info = (X * (w * fisher)[:, None]).T @ X
    return score, info
