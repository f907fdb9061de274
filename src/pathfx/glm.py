"""In-repo regression engine: OLS plus logistic/probit fits via Fisher scoring.

Solves are QR-based with column pivoting for rank diagnostics.  The probit
link uses the standard-normal CDF computed from the complementary error
function (Cephes via ``scipy.special``), accurate to well below 1e-14; the
logistic mean uses ``scipy.special.expit``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
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
    "log_likelihood",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
RANK_RTOL = 1e-10


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
    weights_used: np.ndarray | None = None

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
        if np.any(weights < 0):
            raise GlmError("weights must be non-negative")
    return X, y, weights


def _check_rank(R: np.ndarray, piv: np.ndarray, labels=None) -> None:
    """Raise on rank loss in a pivoted QR factor, naming the offending column."""
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size else 0.0
    if scale == 0.0 or np.any(diag < RANK_RTOL * scale):
        k = 0 if scale == 0.0 else int(np.argmax(diag < RANK_RTOL * scale))
        rel = 0.0 if scale == 0.0 else float(diag[k] / scale)
        raise RankDeficiencyError(int(piv[k]), rel, labels)


def _qr_solve(A: np.ndarray, b: np.ndarray, labels=None) -> np.ndarray:
    """Least-squares solve via pivoted QR; flags the offending column on rank loss."""
    Q, R, piv = sla.qr(A, mode="economic", pivoting=True)
    _check_rank(R, piv, labels)
    z = sla.solve_triangular(R, Q.T @ b)
    coef = np.empty_like(z)
    coef[piv] = z
    return coef


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    design: DesignSpec | None = None,
) -> FittedGlm:
    """Weighted least squares; coefficients minimize the weighted RSS."""
    X, y, weights = _as_matrix(X, y, weights)
    labels = design.labels if design is not None else None
    if weights is None:
        coef = _qr_solve(X, y, labels)
    else:
        sw = np.sqrt(weights)
        coef = _qr_solve(X * sw[:, None], y * sw, labels)
    return FittedGlm(Family.GAUSSIAN, coef, True, 0, design, weights)


def _binomial_mu(family: Family, eta: np.ndarray) -> np.ndarray:
    if family is Family.LOGIT:
        return expit(eta)
    return ndtr(eta)


def _binomial_score_weight(family: Family, eta: np.ndarray, y: np.ndarray):
    """Per-row score factor s (score = X' diag(w_prior) s) and Fisher weight."""
    if family is Family.LOGIT:
        mu = expit(eta)
        return y - mu, mu * (1.0 - mu)
    # probit: use log-CDF forms so the tails stay finite
    log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
    mills_pos = np.exp(log_phi - log_ndtr(eta))  # phi/Phi(eta)
    mills_neg = np.exp(log_phi - log_ndtr(-eta))  # phi/Phi(-eta)
    s = y * mills_pos - (1.0 - y) * mills_neg
    fisher = mills_pos * mills_neg  # phi^2 / (Phi * (1-Phi))
    return s, fisher


def log_likelihood(family: Family, eta: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Log-likelihood at linear predictor ``eta`` (gaussian: profile, up to a constant)."""
    w = np.ones_like(eta) if weights is None else weights
    if family is Family.GAUSSIAN:
        rss = float(np.sum(w * (y - eta) ** 2))
        n = float(np.sum(w))
        return -0.5 * n * math.log(max(rss, 1e-300))
    if family is Family.LOGIT:
        return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))
    return float(np.sum(w * (y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta))))


def fit_glm_irls(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    weights: np.ndarray | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    design: DesignSpec | None = None,
) -> FittedGlm:
    """Binomial fit by iteratively reweighted least squares (Fisher scoring).

    Convergence requires the largest absolute score component to fall below
    ``tol``.  Steps that lower the log-likelihood are halved; running out of
    iterations raises ``NonConvergenceError`` with the final score and
    coefficient norms, which is how separation surfaces.
    """
    if not family.is_binomial:
        raise GlmError(f"fit_glm_irls fits binomial families only, got {family.value}; use fit_glm")
    X, y, weights = _as_matrix(X, y, weights)
    if np.any((y < 0) | (y > 1)):
        raise GlmError("binomial families require responses in [0, 1]")
    labels = design.labels if design is not None else None
    w_prior = np.ones(X.shape[0]) if weights is None else weights

    coef = np.zeros(X.shape[1])
    eta = X @ coef
    ll = log_likelihood(family, eta, y, w_prior)
    for iteration in range(1, max_iter + 1):
        s, fisher = _binomial_score_weight(family, eta, y)
        score = X.T @ (w_prior * s)
        if np.max(np.abs(score)) < tol:
            # Complete separation drives every fitted probability to the
            # boundary, where the score vanishes without a maximum existing;
            # never return silently diverged coefficients.  Isolated extreme
            # linear predictors on legitimate fits are left alone.
            if np.median(np.abs(eta)) > 20.0:
                raise NonConvergenceError(
                    iteration - 1, float(np.max(np.abs(score))), float(np.linalg.norm(coef))
                )
            return FittedGlm(family, coef, True, iteration - 1, design, weights)
        ww = w_prior * fisher
        sw = np.sqrt(np.maximum(ww, 0.0))
        # Fisher step: solve (X'WX) delta = score via QR of sqrt(W) X
        # R alone is needed, so Q is never formed ("raw" mode)
        _, R, piv = sla.qr(X * sw[:, None], mode="raw", pivoting=True)
        _check_rank(R, piv, labels)
        rhs = sla.solve_triangular(R, sla.solve_triangular(R, score[piv], trans="T"))
        delta = np.empty_like(rhs)
        delta[piv] = rhs
        step = 1.0
        for _ in range(40):
            trial = coef + step * delta
            eta_trial = X @ trial
            ll_trial = log_likelihood(family, eta_trial, y, w_prior)
            if ll_trial >= ll - 1e-12 * abs(ll):
                break
            step *= 0.5
        coef = coef + step * delta
        eta = X @ coef
        ll = log_likelihood(family, eta, y, w_prior)
    s, _ = _binomial_score_weight(family, eta, y)
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
) -> FittedGlm:
    """Fit any supported family (gaussian dispatches to the OLS path)."""
    if family is Family.GAUSSIAN:
        return fit_ols(X, y, weights, design=design)
    return fit_glm_irls(X, y, family, weights, max_iter=max_iter, tol=tol, design=design)


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
        s, _ = _binomial_score_weight(fit.family, eta, y)
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
        s, fisher = _binomial_score_weight(fit.family, eta, y)
        score = X.T @ (w * s)
        info = (X * (w * fisher)[:, None]).T @ X
    return score, info
