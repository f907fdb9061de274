"""In-repo regression engine: OLS plus logistic/probit fits via Fisher scoring.

Every fit is a batch: one design X and a ``(B, n)`` matrix of row weights,
one coefficient vector per weight row, and one Fisher-scoring loop runs
them all.  ``fit_ols`` and ``fit_glm_irls`` are the batch of one;
``fit_glm`` with ``(B, n)`` weights fits a bootstrap chunk.  Every p x p
system X'WX goes through one kernel, ``_fisher_step``: it is solved from
its Cholesky factor when LAPACK's condition estimate shows it well
conditioned, and otherwise from the pivoted QR of sqrt(W) X, which names
the offending column on rank loss.  A batch first solves all its systems
from their inverses (``_solver``) and sends to ``_fisher_step`` only
those whose exact condition fails the same bound.  Least squares is one
such solve; each Fisher scoring step is another.  Every per-replicate
product is its own BLAS call of a fixed shape (a stacked matmul), never a
row of one (B, n) matrix product, whose rounding depends on B: a
replicate's fit depends only on its own weights.  Scoring starts from zero
or from caller-supplied coefficients, which is how bootstrap replicates
start from the point fit.  The probit link uses
the standard-normal CDF computed from the complementary error function (Cephes
via ``scipy.special``), accurate to well below 1e-14; the logistic mean uses
``scipy.special.expit`` (a batch forms it from the softplus's exponential),
and the logistic log-likelihood the softplus form
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
# A Fisher step is taken from the inverse of X'WX only when its exact 1-norm
# reciprocal condition exceeds this, and from its Cholesky factor only when
# LAPACK's estimate of the same (never below the exact value) does.  The
# pivoted-QR rank check can fail only when cond(sqrt(W) X) >= 1 / RANK_RTOL,
# i.e. cond(X'WX) >= 1e20, so every such system goes to the QR fallback with
# ten orders to spare; so do full-rank systems whose squared condition would
# cost the normal equations more than about 1e-6 of relative accuracy.
CHOL_RCOND_MIN = 1e-10
# Elements of the row outer products of X that one Gram block holds: 512 KB.
GRAM_BLOCK = 2**16


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
    """A fitted regression: family, coefficients, and convergence state.

    A batch fit (``fit_glm`` with ``(B, n)`` weights) holds ``(B, p)``
    coefficients and per-replicate ``converged`` and ``iterations`` arrays.
    """

    family: Family
    coef: np.ndarray
    converged: bool
    iterations: int
    design: DesignSpec | None = None

    def __post_init__(self):
        self.coef.setflags(write=False)


def _as_matrix(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None, *, batched: bool = False):
    """Validated float arrays; ``batched`` admits ``(B, n)`` weights as well as ``(n,)``."""
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
        if weights.shape != (n,) and not (batched and weights.ndim == 2 and weights.shape[1] == n):
            expected = f"(B, {n}) or ({n},)" if batched else f"({n},)"
            raise GlmError(f"weights have shape {weights.shape}, expected {expected}")
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


def _rows_times(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``X @ coef[b]`` for every row b of ``coef`` (B, p), shape (B, n)."""
    return np.matmul(X, coef[:, :, None])[:, :, 0]


def _times_rows(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``v[b] @ X`` for every row b of ``v`` (B, n), shape (B, p)."""
    return np.matmul(v[:, None, :], X)[:, 0, :]


def _gram_maker(X: np.ndarray):
    """A function of weight rows ``ww`` (B, n) returning X' diag(ww[b]) X for each b.

    Each Gram is one weight row times the products of every pair of columns
    (the upper triangle), summed over blocks of rows so that no block holds
    more than ``GRAM_BLOCK`` elements; a design that fits in one block keeps
    its products for every call.
    """
    n, p = X.shape
    i, j = np.triu_indices(p)
    rows = max(1, GRAM_BLOCK // i.size)

    def products(lo):  # (n, q), as the transpose of a C-ordered (q, n) array
        block = np.ascontiguousarray(X[lo:lo + rows].T)
        out = np.empty((i.size, block.shape[1]))
        first = 0
        for k in range(p):  # the row products of column k with columns k..p-1
            np.multiply(block[k], block[k:], out=out[first:first + p - k])
            first += p - k
        return out.T

    kept = products(0) if n <= rows else None

    def grams(ww: np.ndarray) -> np.ndarray:
        upper = 0.0
        for lo in range(0, n, rows):
            upper = upper + np.matmul(ww[:, None, lo:lo + rows], products(lo) if kept is None else kept)
        H = np.empty((ww.shape[0], p, p))
        H[:, i, j] = upper[:, 0]
        H[:, j, i] = upper[:, 0]
        return H

    return grams


def _norm1(A: np.ndarray) -> np.ndarray:
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _inverse_or_nan(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.full_like(H, np.nan)


def _solver(X: np.ndarray, labels, batched: bool):
    """The Fisher-step solve of every fit on design X: ``solve(ww, score)``
    returns the steps delta[b] of (X' diag(ww[b]) X) delta[b] = score[b] and
    ``{b: RankDeficiencyError}`` for the rows whose system is rank deficient
    (their steps are NaN).

    A single fit (``ww`` None for unit weights) takes ``_fisher_step``, which
    raises on rank loss.  A batch solves each system from its inverse when
    its exact 1-norm reciprocal condition exceeds ``CHOL_RCOND_MIN`` and
    sends any other to ``_fisher_step``.
    """
    if not batched:
        def solve_one(ww, score):
            return _fisher_step(X, None if ww is None else ww[0], score[0], labels)[None], {}
        return solve_one
    grams = _gram_maker(X)

    def solve(ww, score):
        H = grams(ww)
        with np.errstate(all="ignore"):
            try:
                Hinv = np.linalg.inv(H)
            except np.linalg.LinAlgError:  # some system is exactly singular: invert one at a time
                Hinv = np.array([_inverse_or_nan(h) for h in H])
            rcond = 1.0 / (_norm1(H) * _norm1(Hinv))
        delta = np.matmul(Hinv, score[:, :, None])[:, :, 0]
        errors = {}
        for b in np.flatnonzero(~(rcond > CHOL_RCOND_MIN)):
            try:
                delta[b] = _fisher_step(X, ww[b], score[b], labels)
            except RankDeficiencyError as exc:
                delta[b] = np.nan
                errors[int(b)] = exc
        return delta, errors

    return solve


def _least_squares(X: np.ndarray, y: np.ndarray, W: np.ndarray | None, labels, *, batched: bool):
    """Weighted least squares for every row of ``W`` (B, n), or one unweighted fit."""
    if W is None:
        rhs = (X.T @ y)[None]
    else:
        rhs = _times_rows(W * y, X) if batched else (X.T @ (W[0] * y))[None]
    return _solver(X, labels, batched)(W, rhs)


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
    coef, _ = _least_squares(X, y, None if weights is None else weights[None], labels, batched=False)
    return FittedGlm(Family.GAUSSIAN, coef[0], True, 0, design)


def _binomial_mu(family: Family, eta: np.ndarray) -> np.ndarray:
    if family is Family.LOGIT:
        return expit(eta)
    return ndtr(eta)


def _binomial_terms(family: Family, eta: np.ndarray, y: np.ndarray, w: np.ndarray, batched: bool = False):
    """Log-likelihood, per-row score factor s (score = X' diag(w) s) and
    Fisher weight at linear predictor ``eta``, each link function evaluated
    once.  ``eta`` and ``w`` may carry a leading replicate axis; the
    log-likelihood then has one entry per replicate.  A ``batched`` logit
    takes its mean from the softplus's exponential, at a third of the cost
    of ``expit`` and within an ulp of it."""
    # Sums are formed in place, so that a batch holds few (B, n) temporaries.
    if family is Family.LOGIT:
        # softplus log(1 + e^eta), within 2 ulp of np.logaddexp(0, eta) at
        # about a fifth of its cost; only the step-halving test reads ll
        e = np.abs(eta)
        np.negative(e, out=e)
        np.exp(e, out=e)
        terms = np.log1p(e)
        terms += np.maximum(eta, 0.0)
        np.subtract(y * eta, terms, out=terms)
        terms *= w
        ll = terms.sum(axis=-1)
        del terms
        mu = np.where(eta >= 0.0, 1.0, e) / (1.0 + e) if batched else expit(eta)
        del e
        fisher = 1.0 - mu
        fisher *= mu
        return ll, y - mu, fisher
    # probit: use log-CDF forms so the tails stay finite
    log_cdf_pos = log_ndtr(eta)
    log_cdf_neg = log_ndtr(-eta)
    terms = y * log_cdf_pos
    terms += (1.0 - y) * log_cdf_neg
    terms *= w
    ll = terms.sum(axis=-1)
    del terms
    log_phi = -0.5 * eta**2 - 0.5 * math.log(2.0 * math.pi)
    mills_pos = np.exp(log_phi - log_cdf_pos)  # phi/Phi(eta)
    del log_cdf_pos
    mills_neg = np.exp(log_phi - log_cdf_neg)  # phi/Phi(-eta)
    del log_cdf_neg, log_phi
    s = y * mills_pos
    s -= (1.0 - y) * mills_neg
    mills_pos *= mills_neg  # phi^2 / (Phi * (1-Phi)), the Fisher weight
    return ll, s, mills_pos


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


def _separated(eta: np.ndarray, counts: np.ndarray | None = None):
    """Whether the median |eta| exceeds 20, the mark of complete separation.

    The median can exceed 20 only when at least half the rows do, so most
    fits settle it by a count and never partition ``eta``.  ``counts`` gives
    how often each row counts (a nonparametric replicate's frequency
    weights; None: once each).  A 2-D ``eta`` is judged row by row.
    """
    a = np.abs(eta)
    if counts is None:
        over = 2 * np.count_nonzero(a > 20.0, axis=-1) >= a.shape[-1]
    else:
        over = 2 * np.sum(counts, axis=-1, where=a > 20.0) >= np.sum(counts, axis=-1)
    if a.ndim == 2:
        for b in np.flatnonzero(over) if over.any() else ():
            over[b] = _separated(a[b], None if counts is None else counts[b])
        return over
    if counts is not None:
        a = np.repeat(a, counts.astype(np.intp))
    return bool(over) and bool(np.median(a) > 20.0)


def _score_batch(X, y, family, prior, coef, counts, *, max_iter, tol, labels, batched: bool):
    """Fisher scoring of every row of ``coef`` (B, p) under the prior row
    weights of the same row of ``prior`` (B, n).

    ``coef`` holds the starts and is overwritten with the fits.  Each
    replicate runs its own score test, step halving, separation test and
    Fisher step; a converged or failed replicate is frozen and leaves the
    batch.  Returns the iterations per replicate and ``{b: GlmError}`` for
    the failed ones, whose coefficients are NaN.  ``batched`` picks the
    solve (see ``_solver``) and the products: a single fit keeps the plain
    matrix-vector ones.
    """
    solve = _solver(X, labels, batched)
    if batched:
        times, times_x = _rows_times, _times_rows
    else:
        def times(X, coef):
            return (X @ coef[0])[None]

        def times_x(v, X):
            return (X.T @ v[0])[None]
    iterations = np.zeros(coef.shape[0], dtype=int)
    errors: dict[int, GlmError] = {}
    act = np.arange(coef.shape[0])  # replicates still scoring
    w = prior
    eta = times(X, coef)
    ll, s, fisher = _binomial_terms(family, eta, y, w, batched)

    def fail(rows, error):
        for k in rows:
            b = int(act[k])
            errors[b] = error(k)
            coef[b] = np.nan

    for iteration in range(1, max_iter + 1):
        if not act.size:
            break
        score = times_x(w * s, X)
        score_max = np.abs(score).max(axis=1)
        if score_max.min() < tol:
            done = score_max < tol
            # Complete separation drives every fitted probability to the
            # boundary, where the score vanishes without a maximum existing;
            # never return silently diverged coefficients.  Isolated extreme
            # linear predictors on legitimate fits are left alone.
            everyone = done.all()
            rows = np.arange(act.size) if everyone else np.flatnonzero(done)
            separated = _separated(eta if everyone else eta[rows],
                                   None if counts is None else counts[act[rows]])
            if separated.any():
                fail(rows[separated], lambda k: NonConvergenceError(
                    iteration - 1, float(score_max[k]), float(np.linalg.norm(coef[act[k]]))))
            if everyone:
                iterations[act] = iteration - 1
                break
            iterations[act[rows]] = iteration - 1
            keep = ~done
            act, w, eta, ll, s, fisher, score = (
                act[keep], w[keep], eta[keep], ll[keep], s[keep], fisher[keep], score[keep])
        delta, rank_errors = solve(w * fisher, score)
        eta = s = fisher = None  # the accepted trials' terms replace them
        if rank_errors:
            keep = np.ones(act.size, dtype=bool)
            keep[list(rank_errors)] = False
            fail(list(rank_errors), rank_errors.__getitem__)
            act, w, ll, delta = act[keep], w[keep], ll[keep], delta[keep]
        # Halve each replicate's step up to 40 times while it lowers that
        # replicate's likelihood; the accepted trials' terms carry into the
        # next iteration.
        everyone = act.size == len(coef)
        base = coef if everyone else coef[act]
        trial = base + delta
        eta_t = times(X, trial)
        ll_t, s_t, fisher_t = _binomial_terms(family, eta_t, y, w, batched)
        floor = ll + 1e-12 * ll  # ll - 1e-12 |ll|, as a log-likelihood is never positive
        accepted = ll_t >= floor
        pending = () if accepted.all() else np.flatnonzero(~accepted)
        for halvings in range(1, 41):
            if not len(pending):
                break
            t = base[pending] + 0.5**halvings * delta[pending]
            eta_h = times(X, t)
            ll_h, s_h, fisher_h = _binomial_terms(family, eta_h, y, w[pending], batched)
            ok = (ll_h >= floor[pending]) | (halvings == 40)
            rows = pending[ok]
            trial[rows], eta_t[rows], ll_t[rows], s_t[rows], fisher_t[rows] = (
                t[ok], eta_h[ok], ll_h[ok], s_h[ok], fisher_h[ok])
            pending = pending[~ok]
        if everyone:
            coef[:] = trial
        else:
            coef[act] = trial
        eta, ll, s, fisher = eta_t, ll_t, s_t, fisher_t
    else:
        if act.size:
            score_max = np.abs(times_x(w * s, X)).max(axis=1)
            fail(range(act.size), lambda k: NonConvergenceError(
                max_iter, float(score_max[k]), float(np.linalg.norm(coef[act[k]]))))
    return iterations, errors


def _starts(start, B: int, p: int) -> np.ndarray:
    """An owned (B, p) array of starting coefficients (zero when ``start`` is None)."""
    if start is None:
        return np.zeros((B, p))
    coef = np.array(start, dtype=float)
    if coef.shape != (p,) or not np.all(np.isfinite(coef)):
        raise GlmError(f"start must be {p} finite coefficients, got shape {coef.shape}")
    return coef[None].repeat(B, axis=0) if B > 1 else coef[None]


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
    within the score tolerance.  This is the batch of one of the scoring
    that ``fit_glm`` runs over a ``(B, n)`` weight matrix.
    """
    X, y, weights = _checked_binomial(X, y, family, weights, batched=False)
    coef = _starts(start, 1, X.shape[1])
    prior = np.ones((1, X.shape[0])) if weights is None else weights[None]
    iterations, errors = _score_batch(X, y, family, prior, coef, None, max_iter=max_iter, tol=tol,
                                      labels=design.labels if design is not None else None, batched=False)
    if errors:
        raise errors[0]
    return FittedGlm(family, coef[0], True, int(iterations[0]), design)


def _checked_binomial(X, y, family, weights, *, batched):
    if not family.is_binomial:
        raise GlmError(f"fit_glm_irls fits binomial families only, got {family.value}; use fit_glm")
    X, y, weights = _as_matrix(X, y, weights, batched=batched)
    if np.any((y < 0) | (y > 1)):
        raise GlmError("binomial families require responses in [0, 1]")
    return X, y, weights


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
    frequency_weights: bool = False,
) -> FittedGlm:
    """Fit any supported family (gaussian dispatches to the OLS path, which
    is closed form and ignores ``start``).

    With ``(B, n)`` weights, one fit per weight row: the result's ``coef``
    is ``(B, p)`` and its ``converged`` and ``iterations`` are ``(B,)``
    arrays.  A replicate whose fit fails raises nothing; its coefficients
    are NaN and ``converged`` is False.  ``frequency_weights`` declares the
    weights to be row counts (a nonparametric bootstrap's draws), so that
    the separation test counts each row as often as it was drawn.
    """
    if weights is None or np.ndim(weights) < 2:
        if family is Family.GAUSSIAN:
            return fit_ols(X, y, weights, design=design)
        return fit_glm_irls(X, y, family, weights, max_iter=max_iter, tol=tol, design=design, start=start)
    labels = design.labels if design is not None else None
    if family is Family.GAUSSIAN:
        X, y, W = _as_matrix(X, y, weights, batched=True)
        coef, errors = _least_squares(X, y, W, labels, batched=True)
        iterations = np.zeros(W.shape[0], dtype=int)
    else:
        X, y, W = _checked_binomial(X, y, family, weights, batched=True)
        coef = _starts(start, W.shape[0], X.shape[1])
        iterations, errors = _score_batch(X, y, family, W, coef, W if frequency_weights else None,
                                          max_iter=max_iter, tol=tol, labels=labels, batched=True)
    converged = np.ones(W.shape[0], dtype=bool)
    converged[list(errors)] = False
    return FittedGlm(family, coef, converged, iterations, design)


def predict_mean(fit: FittedGlm, X: np.ndarray) -> np.ndarray | float:
    """Fitted mean at the given design row(s); ``(B, n)`` for a batch fit."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    rows = X[None, :] if single else X
    if rows.shape[1] != fit.coef.shape[-1]:
        raise GlmError(f"design has {rows.shape[1]} columns, coefficients expect {fit.coef.shape[-1]}")
    eta = rows @ fit.coef if fit.coef.ndim == 1 else _rows_times(rows, fit.coef)
    if fit.family is Family.GAUSSIAN:
        mu = eta
    else:
        mu = _binomial_mu(fit.family, eta)
    return float(mu[0]) if single and fit.coef.ndim == 1 else mu


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
