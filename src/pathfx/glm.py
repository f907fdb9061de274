"""In-repo regression engine: OLS plus logistic/probit fits by Newton steps.

Every fit is a batch: one design X, or one per replicate, and a ``(B, n)``
matrix of row weights, one coefficient vector per weight row, and one
Newton loop runs them all.  Every replicate starts from the same point, so
on one design the link terms there are formed once, on n rows.
Each step weights X'WX by the observed information -d^2 ll / d eta^2 per
row.  For logit that is the expected information, so logit steps are
Fisher scoring; probit, the one non-canonical link, converges
quadratically where Fisher scoring converged linearly.  A probit step that
falls to the QR fallback below takes the expected information, so that
ill-conditioned systems get Fisher scoring's rank verdicts.  A replicate
stops on its Newton decrement score' H^-1 score, which the solve already
gives (``DECREMENT_RTOL``): its last step is taken without the link terms
at its end, and the rule moves neither with n nor with a column's units.
A fit whose score vanishes stops when max|score| < ``DEFAULT_TOL``; on
separated responses (``_separation``) it raises ``NonConvergenceError``
naming the column whose coefficient diverges.
``fit_glm`` is the one fit: a single fit runs as its batch of one,
``(B, n)`` weights fit a bootstrap chunk, and a stack of designs
``(B, n, p)`` a chunk of Monte Carlo datasets.  ``_least_squares`` fits
several gaussian responses on one design and weights from one system
each.  One solver (``_solve``) takes every set of p x p systems
X' diag(w) X as a stack (B, p, p), a single fit being the stack of one.
It forms each as a sum over row blocks of ``GRAM_BLOCK // p`` rows
(``_gram``), one stacked product of the weighted blocks of X' with the
block of X per block, X' being the view ``X.T``, which is C-contiguous for
the column-major designs of ``build_design_matrix``: no copy of X is made,
the weighted copy is of one block per system, (B, p, rows), a design of
one block is one product, and a system serves any number of right-hand
sides.  It solves each system by one rule: from its inverse when the exact
1-norm reciprocal condition passes ``CHOL_RCOND_MIN`` (``_inverse_steps``),
and otherwise from a Householder QR of sqrt(W) X with column pivoting
(``_pivoted_qr``), which names the offending column on rank loss.  A system
with a NaN, an inf or an overflow in X'WX fails the guard and raises
``GlmError`` in place of the QR; least squares also checks its p
coefficients, since a finite X'WX passes the guard whatever its right-hand
side.  Least squares is one such solve, whose rounding error grows with
cond(sqrt(W) X) squared (up to about 1e-6 relative on near-collinear
designs); each Newton step is another.
Every per-replicate product, each Gram block included, is its own BLAS
call of a fixed shape within a stacked matmul, never a row of one (B, n)
matrix product, whose rounding depends on B: a replicate's fit depends
only on its own weights, and is bitwise the single fit on them; a
response's fit is bitwise its fit alone, whatever responses share its
system.  Fits start from zero or from caller-supplied coefficients, which
is how bootstrap replicates start from the point fit: they need fewer
iterations and stop by the same rules at the same maximum.

The link functions are numpy code.  The logistic mean is formed from the
exponential of the softplus log(1 + e^eta) = max(eta, 0) + log1p(e^-|eta|),
which the log-likelihood uses too.  The probit terms come from one scaled
complementary error function erfcx(t) = e^(t^2) erfc(t) per element, at
t = |eta| / sqrt(2): Cephes' rational approximations on [0, 1), [1, 8) and
[8, inf) (S. L. Moshier, after W. J. Cody, "Rational Chebyshev
approximations for the error function", 1969).  The first runs over every
element, at t clipped to 1; the elements with t >= 1, about an eighth of a
propensity fit's, are gathered once, and each later range runs on its own
elements alone and is written back by index.  The tail probability
Phi(-|eta|) is erfcx(t) e^(-t^2) / 2, its log log(erfcx(t) / 2) - t^2
never underflows, and the tail's Mills ratio is sqrt(2 / pi) / erfcx(t)
exactly.  The observed information is formed from the two Mills ratios;
the tail's, minus |eta|, cancels to about 1 / |eta|, which costs about
|eta|^2 ulp (2.8e-13 relative at |eta| 27), and the term is clipped to its
range [0, 1] where that leaves only rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DesignSpec

__all__ = [
    "Family",
    "FittedGlm",
    "GlmError",
    "RankDeficiencyError",
    "NonConvergenceError",
    "fit_glm",
    "predict_mean",
]

# A binomial fit also stops when its largest absolute score component is
# below DEFAULT_TOL.  That absolute test is what stops a fit whose score
# vanishes: a separated one (see ``_separation``), whose decrement stays near
# 2 |ll| as ll -> 0; one whose steps take the QR fallback; and a start
# already at the maximum.
DEFAULT_TOL = 1e-10
# A fit whose step comes from the inverse of H = X'WX, not the QR fallback,
# stops on its Newton decrement lambda^2 = score' H^-1 score (Boyd &
# Vandenberghe, 2004, Convex Optimization, 9.5): when lambda^2 <=
# DECREMENT_RTOL |ll|, the step is taken and the fit stops.  lambda^2 / 2
# estimates the gain in ll left, here below the rounding of ll; lambda^2
# does not move when a column is rescaled, and the bound grows with |ll| as
# n does.  So cohort-sized fits stop where the absolute score test, whose
# rounding floor grows with n and with the covariates' units, never passes.
DECREMENT_RTOL = 2.0**-52
DEFAULT_MAX_ITER = 100
RANK_RTOL = 1e-10
# A step is taken from the inverse of X'WX only when its exact 1-norm
# reciprocal condition exceeds this.  The pivoted-QR rank check can fail
# only when cond(sqrt(W) X) >= 1 / RANK_RTOL, i.e. cond(X'WX) >= 1e20, so
# every such system goes to the QR fallback with ten orders to spare; so do
# full-rank systems whose squared condition would cost the normal equations
# more than about 1e-6 of relative accuracy.
CHOL_RCOND_MIN = 1e-10
# A present row (prior weight > 0) whose information weight at the stop is
# below this absolute bound is dead: its fitted probability is at 0 or 1
# (|eta| past 18.4 for logit, 6.2 for probit).  The dead rows of a
# quasi-separated fit (y ~ 1 + d, all 10 of 40 rows with d = 1 at y = 1)
# sit at 4.2e-12 (logit) and 6.5e-11 (probit).  Of 2,700 ordinary
# propensity fits (the regimes' five designs, both links, 270 draws of
# n = 1,000), 0 logit and 69 probit fits have a row below 1e-8, and on none
# do the live rows lose rank.
DEAD_INFO = 1e-8
# Every Gram X' diag(w) X is summed over blocks of GRAM_BLOCK // p rows
# (``_gram``): no weighted copy of a tall X is made, and a single system's
# weighted block stays in cache.  A block counts elements, not rows,
# because a fixed 4,096 rows slowed narrow designs.  Microseconds per
# weighted Gram of a column-major X, best of 15 (2-core x86 host, one
# OpenBLAS thread), as one product ("one") and over blocks of E elements
# or of 4,096 rows:
#
#          n = 25,000: one  2^14  2^15  2^16  2^17  4096 | n = 200,000: one  2^14  2^15  2^16  2^17  4096
#   p = 2              43    52    44    42    43    60 |               624   424   389   353   482   483
#       4              90   102    91    85    89   100 |              2220   898   799   797   936   858
#       6             222   266   164   163   197   183 |              3376  2177  1358  1276  1610  1454
#       8             376   350   239   234   320   237 |              4862  2873  1952  1921  3026  1954
#       9             560   433   305   313   448   319 |              6230  3490  2502  2431  4383  2526
#      11             850   597   422   442   808   444 |              9873  4789  3298  3317  6725  3552
#      14             919   759   670   579   886   590 |             10344  6046  5429  4401  7208  4516
#
# 2^16 keeps every design of 4,681 rows or fewer (p <= 14) in one block, so
# the Grams of the paper's study (n = 1,000) and of bootstraps of a few
# thousand records are one product each.
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
        self.name = labels[column] if labels is not None else f"column {column}"
        super().__init__(
            f"design matrix is rank deficient at {self.name} "
            f"(relative pivot magnitude {pivot_magnitude:.3e})"
        )
        self.column = column
        self.pivot_magnitude = pivot_magnitude


class NonConvergenceError(GlmError):
    def __init__(self, iterations: int, score_norm: float, coef_norm: float, separation: str | None = None):
        norms = f"max|score|={score_norm:.3e}, |coef|={coef_norm:.3e}"
        super().__init__(
            f"no convergence after {iterations} iterations: {norms}" if separation is None else
            f"the responses are separated: {separation} (after {iterations} iterations: {norms})")
        self.iterations = iterations
        self.score_norm = score_norm
        self.coef_norm = coef_norm


@dataclass(frozen=True)
class FittedGlm:
    """A fitted regression: family, coefficients, and convergence state.

    A batch fit (``fit_glm`` with ``(B, n)`` weights or a stack of
    designs) holds ``(B, p)`` coefficients, per-replicate ``iterations``
    and ``errors``, the ``{b: GlmError}`` of its failed (NaN) replicates.
    """

    family: Family
    coef: np.ndarray
    iterations: int
    design: DesignSpec | None = None
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coef.setflags(write=False)

    @property
    def converged(self) -> bool | np.ndarray:
        """False at a batch's failed replicates; a single fit that fails raises."""
        return self.coef.ndim == 1 or ~np.isin(np.arange(len(self.coef)), list(self.errors))


def _as_matrix(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None):
    """Validated float arrays X, y and weights (None stays None).  A single
    fit takes X (n, p), y (n,) and weights (n,).  A batch takes a shared X
    (n, p) and y (n,) with (B, n) weights, or a stack of designs X (R, n, p)
    with y and weights (R, n); a row of its weights may hold a NaN or an
    inf, and that row's fit fails."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim not in (2, 3):
        raise GlmError("design matrix must be 2-dimensional, or a stack of such for a batch")
    n, p = X.shape[-2:]
    if y.shape != X.shape[:-1]:
        raise GlmError(f"response has length {y.shape}, expected {X.shape[:-1]}")
    if n < p:
        raise GlmError(f"need at least as many rows ({n}) as columns ({p})")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        single = X.ndim == 2 and weights.ndim < 2
        if X.ndim == 2 and not single:  # a shared design: one weight row per replicate
            if weights.ndim != 2 or weights.shape[1] != n:
                raise GlmError(f"weights have shape {weights.shape}, expected (B, {n})")
        elif weights.shape != y.shape:
            raise GlmError(f"weights have shape {weights.shape}, expected {y.shape}")
        # a batch row whose weights are not finite fails alone: its system is not finite
        if (single and not np.all(np.isfinite(weights))) or np.any(weights < 0):
            raise GlmError("weights must be finite and non-negative")
    return X, y, weights


def _single(fit: FittedGlm) -> FittedGlm | GlmError:
    """The single fit whose batch of one is ``fit``, or its ``GlmError``."""
    if fit.errors:
        return fit.errors[0]
    return FittedGlm(fit.family, fit.coef[0], int(fit.iterations[0]), fit.design)


def _check_rank(R: np.ndarray, piv: np.ndarray, labels=None) -> None:
    """Raise on rank loss in a pivoted QR factor, naming the offending column."""
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size else 0.0
    if scale == 0.0 or np.any(diag < RANK_RTOL * scale):
        k = 0 if scale == 0.0 else int(np.argmax(diag < RANK_RTOL * scale))
        rel = 0.0 if scale == 0.0 else float(diag[k] / scale)
        raise RankDeficiencyError(int(piv[k]), rel, labels)


def _rows_times(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``X @ coef[b]`` for every row b of ``coef`` (B, p), shape (B, n); a
    stack X (B, n, p) gives ``X[b] @ coef[b]``."""
    return np.matmul(X, coef[:, :, None])[:, :, 0]


def _times_rows(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``v[b] @ X`` for every row b of ``v`` (B, n), shape (B, p); a stack X
    (B, n, p) gives ``v[b] @ X[b]``."""
    return np.matmul(v[:, None, :], X)[:, 0, :]


def _norm1(A: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.add.reduce(np.abs(A), axis=-2), axis=-1)


def _inverse_or_nan(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.full_like(H, np.nan)


def _inverse_steps(H: np.ndarray, scores):
    """The steps H^-1 score of a stack of systems ``H`` (B, p, p) for each
    right-hand side (B, p) of ``scores``, and whether each system passes
    the guard: an exact 1-norm reciprocal condition above
    ``CHOL_RCOND_MIN`` (an exactly singular one fails).  The systems are
    inverted and guarded once, whatever the number of right-hand sides."""
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:  # some system is exactly singular: invert one at a time
        Hinv = np.array([_inverse_or_nan(h) for h in H])
    norms = _norm1(np.array((H, Hinv)))
    rcond = 1.0 / (norms[0] * norms[1])
    return [np.matmul(Hinv, score[..., None])[..., 0] for score in scores], rcond > CHOL_RCOND_MIN


def _not_finite() -> GlmError:
    return GlmError("the system X'WX or its right-hand side is not finite "
                    "(a NaN, an inf or an overflowing value in the design, response or weights)")


def _gram(X: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """X' diag(w) X, summed over row blocks of ``GRAM_BLOCK // p`` rows in
    order, for X (n, p) or a stack (B, n, p) and weights ``w`` that
    broadcast against X' (p, n): (B, 1, n) gives one system per weight row;
    ``w`` None stands for unit weights.  Each block is one matrix product of
    the weighted block of the view X' with the block of X, so the weighted
    copy holds one block per system, (B, p, rows): 1.76 MB at B = 21,
    p = 7, n = 1,500.  A design of one block is one product."""
    # The weighted copy is not bounded across replicates too: that is
    # bitwise the same, but on a 2-core x86 it made ``boot_np`` 22% slower,
    # at 8,780 minor page faults per pass against 4.  glibc's mmap threshold
    # rises to the largest mapped block freed; with smaller copies it stayed
    # low, and the batch's (B, n) arrays were mapped afresh on every use.
    rows = GRAM_BLOCK // max(X.shape[-1], 1)
    Xt = X.swapaxes(-1, -2)
    H = np.matmul(Xt[..., :rows] if w is None else Xt[..., :rows] * w[..., :rows], X[..., :rows, :])
    for i in range(rows, X.shape[-2], rows):
        H += np.matmul(Xt[..., i:i + rows] if w is None else Xt[..., i:i + rows] * w[..., i:i + rows],
                       X[..., i:i + rows, :])
    return H


def _solve(X: np.ndarray, ww: np.ndarray | None, scores, labels, qr_weights=None):
    """The solve of every fit on the column-major design X: for each
    right-hand side ``score`` (B, p) of ``scores``, the steps delta[b] of
    (X' diag(ww[b]) X) delta[b] = score[b] for the rows of ``ww`` (B, n),
    and ``{b: GlmError}`` for the rows whose system is rank deficient
    (``RankDeficiencyError``) or not finite (their steps are NaN), as one
    ``(delta, errors)`` pair per right-hand side, and the rows whose system
    failed the inverse's guard (their steps, if any, are QR steps), as
    ``(pairs, fallback)``.  A stack X (B, n, p) gives
    each row its own design X[b].  ``ww`` None stands for unit weights,
    which form no weighted copy of X.  With ``qr_weights``, a row's QR step
    takes the weights ``qr_weights(b)`` in place of ``ww[b]``.

    The systems are always a stack (B, p, p); a single fit is the stack of
    one, formed by the same calls as a batch.  Every Gram is ``_gram``'s
    sum over row blocks, in order, of the products of X_b' diag(ww[b]) with
    X_b, X' being the transpose view of X, C-contiguous for a column-major
    X (a strided one of a caller's C-ordered X, taken as it is, in its own
    rounding): one stacked matmul per block, whose blocks depend on n and p
    alone, so a batch row is summed as its single fit is.  The systems are
    formed, inverted and guarded once for all right-hand sides, and each
    right-hand side's product with the inverse is its own call, as it would
    be alone.  ``_inverse_steps`` solves the systems that pass its guard;
    of the others, a system that is not finite fails at once, and
    ``_qr_step`` solves each of the rest.  Floating-point warnings are off
    while the systems are formed and inverted: a value that is not finite,
    an overflowing Gram's included, fails that check instead.
    """
    with np.errstate(all="ignore"):
        H = _gram(X if X.ndim == 3 else X[None], None if ww is None else ww[:, None, :])
        deltas, passed = _inverse_steps(H, scores)
    failed = np.flatnonzero(~passed)
    out = []
    for delta, score in zip(deltas, scores):
        errors = {}
        for b in failed:
            try:
                if not (np.isfinite(H[b]).all() and np.isfinite(score[b]).all()):
                    raise _not_finite()
                wb = qr_weights(b) if qr_weights else None if ww is None else ww[b]
                delta[b] = _qr_step(X[b] if X.ndim == 3 else X, wb, score[b], labels)
            except GlmError as exc:
                delta[b] = np.nan
                errors[int(b)] = exc
        out.append((delta, errors))
    return out, failed


def _least_squares(X, ys, weights=None, *, design: DesignSpec | None = None) -> list:
    """The gaussian fit of each response in ``ys`` on one design X and one
    set of weights, taken as ``fit_glm`` takes them (single, ``(B, n)`` or a
    stack).  One system X'WX per weight row serves every response: formed,
    guarded and inverted once, with one right-hand side X'Wy per response,
    so that each fit is bitwise the one of its response alone.  A single
    fit that fails is its ``GlmError`` in the list, in place of the fit; a
    batch fit's failed replicates are NaN, as in ``fit_glm``.
    """
    X, y, W = _as_matrix(X, ys[0], weights)
    ys = [y] + [_as_matrix(X, y)[1] for y in ys[1:]]
    single = X.ndim == 2 and (W is None or W.ndim == 1)
    if single:  # the batch of one
        ys, W = [y[None] for y in ys], None if W is None else W[None]
    labels = design.labels if design is not None else None
    with np.errstate(all="ignore"):  # a right-hand side that is not finite fails in _solve
        rhs = [_times_rows(y if W is None else W * y, X) for y in ys]
    out = []
    for coef, errors in _solve(X, W, rhs, labels)[0]:
        # a finite X'WX passes the guard whatever its right-hand side
        for b in np.flatnonzero(~np.isfinite(coef).all(axis=1)):
            errors.setdefault(int(b), _not_finite())
        fit = FittedGlm(Family.GAUSSIAN, coef, np.zeros(len(coef), dtype=int), design, errors)
        out.append(_single(fit) if single else fit)
    return out


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on [0, 1), erfcx(x) = P(x) / Q(x)
# on [1, 8) and R(x) / S(x) from 8 up.  Each pair is a numerator and its
# denominator, highest power first; Q, S and U are monic, and T and R are
# padded with a leading zero.  R / S is evaluated in v = 1 / x, with the
# padded coefficients reversed, so that no power of a large x overflows.
_ERF_TU = (
    (0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4),
    (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4),
)
_ERFCX_PQ = (
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2),
)
_ERFCX_RS = tuple(c[::-1] for c in (
    (0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0),
))
# |eta| is capped here, so that eta^2 stays finite; every term is at its
# limit long before
_ETA_CAP = 1e154
_LOG2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _rational(coef, x: np.ndarray) -> np.ndarray:
    """Numerator over denominator of the pair ``coef`` at the 1-D ``x``, each
    by Horner's rule.  A leading 0 or 1 and a trailing 0 cost no operation,
    which is exact for the finite or NaN ``x`` each range sees: 0 x + c = c,
    1 x = x, and the one trailing 0, R's in v, follows a positive p v."""
    out = []
    for c in coef:
        c = c[1:] if c[0] == 0.0 else c
        if c[0] == 1.0:
            p = x + c[1]
        else:
            p = x * c[0]
            p += c[1]
        for ci in c[2:]:
            p *= x
            if ci != 0.0:
                p += ci
        out.append(p)
    num, den = out
    num /= den
    return num


def _erfcx_at(eta: np.ndarray):
    """``(t2, g)`` at t = |eta| / sqrt(2), |eta| capped at ``_ETA_CAP``:
    t2 = eta^2 / 2 and g = erfcx(t), so that Phi(-|eta|) = g e^(-t2) / 2.

    The [0, 1) approximation runs over every element at its argument
    clipped to 1, where it stays finite; the elements with t >= 1 (never a
    NaN) are gathered once, and the [1, 8) and [8, inf) approximations
    run on theirs alone and are written back by index, so no range warns
    for any ``eta``.
    """
    a = np.abs(eta).reshape(-1)  # 1-D, so that a 0-d eta is written back too
    # the largest |eta| that is not NaN
    hi = np.fmax.reduce(a, initial=0.0)
    if hi > _ETA_CAP:
        np.minimum(a, _ETA_CAP, out=a)
    t2 = a * a
    t2 *= 0.5
    t = a
    t *= _SQRT_HALF
    x = np.minimum(t, 1.0)  # e^(x^2) (1 - erf(x)) on [0, 1)
    z = np.multiply(x, x)
    g = _rational(_ERF_TU, z)
    g *= x
    np.subtract(1.0, g, out=g)
    g *= np.exp(z, out=z)
    far = np.flatnonzero(t >= 1.0)
    tf = t[far]
    if hi * _SQRT_HALF >= 8.0:  # the largest t, rounded as t is, reaches 8
        tail = tf >= 8.0
        g[far[tail]] = _rational(_ERFCX_RS, np.divide(1.0, tf[tail]))
        far, tf = far[~tail], tf[~tail]
    if far.size:
        g[far] = _rational(_ERFCX_PQ, tf)
    return t2.reshape(np.shape(eta)), g.reshape(np.shape(eta))


def _ndtr(eta: np.ndarray) -> np.ndarray:
    """The standard normal CDF Phi(eta)."""
    eta = np.asarray(eta, dtype=float)
    t2, g = _erfcx_at(eta)
    np.negative(t2, out=t2)
    g *= 0.5
    g *= np.exp(t2, out=t2)  # Phi(-|eta|)
    return np.where(eta < 0.0, g, 1.0 - g)


def _expit(eta: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + e^-eta), from e^-|eta| so that it never overflows."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0, e) / (1.0 + e)


def _binomial_mu(family: Family, eta: np.ndarray) -> np.ndarray:
    if family is Family.LOGIT:
        return _expit(eta)
    return _ndtr(eta)


def _probit_terms(eta: np.ndarray, y: np.ndarray, w: np.ndarray):
    """The probit log-likelihood, score factor and observed information
    from one erfcx per element (see ``_erfcx_at``), in a few reused buffers.

    With q = Phi(-|eta|) the tail probability, log q = log(g / 2) - t^2 and
    the tail's Mills ratio phi / q = sqrt(2 / pi) / g; the other side has
    log(1 - q) and phi / (1 - q).  ``v``, the response on the other side (y
    where eta >= 0, else 1 - y), and the sign of eta place them.
    """
    t2, g = _erfcx_at(eta)
    e = np.negative(t2)
    np.exp(e, out=e)  # e^(-t^2)
    q = np.multiply(g, e)
    q *= 0.5
    log_q = np.log(g)
    log_q -= t2
    log_q -= _LOG2
    log_other = np.negative(q, out=t2)
    np.log1p(log_other, out=log_other)
    sign = np.copysign(1.0, eta)
    v = np.multiply(sign, y - 0.5)
    v += 0.5
    # ll = log q + v (log(1 - q) - log q)
    log_other -= log_q
    log_other *= v
    log_other += log_q
    # in place unless one eta serves a batch of weight rows
    ll = np.multiply(log_other, w, out=log_other if log_other.shape == w.shape else None).sum(axis=-1)
    mills_tail = np.divide(_SQRT_2_OVER_PI, g, out=g)
    np.subtract(1.0, q, out=q)
    mills_other = np.divide(e, q, out=e)
    mills_other *= _INV_SQRT_2PI
    # the observed information -d^2 ll / d eta^2 =
    # v mills_other (mills_other + |eta|) + (1 - v) mills_tail (mills_tail - |eta|)
    a = np.abs(eta, out=log_q)
    np.minimum(a, _ETA_CAP, out=a)  # |eta| as _erfcx_at caps it
    info = np.add(mills_other, a, out=q)
    info *= mills_other
    info *= v
    tail = np.subtract(mills_tail, a, out=a)
    tail *= mills_tail
    # each side's term is 1 minus the variance of a truncated normal, so it
    # lies in [0, 1]; the tail's cancels to about 1 / |eta|, and beyond
    # |eta| 1e5 is rounding, which the clip keeps in range
    np.clip(tail, 0.0, 1.0, out=tail)
    # s = sign (v mills_other - (1 - v) mills_tail)
    mills_other *= v
    np.subtract(1.0, v, out=v)
    mills_tail *= v
    mills_other -= mills_tail
    mills_other *= sign
    tail *= v
    info += tail
    return ll, mills_other, info


def _probit_fisher(eta: np.ndarray) -> np.ndarray:
    """The probit expected information phi^2 / (Phi (1 - Phi)) at ``eta``:
    the product of the two Mills ratios, formed as ``_probit_terms`` forms
    them."""
    t2, g = _erfcx_at(eta)
    e = np.exp(-t2)
    q = g * e
    q *= 0.5
    mills_other = e / (1.0 - q)
    mills_other *= _INV_SQRT_2PI
    return _SQRT_2_OVER_PI / g * mills_other


def _binomial_terms(family: Family, eta: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Log-likelihood, per-row score factor s (score = X' diag(w) s) and
    observed information -d^2 ll / d eta^2 (the step weight) at linear
    predictor ``eta``, each link function evaluated once.  ``w`` may carry
    a leading replicate axis, and so may ``eta`` (with ``y`` as it); the
    log-likelihood then has one entry per replicate.  An ``eta`` without
    that axis, one linear predictor for every replicate, gives s and the
    information once, for all of them.  The logit mean comes from the
    softplus's exponential, within an ulp of 1 / (1 + e^-eta)."""
    if family is Family.PROBIT:
        return _probit_terms(eta, y, w)
    # softplus log(1 + e^eta), within 2 ulp of np.logaddexp(0, eta) at
    # about a fifth of its cost; only the step-halving test reads ll.  Sums
    # are formed in place, so that a batch holds few (B, n) temporaries.
    e = np.abs(eta)
    np.negative(e, out=e)
    np.exp(e, out=e)
    terms = np.log1p(e)
    terms += np.maximum(eta, 0.0)
    np.subtract(y * eta, terms, out=terms)
    ll = np.multiply(terms, w, out=terms if terms.shape == w.shape else None).sum(axis=-1)
    del terms
    mu = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
    del e
    fisher = 1.0 - mu
    fisher *= mu
    return ll, y - mu, fisher


def _pivoted_qr(A: np.ndarray):
    """``(R, piv)`` of a Householder QR of ``A`` (n >= p) with column
    pivoting, ``A[:, piv] = Q R``; Q is not formed.

    Each step takes the column of largest remaining norm, the first on ties,
    and downdates the other norms, recomputing one whose downdate has lost
    half its digits: the rule of LAPACK's dgeqp3.
    """
    A = np.array(A, dtype=float)
    n, p = A.shape
    piv = np.arange(p)
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    exact = norms.copy()  # each norm when last computed in full
    tol = math.sqrt(np.finfo(float).eps)
    for k in range(p):
        j = k + int(np.argmax(norms[k:]))
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            piv[[k, j]] = piv[[j, k]]
            norms[j], exact[j] = norms[k], exact[k]
        x = A[k:, k]
        rest = np.linalg.norm(x[1:])
        if rest != 0.0:  # the reflector I - tau u u', u = (1, x[1:] / (x[0] - beta))
            beta = -math.copysign(math.hypot(x[0], rest), x[0])
            tau = (beta - x[0]) / beta
            x[1:] /= x[0] - beta
            x[0] = beta
            if k + 1 < p:
                C = A[k:, k + 1:]
                wv = C[0] + x[1:] @ C[1:]
                wv *= tau
                C[0] -= wv
                C[1:] -= np.outer(x[1:], wv)
        for j in range(k + 1, p):
            if norms[j] != 0.0:
                left = max(0.0, 1.0 - (abs(A[k, j]) / norms[j]) ** 2)
                if left * (norms[j] / exact[j]) ** 2 <= tol:
                    norms[j] = exact[j] = np.linalg.norm(A[k + 1:, j])
                else:
                    norms[j] *= math.sqrt(left)
    return np.triu(A[:p]), piv


def _qr_step(X: np.ndarray, ww: np.ndarray | None, score: np.ndarray, labels) -> np.ndarray:
    """Solve (X'WX) delta = score from the pivoted QR of sqrt(W) X, raising
    ``RankDeficiencyError`` naming the offending column on rank loss."""
    A = X if ww is None else X * np.sqrt(np.maximum(ww, 0.0))[:, None]
    R, piv = _pivoted_qr(A)
    _check_rank(R, piv, labels)
    delta = np.empty_like(score)
    delta[piv] = np.linalg.solve(R, np.linalg.solve(R.T, score[piv]))
    return delta


def _separation(X: np.ndarray, present: np.ndarray, dead: np.ndarray, labels) -> str | None:
    """Why a fit whose score vanished has no maximum, or None.  The maximum
    fails to exist exactly when the responses are separated, completely or
    quasi-completely (Albert & Anderson, 1984, Biometrika 71: 1-10): the
    score then vanishes as present rows die (see ``DEAD_INFO``) along a
    direction that the design of the live rows does not see, so its pivoted
    QR loses rank at the column whose coefficient diverges."""
    if not (present & dead).any():
        return None
    live = present & ~dead
    if not live.any():
        return "every row's fitted probability is at 0 or 1"
    p = X.shape[-1]
    try:  # zero rows pad fewer live rows than columns, whose rank is lost
        _check_rank(*_pivoted_qr(np.vstack([X[live], np.zeros((max(0, p - live.sum()), p))])), labels)
    except RankDeficiencyError as exc:
        return f"the coefficient of {exc.name} diverges"
    return None


def _score_batch(X, y, family, prior, start, labels):
    """Newton steps from ``start`` (p,) for every row of the prior row
    weights ``prior`` (B, n), on a shared design X (n, p) and response y
    (n,), or each on its own X[b] and y[b] of a stack X (B, n, p) and y (B,
    n).

    Every replicate starts at the same point, so on a shared design the
    linear predictor X @ start and the link terms at it (``_binomial_terms``
    on n rows) are formed once, and only their weighting is per replicate:
    the same products and sums that each replicate alone would form.  Each
    replicate runs its own score test, Newton step, decrement test, step
    halving and separation test; a converged or failed replicate is frozen
    and leaves the batch, and a stack's X and y are subset to the replicates
    left.  A replicate stops at the top of an iteration when max|score| <
    ``DEFAULT_TOL``, or after a step from the inverse (not the QR fallback:
    probit QR steps are Fisher scoring, which converges only linearly, and
    a near-collinear QR fit is fixed only up to rounding) whose decrement
    lambda^2 = score . delta is at most ``DECREMENT_RTOL`` |ll|: that step is
    taken with no link terms at its end, since its gain lambda^2 / 2 is
    below the rounding of ll and the halving test would accept it.  Both
    stops run the same dead-row test, on the information at the point the
    stop was decided, and ``iterations`` counts the steps taken.
    Returns the (B, p) fits, the iterations per replicate and ``{b:
    GlmError}`` for the failed ones, whose coefficients are NaN.
    """
    stacked = X.ndim == 3
    coef = np.repeat(start[None], len(prior), axis=0)
    iterations = np.zeros(len(coef), dtype=int)
    errors: dict[int, GlmError] = {}
    act = np.arange(len(coef))  # replicates still scoring
    w = prior
    shared = not stacked and len(w) > 1  # the start's terms serve every replicate
    eta = X @ start if shared else _rows_times(X, coef)
    ll, s, info = _binomial_terms(family, eta, y, w)
    if shared:
        eta, s, info = (np.broadcast_to(a, w.shape) for a in (eta, s, info))

    def fail(rows, error):
        for k in rows:
            b = int(act[k])
            errors[b] = error(k)
            coef[b] = np.nan

    def data(rows):
        """The design and response of the scoring replicates ``rows``."""
        return (X[rows], y[rows]) if stacked else (X, y)

    def stop(rows, steps):
        """Freeze the scoring replicates ``rows`` after ``steps`` steps.
        Never return silently diverged coefficients: one comparison of the
        information ``info`` at the point the stop was decided finds the
        stopping replicates with a dead row, and only those take the rank
        test of ``_separation``."""
        iterations[act[rows]] = steps
        dead = (info if rows.size == act.size else info[rows]) < DEAD_INFO
        for k in np.flatnonzero(dead.any(axis=1)):
            b = rows[k]
            separation = _separation(X[b] if stacked else X, w[b] > 0, dead[k], labels)
            if separation:
                fail([b], lambda k: NonConvergenceError(
                    steps, float(score_max[k]), float(np.linalg.norm(coef[act[k]])), separation))

    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        if not act.size:
            break
        score = _times_rows(w * s, X)
        score_max = np.abs(score).max(axis=1)
        if np.fmin.reduce(score_max) < DEFAULT_TOL:  # a NaN score, of a row that fails below, is not done
            done = score_max < DEFAULT_TOL
            everyone = done.all()
            rows = np.arange(act.size) if everyone else np.flatnonzero(done)
            stop(rows, iteration - 1)
            if everyone:
                break
            keep = ~done
            act, w, eta, ll, s, info, score, score_max = (
                act[keep], w[keep], eta[keep], ll[keep], s[keep], info[keep], score[keep], score_max[keep])
            X, y = data(keep)
        # a probit step sent to the QR fallback takes the expected
        # information, so that the rank check judges Fisher scoring's system
        qr_weights = None if family is Family.LOGIT else lambda b: w[b] * _probit_fisher(eta[b])
        [(delta, rank_errors)], fallback = _solve(X, w * info, [score], labels, qr_weights)
        # the Newton decrement score' H^-1 score of each step from the inverse
        # (see DECREMENT_RTOL; a failed step's is NaN, and stops nothing)
        decrement = np.add.reduce(score * delta, axis=1)
        if len(fallback):
            decrement[fallback] = np.nan
        stopped = (decrement <= ll * -DECREMENT_RTOL).nonzero()[0]  # ll <= 0: DECREMENT_RTOL |ll|
        if stopped.size:
            coef[act[stopped]] += delta[stopped]
            stop(stopped, iteration)
        eta = s = info = None  # the accepted trials' terms replace them
        if stopped.size or rank_errors:
            keep = np.ones(act.size, dtype=bool)
            keep[stopped] = False
            keep[list(rank_errors)] = False
            fail(list(rank_errors), rank_errors.__getitem__)
            act, w, ll, delta = act[keep], w[keep], ll[keep], delta[keep]
            X, y = data(keep)
            if not act.size:
                continue
        # Halve each replicate's step up to 40 times while it lowers that
        # replicate's likelihood; the accepted trials' terms carry into the
        # next iteration.
        everyone = act.size == len(coef)
        base = coef if everyone else coef[act]
        trial = base + delta
        eta_t = _rows_times(X, trial)
        ll_t, s_t, info_t = _binomial_terms(family, eta_t, y, w)
        floor = ll + 1e-12 * ll  # ll - 1e-12 |ll|, as a log-likelihood is never positive
        accepted = ll_t >= floor
        pending = () if accepted.all() else np.flatnonzero(~accepted)
        for halvings in range(1, 41):
            if not len(pending):
                break
            t = base[pending] + 0.5**halvings * delta[pending]
            X_h, y_h = data(pending)
            eta_h = _rows_times(X_h, t)
            ll_h, s_h, info_h = _binomial_terms(family, eta_h, y_h, w[pending])
            ok = (ll_h >= floor[pending]) | (halvings == 40)
            rows = pending[ok]
            trial[rows], eta_t[rows], ll_t[rows], s_t[rows], info_t[rows] = (
                t[ok], eta_h[ok], ll_h[ok], s_h[ok], info_h[ok])
            pending = pending[~ok]
        if everyone:
            coef[:] = trial
        else:
            coef[act] = trial
        eta, ll, s, info = eta_t, ll_t, s_t, info_t
    else:
        if act.size:
            score_max = np.abs(_times_rows(w * s, X)).max(axis=1)
            fail(range(act.size), lambda k: NonConvergenceError(
                DEFAULT_MAX_ITER, float(score_max[k]), float(np.linalg.norm(coef[act[k]]))))
    return coef, iterations, errors


def _start(start, p: int) -> np.ndarray:
    """The starting coefficients (p,), zero when ``start`` is None."""
    if start is None:
        return np.zeros(p)
    coef = np.asarray(start, dtype=float)
    if coef.shape != (p,) or not np.all(np.isfinite(coef)):
        raise GlmError(f"start must be {p} finite coefficients, got shape {coef.shape}")
    return coef


def _check_binary(y: np.ndarray) -> None:
    if not np.all((y >= 0) & (y <= 1)):  # NaN fails too
        raise GlmError("binomial families require responses in [0, 1]")


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    family: Family,
    weights: np.ndarray | None = None,
    *,
    design: DesignSpec | None = None,
    start: np.ndarray | None = None,
) -> FittedGlm:
    """The engine's one fit: weighted least squares for a gaussian
    ``family`` (``_least_squares``, closed form, ``start`` ignored), and
    Newton steps on the binomial log-likelihood otherwise (``_score_batch``;
    the module docstring gives the steps, the stops and the separation
    test).  Least squares solves the normal equations X'WX b = X'Wy, whose
    rounding error grows with cond(sqrt(W) X) squared, not with the
    condition itself as in a QR solve: on near-collinear designs the
    coefficients can move by up to about 1e-6 relative.  Scoring starts
    from ``start`` (copied, never written to) or, when it is None, from
    zero; a bootstrap replicate started from the point fit's coefficients
    needs fewer iterations and stops by the same rules at the same maximum.

    A single fit, X ``(n, p)`` with weights None or ``(n,)``, runs as its
    batch of one; a failure raises its ``GlmError``, the one its batch of
    one would hold in ``errors[0]``.  With ``(B, n)`` weights, one fit per
    weight row: the result's ``coef`` is ``(B, p)`` and its ``converged``
    and ``iterations`` are ``(B,)`` arrays.  A stack of designs X ``(B, n, p)``, with y and weights (None
    or given) ``(B, n)``, is such a batch whose replicate b fits its own
    X[b] and y[b] (a chunk of Monte Carlo datasets).  A replicate whose fit
    fails raises nothing; its coefficients are NaN, ``errors[b]`` is its
    ``GlmError``, and so is one whose weights hold a NaN or an inf.  Each
    replicate's separation test is its single fit's: a row is present when
    its weight is positive, whatever the weight.
    """
    if family is Family.GAUSSIAN:
        [fit] = _least_squares(X, [y], weights, design=design)
    else:
        X, y, W = _as_matrix(X, y, weights)
        _check_binary(y)
        prior = np.ones(y.shape) if W is None else W
        single = prior.ndim == 1
        coef, iterations, errors = _score_batch(X, y, family, prior[None] if single else prior,
                                                _start(start, X.shape[-1]),
                                                design.labels if design is not None else None)
        fit = FittedGlm(family, coef, iterations, design, errors)
        if single:
            fit = _single(fit)
    if isinstance(fit, GlmError):
        raise fit
    return fit


# Nothing in the package calls these two: benchmarks/tracing.py wraps their
# names until it is re-pointed at the fit itself (ROADMAP items 1 and 12).
def fit_ols(X, y, weights=None, *, design=None):
    return fit_glm(X, y, Family.GAUSSIAN, weights, design=design)


def fit_glm_irls(*args, **kwargs):
    return fit_glm(*args, **kwargs)


def predict_mean(fit: FittedGlm, X: np.ndarray) -> np.ndarray | float:
    """Fitted mean at the given design row(s); ``(B, n)`` for a batch fit,
    at a shared design (n, p) or at a stack of them (B, n, p)."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    rows = X[None, :] if single else X
    if rows.shape[-1] != fit.coef.shape[-1]:
        raise GlmError(f"design has {rows.shape[-1]} columns, coefficients expect {fit.coef.shape[-1]}")
    eta = rows @ fit.coef if fit.coef.ndim == 1 else _rows_times(rows, fit.coef)
    if fit.family is Family.GAUSSIAN:
        mu = eta
    else:
        mu = _binomial_mu(fit.family, eta)
    return float(mu[0]) if single and fit.coef.ndim == 1 else mu
