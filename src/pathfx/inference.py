"""Resampling and analytic inference.

A bootstrap evaluates its replicates in one way only: in chunks, each one
call of the caller's batch on a ``(B, n)`` matrix of replicate weights over
the original rows.  It is deterministic given a seed: replicate ``r`` draws
its weights from a Philox counter-based generator keyed on ``(seed, r)``,
so its value does not depend on the replicate count or the chunking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Dataset, Overrides, build_design_matrix
from .glm import Family, _solve
from .nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    NuisanceFits,
    c1_mean_role,
    _linear_nested,
    _response_for,
)

__all__ = [
    "BootstrapSpec",
    "IntervalEstimate",
    "InferenceError",
    "TTestResult",
    "bootstrap",
    "derived_rng",
    "mle_sandwich_variance",
    "mc_t_test",
]


class InferenceError(RuntimeError):
    """Raised when resampling or variance estimation cannot proceed."""


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator on an explicit (seed, stream...) key.

    Philox is a counter-based 64-bit generator; numpy's ``Generator`` draws
    normals with the ziggurat method.  The stream is a pure function of its
    arguments, so replicate ``r`` draws the same numbers whichever replicates
    run before it.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class BootstrapSpec:
    kind: str = "nonparametric"  # or "wild_exp1"
    replicates: int = 200
    seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self):
        if self.kind not in ("nonparametric", "wild_exp1"):
            raise InferenceError(f"unknown bootstrap kind {self.kind!r}")
        if self.replicates < 2:
            raise InferenceError("bootstrap needs at least 2 replicates")
        if self.seed < 0:
            raise InferenceError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise InferenceError("ci_level must lie in (0, 1)")


@dataclass
class IntervalEstimate:
    """A percentile interval around ``point``; its fields are arrays when
    ``point`` is, and ``replicate_values`` is ``(replicates,) +
    shape(point)``, NaN for each failed replicate."""

    point: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray
    se: float | np.ndarray
    replicate_values: np.ndarray
    errors: list[str] = field(default_factory=list)  # one per failed replicate, by index

    @property
    def n_failed(self) -> int:
        return len(self.errors)


def _draw_wild_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.exponential(1.0, n)


# Elements per batch chunk (``_run_chunked``): a chunk holds
# CHUNK_ELEMENTS // e replicates, at least one, e being the elements one
# replicate adds: its n weights for a bootstrap (21 replicates at n = 1,500),
# 2n for a Monte Carlo replicate, which carries its own stacked dataset and
# designs (16 at n = 1,000).  Each batch pays a fixed cost, the Python-level
# work of its IRLS iterations, components and estimators, which a larger
# chunk spreads over more replicates; its peak memory, about a dozen (B, n)
# arrays and the Gram's (B, p, rows) weighted copy, grows with the chunk.
# On a 2-core x86, 2**15 took 10% off ``boot_np``'s time per pass at a 3%
# higher peak RSS than 2**14; 2**16 raised that peak 3.6 MB more, and
# counting a Monte Carlo replicate as n raised ``simulate --n 1000 --reps
# 200``'s from 43 to 50 MB, neither with a time gain that showed.
CHUNK_ELEMENTS = 2**15


def _run_chunked(count: int, elements: int, batch: Callable[[int, int], tuple[np.ndarray, dict]],
                 values: np.ndarray) -> dict[int, str]:
    """Fill ``values`` (count, ...) one chunk of replicates at a time, and
    return the ``{r: reason}`` of the failed replicates in replicate order.

    A chunk holds ``max(1, CHUNK_ELEMENTS // elements)`` replicates, where
    ``elements`` is what one replicate adds to the batch: n for a bootstrap
    replicate's weights, 2n for a Monte Carlo replicate's dataset and
    designs.  So a chunk's size does not depend on ``count``.
    ``batch(lo, hi)`` returns the values of replicates lo to hi - 1 and the
    ``{r - lo: reason}`` of those that failed.  A chunk whose batch raises
    fails all its replicates with that text.  Each replicate is evaluated
    once.
    """
    size = max(1, CHUNK_ELEMENTS // elements)
    reasons: dict[int, str] = {}
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        try:
            values[lo:hi], failed = batch(lo, hi)
        except Exception as exc:  # noqa: BLE001 - a failure is data: the chunk's replicates carry it
            failed = dict.fromkeys(range(hi - lo), str(exc))
        reasons.update((lo + b, failed[b]) for b in sorted(failed))
    return reasons


def bootstrap(
    dataset: Dataset,
    *,
    spec: BootstrapSpec,
    point: float | list[float] | np.ndarray,
    batch: Callable[[np.ndarray], tuple[np.ndarray, dict]],
) -> IntervalEstimate:
    """Percentile bootstrap around ``point``, the statistic on ``dataset``.

    ``batch(W)`` evaluates the statistic for a chunk of replicates
    (``_run_chunked``) from their ``(B, n)`` weight matrix ``W`` on the
    original rows, refitting everything the statistic depends on.  Wild
    rows are i.i.d. Exp(1) draws, one per record; nonparametric rows are
    frequency weights, the ``bincount`` of the resampled indices.  It
    returns the replicate values, ``(B,) + shape(point)``, and the
    ``{b: message}`` of its failed replicates.  A replicate that fails, or
    has any NaN component, is NaN for every component; failures are
    tolerated up to 10% and reported in ``errors``, one message per failed
    replicate in replicate order.

    Replicate ``r`` draws its weights from ``derived_rng(seed, r)``, so its
    value depends on the seed, ``r`` and the data alone, not on the
    replicate count.
    """
    n = dataset.n
    point = np.asarray(point, dtype=float)

    def chunk(lo: int, hi: int):
        W = np.empty((hi - lo, n))
        for r in range(lo, hi):
            rng = derived_rng(spec.seed, r)
            W[r - lo] = (np.bincount(rng.integers(0, n, size=n), minlength=n) if spec.kind == "nonparametric"
                         else _draw_wild_weights(rng, n))
        return batch(W)

    values = np.full((spec.replicates,) + point.shape, np.nan)
    raised = _run_chunked(spec.replicates, n, chunk, values)
    failed = np.isnan(values.reshape(spec.replicates, -1)).any(axis=1)
    failed[list(raised)] = True
    values[failed] = np.nan
    errors = [f"replicate {r}: {raised.get(r, 'NaN value')}" for r in np.flatnonzero(failed)]
    ok = values[~failed]
    if len(errors) > 0.10 * spec.replicates:
        detail = "; ".join(errors[:5])
        raise InferenceError(
            f"{len(errors)}/{spec.replicates} bootstrap replicates failed: {detail}"
        )
    alpha = 1.0 - spec.ci_level
    # Reduce along a contiguous last axis, so each component sums in the
    # same order as a scalar point's replicates would.
    by_component = np.ascontiguousarray(np.moveaxis(ok, 0, -1))
    lower, upper = np.quantile(by_component, [alpha / 2.0, 1.0 - alpha / 2.0], axis=-1)
    se = np.std(by_component, axis=-1, ddof=1)
    out = float if point.ndim == 0 else np.asarray
    return IntervalEstimate(
        point=out(point),
        lower=out(lower),
        upper=out(upper),
        se=out(se),
        replicate_values=values,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# analytic variance of the nested-regression plug-in estimator


def _nested_model_roles(d1: int) -> list[str]:
    return [ROLE_OUTCOME, ROLE_MEDIATOR] + [c1_mean_role(j) for j in range(1, d1 + 1)]


def _nested_mean_and_gradient(dataset: Dataset, fits: NuisanceFits) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-record b'' and its mean gradient in each nested role's coefficients.

    On the linear pathway ``b'' = X_out(e=base, m=m_hat, c1=c_hat) beta_out``
    with ``m_hat = X_med(e=comp, c1=c_hat) beta_med`` and ``c_hat_j =
    X_c1j(e=base) gamma_j`` (``nuisance._linear_nested`` evaluates these
    from predictions at the data plus slopes times shifts, as
    ``nuisance._shifted`` forms them).  By the chain rule, per record:

    - outcome block: ``X_out(e=base, m=m_hat, c1=c_hat)``;
    - mediator block: ``db/dm * X_med(e=comp, c1=c_hat)``;
    - c1_j block: ``(db/dc1_j + db/dm * dm_hat/dc1_j) * X_c1j(e=base)``.

    The validated designs are linear in m and in every c1_j, and treatment
    is held fixed, so each partial derivative is a constant: the model's
    slope in that variable.  Blocks come back in ``_nested_model_roles``
    order.
    """
    coding = fits.coding
    outcome, mediator = fits[ROLE_OUTCOME], fits[ROLE_MEDIATOR]
    _, _, g, c_hat, m_hat, out_s, med_s = _linear_nested(fits, dataset)
    c_cols = np.column_stack(list(c_hat.values()))

    def slope(slopes, ref):
        return float(slopes[ref][0]) if ref in slopes else 0.0

    db_dm = slope(out_s, "m")
    X_out = build_design_matrix(dataset, outcome.design, Overrides(e=coding.baseline_internal, m=m_hat, c1=c_cols))
    grads = [X_out.mean(axis=0)]
    del X_out
    X_med = build_design_matrix(dataset, mediator.design, Overrides(e=coding.comparison_internal, c1=c_cols))
    grads.append(db_dm * X_med.mean(axis=0))
    del X_med
    for j, ref in enumerate(c_hat, start=1):
        fit = fits[c1_mean_role(j)]
        X_c1 = build_design_matrix(dataset, fit.design, Overrides(e=coding.baseline_internal))
        grads.append((slope(out_s, ref) + db_dm * slope(med_s, ref)) * X_c1.mean(axis=0))
    return g, grads


def mle_sandwich_variance(dataset: Dataset, fits: NuisanceFits) -> float:
    """Estimated variance of the nested-regression plug-in estimator.

    Combines the per-record nested prediction b'' with the delta-method
    correction for the estimated regression coefficients of the outcome,
    mediator and post-treatment mean models.  ``D_k``, the mean gradient of
    b'' in block k's coefficients, has a closed form on the linear pathway
    (see ``_nested_mean_and_gradient``).  For a gaussian block with design X
    and residuals r, the correction ``D_k' I_k^{-1} U_k`` (per-record scores
    U_k, per-observation information I_k) is ``r X (X'X/n)^{-1} D_k``: the
    error variance cancels, so an exactly fitted block contributes nothing.
    Each block is solved by the regression engine's ``_solve``, so a
    block that is rank deficient on ``dataset`` raises ``InferenceError``
    naming the role and the column.  Every nested fit must be identity-link
    gaussian, unweighted and of one dataset; weighted or batch fits raise
    ``InferenceError``.  Returns the variance of the estimator itself (the
    large-sample variance divided by n).
    """
    if fits.pathway != "linear":
        raise InferenceError("the analytic variance is defined for the linear pathway")
    if fits.weights is not None:
        raise InferenceError("the analytic variance is defined for unweighted fits")
    roles = _nested_model_roles(dataset.d1)
    for role in roles:
        if fits[role].coef.ndim != 1:
            raise InferenceError(f"{role}: the analytic variance needs the fit of one dataset, not a batch")
        if fits[role].family is not Family.GAUSSIAN:
            raise InferenceError(
                f"{role}: the analytic variance needs an identity-link gaussian fit, "
                f"not {fits[role].family.value}"
            )
    g_hat, grads = _nested_mean_and_gradient(dataset, fits)
    n = dataset.n
    v = g_hat - g_hat.mean()
    for role, D in zip(roles, grads):
        fit = fits[role]
        X = build_design_matrix(dataset, fit.design)
        resid = _response_for(role, dataset) - X @ fit.coef
        # (X'X/n) sol = D, solved as X'X sol = n D without a weighted copy of X
        [(sol, errors)], _ = _solve(X, None, [n * D[None]], fit.design.labels)
        if errors:
            raise InferenceError(f"{role}: {errors[0]}") from errors[0]
        v += resid * (X @ sol[0])
    return float(np.mean(v**2) / n)


# ---------------------------------------------------------------------------
# Monte Carlo t test


def _softplus(z: float) -> float:
    """log(1 + e^z), for any finite z."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  With one argument 1/2 and the other a >= 20,
    log Gamma(a + 1/2) - log Gamma(a) comes from the difference of
    Stirling's series, where the large values of ``math.lgamma`` would
    cancel."""
    a, b = max(a, b), min(a, b)
    if b != 0.5 or a < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def tail(z):  # Stirling's series after its first terms, to 1e-15 from z = 20
        z2 = z * z
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * z2)) / z2) / z2) / z

    ratio = 0.5 * math.log(a) + a * math.log1p(0.5 / a) - 0.5 + tail(a + 0.5) - tail(a)
    return 0.5 * math.log(math.pi) - ratio


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            break
    return h


def _log_betainc(a: float, b: float, log_x: float, log_y: float) -> float:
    """log I_x(a, b), the regularised incomplete beta function, from log x and
    log y = log(1 - x), each given to full precision."""
    x = math.exp(log_x)
    front = a * log_x + b * log_y - _log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return front + math.log(_beta_fraction(a, b, x) / a)
    return math.log1p(-math.exp(front) * _beta_fraction(b, a, math.exp(log_y)) / b)


@functools.lru_cache(maxsize=256)
def _t_critical(df: int, alpha: float) -> float:
    """The two-sided critical value t with P(|T| > t) = ``alpha`` for
    Student's t on ``df`` degrees of freedom: the 1 - alpha/2 quantile.

    Newton's method on log t, kept inside the bracket the iterates have
    found, solves log P(|T| > t) = log alpha (alpha <= 1/2) or log P(|T| <
    t) = log(1 - alpha), whichever probability is the smaller, so that its
    relative accuracy carries over to t.  P(|T| > t) is I_x(df/2, 1/2) at x =
    df / (df + t^2).
    """
    a, tail = 0.5 * df, alpha <= 0.5
    log_target = math.log(alpha if tail else 1.0 - alpha)
    log_df, log_norm = math.log(df), _log_beta(0.5 * df, 0.5) + 0.5 * math.log(df)
    lo, hi = -math.inf, math.inf  # log t below and above the root
    u = 0.0
    for _ in range(200):
        r = 2.0 * u - log_df  # log(t^2 / df)
        log_x, log_y = -_softplus(r), -_softplus(-r)
        if tail:
            g = _log_betainc(a, 0.5, log_x, log_y) - log_target
        else:
            g = _log_betainc(0.5, a, log_y, log_x) - log_target
        if g == 0.0:
            break
        if (g > 0.0) == tail:
            lo = u
        else:
            hi = u
        # d/du log P = -/+ 2 t f(t) / P, with f the density of T
        slope = math.exp(math.log(2.0) + u - log_norm - (a + 0.5) * _softplus(r) - g - log_target)
        new = u + (g / slope if tail else -g / slope)
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if math.isfinite(lo + hi) else u + math.copysign(8.0, new - u)
        done = abs(new - u) <= 1e-15 * max(1.0, abs(u))
        u = new
        if done:
            break
    return math.exp(u)


@dataclass(frozen=True)
class TTestResult:
    t: float
    reject: bool
    critical: float
    mean: float
    se: float
    df: int
    infinite: bool = False


def mc_t_test(values: np.ndarray, hypothesized: float, alpha: float = 0.05) -> TTestResult:
    """Two-sided t test of the replicate mean against a hypothesized value.

    Zero replicate variance with a mean away from the hypothesis is reported
    as an infinite statistic with rejection flagged.
    """
    if not 0.0 < alpha < 1.0:
        raise InferenceError("alpha must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    r = values.size
    if r < 2:
        raise InferenceError("t test needs at least 2 replicate values")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    se = sd / math.sqrt(r)
    critical = _t_critical(r - 1, float(alpha))
    if se == 0.0:
        if mean == hypothesized:
            return TTestResult(0.0, False, critical, mean, 0.0, r - 1)
        return TTestResult(math.inf, True, critical, mean, 0.0, r - 1, infinite=True)
    t = (mean - hypothesized) / se
    return TTestResult(float(t), bool(abs(t) > critical), critical, mean, se, r - 1)
