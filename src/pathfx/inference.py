"""Resampling and analytic inference.

Bootstraps are deterministic given a seed: replicate ``r`` draws its
randomness from a Philox counter-based generator keyed on ``(seed, r)``, so
results are identical regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import stdtrit

from .core import Dataset, build_design_matrix
from .glm import score_contributions, score_and_information
from .nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    NuisanceFits,
    c1_mean_role,
    nested_mean_b_doubleprime,
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
    normals with the ziggurat method.  The key is a pure function of its
    arguments, which is what makes parallel replication deterministic.
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
        if not 0.0 < self.ci_level < 1.0:
            raise InferenceError("ci_level must lie in (0, 1)")


@dataclass
class IntervalEstimate:
    """A bootstrap interval; array fields for an array-valued statistic."""

    point: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray
    se: float | np.ndarray
    replicate_values: np.ndarray
    n_failed: int = 0


def _draw_wild_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.exponential(1.0, n)


def bootstrap(
    dataset: Dataset,
    statistic: Callable[[Dataset, np.ndarray | None], float | np.ndarray],
    spec: BootstrapSpec,
    *,
    threads: int = 1,
) -> IntervalEstimate:
    """Percentile bootstrap of ``statistic(dataset, weights)``.

    The statistic must refit everything it depends on: nonparametric
    replicates call it on row-resampled data, wild replicates on the original
    rows with one i.i.d. Exp(1) weight per row applied to every fit and every
    empirical mean.  It returns a scalar or an array; replicate values have
    shape ``(replicates,) + shape(point)``.  A replicate that raises or
    has any NaN component fails for every component; failures are tolerated
    up to 10%.
    """
    n = dataset.n
    point = np.asarray(statistic(dataset, None), dtype=float)

    def one(r: int) -> np.ndarray:
        rng = derived_rng(spec.seed, r)
        if spec.kind == "nonparametric":
            idx = rng.integers(0, n, size=n)
            return statistic(dataset.take(idx), None)
        w = _draw_wild_weights(rng, n)
        return statistic(dataset, w)

    values = np.full((spec.replicates,) + point.shape, np.nan)
    errors: list[str] = []

    def run(r: int):
        try:
            values[r] = one(r)
        except Exception as exc:  # noqa: BLE001 - replicate failures are data
            errors.append(f"replicate {r}: {exc}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(spec.replicates)))
    else:
        for r in range(spec.replicates):
            run(r)

    ok = values[~np.isnan(values.reshape(spec.replicates, -1)).any(axis=1)]
    n_failed = spec.replicates - ok.shape[0]
    if n_failed > 0.10 * spec.replicates:
        detail = "; ".join(errors[:5])
        raise InferenceError(
            f"{n_failed}/{spec.replicates} bootstrap replicates failed: {detail}"
        )
    alpha = 1.0 - spec.ci_level
    # Reduce along a contiguous last axis, so each component sums in the
    # same order as a scalar statistic's replicates would.
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
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# analytic variance of the nested-regression plug-in estimator


def _nested_model_roles(d1: int) -> list[str]:
    return [ROLE_OUTCOME, ROLE_MEDIATOR] + [c1_mean_role(j) for j in range(1, d1 + 1)]


def mle_sandwich_variance(dataset: Dataset, fits: NuisanceFits, *, fd_step: float = 1e-5) -> float:
    """Estimated variance of the nested-regression plug-in estimator.

    Combines the per-record nested prediction with the delta-method
    correction ``D' I^{-1} U`` for the estimated regression coefficients,
    where ``D`` is the mean gradient of the prediction in the stacked
    coefficients (central finite differences), ``U`` the per-record score
    vectors, and ``I`` the per-observation expected information, block
    diagonal across the three regressions.  Returns the variance of the
    estimator itself (the large-sample variance divided by n).
    """
    if fits.pathway != "linear":
        raise InferenceError("the analytic variance is defined for the linear pathway")
    roles = _nested_model_roles(dataset.d1)
    base_fits = {}
    for role in roles:
        fit = fits[role]
        if not fit.converged:
            raise InferenceError(f"{role}: fit did not converge")
        base_fits[role] = fit
    sizes = [base_fits[r].coef.shape[0] for r in roles]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    gamma_hat = np.concatenate([base_fits[r].coef for r in roles])

    def g(gamma: np.ndarray) -> np.ndarray:
        patched = dict(fits.fits)
        for k, role in enumerate(roles):
            coef = gamma[offsets[k] : offsets[k + 1]].copy()
            patched[role] = replace(base_fits[role], coef=coef)
        tmp = NuisanceFits(fits=patched, coding=fits.coding, pathway=fits.pathway, d1=fits.d1)
        return nested_mean_b_doubleprime(tmp, dataset)

    g_hat = g(gamma_hat)
    beta_hat = float(g_hat.mean())
    n = dataset.n

    total = gamma_hat.shape[0]
    D = np.empty(total)
    for k in range(total):
        h = fd_step * max(1.0, abs(gamma_hat[k]))
        up = gamma_hat.copy()
        up[k] += h
        down = gamma_hat.copy()
        down[k] -= h
        D[k] = float((g(up) - g(down)).mean() / (2.0 * h))

    correction = np.zeros(n)
    for k, role in enumerate(roles):
        fit = base_fits[role]
        X = build_design_matrix(dataset, fit.design)
        y = _response_for(role, dataset)
        resid = y - X @ fit.coef
        scale = max(float(np.mean(y**2)), 1.0)
        if float(np.mean(resid**2)) <= 1e-24 * scale:
            # exact fit: the block's coefficients carry no estimation noise
            continue
        U = score_contributions(fit, X, y)
        _, info = score_and_information(fit, X, y)
        info_per = info / n
        try:
            sol = np.linalg.solve(info_per, D[offsets[k] : offsets[k + 1]])
        except np.linalg.LinAlgError as exc:
            raise InferenceError(f"{role}: singular information block") from exc
        correction += U @ sol
    v = g_hat + correction - beta_hat
    return float(np.mean(v**2) / n)


# ---------------------------------------------------------------------------
# Monte Carlo t test


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
    values = np.asarray(values, dtype=float)
    r = values.size
    if r < 2:
        raise InferenceError("t test needs at least 2 replicate values")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    se = sd / math.sqrt(r)
    critical = float(stdtrit(r - 1, 1.0 - alpha / 2.0))
    if se == 0.0:
        if mean == hypothesized:
            return TTestResult(0.0, False, critical, mean, 0.0, r - 1)
        return TTestResult(math.inf, True, critical, mean, 0.0, r - 1, infinite=True)
    t = (mean - hypothesized) / se
    return TTestResult(float(t), bool(abs(t) > critical), critical, mean, se, r - 1)
