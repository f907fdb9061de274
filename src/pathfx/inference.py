"""Resampling and analytic inference.

Bootstraps are deterministic given a seed: replicate ``r`` draws its
randomness from a Philox counter-based generator keyed on ``(seed, r)``, so
results are identical regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import stdtrit

from .core import Dataset, Overrides, build_design_matrix
from .glm import Family
from .nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    NuisanceFits,
    c1_mean_role,
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
    errors: list[str] = field(default_factory=list)  # one per failed replicate, by index

    @property
    def n_failed(self) -> int:
        return len(self.errors)


def _draw_wild_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.exponential(1.0, n)


def bootstrap(
    dataset: Dataset,
    statistic: Callable[[Dataset, np.ndarray | None], float | np.ndarray],
    spec: BootstrapSpec,
    *,
    threads: int = 1,
    point: float | list[float] | np.ndarray | None = None,
) -> IntervalEstimate:
    """Percentile bootstrap of ``statistic(dataset, weights)``.

    The statistic must refit everything it depends on: nonparametric
    replicates call it on row-resampled data, wild replicates on the original
    rows with one i.i.d. Exp(1) weight per row applied to every fit and every
    empirical mean.  It returns a scalar or an array; replicate values have
    shape ``(replicates,) + shape(point)``.  A replicate that raises or
    has any NaN component fails for every component; failures are tolerated
    up to 10% and reported in ``errors``, one message per failed replicate
    in replicate order.  A caller already holding ``statistic(dataset,
    None)`` passes it as ``point`` to spare that evaluation.
    """
    n = dataset.n
    if point is None:
        point = statistic(dataset, None)
    point = np.asarray(point, dtype=float)

    def one(r: int) -> np.ndarray:
        rng = derived_rng(spec.seed, r)
        if spec.kind == "nonparametric":
            idx = rng.integers(0, n, size=n)
            return statistic(dataset.take(idx), None)
        w = _draw_wild_weights(rng, n)
        return statistic(dataset, w)

    values = np.full((spec.replicates,) + point.shape, np.nan)
    raised: dict[int, str] = {}

    def run(r: int):
        try:
            values[r] = one(r)
        except Exception as exc:  # noqa: BLE001 - replicate failures are data
            raised[r] = str(exc)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(spec.replicates)))
    else:
        for r in range(spec.replicates):
            run(r)

    failed = np.isnan(values.reshape(spec.replicates, -1)).any(axis=1)
    errors = [f"replicate {r}: {raised.get(r, 'NaN value')}" for r in np.flatnonzero(failed)]
    ok = values[~failed]
    if len(errors) > 0.10 * spec.replicates:
        detail = "; ".join(errors[:5])
        raise InferenceError(
            f"{len(errors)}/{spec.replicates} bootstrap replicates failed: {detail}"
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
    X_c1j(e=base) gamma_j`` (the floating-point steps of
    ``nested_mean_b_doubleprime``).  By the chain rule, per record:

    - outcome block: ``X_out(e=base, m=m_hat, c1=c_hat)``;
    - mediator block: ``db/dm * X_med(e=comp, c1=c_hat)``;
    - c1_j block: ``(db/dc1_j + db/dm * dm_hat/dc1_j) * X_c1j(e=base)``.

    The validated designs are linear in m and in every c1_j, so each partial
    derivative is exactly the change of a prediction under a unit offset,
    e.g. ``db/dm = X_out(m=m_hat+1) beta_out - b''``.  Blocks come back in
    ``_nested_model_roles`` order.  Each design is dropped once used, except
    the mediator's, which waits for ``db/dm``.
    """
    coding = fits.coding
    outcome, mediator = fits[ROLE_OUTCOME], fits[ROLE_MEDIATOR]
    c1_fits = [fits[c1_mean_role(j)] for j in range(1, fits.d1 + 1)]
    n = dataset.n

    def x_c1(fit):
        return build_design_matrix(dataset, fit.design, Overrides(e=coding.baseline_internal))

    def x_med(c1):
        return build_design_matrix(dataset, mediator.design, Overrides(e=coding.comparison_internal, c1=c1))

    def x_out(m, c1):
        return build_design_matrix(dataset, outcome.design, Overrides(e=coding.baseline_internal, m=m, c1=c1))

    c_hat = np.column_stack([x_c1(fit) @ fit.coef for fit in c1_fits])
    X_med = x_med(c_hat)
    m_hat = X_med @ mediator.coef
    X_out = x_out(m_hat, c_hat)
    g = X_out @ outcome.coef
    grads = [X_out.mean(axis=0)]
    del X_out
    db_dm = x_out(m_hat + 1.0, c_hat) @ outcome.coef - g
    grads.append(X_med.T @ db_dm / n)
    del X_med
    for j, fit in enumerate(c1_fits):
        c_up = c_hat.copy()
        c_up[:, j] += 1.0
        db_dc = x_out(m_hat, c_up) @ outcome.coef - g
        dm_dc = x_med(c_up) @ mediator.coef - m_hat
        grads.append(x_c1(fit).T @ (db_dc + db_dm * dm_dc) / n)
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
    Every nested fit must be identity-link gaussian.  Returns the variance of
    the estimator itself (the large-sample variance divided by n).
    """
    if fits.pathway != "linear":
        raise InferenceError("the analytic variance is defined for the linear pathway")
    roles = _nested_model_roles(dataset.d1)
    for role in roles:
        fit = fits[role]
        if not fit.converged:
            raise InferenceError(f"{role}: fit did not converge")
        if fit.family is not Family.GAUSSIAN:
            raise InferenceError(
                f"{role}: the analytic variance needs an identity-link gaussian fit, "
                f"not {fit.family.value}"
            )
    g_hat, grads = _nested_mean_and_gradient(dataset, fits)
    n = dataset.n
    v = g_hat - g_hat.mean()
    for role, D in zip(roles, grads):
        fit = fits[role]
        X = build_design_matrix(dataset, fit.design)
        resid = _response_for(role, dataset) - X @ fit.coef
        try:
            sol = np.linalg.solve(X.T @ X / n, D)
        except np.linalg.LinAlgError as exc:
            raise InferenceError(f"{role}: singular information block") from exc
        v += resid * (X @ sol)
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
