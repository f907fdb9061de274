"""Synthetic study: data generator, working-model regimes, and oracles.

The generating process is a linear structural system: a uniform baseline
covariate, a logistic treatment assignment, three jointly normal
post-treatment covariates, and normal mediator and outcome equations with a
treatment-by-mediator interaction.  The equations are written once, as
``_Truth``'s propensity and conditional means: ``draw_dataset`` draws each
block as its mean plus unit normals, and the closed forms, the oracles and
the truth components read the same means.  All draws come from Philox
counter-based generators keyed on ``(seed, replicate, variable-block)``;
normals use numpy's ziggurat.  Every truth quantity (target values, nested
means, density ratios, inverted propensity coefficients) is derived
symbolically from the equation constants rather than hard-coded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Dataset, DesignSpec, PairCoding, TreatmentPair
from .estimators import BETA_KINDS, Analysis, evaluate
from .glm import Family, _expit
from .inference import derived_rng, mc_t_test, _run_chunked
from .nuisance import (
    ROLE_MARGINAL,
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1,
    ROLE_PROP_C1_IN_M_RATIO,
    ROLE_PROP_M,
    ModelSpec,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
)

__all__ = [
    "REGIMES",
    "SimulationSpec",
    "SimulationError",
    "EstimatorSummary",
    "RegimeReport",
    "RegimeModels",
    "draw_dataset",
    "working_models_for",
    "run_monte_carlo",
    "OracleEstimate",
    "oracle_beta0_mc",
    "oracle_delta0_mc",
    "oracle_nested_mean_mc",
    "closed_form_beta0",
    "closed_form_delta0",
    "truth",
    "write_replicates_csv",
    "write_summary_csv",
]

REGIMES = ("int", "a", "b", "c")

# Structural equation constants.
C0_LOW, C0_HIGH = 0.0, 2.0
E_COEF = np.array([0.9, 0.3])  # logit of treatment on [1, c0]
C1_INTERCEPT = np.array([0.8, 0.6, -0.3])
C1_ON_C0 = np.array([1.0, 0.1, 0.2])
C1_ON_E = np.array([0.5, -0.4, 0.5])
C1_ON_C0E = np.array([-0.1, 0.8, -0.2])
M_INTERCEPT, M_ON_C0, M_ON_E = -0.5, -0.2, 0.3
M_ON_C1 = np.array([-0.2, 0.1, 0.5])
M_ON_EC1 = np.array([0.4, 0.0, 0.0])
Y_INTERCEPT, Y_ON_C0, Y_ON_E = 0.2, 0.2, 0.6
Y_ON_C1 = np.array([1.0, 0.7, 0.3])
Y_ON_M, Y_ON_EM = -0.9, -0.8

D1 = 3


class SimulationError(RuntimeError):
    """Raised when a study run cannot produce a usable report."""


def draw_dataset(n: int, seed: int, *, rep: int = 0) -> Dataset:
    """One synthetic dataset of size ``n``; deterministic in ``(seed, rep)``."""
    if n < 1:
        raise SimulationError("n must be at least 1")
    if seed < 0 or rep < 0:
        raise SimulationError(f"seed and rep must be non-negative integers, got seed={seed}, rep={rep}")
    c0 = derived_rng(seed, rep, 0).uniform(C0_LOW, C0_HIGH, n)
    e = (derived_rng(seed, rep, 1).random(n) < truth.propensity(c0)).astype(int)
    c1 = truth.c1_mean(c0, e) + derived_rng(seed, rep, 2).standard_normal((n, D1))
    m = truth.m_mean(c1, c0, e) + derived_rng(seed, rep, 3).standard_normal(n)
    y = truth.outcome_mean(m, c1, c0, e) + derived_rng(seed, rep, 4).standard_normal(n)
    return Dataset(c0=c0[:, None], e=e, c1=c1, m=m, y=y)


# ---------------------------------------------------------------------------
# truth functions, derived from the equation constants


class _Truth:
    """Population quantities of the generating process (all vectorized).

    The means are the structural equations ``draw_dataset`` draws from; they
    take the treatment ``e`` as a level (0 or 1) or as one value per record.
    """

    @staticmethod
    def _c0(c0):
        c0 = np.asarray(c0, dtype=float)
        return c0[:, 0] if c0.ndim == 2 else c0

    def propensity(self, c0) -> np.ndarray:
        """P(E = 1 | c0)."""
        return _expit(E_COEF[0] + E_COEF[1] * self._c0(c0))

    def c1_mean(self, c0, e) -> np.ndarray:
        c0 = self._c0(c0)
        return C1_INTERCEPT + np.outer(c0, C1_ON_C0) + np.outer(e, C1_ON_E) + np.outer(c0 * e, C1_ON_C0E)

    def m_mean(self, c1, c0, e) -> np.ndarray:
        c0 = self._c0(c0)
        c1 = np.asarray(c1, dtype=float)
        return M_INTERCEPT + M_ON_C0 * c0 + M_ON_E * e + c1 @ M_ON_C1 + e * (c1 @ M_ON_EC1)

    def outcome_mean(self, m, c1, c0, e) -> np.ndarray:
        c0 = self._c0(c0)
        c1 = np.asarray(c1, dtype=float)
        m = np.asarray(m, dtype=float)
        return Y_INTERCEPT + Y_ON_C0 * c0 + Y_ON_E * e + c1 @ Y_ON_C1 + Y_ON_M * m + Y_ON_EM * e * m

    def b(self, m, c1, c0) -> np.ndarray:
        return self.outcome_mean(m, c1, c0, 0)

    def b_prime(self, c1, c0) -> np.ndarray:
        return self.b(self.m_mean(c1, c0, 1), c1, c0)

    def b_doubleprime(self, c0) -> np.ndarray:
        c1_bar = self.c1_mean(c0, 0)
        return self.b_prime(c1_bar, c0)

    def marginal_outcome(self, c0, e) -> np.ndarray:
        """E(Y | e, c0) by linear composition through the intermediates."""
        c1_bar = self.c1_mean(c0, e)
        m_bar = self.m_mean(c1_bar, c0, e)
        return self.outcome_mean(m_bar, c1_bar, c0, e)

    def m_ratio(self, m, c1, c0) -> np.ndarray:
        """f(m | c1, e=1, c0) / f(m | c1, e=0, c0); both laws are unit normals."""
        m = np.asarray(m, dtype=float)
        mu0 = self.m_mean(c1, c0, 0)
        mu1 = self.m_mean(c1, c0, 1)
        return np.exp(0.5 * ((m - mu0) ** 2 - (m - mu1) ** 2))

    def c1_ratio(self, c1, c0) -> np.ndarray:
        """f(c1 | e=1, c0) / f(c1 | e=0, c0); identity-covariance normals."""
        c1 = np.asarray(c1, dtype=float)
        nu0 = self.c1_mean(c0, 0)
        nu1 = self.c1_mean(c0, 1)
        quad = ((c1 - nu0) ** 2 - (c1 - nu1) ** 2).sum(axis=1)
        return np.exp(0.5 * quad)

    # -- inverted propensity representations -------------------------------
    # Both follow from Bayes' rule applied to the normal intermediate laws,
    # so the logistic working designs below are exactly correct and their
    # population coefficients are available in closed form.

    def prop_c1_coef(self) -> np.ndarray:
        """Coefficients of logit P(E=1 | c1, c0) on the ``prop_c1`` design."""
        const = E_COEF[0]
        lin = E_COEF[1]
        quad = 0.0
        c1_coef = np.empty(D1)
        c0c1_coef = np.empty(D1)
        for j in range(D1):
            aj, bj, cj, dj = C1_INTERCEPT[j], C1_ON_C0[j], C1_ON_E[j], C1_ON_C0E[j]
            # (nu1 - nu0) = cj + dj c0; (nu1 + nu0)/2 = aj + cj/2 + (bj + dj/2) c0
            c1_coef[j] = cj
            c0c1_coef[j] = dj
            const -= cj * (aj + cj / 2.0)
            lin -= cj * (bj + dj / 2.0) + dj * (aj + cj / 2.0)
            quad -= dj * (bj + dj / 2.0)
        return np.concatenate([[const, lin, quad], c1_coef, c0c1_coef])

    def prop_m_coef(self) -> np.ndarray:
        """Coefficients of logit P(E=1 | m, c1, c0) on the ``prop_m`` design."""
        base = self.prop_c1_coef()
        const, lin, quad = base[0], base[1], base[2]
        c1_coef = base[3 : 3 + D1].copy()
        c0c1_coef = base[3 + D1 :].copy()
        # log f(m|c1,1,c0) - log f(m|c1,0,c0) = dmu * m - dmu * (mu0 + dmu/2)
        # with dmu = M_ON_E + M_ON_EC1 . c1 (only the first component enters).
        q = M_ON_EC1[0]
        mid_const = M_INTERCEPT + M_ON_E / 2.0
        mid_c0 = M_ON_C0
        mid_c1 = M_ON_C1 + M_ON_EC1 / 2.0
        m_coef = M_ON_E
        c11m_coef = q
        const -= M_ON_E * mid_const
        lin -= M_ON_E * mid_c0
        c1_coef -= M_ON_E * mid_c1
        c1_coef[0] -= q * mid_const
        c0c1_coef[0] -= q * mid_c0
        c11sq_coef = -q * mid_c1[0]
        c11c12_coef = -q * mid_c1[1]
        c11c13_coef = -q * mid_c1[2]
        return np.concatenate(
            [
                [const, lin, quad],
                c1_coef,
                c0c1_coef,
                [c11sq_coef, c11c12_coef, c11c13_coef, m_coef, c11m_coef],
            ]
        )


truth = _Truth()


def closed_form_beta0() -> float:
    """Target mean by linear composition; the baseline covariate has mean 1."""
    return float(truth.b_doubleprime(np.array([1.0]))[0])


def closed_form_delta0() -> float:
    return float(truth.marginal_outcome(np.array([1.0]), 0)[0])


# ---------------------------------------------------------------------------
# counterfactual Monte Carlo oracles

_CHUNK = 1_000_000


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    se: float

    def __float__(self) -> float:
        return self.value


def oracle_nested_mean_mc(
    n_draws: int,
    seed: int,
    *,
    mediator_level: int,
    stream: int = 0,
) -> OracleEstimate:
    """Simulate the nested counterfactual mean directly from the equations.

    Post-treatment covariates follow the baseline level (0); the mediator
    draws from its equation at ``mediator_level`` given those covariates;
    the outcome equation runs at the baseline level with that mediator.
    """
    if n_draws < 1:
        raise SimulationError("n_draws must be at least 1")
    if seed < 0 or stream < 0:
        raise SimulationError(f"seed and stream must be non-negative integers, got seed={seed}, stream={stream}")
    if mediator_level not in (0, 1):
        raise SimulationError(f"mediator_level must be 0 or 1, got {mediator_level!r}")
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < n_draws:
        size = min(_CHUNK, n_draws - done)
        rng = derived_rng(seed, stream, chunk_index)
        c0 = rng.uniform(C0_LOW, C0_HIGH, size)
        c1 = truth.c1_mean(c0, 0) + rng.standard_normal((size, D1))
        m = truth.m_mean(c1, c0, mediator_level) + rng.standard_normal(size)
        y = truth.outcome_mean(m, c1, c0, 0) + rng.standard_normal(size)
        total += float(y.sum())
        total_sq += float((y**2).sum())
        done += size
        chunk_index += 1
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0)
    return OracleEstimate(value=mean, se=math.sqrt(var / n_draws))


def oracle_beta0_mc(n_draws: int, seed: int) -> OracleEstimate:
    return oracle_nested_mean_mc(n_draws, seed, mediator_level=1, stream=0)


def oracle_delta0_mc(n_draws: int, seed: int) -> OracleEstimate:
    return oracle_nested_mean_mc(n_draws, seed, mediator_level=0, stream=1)


# ---------------------------------------------------------------------------
# working-model regimes


def _spec(family: Family, text: str) -> ModelSpec:
    return ModelSpec(family=family, design=DesignSpec.parse(text))


_GAUSS = Family.GAUSSIAN
_LOGIT = Family.LOGIT
_PROBIT = Family.PROBIT

OUTCOME_CORRECT = "1, c0_1, e, c1_1, c1_2, c1_3, m, e*m"
OUTCOME_WRONG = "1, c0_1, e, c1_1, c1_2, c1_3, m"
MEDIATOR_CORRECT = "1, c0_1, e, c1_1, c1_2, c1_3, e*c1_1"
MEDIATOR_WRONG = "1, c0_1, e, c1_1, c1_2, c1_3"
C1_MEAN_CORRECT = "1, c0_1, e, c0_1*e"
C1_MEAN_WRONG = "1, c0_1, e"
PROP_BASE_DESIGN = "1, c0_1"
PROP_C1_CORRECT = "1, c0_1, c0_1^2, c1_1, c1_2, c1_3, c0_1*c1_1, c0_1*c1_2, c0_1*c1_3"
PROP_C1_WRONG = "1, c0_1, c1_1, c1_2, c1_3"
PROP_M_CORRECT = (
    "1, c0_1, c0_1^2, c1_1, c1_2, c1_3, c0_1*c1_1, c0_1*c1_2, c0_1*c1_3, "
    "c1_1^2, c1_1*c1_2, c1_1*c1_3, m, c1_1*m"
)
PROP_M_WRONG = "1, c0_1, c1_1, c1_2, c1_3, m"
MARGINAL_DESIGN = "1, c0_1, e, c0_1*e"


@dataclass(frozen=True)
class RegimeModels:
    regime: str
    working_set: WorkingModelSet


def working_models_for(regime: str, *, include_marginal: bool = False) -> RegimeModels:
    """Role-keyed model specifications for a misspecification regime.

    Each regime deliberately breaks the models a given robustness statement
    does not protect.  Two ratio-internal slots keep the ratio definitions
    honest: under regime ``a`` the covariate propensity inside the mediator
    ratio stays correct while the one inside the covariate ratio is wrong,
    and under regime ``c`` the base propensity inside the covariate ratio
    stays the correct logistic while the standalone one is a probit.
    Regime ``int`` specifies every model correctly; ``a`` breaks the
    outcome, the ``c1_j`` means and ``prop_c1``, ``b`` the mediator mean
    and ``prop_m``, and ``c`` ``prop_base``.
    """
    regime = regime.lower()
    if regime not in REGIMES:
        raise SimulationError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    models: dict[str, ModelSpec] = {}
    models[ROLE_OUTCOME] = _spec(_GAUSS, OUTCOME_CORRECT)
    models[ROLE_MEDIATOR] = _spec(_GAUSS, MEDIATOR_CORRECT)
    for j in range(1, D1 + 1):
        models[c1_mean_role(j)] = _spec(_GAUSS, C1_MEAN_CORRECT)
    models[ROLE_PROP_BASE] = _spec(_LOGIT, PROP_BASE_DESIGN)
    models[ROLE_PROP_C1] = _spec(_LOGIT, PROP_C1_CORRECT)
    models[ROLE_PROP_M] = _spec(_LOGIT, PROP_M_CORRECT)

    if regime == "a":
        models[ROLE_OUTCOME] = _spec(_GAUSS, OUTCOME_WRONG)
        for j in range(1, D1 + 1):
            models[c1_mean_role(j)] = _spec(_GAUSS, C1_MEAN_WRONG)
        models[ROLE_PROP_C1] = _spec(_LOGIT, PROP_C1_WRONG)
        models[ROLE_PROP_C1_IN_M_RATIO] = _spec(_LOGIT, PROP_C1_CORRECT)
    elif regime == "b":
        models[ROLE_MEDIATOR] = _spec(_GAUSS, MEDIATOR_WRONG)
        models[ROLE_PROP_M] = _spec(_LOGIT, PROP_M_WRONG)
    elif regime == "c":
        # The standalone treatment propensity is made wrong through its link:
        # the index is still estimated by logistic ML, but predictions map
        # through the normal CDF.  A probit refitted on its own likelihood
        # would be observationally indistinguishable from the logistic here
        # (the fitted probabilities differ by ~1e-3), which would make this
        # regime's weights effectively correct.
        models[ROLE_PROP_BASE] = ModelSpec(
            family=_LOGIT, design=DesignSpec.parse(PROP_BASE_DESIGN), predict_family=_PROBIT
        )
        models[ROLE_PROP_BASE_IN_C1_RATIO] = _spec(_LOGIT, PROP_BASE_DESIGN)
    if include_marginal:
        models[ROLE_MARGINAL] = _spec(_GAUSS, MARGINAL_DESIGN)
    return RegimeModels(regime=regime, working_set=WorkingModelSet(models))


# ---------------------------------------------------------------------------
# Monte Carlo runner


@dataclass(frozen=True)
class SimulationSpec:
    regime: str
    n: int = 1000
    replications: int = 1000
    seed: int = 0
    alpha: float = 0.05


@dataclass(frozen=True)
class EstimatorSummary:
    kind: str
    mc_mean: float
    mc_se: float
    ci_lower: float
    ci_upper: float
    t: float
    reject: bool
    n_ok: int


@dataclass
class RegimeReport:
    regime: str
    n: int
    replications: int
    seed: int
    alpha: float
    hypothesized: float
    summaries: list[EstimatorSummary]
    values: dict[str, np.ndarray]
    errors: list[str]  # "replicate r: reason" per tolerated failure, r 1-based, in replicate order

    @property
    def n_failed(self) -> int:
        return len(self.errors)


def run_monte_carlo(
    spec: SimulationSpec,
    *,
    estimators: tuple[str, ...] = ("mle", "a", "b", "mr"),
    stabilize: StabilizeFlags = StabilizeFlags(),
) -> RegimeReport:
    """Replicate the study: draw, fit the regime's models, estimate, test.

    Replicates run in chunks of ``max(1, CHUNK_ELEMENTS // (2 n))``, 16 at
    n = 1,000 (see ``inference._run_chunked``; a replicate's dataset and
    designs count twice its weights): a chunk's datasets, each drawn as
    ``draw_dataset(n, seed, rep=r + 1)``, are stacked on a leading
    replicate axis, and one ``evaluate`` call serves the whole chunk, a failed
    replicate NaN as it says.  Every fit and product of a stacked replicate
    is the same BLAS call as on its dataset alone, so a replicate's values
    depend on the seed and its index only, not on the replicate count or
    its chunk-mates.  Per-replicate failures are tolerated up to 1% of the
    runs; failed replicates are dropped from the summaries, and the
    report's ``errors`` gives each one's reason.  The failure an error
    quotes first is the lowest-numbered one.

    The study runs unstabilized by default, as ``Analysis`` does: the
    propensities here are bounded well away from 0/1, and the logit shift
    visibly perturbs the weighted estimators' small-sample centering (and
    absorbs most of regime c's deliberate link misspecification).
    """
    models = working_models_for(spec.regime)
    coding = PairCoding(pair=TreatmentPair(1, 0))
    kinds = tuple(estimators)
    if spec.n < 1:
        raise SimulationError(f"n must be at least 1, got {spec.n}")
    if spec.replications < 2:
        raise SimulationError(f"replications must be at least 2, got {spec.replications}")
    if spec.seed < 0:
        raise SimulationError(f"seed must be a non-negative integer, got {spec.seed}")
    if not kinds:
        raise SimulationError("no estimator requested")
    for kind in kinds:
        if kind not in BETA_KINDS:
            raise SimulationError(f"unknown estimator kind {kind!r}")
        if kinds.count(kind) > 1:
            raise SimulationError(f"estimator kind {kind!r} requested twice")
    analysis = Analysis(models.working_set, tuple((kind, None) for kind in kinds), stabilize=stabilize)

    def chunk(lo: int, hi: int):
        drawn = [draw_dataset(spec.n, spec.seed, rep=r + 1) for r in range(lo, hi)]
        ds = Dataset(**{f.name: np.stack([getattr(d, f.name) for d in drawn]) for f in fields(Dataset)})
        del drawn
        evaluation = evaluate(ds, analysis, coding)
        return evaluation.beta, evaluation.comp.failures

    table = np.full((spec.replications, len(kinds)), np.nan)  # replicate x estimator
    failures = _run_chunked(spec.replications, 2 * spec.n, chunk, table)
    values = dict(zip(kinds, np.ascontiguousarray(table.T)))

    errors = [f"replicate {r + 1}: {reason}" for r, reason in failures.items()]
    if len(errors) > 0.01 * spec.replications:
        raise SimulationError(f"{len(errors)}/{spec.replications} replicates failed; first: {errors[0]}")

    hypothesized = closed_form_beta0()
    summaries = []
    for k in kinds:
        ok = values[k][~np.isnan(values[k])]
        test = mc_t_test(ok, hypothesized, spec.alpha)
        summaries.append(
            EstimatorSummary(
                kind=k,
                mc_mean=test.mean,
                mc_se=test.se,
                ci_lower=test.mean - test.critical * test.se,
                ci_upper=test.mean + test.critical * test.se,
                t=test.t,
                reject=test.reject,
                n_ok=ok.size,
            )
        )
    return RegimeReport(
        regime=spec.regime,
        n=spec.n,
        replications=spec.replications,
        seed=spec.seed,
        alpha=spec.alpha,
        hypothesized=hypothesized,
        summaries=summaries,
        values=values,
        errors=errors,
    )


def write_replicates_csv(report: RegimeReport, path) -> None:
    """One row per (replicate, estimator): ``regime, rep, estimator, value``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "rep", "estimator", "value"])
        for kind, vals in report.values.items():
            for r, v in enumerate(vals, start=1):
                writer.writerow([report.regime, r, kind, "" if np.isnan(v) else "%.17g" % v])


def write_summary_csv(report: RegimeReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "regime", "estimator", "n", "replications", "alpha", "hypothesized",
                "mc_mean", "mc_se", "ci_lower", "ci_upper", "t", "reject", "n_ok",
            ]
        )
        for s in report.summaries:
            writer.writerow(
                [
                    report.regime, s.kind, report.n, report.replications, report.alpha,
                    "%.17g" % report.hypothesized, "%.17g" % s.mc_mean, "%.17g" % s.mc_se,
                    "%.17g" % s.ci_lower, "%.17g" % s.ci_upper, "%.17g" % s.t,
                    int(s.reject), s.n_ok,
                ]
            )
