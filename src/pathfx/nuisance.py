"""Working models and the derived per-record nuisance quantities.

Covers fitting the full model set (outcome regression, mediator mean,
post-treatment covariate means, three treatment-propensity models), the
Bayes-rule density ratios for the mediator and the post-treatment
covariates, logit-shift propensity stabilization, and the nested outcome
means used by every estimator.

Two computation pathways are supported.  The ``linear`` pathway evaluates
nested means by plugging conditional means into a mean model that is
structurally linear in the mediator and the post-treatment covariates.  The
``discrete`` pathway requires those variables to be binary and sums over
their support, treating the post-treatment components as conditionally
independent given treatment and baseline covariates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import expit, logit

from .core import (
    Dataset,
    DesignSpec,
    Overrides,
    PairCoding,
    TreatmentPair,
    build_design_matrix,
    wmean,
)
from .glm import Family, FittedGlm, GlmError, fit_glm, predict_mean

__all__ = [
    "ROLE_OUTCOME",
    "ROLE_MEDIATOR",
    "ROLE_PROP_BASE",
    "ROLE_PROP_C1",
    "ROLE_PROP_M",
    "ROLE_MARGINAL",
    "ROLE_PROP_BASE_IN_C1_RATIO",
    "ROLE_PROP_C1_IN_M_RATIO",
    "c1_mean_role",
    "ModelSpec",
    "WorkingModelSet",
    "NuisanceError",
    "PositivityError",
    "NuisanceFits",
    "StabilizeFlags",
    "fit_nuisances",
    "stabilize_probabilities",
    "m_ratio",
    "c1_ratio",
    "nested_mean_b",
    "nested_mean_b_prime",
    "nested_mean_b_doubleprime",
    "NuisanceComponents",
    "NuisanceFunctions",
    "compute_components",
    "components_from_functions",
    "DEFAULT_CLIP",
]

ROLE_OUTCOME = "outcome"
ROLE_MEDIATOR = "mediator_mean"
ROLE_PROP_BASE = "prop_base"
ROLE_PROP_C1 = "prop_c1"
ROLE_PROP_M = "prop_m"
ROLE_MARGINAL = "marginal_outcome"
# Optional ratio-internal overrides.  A configuration may resolve the base
# propensity inside the C1 ratio, or the (C1, C0) propensity inside the M
# ratio, to a different model than the standalone role of the same kind.
ROLE_PROP_BASE_IN_C1_RATIO = "prop_base_in_c1_ratio"
ROLE_PROP_C1_IN_M_RATIO = "prop_c1_in_m_ratio"

DEFAULT_CLIP = (1e-6, 1.0 - 1e-6)

_PROP_ROLES = (
    ROLE_PROP_BASE,
    ROLE_PROP_C1,
    ROLE_PROP_M,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1_IN_M_RATIO,
)


def c1_mean_role(j: int) -> str:
    """Role key of the mean model for the j-th post-treatment component (1-based)."""
    return f"c1_mean_{j}"


class NuisanceError(RuntimeError):
    """A working-model failure, tagged with the role it came from."""


class PositivityError(NuisanceError):
    def __init__(self, role: str, index: int, value: float):
        super().__init__(
            f"{role}: fitted probability {value} at record {index} is degenerate; "
            "positivity is violated (enable clipping to proceed)"
        )
        self.role = role
        self.index = index


@dataclass(frozen=True)
class ModelSpec:
    """A working model: family, regressors, and an optional link swap.

    ``predict_family`` deliberately mis-specifies a model by fitting the
    linear index under ``family`` but mapping predictions through a different
    inverse link.  This is how a propensity model can be made wrong in a way
    that survives refitting (a freely refitted probit on the same index is
    observationally almost identical to the logistic it replaces).
    """

    family: Family
    design: DesignSpec
    predict_family: Family | None = None


@dataclass(frozen=True)
class WorkingModelSet:
    """Role-keyed model specifications for one estimation run."""

    models: Mapping[str, ModelSpec]

    def __getitem__(self, role: str) -> ModelSpec:
        return self.models[role]

    def __contains__(self, role: str) -> bool:
        return role in self.models

    def roles(self) -> tuple[str, ...]:
        return tuple(self.models)

    def validate(self, d0: int, d1: int, pathway: str, *, need_marginal: bool = False) -> None:
        required = [ROLE_OUTCOME, ROLE_MEDIATOR, ROLE_PROP_BASE, ROLE_PROP_C1, ROLE_PROP_M]
        required += [c1_mean_role(j) for j in range(1, d1 + 1)]
        if need_marginal:
            required.append(ROLE_MARGINAL)
        for role in required:
            if role not in self.models:
                raise NuisanceError(f"{role}: no model specified")
        for role in self.models:
            if role.startswith("c1_mean_") and int(role.rsplit("_", 1)[1]) > d1:
                raise NuisanceError(f"{role}: exceeds declared c1 dimension {d1}")
        for role, spec in self.models.items():
            try:
                spec.design.validate_dims(d0, d1)
            except Exception as exc:
                raise NuisanceError(f"{role}: {exc}") from exc
            if role in _PROP_ROLES:
                if not spec.family.is_binomial:
                    raise NuisanceError(f"{role}: propensity models must be binomial")
                if "e" in spec.design.refs():
                    raise NuisanceError(f"{role}: treatment cannot appear in its own propensity design")
            if role == ROLE_PROP_BASE or role == ROLE_PROP_BASE_IN_C1_RATIO:
                bad = [r for r in spec.design.refs() if r.startswith("c1_") or r == "m"]
                if bad:
                    raise NuisanceError(f"{role}: design may only use baseline covariates, found {bad}")
            if role == ROLE_PROP_C1 or role == ROLE_PROP_C1_IN_M_RATIO:
                if "m" in spec.design.refs():
                    raise NuisanceError(f"{role}: design may not reference the mediator")
        if pathway == "linear":
            self._validate_linear()
        elif pathway == "discrete":
            for role in (ROLE_MEDIATOR, *[c1_mean_role(j) for j in range(1, d1 + 1)]):
                if not self.models[role].family.is_binomial:
                    raise NuisanceError(f"{role}: discrete pathway requires a binomial model")
        else:
            raise NuisanceError(f"unknown pathway {pathway!r}")

    def _validate_linear(self) -> None:
        outcome = self.models[ROLE_OUTCOME]
        mediator = self.models[ROLE_MEDIATOR]
        for role, spec in ((ROLE_OUTCOME, outcome), (ROLE_MEDIATOR, mediator)):
            if spec.family is not Family.GAUSSIAN:
                raise NuisanceError(f"{role}: linear pathway requires a gaussian mean model")
        _require_linear_in(ROLE_OUTCOME, outcome.design, "m")
        _require_linear_in(ROLE_OUTCOME, outcome.design, "c1_")
        _require_linear_in(ROLE_MEDIATOR, mediator.design, "c1_")
        for role, spec in self.models.items():
            if role.startswith("c1_mean_") and spec.family is not Family.GAUSSIAN:
                raise NuisanceError(f"{role}: linear pathway requires a gaussian mean model")


def _require_linear_in(role: str, design: DesignSpec, prefix: str) -> None:
    """Structural linearity: the named columns may interact only with treatment."""
    for term in design.terms:
        hits = [r for r in term.refs if r.startswith(prefix)]
        if not hits:
            continue
        if term.kind == "covariate":
            continue
        if term.kind == "product" and len(hits) == 1 and "e" in term.refs:
            continue
        raise NuisanceError(
            f"{role}: term {term.label!r} breaks linearity in {prefix.rstrip('_')} "
            "required by the linear pathway"
        )


@dataclass(frozen=True)
class NuisanceFits:
    """The full set of fitted working models for one pair-coded dataset."""

    fits: Mapping[str, FittedGlm]
    coding: PairCoding
    pathway: str
    d1: int

    def __getitem__(self, role: str) -> FittedGlm:
        try:
            return self.fits[role]
        except KeyError:
            raise NuisanceError(f"{role}: model was not fitted") from None

    def __contains__(self, role: str) -> bool:
        return role in self.fits

    def m_ratio_roles(self) -> tuple[str, str]:
        """Numerator and denominator propensity roles of the mediator ratio."""
        den = ROLE_PROP_C1_IN_M_RATIO if ROLE_PROP_C1_IN_M_RATIO in self.fits else ROLE_PROP_C1
        return ROLE_PROP_M, den

    def c1_ratio_roles(self) -> tuple[str, str]:
        """Numerator and denominator propensity roles of the post-treatment ratio."""
        den = ROLE_PROP_BASE_IN_C1_RATIO if ROLE_PROP_BASE_IN_C1_RATIO in self.fits else ROLE_PROP_BASE
        return ROLE_PROP_C1, den


def _response_for(role: str, dataset: Dataset) -> np.ndarray:
    if role in (ROLE_OUTCOME, ROLE_MARGINAL):
        return dataset.y
    if role == ROLE_MEDIATOR:
        return dataset.m
    if role.startswith("c1_mean_"):
        j = int(role.rsplit("_", 1)[1])
        return dataset.c1[:, j - 1]
    if role in _PROP_ROLES:
        return dataset.e.astype(float)
    raise NuisanceError(f"{role}: unknown model role")


def fit_nuisances(
    dataset: Dataset,
    working_set: WorkingModelSet,
    coding: PairCoding | None = None,
    weights: np.ndarray | None = None,
    *,
    pathway: str = "linear",
) -> NuisanceFits:
    """Fit every declared working model on a pair-coded dataset.

    Propensity responses are the comparison-arm indicator.  In identity-check
    mode propensity roles are skipped (the arm indicator is degenerate) and
    treatment terms are folded out of the mean-model designs.
    """
    if coding is None:
        coding = PairCoding(pair=TreatmentPair(1, 0))
    working_set.validate(dataset.d0, dataset.d1, pathway)
    if pathway == "discrete":
        if not set(np.unique(dataset.m)) <= {0.0, 1.0}:
            raise NuisanceError("mediator_mean: discrete pathway requires a binary mediator")
        if not set(np.unique(dataset.c1)) <= {0.0, 1.0}:
            raise NuisanceError("c1_mean: discrete pathway requires binary post-treatment components")
    fits: dict[str, FittedGlm] = {}
    for role in working_set.roles():
        spec = working_set[role]
        if coding.is_identity and role in _PROP_ROLES:
            continue
        design = spec.design
        if coding.is_identity and "e" in design.refs():
            design = design.reduce_at_e(coding.comparison_internal)
        try:
            X = build_design_matrix(dataset, design)
            y = _response_for(role, dataset)
            fits[role] = fit_role(X, y, spec, weights, design=design)
        except GlmError as exc:
            raise NuisanceError(f"{role}: {exc}") from exc
    return NuisanceFits(fits=fits, coding=coding, pathway=pathway, d1=dataset.d1)


def fit_role(X, y, spec: ModelSpec, weights=None, *, design=None) -> FittedGlm:
    """Fit one working model, honoring a deliberate link swap for prediction."""
    fit = fit_glm(X, y, spec.family, weights, design=design if design is not None else spec.design)
    if spec.predict_family is not None and spec.predict_family is not spec.family:
        fit = replace(fit, family=spec.predict_family)
    return fit


# ---------------------------------------------------------------------------
# propensity handling


def _prob_of_level(p_comparison: np.ndarray, level: int) -> np.ndarray:
    return p_comparison if level == 1 else 1.0 - p_comparison


def _clip_probs(p: np.ndarray, clip: tuple[float, float] | None, role: str) -> tuple[np.ndarray, int]:
    if clip is None:
        bad = np.flatnonzero((p <= 0.0) | (p >= 1.0))
        if bad.size:
            i = int(bad[0])
            raise PositivityError(role, i, float(p[i]))
        return p, 0
    lo, hi = clip
    n_clipped = int(np.count_nonzero((p < lo) | (p > hi)))
    return np.clip(p, lo, hi), n_clipped


def stabilize_probabilities(
    p_level: np.ndarray,
    ind_level: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Logit-shift a probability array so its inverse-probability weights are bounded.

    ``p_level`` holds fitted probabilities of a designated treatment level and
    ``ind_level`` the indicator of that level.  The shifted probabilities
    satisfy ``mean(ind_level * (1 - p') / p') == 1 - mean(ind_level)``, an
    algebraic identity of the shift; as a consequence the weights
    ``ind_level / p'`` average to exactly 1.
    """
    p_level = np.asarray(p_level, dtype=float)
    ind_level = np.asarray(ind_level, dtype=float)
    if np.any((p_level <= 0.0) | (p_level >= 1.0)):
        raise NuisanceError("stabilization requires probabilities strictly inside (0, 1)")
    share = wmean(ind_level, weights)
    if share <= 0.0 or share >= 1.0:
        raise NuisanceError(
            f"stabilization is degenerate: the designated level has empirical share {share}"
        )
    odds_sum = wmean(ind_level * (1.0 - p_level) / p_level, weights)
    shift = -math.log(1.0 - share) + math.log(odds_sum)
    return expit(logit(p_level) + shift)


@dataclass(frozen=True)
class StabilizeFlags:
    """Which propensity roles receive the logit-shift stabilization.

    Every enabled model is stabilized once, at the comparison level; the
    baseline-level probability is its complement.  Ratios are then formed
    from the stabilized probabilities.
    """

    base: bool = False
    m_ratio: bool = True
    c1_ratio: bool = True

    @classmethod
    def all_on(cls) -> "StabilizeFlags":
        return cls(base=True, m_ratio=True, c1_ratio=True)

    @classmethod
    def all_off(cls) -> "StabilizeFlags":
        return cls(base=False, m_ratio=False, c1_ratio=False)


def _propensity_probs(
    fits: NuisanceFits,
    dataset: Dataset,
    roles: Iterable[str],
    clip: tuple[float, float] | None,
    clip_counts: dict | None = None,
) -> dict[str, np.ndarray]:
    """Clipped comparison-level probabilities of each named propensity model.

    Each role is predicted once; its clip count is filed under that role.
    """
    probs = {}
    for role in dict.fromkeys(roles):
        fit = fits[role]
        p = np.asarray(predict_mean(fit, build_design_matrix(dataset, fit.design)), dtype=float)
        probs[role], n_clipped = _clip_probs(p, clip, role)
        if clip_counts is not None and n_clipped:
            clip_counts[role] = n_clipped
    return probs


def _stabilize_comparison(
    p: np.ndarray,
    coding: PairCoding,
    e: np.ndarray,
    weights: np.ndarray | None,
) -> np.ndarray:
    """Stabilize a comparison-level probability array at the comparison level."""
    level = coding.comparison_internal
    ind = (e == level).astype(float)
    return _prob_of_level(
        stabilize_probabilities(_prob_of_level(p, level), ind, weights), level
    )


def _ratio(
    probs: Mapping[str, np.ndarray],
    roles: tuple[str, str],
    coding: PairCoding,
    e: np.ndarray,
    stabilize: bool,
    weights: np.ndarray | None,
) -> np.ndarray:
    """(numerator-model odds of comparison vs baseline) x (denominator-model inverse odds)."""
    p_num, p_den = probs[roles[0]], probs[roles[1]]
    if stabilize and not coding.is_identity:
        p_num = _stabilize_comparison(p_num, coding, e, weights)
        p_den = _stabilize_comparison(p_den, coding, e, weights)
    icomp, ibase = coding.comparison_internal, coding.baseline_internal
    return (
        _prob_of_level(p_num, icomp)
        / _prob_of_level(p_num, ibase)
        * _prob_of_level(p_den, ibase)
        / _prob_of_level(p_den, icomp)
    )


def m_ratio(
    fits: NuisanceFits,
    dataset: Dataset,
    *,
    stabilize: bool = False,
    clip: tuple[float, float] | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-record mediator density ratio between the comparison and baseline arms.

    Computed through Bayes' rule from the propensity given (M, C1, C0) and the
    propensity given (C1, C0); strictly positive on valid inputs.
    """
    roles = fits.m_ratio_roles()
    probs = _propensity_probs(fits, dataset, roles, clip)
    return _ratio(probs, roles, fits.coding, dataset.e, stabilize, weights)


def c1_ratio(
    fits: NuisanceFits,
    dataset: Dataset,
    *,
    stabilize: bool = False,
    clip: tuple[float, float] | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-record post-treatment covariate density ratio (comparison over baseline)."""
    roles = fits.c1_ratio_roles()
    probs = _propensity_probs(fits, dataset, roles, clip)
    return _ratio(probs, roles, fits.coding, dataset.e, stabilize, weights)


# ---------------------------------------------------------------------------
# nested outcome means


def _predict(fit: FittedGlm, dataset: Dataset, overrides: Overrides) -> np.ndarray:
    return np.asarray(predict_mean(fit, build_design_matrix(dataset, fit.design, overrides)))


def nested_mean_b(fits: NuisanceFits, dataset: Dataset) -> np.ndarray:
    """Outcome regression evaluated at the record with treatment set to baseline."""
    e_base = fits.coding.baseline_internal
    return _predict(fits[ROLE_OUTCOME], dataset, Overrides(e=e_base))


def _mediator_mixture(fits: NuisanceFits, dataset: Dataset, c1_override) -> np.ndarray:
    """Mediator-averaged outcome regression at a (possibly overridden) C1."""
    coding = fits.coding
    outcome = fits[ROLE_OUTCOME]
    mediator = fits[ROLE_MEDIATOR]
    if fits.pathway == "linear":
        m_hat = _predict(mediator, dataset, Overrides(e=coding.comparison_internal, c1=c1_override))
        return _predict(outcome, dataset, Overrides(e=coding.baseline_internal, m=m_hat, c1=c1_override))
    p_m1 = _predict(mediator, dataset, Overrides(e=coding.comparison_internal, c1=c1_override))
    b_at = lambda mv: _predict(
        outcome, dataset, Overrides(e=coding.baseline_internal, m=mv, c1=c1_override)
    )
    return b_at(0.0) * (1.0 - p_m1) + b_at(1.0) * p_m1


def nested_mean_b_prime(fits: NuisanceFits, dataset: Dataset) -> np.ndarray:
    """Outcome regression averaged over the mediator's comparison-arm law."""
    return _mediator_mixture(fits, dataset, None)


def _c1_means(fits: NuisanceFits, dataset: Dataset) -> np.ndarray:
    cols = [
        _predict(fits[c1_mean_role(j)], dataset, Overrides(e=fits.coding.baseline_internal))
        for j in range(1, fits.d1 + 1)
    ]
    return np.column_stack(cols)


def nested_mean_b_doubleprime(fits: NuisanceFits, dataset: Dataset) -> np.ndarray:
    """Nested mean further averaged over the baseline-arm post-treatment law."""
    if fits.pathway == "linear":
        return _mediator_mixture(fits, dataset, _c1_means(fits, dataset))
    probs = _c1_means(fits, dataset)  # per-component P(C1_j = 1 | baseline, C0)
    total = np.zeros(dataset.n)
    for support in itertools.product((0.0, 1.0), repeat=fits.d1):
        point = np.asarray(support)
        weight = np.prod(np.where(point == 1.0, probs, 1.0 - probs), axis=1)
        total += weight * _mediator_mixture(fits, dataset, point)
    return total


# ---------------------------------------------------------------------------
# per-record component bundle consumed by the estimators


@dataclass(frozen=True)
class NuisanceComponents:
    """Everything the estimators need, one value per record."""

    ind_comparison: np.ndarray
    ind_baseline: np.ndarray
    p_baseline: np.ndarray  # P(E = baseline | C0) for baseline-arm weights
    p_comparison: np.ndarray  # P(E = comparison | C0) for comparison-arm weights
    m_ratio: np.ndarray
    c1_ratio: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    b_doubleprime: np.ndarray
    y0_marginal: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def compute_components(
    dataset: Dataset,
    fits: NuisanceFits,
    *,
    stabilize: StabilizeFlags | None = None,
    clip: tuple[float, float] | None = DEFAULT_CLIP,
    weights: np.ndarray | None = None,
) -> NuisanceComponents:
    """Evaluate ratios, propensities, and nested means for every record."""
    coding = fits.coding
    stabilize = stabilize or StabilizeFlags.all_off()
    diagnostics: dict = {"clip_counts": {}}
    e = dataset.e
    ind_comp = coding.ind_comparison(e)
    ind_base = coding.ind_baseline(e)

    # Identity-check mode fits no propensity models; its weights are all one.
    roles = [ROLE_PROP_BASE] if ROLE_PROP_BASE in fits or not coding.is_identity else []
    with_ratios = ROLE_PROP_M in fits or not coding.is_identity
    if with_ratios:
        roles += [*fits.m_ratio_roles(), *fits.c1_ratio_roles()]
    probs = _propensity_probs(fits, dataset, roles, clip, diagnostics["clip_counts"])

    if ROLE_PROP_BASE in probs:
        p_base_raw = probs[ROLE_PROP_BASE]
        if stabilize.base and not coding.is_identity:
            p_base_raw = _stabilize_comparison(p_base_raw, coding, dataset.e, weights)
        p_baseline = _prob_of_level(p_base_raw, coding.baseline_internal)
        p_comparison = _prob_of_level(p_base_raw, coding.comparison_internal)
    else:
        p_baseline = np.ones(dataset.n)
        p_comparison = np.ones(dataset.n)

    if with_ratios:
        mr = _ratio(probs, fits.m_ratio_roles(), coding, e, stabilize.m_ratio, weights)
        cr = _ratio(probs, fits.c1_ratio_roles(), coding, e, stabilize.c1_ratio, weights)
    else:
        mr = np.ones(dataset.n)
        cr = np.ones(dataset.n)

    b = nested_mean_b(fits, dataset)
    b_prime = nested_mean_b_prime(fits, dataset)
    b_dd = nested_mean_b_doubleprime(fits, dataset)
    y0 = _predict(fits[ROLE_MARGINAL], dataset, Overrides(e=coding.baseline_internal)) if ROLE_MARGINAL in fits else None

    diagnostics["clip_count"] = int(sum(diagnostics["clip_counts"].values()))
    diagnostics["p_baseline_min"] = float(p_baseline.min())
    diagnostics["p_comparison_min"] = float(p_comparison.min())
    diagnostics["m_ratio_max"] = float(mr.max())
    diagnostics["c1_ratio_max"] = float(cr.max())
    return NuisanceComponents(
        ind_comparison=ind_comp,
        ind_baseline=ind_base,
        p_baseline=p_baseline,
        p_comparison=p_comparison,
        m_ratio=mr,
        c1_ratio=cr,
        b=b,
        b_prime=b_prime,
        b_doubleprime=b_dd,
        y0_marginal=y0,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class NuisanceFunctions:
    """Function-valued nuisances for plugging analytic or external models in.

    Every callable is vectorized: ``prob_comparison_base(c0)``, ``b(m, c1,
    c0)``, ``b_prime(c1, c0)``, ``b_doubleprime(c0)``, ``m_ratio(m, c1,
    c0)``, ``c1_ratio(c1, c0)``, and optionally ``y0_marginal(c0)``.
    """

    prob_comparison_base: Callable
    m_ratio: Callable
    c1_ratio: Callable
    b: Callable
    b_prime: Callable
    b_doubleprime: Callable
    y0_marginal: Callable | None = None


def components_from_functions(
    dataset: Dataset,
    coding: PairCoding,
    functions: NuisanceFunctions,
) -> NuisanceComponents:
    """Evaluate function-valued nuisances into a per-record component bundle."""
    c0, c1, m = dataset.c0, dataset.c1, dataset.m
    p_comp_level1 = np.asarray(functions.prob_comparison_base(c0), dtype=float)
    return NuisanceComponents(
        ind_comparison=coding.ind_comparison(dataset.e),
        ind_baseline=coding.ind_baseline(dataset.e),
        p_baseline=_prob_of_level(p_comp_level1, coding.baseline_internal),
        p_comparison=_prob_of_level(p_comp_level1, coding.comparison_internal),
        m_ratio=np.asarray(functions.m_ratio(m, c1, c0), dtype=float),
        c1_ratio=np.asarray(functions.c1_ratio(c1, c0), dtype=float),
        b=np.asarray(functions.b(m, c1, c0), dtype=float),
        b_prime=np.asarray(functions.b_prime(c1, c0), dtype=float),
        b_doubleprime=np.asarray(functions.b_doubleprime(c0), dtype=float),
        y0_marginal=(
            np.asarray(functions.y0_marginal(c0), dtype=float)
            if functions.y0_marginal is not None
            else None
        ),
    )
