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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .core import (
    DataError,
    Dataset,
    DesignSpec,
    Overrides,
    PairCoding,
    build_design_matrix,
    wmean,
)
from .glm import Family, FittedGlm, GlmError, _least_squares, fit_glm, predict_mean

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
    "default_working_set",
    "NuisanceError",
    "PositivityError",
    "NuisanceFits",
    "StabilizeFlags",
    "fit_nuisances",
    "stabilize_probabilities",
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


def _reject(bad, error: Callable, failures: dict | None):
    """The one check of a failure kind: ``bad`` is a bool for a single
    evaluation, which raises ``error(())``, or one per replicate of a batch,
    which records ``str(error(b))`` for each failing b without a reason yet."""
    if np.ndim(bad) == 0 and bad:
        raise error(())
    for b in np.flatnonzero(bad) if failures is not None else ():
        failures.setdefault(int(b), str(error(b)))
    return bad


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

    def validate(self, d0: int, d1: int, pathway: str) -> None:
        """Refuse a set the pathway cannot estimate from.

        Every role must fit the data's dimensions, and no model may condition
        on its own response or on a later link of the chain c0 -> e -> c1 ->
        m: the base propensities use baseline covariates only, the ``c1_j``
        means and the marginal outcome model baseline covariates and
        treatment only, and neither the ``c1`` propensities nor the mediator
        mean may reference the mediator.
        """
        required = [ROLE_OUTCOME, ROLE_MEDIATOR, ROLE_PROP_BASE, ROLE_PROP_C1, ROLE_PROP_M]
        required += [c1_mean_role(j) for j in range(1, d1 + 1)]
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
            later = sorted(r for r in spec.design.refs() if r == "m" or r.startswith("c1_"))
            if role in (ROLE_PROP_BASE, ROLE_PROP_BASE_IN_C1_RATIO) and later:
                raise NuisanceError(f"{role}: design may only use baseline covariates, found {later}")
            if (role == ROLE_MARGINAL or role.startswith("c1_mean_")) and later:
                raise NuisanceError(f"{role}: design may only use baseline covariates and treatment, found {later}")
            if role in (ROLE_PROP_C1, ROLE_PROP_C1_IN_M_RATIO, ROLE_MEDIATOR) and "m" in later:
                raise NuisanceError(f"{role}: design may not reference the mediator")
        if pathway == "linear":
            self.validate_linear(d1)
        elif pathway == "discrete":
            for role in (ROLE_MEDIATOR, *[c1_mean_role(j) for j in range(1, d1 + 1)]):
                if not self.models[role].family.is_binomial:
                    raise NuisanceError(f"{role}: discrete pathway requires a binomial model")
        else:
            raise NuisanceError(f"unknown pathway {pathway!r}")

    def validate_linear(self, d1: int) -> None:
        """The linear-pathway rule alone, for a set that passed ``validate``.

        The outcome, mediator and ``c1_j`` means are gaussian, and the nested
        means are slopes times shifts (``DesignSpec.slopes``): the outcome is
        linear in ``m`` and ``c1_1..c1_d1``, the mediator mean in
        ``c1_1..c1_d1``, each entering only as a covariate or in a product
        with treatment.
        """
        refs = tuple(f"c1_{j}" for j in range(1, d1 + 1))
        for role in (ROLE_OUTCOME, ROLE_MEDIATOR):
            if self.models[role].family is not Family.GAUSSIAN:
                raise NuisanceError(f"{role}: linear pathway requires a gaussian mean model")
        for role, linear_in in ((ROLE_OUTCOME, ("m", *refs)), (ROLE_MEDIATOR, refs)):
            try:
                self.models[role].design.slopes(linear_in, 1)  # any treatment level gives the verdict
            except DataError as exc:
                raise NuisanceError(f"{role}: {exc}") from exc
        for role, spec in self.models.items():
            if role.startswith("c1_mean_") and spec.family is not Family.GAUSSIAN:
                raise NuisanceError(f"{role}: linear pathway requires a gaussian mean model")


def default_working_set(d0: int, d1: int) -> WorkingModelSet:
    """Main-effects working models, with the treatment-by-mediator interaction
    in the outcome.  A starting point to inspect (``--print-models``), not to
    trust silently."""
    c0s = ", ".join(f"c0_{j}" for j in range(1, d0 + 1))
    c1s = ", ".join(f"c1_{j}" for j in range(1, d1 + 1))
    models = {
        ROLE_OUTCOME: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e, {c1s}, m, e*m")),
        ROLE_MEDIATOR: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e, {c1s}")),
        ROLE_PROP_BASE: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}")),
        ROLE_PROP_C1: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}, {c1s}")),
        ROLE_PROP_M: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}, {c1s}, m")),
        ROLE_MARGINAL: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e")),
    }
    for j in range(1, d1 + 1):
        models[c1_mean_role(j)] = ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e"))
    return WorkingModelSet(models)


@dataclass(frozen=True)
class NuisanceFits:
    """The full set of fitted working models for one pair-coded dataset."""

    fits: Mapping[str, FittedGlm]
    coding: PairCoding
    pathway: str
    d1: int
    failures: dict = field(default_factory=dict)  # a batch's {b: reason}
    weights: np.ndarray | None = None  # the fits' weights: None, (n,) or (B, n)

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
        return dataset.c1[..., j - 1]
    if role in _PROP_ROLES:
        return dataset.e.astype(float)
    raise NuisanceError(f"{role}: unknown model role")


def fit_nuisances(
    dataset: Dataset,
    working_set: WorkingModelSet,
    coding: PairCoding,
    weights: np.ndarray | None = None,
    *,
    pathway: str = "linear",
    start: NuisanceFits | None = None,
) -> NuisanceFits:
    """Fit every declared working model on a pair-coded dataset.

    Propensity responses are the comparison-arm indicator.  In identity-check
    mode propensity roles are skipped (the arm indicator is degenerate) and
    treatment terms are folded out of the mean-model designs.  With
    ``start``, fits of the same working set and coding (a bootstrap's point
    fit), each binomial role's scoring starts from that fit's coefficients;
    gaussian roles are closed form and need no start.

    Roles are fitted by design (see ``_fit_group``): each distinct design is
    built once, at its first role, and dropped once its roles are fitted.
    The gaussian roles on it share one weighted Gram, guard and inverse,
    with one right-hand side each, and binomial propensity roles of the
    same family are fitted once, each keeping its own ``predict_family``.
    Every fit is bitwise the one of its role alone, and a failure is
    reported for the first failing role in the working set's order.

    ``(B, n)`` weights fit a batch of replicates: every role is fitted for
    all B weight rows (see ``glm.fit_glm``); a replicate whose fit fails has
    NaN coefficients and its role-tagged message in ``failures`` rather than
    raising.  A stacked dataset (see ``core.Dataset``) is such a batch too,
    each design a stack of per-replicate designs.  The fits keep
    ``weights``, the only weights that any later stage uses.
    """
    working_set.validate(dataset.d0, dataset.d1, pathway)
    if pathway == "discrete":
        if not set(np.unique(dataset.m)) <= {0.0, 1.0}:
            raise NuisanceError("mediator_mean: discrete pathway requires a binary mediator")
        if not set(np.unique(dataset.c1)) <= {0.0, 1.0}:
            raise NuisanceError("c1_mean: discrete pathway requires binary post-treatment components")
    designs, groups = {}, {}
    for role in working_set.roles():
        if coding.is_identity and role in _PROP_ROLES:
            continue
        design = working_set[role].design
        if coding.is_identity and "e" in design.refs():
            design = design.reduce_at_e(coding.comparison_internal)
        designs[role] = design
        groups.setdefault(design, []).append(role)
    fitted: dict[str, FittedGlm | GlmError] = {}
    failures: dict[int, str] = {}
    for role, design in designs.items():
        if role not in fitted:
            try:
                fitted.update(_fit_group(dataset, design, groups[design], working_set, weights, start))
            except GlmError as exc:
                raise NuisanceError(f"{role}: {exc}") from exc
        _tagged(role, fitted[role], failures)
    return NuisanceFits(fits={role: fitted[role] for role in designs}, coding=coding, pathway=pathway,
                        d1=dataset.d1, failures=failures, weights=weights)


def _tagged(role: str, fit: FittedGlm | GlmError, failures: dict) -> FittedGlm:
    """``fit`` of ``role``: a single fit's ``GlmError`` raises, a batch's failures join ``failures``."""
    if isinstance(fit, GlmError):
        raise NuisanceError(f"{role}: {fit}") from fit
    for b, exc in fit.errors.items():
        failures.setdefault(b, f"{role}: {exc}")
    return fit


def _fit_group(dataset: Dataset, design: DesignSpec, roles: list[str], working_set: WorkingModelSet,
               weights, start: NuisanceFits | None) -> dict:
    """The fit of each role of ``roles``, which share ``design``, from one
    build of it: ``{role: FittedGlm}``, a single fit that fails giving its
    ``GlmError`` in place of the fit.  The gaussian roles are one
    ``glm._least_squares`` of their responses; a binomial propensity fit
    serves every propensity role of its family.  Each role then takes its
    link swap."""
    X = build_design_matrix(dataset, design)
    gaussian = [role for role in roles if working_set[role].family is Family.GAUSSIAN]
    out = dict(zip(gaussian, _least_squares(X, [_response_for(role, dataset) for role in gaussian], weights,
                                            design=design))) if gaussian else {}
    shared: dict[tuple, FittedGlm | GlmError] = {}
    for role in roles:
        spec = working_set[role]
        if role not in out:
            key = (spec.family, "e" if role in _PROP_ROLES else role)  # every propensity explains e
            if key not in shared:
                try:
                    shared[key] = fit_glm(X, _response_for(role, dataset), spec.family, weights, design=design,
                                          start=start[role].coef if start is not None else None)
                except GlmError as exc:
                    shared[key] = exc
            out[role] = shared[key]
        if not isinstance(out[role], GlmError) and spec.predict_family not in (None, spec.family):
            out[role] = replace(out[role], family=spec.predict_family)
    return out


# ---------------------------------------------------------------------------
# propensity handling


def _clip_probs(p: np.ndarray, clip: tuple[float, float] | None, role: str, weights, failures: dict):
    """Clipped probabilities and the clip count (one per replicate for a batch).

    Without clipping, a degenerate probability fails its replicate
    (``_reject``, ``PositivityError``) at a record of positive weight; at a
    record without weight, absent from its replicate, it becomes 1/2, which
    enters every weighted mean as 0, as the record's other values do.
    """
    if clip is None:
        degenerate = (p <= 0.0) | (p >= 1.0)
        if weights is not None:
            absent = np.asarray(weights) <= 0
            p = np.where(degenerate & absent, 0.5, p)
            degenerate &= ~absent
        first = degenerate.argmax(axis=-1)  # each replicate's first degenerate record
        bad = _reject(degenerate.any(axis=-1), lambda b: PositivityError(
            role, int(first[b]), float(p[b][first[b]])), failures)
        return np.where(bad[..., None], np.nan, p), np.zeros(p.shape[:-1], dtype=int)
    lo, hi = clip
    outside = (p < lo) | (p > hi)
    n_clipped = np.count_nonzero(outside, axis=1) if p.ndim == 2 else int(np.count_nonzero(outside))
    return np.clip(p, lo, hi), n_clipped


def stabilize_probabilities(
    p_level: np.ndarray,
    ind_level: np.ndarray,
    weights: np.ndarray | None = None,
    failures: dict | None = None,
) -> np.ndarray:
    """Logit-shift a probability array so its inverse-probability weights are bounded.

    ``p_level`` holds fitted probabilities of a designated treatment level and
    ``ind_level`` the indicator of that level.  The shifted probabilities
    satisfy ``mean(ind_level * (1 - p') / p') == 1 - mean(ind_level)``, an
    algebraic identity of the shift; as a consequence the weights
    ``ind_level / p'`` average to exactly 1.  With a leading replicate axis
    (on ``p_level`` or ``weights``) each replicate gets its own shift, and a
    replicate that one array would reject is NaN, its reason in ``failures``.
    """
    p_level = np.asarray(p_level, dtype=float)
    ind_level = np.asarray(ind_level, dtype=float)
    share = wmean(ind_level, weights)
    bad = _reject(np.any((p_level <= 0.0) | (p_level >= 1.0), axis=-1), lambda b: NuisanceError(
        "stabilization requires probabilities strictly inside (0, 1)"), failures)
    bad = bad | _reject((share <= 0.0) | (share >= 1.0), lambda b: NuisanceError(
        f"stabilization is degenerate: the designated level has empirical share {float(np.asarray(share)[b])}"),
        failures)
    with np.errstate(divide="ignore", invalid="ignore"):
        odds_sum = wmean(ind_level * (1.0 - p_level) / p_level, weights)
        # the shift multiplies every odds by k = odds_sum / (1 - share)
        k = np.where(bad, np.nan, odds_sum / (1.0 - share))[..., None]
        pk = p_level * k
        return pk / (1.0 - p_level + pk)


@dataclass(frozen=True)
class StabilizeFlags:
    """Which propensity roles receive the logit-shift stabilization.

    Every enabled model is stabilized once, at the comparison level; the
    baseline-level probability is its complement.  Ratios are then formed
    from the stabilized probabilities.  ``StabilizeFlags()`` stabilizes
    nothing.
    """

    base: bool = False
    m_ratio: bool = False
    c1_ratio: bool = False

    @classmethod
    def all_on(cls) -> "StabilizeFlags":
        return cls(base=True, m_ratio=True, c1_ratio=True)


def _propensity_probs(
    fits: NuisanceFits,
    dataset: Dataset,
    roles: Iterable[str],
    clip: tuple[float, float] | None,
    clip_counts: dict,
    failures: dict,
) -> dict[str, np.ndarray]:
    """Clipped comparison-level probabilities of each named propensity model.

    Each role is predicted once (roles on one design from one build of it,
    see ``_predictions``); its clip count is filed under that role.
    """
    roles = list(dict.fromkeys(roles))
    probs = {}
    for role, (_, p) in zip(roles, _predictions(dataset, [(fits[role], None) for role in roles])):
        probs[role], n_clipped = _clip_probs(p, clip, role, fits.weights, failures)
        if np.count_nonzero(n_clipped):
            clip_counts[role] = n_clipped
    return probs


def _ratio(p_num: np.ndarray, p_den: np.ndarray) -> np.ndarray:
    """(numerator-model odds of comparison vs baseline) x (denominator-model inverse odds)."""
    return p_num / (1.0 - p_num) * (1.0 - p_den) / p_den


# ---------------------------------------------------------------------------
# nested outcome means


def _predict(fit: FittedGlm, dataset: Dataset, overrides: Overrides) -> np.ndarray:
    return np.asarray(predict_mean(fit, build_design_matrix(dataset, fit.design, overrides)))


def _predictions(dataset: Dataset, requests: list[tuple[FittedGlm, Overrides | None]]):
    """Yield ``(fit, prediction)`` for each ``(fit, overrides)`` of
    ``requests`` in turn, each prediction ``_predict``'s.

    Fits on one design at the same (scalar) overrides share one build of
    it: at the first of them all of them are predicted, the design is
    dropped before the next build, and each prediction waits for its turn.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (fit, overrides) in enumerate(requests):
        groups.setdefault((fit.design, overrides), []).append(k)
    ready = {}
    for k, (fit, overrides) in enumerate(requests):
        if k not in ready:
            X = build_design_matrix(dataset, fit.design, overrides)
            for j in groups[fit.design, overrides]:
                ready[j] = np.asarray(predict_mean(requests[j][0], X))
            del X
        yield fit, ready.pop(k)


def _slopes(fit: FittedGlm, e: int, refs: list[str]) -> dict[str, np.ndarray]:
    """A gaussian mean model's slope in each of ``refs`` it is linear in, with
    treatment held at ``e``; a batch fit has one slope per replicate, on a
    trailing axis that broadcasts against the records."""
    D = fit.design.slopes(tuple(refs), e)
    S = np.sum(fit.coef[..., None, :] * D, axis=-1)
    return {ref: S[..., k, None] for k, ref in enumerate(refs) if D[k].any()}


def _shifted(at_data: np.ndarray, slopes: Mapping[str, np.ndarray], values: Mapping[str, np.ndarray],
             data: Mapping[str, np.ndarray]) -> np.ndarray:
    """A linear model's prediction with each ref moved from ``data`` to
    ``values``: its prediction at the data plus slope times shift.

    One design at the data then serves any values, which is how a batch of
    replicates, each with its own per-record mediator and covariate means,
    is evaluated without a design per replicate.
    """
    out = at_data
    for ref, slope in slopes.items():
        if ref in values:
            step = values[ref] - data[ref]
            step *= slope
            if out is at_data:
                step += at_data
                out = step
            else:
                out += step
    return out


def _chain(fits: NuisanceFits) -> list[tuple[FittedGlm, Overrides]]:
    """The linear chain's mean models, each with treatment at its level:
    the outcome at baseline, the mediator at comparison, each ``c1_j`` at
    baseline."""
    base = Overrides(e=fits.coding.baseline_internal)
    chain = [(fits[ROLE_OUTCOME], base), (fits[ROLE_MEDIATOR], Overrides(e=fits.coding.comparison_internal))]
    return chain + [(fits[c1_mean_role(j)], base) for j in range(1, fits.d1 + 1)]


def _linear_nested(fits: NuisanceFits, dataset: Dataset):
    """The linear pathway's nested means b, b', b'' and what they are made of.

    Returns ``(b, b_prime, b_doubleprime, c_hat, m_hat, out_slopes,
    med_slopes)``: ``c_hat`` maps each ``c1_j`` to its baseline-arm mean,
    ``m_hat`` is the comparison-arm mediator mean at ``c_hat``, and the
    slopes are the outcome's in ``m`` and each ``c1_j`` (at baseline
    treatment) and the mediator's in each ``c1_j`` (at comparison
    treatment).  Each fitted mean model is predicted at the data with
    treatment at its level in the chain (``_chain``; the ``c1_j`` that
    share a design share its build), and ``_compose_linear`` nests the
    predictions.
    """
    return _compose_linear(fits.coding, dataset, _predictions(dataset, _chain(fits)))


def _compose_linear(coding: PairCoding, dataset: Dataset, chain: Iterable[tuple[FittedGlm, np.ndarray]]):
    """The nested means of a chain of gaussian mean models, returned as
    ``_linear_nested`` returns them.

    ``chain`` yields ``(fit, prediction)`` for the outcome, the mediator and
    each ``c1_j`` in turn, and is read no further; each prediction is taken
    at the data with treatment at the model's level in the chain: baseline
    for the outcome and the ``c1_j``, comparison for the mediator.  The models are linear in the
    mediator and the post-treatment covariates (the linear pathway's rule),
    so every nested mean is a prediction at the data plus slopes times
    shifts.  A batch of fits gives every array a leading replicate axis.
    """
    chain = iter(chain)
    outcome, b = next(chain)
    mediator, m_data = next(chain)
    refs = [f"c1_{j}" for j in range(1, dataset.d1 + 1)]
    data = {"m": dataset.m, **{ref: dataset.c1[..., j] for j, ref in enumerate(refs)}}
    out_s = _slopes(outcome, coding.baseline_internal, ["m", *refs])
    med_s = _slopes(mediator, coding.comparison_internal, refs)
    b_prime = _shifted(b, out_s, {"m": m_data}, data)
    c_hat = {ref: c for ref, (_, c) in zip(refs, chain)}
    m_hat = _shifted(m_data, med_s, c_hat, data)
    del m_data
    b_dd = _shifted(b, out_s, {"m": m_hat, **c_hat}, data)
    return b, b_prime, b_dd, c_hat, m_hat, out_s, med_s


def _mediator_mixture(fits: NuisanceFits, dataset: Dataset, c1_override) -> np.ndarray:
    """Discrete pathway: the outcome regression averaged over the binary
    mediator's comparison-arm law, at a (possibly overridden) C1."""
    coding = fits.coding
    outcome = fits[ROLE_OUTCOME]
    p_m1 = _predict(fits[ROLE_MEDIATOR], dataset, Overrides(e=coding.comparison_internal, c1=c1_override))
    b_at = lambda mv: _predict(
        outcome, dataset, Overrides(e=coding.baseline_internal, m=mv, c1=c1_override)
    )
    return b_at(0.0) * (1.0 - p_m1) + b_at(1.0) * p_m1


def _nested_means(fits: NuisanceFits, dataset: Dataset):
    """(b, b', b'', y0) on either pathway, y0 the marginal outcome model's
    prediction at baseline treatment (None without that model), which
    shares its build with the ``c1_j`` means on the same design; arrays
    gain a leading replicate axis when the fits are a batch."""
    coding = fits.coding
    base = Overrides(e=coding.baseline_internal)
    marginal = [(fits[ROLE_MARGINAL], base)] if ROLE_MARGINAL in fits else []
    if fits.pathway == "linear":
        # predicted as the composition asks, so that it drops m at the data
        # before the last nested mean adds to a batch's peak memory
        predictions = _predictions(dataset, _chain(fits) + marginal)
        b, b_prime, b_dd = _compose_linear(coding, dataset, predictions)[:3]
        return b, b_prime, b_dd, next(predictions, (None, None))[1]
    predictions = _predictions(dataset, [(fits[ROLE_OUTCOME], base)] + _chain(fits)[2:] + marginal)
    b = next(predictions)[1]
    b_prime = _mediator_mixture(fits, dataset, None)
    # per-component P(C1_j = 1 | baseline, C0)
    probs = [next(predictions)[1] for _ in range(fits.d1)]
    b_dd = 0.0
    for support in itertools.product((0.0, 1.0), repeat=fits.d1):
        weight = 1.0
        for p, bit in zip(probs, support):
            weight = weight * (p if bit == 1.0 else 1.0 - p)
        b_dd = b_dd + weight * _mediator_mixture(fits, dataset, np.asarray(support))
    return b, b_prime, b_dd, next(predictions, (None, None))[1]


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
    failures: dict = field(default_factory=dict)
    weights: np.ndarray | None = None  # the fits', every estimator's; others enter by replace(comp, weights=...)


def compute_components(
    dataset: Dataset,
    fits: NuisanceFits,
    *,
    stabilize: StabilizeFlags = StabilizeFlags(),
    clip: tuple[float, float] | None = DEFAULT_CLIP,
) -> NuisanceComponents:
    """Evaluate ratios, propensities, and nested means for every record.

    Propensities are P(E = 1), the comparison arm's probability under the
    pair coding; the baseline arm's is its complement, and stabilization
    shifts each enabled model at the comparison level.  An identity pair
    fits no propensity model, so its propensities and ratios are all one.

    ``diagnostics`` holds the clip counts, per propensity role
    (``clip_counts``) and in total (``clip_count``); the arm weights'
    extremes are ``estimators.weight_diagnostics``'.  ``weights`` are the
    fits'; batch fits, of ``(B, n)`` weights, give every per-record array
    and clip count a leading replicate axis.
    ``failures`` holds each failed replicate's first message in evaluation
    order: the fits', positivity and stabilization, then the estimators'.
    """
    coding, weights = fits.coding, fits.weights
    diagnostics: dict = {"clip_counts": {}}
    failures = dict(fits.failures)
    ind_comp = coding.ind_comparison(dataset.e)
    ind_base = coding.ind_baseline(dataset.e)

    if coding.is_identity:
        p_baseline, p_comparison = np.ones(dataset.n), np.ones(dataset.n)
        mr, cr = np.ones(dataset.n), np.ones(dataset.n)
    else:
        m_roles, c1_roles = fits.m_ratio_roles(), fits.c1_ratio_roles()
        probs = _propensity_probs(fits, dataset, [ROLE_PROP_BASE, *m_roles, *c1_roles], clip,
                                  diagnostics["clip_counts"], failures)
        stabilized = {}

        def prob(role: str, on: bool) -> np.ndarray:
            # a role is stabilized once, however many places an enabled flag reads it
            if on and role not in stabilized:
                stabilized[role] = stabilize_probabilities(probs[role], ind_comp, weights, failures)
            return stabilized[role] if on else probs[role]

        p_comparison = prob(ROLE_PROP_BASE, stabilize.base)
        p_baseline = 1.0 - p_comparison
        mr = _ratio(*(prob(role, stabilize.m_ratio) for role in m_roles))
        cr = _ratio(*(prob(role, stabilize.c1_ratio) for role in c1_roles))
        del probs, stabilized  # a batch reaches its peak memory in the nested means

    b, b_prime, b_dd, y0 = _nested_means(fits, dataset)

    diagnostics["clip_count"] = sum(diagnostics["clip_counts"].values())
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
        failures=failures,
        weights=weights,
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
    p = np.asarray(functions.prob_comparison_base(c0), dtype=float)
    return NuisanceComponents(
        ind_comparison=coding.ind_comparison(dataset.e),
        ind_baseline=coding.ind_baseline(dataset.e),
        p_baseline=p if coding.is_identity else 1.0 - p,
        p_comparison=p,
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
