"""Point estimators for the mediated-path contrast and the baseline mean.

Four estimators target the comparison-arm-mediator counterfactual mean: a
plug-in of nested regression means, two weighted representations driven by
the mediator and post-treatment density ratios, and a multiply-robust
estimator built from the efficient influence function.  A sequentially
reweighted variant zeroes the influence-function residual terms by
construction.  Three companion estimators target the all-baseline mean.
Every estimator is a mean under the fits' weights, ``comp.weights``; batch
components (of ``(B, n)`` weights) give one value per replicate.
``evaluate`` composes the pipeline: one fit of an ``Analysis``' working
models, their components, and every estimator and effect it asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, PairCoding, build_design_matrix, wmean
from .glm import _least_squares, predict_mean
from .nuisance import (
    DEFAULT_CLIP,
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    NuisanceComponents,
    NuisanceError,
    NuisanceFits,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    _clip_error,
    _compose_linear,
    _reject,
    _tagged,
    compute_components,
    fit_nuisances,
)

__all__ = [
    "BETA_KINDS",
    "DELTA_KINDS",
    "SCALES",
    "DEFAULT_DELTA_FOR",
    "EstimationError",
    "Analysis",
    "Evaluation",
    "evaluate",
    "beta_mle",
    "beta_a",
    "beta_b",
    "beta_mr",
    "beta_mr_sequential",
    "SequentialFit",
    "delta_gformula",
    "delta_ipw",
    "delta_aipw",
    "influence_values",
    "combine_effect",
    "weight_diagnostics",
]

BETA_KINDS = ("mle", "a", "b", "mr", "mr_seq")
DELTA_KINDS = ("gformula", "ipw", "aipw")
SCALES = ("mean_difference", "log_risk_ratio")

# Default pairing of the baseline-mean estimator with each contrast estimator.
DEFAULT_DELTA_FOR = {
    "mle": "gformula",
    "a": "ipw",
    "b": "aipw",
    "mr": "aipw",
    "mr_seq": "aipw",
}


class EstimationError(RuntimeError):
    """An estimation contract violation (scale constraints, missing inputs)."""


# ---------------------------------------------------------------------------
# contrast-mean estimators


def beta_mle(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Empirical mean of the fully nested regression prediction."""
    return wmean(comp.b_doubleprime, comp.weights)


def beta_a(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Baseline-arm outcomes reweighted by the mediator density ratio."""
    w = comp.ind_baseline / comp.p_baseline * comp.m_ratio
    return wmean(w * dataset.y, comp.weights)


def beta_b(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Comparison-arm outcome regression reweighted by the inverse covariate ratio."""
    w = comp.ind_comparison / comp.p_comparison / comp.c1_ratio
    return wmean(w * comp.b, comp.weights)


def _mr_summands(dataset: Dataset, comp: NuisanceComponents) -> np.ndarray:
    w_base = comp.ind_baseline / comp.p_baseline
    w_comp = comp.ind_comparison / comp.p_comparison
    return (
        w_base * comp.m_ratio * (dataset.y - comp.b)
        + w_comp / comp.c1_ratio * (comp.b - comp.b_prime)
        + w_base * (comp.b_prime - comp.b_doubleprime)
        + comp.b_doubleprime
    )


def beta_mr(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Multiply-robust estimator solving the efficient-influence estimating equation."""
    return wmean(_mr_summands(dataset, comp), comp.weights)


def influence_values(
    dataset: Dataset,
    comp: NuisanceComponents,
    beta: float,
) -> np.ndarray:
    """Per-record efficient influence function evaluated at ``beta``.

    The empirical mean of these values equals ``beta_mr(...) - beta`` exactly
    when computed from the same components.
    """
    return _mr_summands(dataset, comp) - beta


# ---------------------------------------------------------------------------
# baseline-mean estimators


def delta_gformula(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Mean of the marginal outcome regression evaluated at the baseline level."""
    if comp.y0_marginal is None:
        raise EstimationError("delta_gformula requires a fitted marginal outcome model")
    return wmean(comp.y0_marginal, comp.weights)


def delta_ipw(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Inverse-probability-weighted baseline-arm outcome mean."""
    return wmean(comp.ind_baseline * dataset.y / comp.p_baseline, comp.weights)


def delta_aipw(dataset: Dataset, comp: NuisanceComponents) -> float:
    """Doubly-robust baseline mean: the marginal regression ``comp.y0_marginal``
    plus the inverse-probability-weighted baseline-arm residual.  Another
    regression enters as ``dataclasses.replace(comp, y0_marginal=...)``."""
    y0 = comp.y0_marginal
    if y0 is None:
        raise EstimationError("delta_aipw requires a fitted marginal outcome model")
    resid = comp.ind_baseline / comp.p_baseline * (dataset.y - y0)
    return wmean(resid + y0, comp.weights)


BETA_FUNCS = {"mle": beta_mle, "a": beta_a, "b": beta_b, "mr": beta_mr}
DELTA_FUNCS = {"gformula": delta_gformula, "ipw": delta_ipw, "aipw": delta_aipw}


# ---------------------------------------------------------------------------
# effect scales


def combine_effect(beta_hat, delta_hat, scale: str, failures: dict | None = None):
    """Contrast the two means on the requested scale.

    Per-replicate arrays of means give per-replicate effects; a replicate
    whose log risk ratio is undefined is NaN, its message in ``failures``.
    """
    if scale == "mean_difference":
        return beta_hat - delta_hat
    if scale == "log_risk_ratio":
        beta, delta = np.asarray(beta_hat), np.asarray(delta_hat)
        undefined = _reject((beta <= 0.0) | (delta <= 0.0), lambda b: EstimationError(
            f"log risk ratio needs positive means, got beta={float(beta[b]):.6g}, delta={float(delta[b]):.6g}"),
            failures)
        with np.errstate(divide="ignore", invalid="ignore"):
            effect = np.where(undefined, np.nan, np.log(beta) - np.log(delta))
        return float(effect) if effect.ndim == 0 else effect
    raise EstimationError(f"unknown effect scale {scale!r}")


def weight_diagnostics(comp: NuisanceComponents) -> dict:
    """Extrema and effective sizes of the two arm-weight families."""
    w_base = comp.ind_baseline / comp.p_baseline * comp.m_ratio
    w_comp = comp.ind_comparison / comp.p_comparison / comp.c1_ratio
    out = dict(comp.diagnostics)

    def ess(w):
        total = w.sum()
        return float(total**2 / np.sum(w**2)) if np.any(w > 0) else 0.0

    out.update(
        max_weight_baseline=float(w_base.max()),
        max_weight_comparison=float(w_comp.max()),
        ess_baseline=ess(w_base),
        ess_comparison=ess(w_comp),
    )
    return out


# ---------------------------------------------------------------------------
# sequentially reweighted multiply-robust estimator


@dataclass(frozen=True)
class SequentialFit:
    """Result of the sequentially reweighted fit: the estimate and the three
    weighted residual terms it drives to zero."""

    value: float
    term_values: tuple[float, float, float]


def beta_mr_sequential(
    dataset: Dataset,
    working_set: WorkingModelSet,
    coding: PairCoding,
    *,
    comp: NuisanceComponents | None = None,
) -> SequentialFit:
    """Refit the mean models by weighted least squares so the three weighted
    residual terms of the multiply-robust estimator vanish by construction.

    Requires the continuous (linear-pathway) configuration with an intercept
    in every mean model.  The propensities and density ratios come from
    ``comp``, the components of a maximum-likelihood fit of ``working_set``
    on the same data, and the outer weights are that fit's
    (``comp.weights``); without ``comp`` an unweighted fit is made here,
    with the defaults of ``compute_components``.  A weighted, stabilized or
    unclipped ``mr_seq`` passes its ``comp``.  Each mean model is then
    refitted on its arm (every row weighted, the other arm's by zero) with
    the weight its residual term carries, which makes that term a
    weighted-least-squares orthogonality condition equal to zero.  The d1
    post-treatment refits share the arm and the weight, so those on one
    reduced design share its build and one Gram, each fit bitwise its own.
    What remains is the empirical mean of the fully nested prediction.
    Batch components, from ``(B, n)`` weights, refit every replicate at
    once, and the value and the terms gain a leading replicate axis; a
    replicate whose refit fails is NaN, its message in ``comp.failures``.
    So does a stacked dataset with its components.
    """
    if comp is None:
        working_set.validate(dataset.d0, dataset.d1, "linear")
    else:  # the fit behind comp validated the set for its own pathway
        working_set.validate_linear(dataset.d1)
    roles = (ROLE_OUTCOME, ROLE_MEDIATOR, *[c1_mean_role(j) for j in range(1, dataset.d1 + 1)])
    for role in roles:
        if not working_set[role].design.has_intercept():
            raise EstimationError(f"{role}: sequential refitting requires an intercept term")
    if comp is None:
        comp = compute_components(dataset, fit_nuisances(dataset, working_set, coding))

    w_outer = np.ones(dataset.n) if comp.weights is None else np.asarray(comp.weights, dtype=float)
    icomp, ibase = coding.comparison_internal, coding.baseline_internal
    ind_comp, ind_base = comp.ind_comparison, comp.ind_baseline
    p_base, p_comp = comp.p_baseline, comp.p_comparison
    mr, cr = comp.m_ratio, comp.c1_ratio

    # (arm level, arm indicator, weight of the residual term, roles and
    # responses): the outcome carries the first term, the mediator the
    # second and the post-treatment components, with one weight, the third.
    refits = [
        ("baseline", ibase, ind_base, mr / p_base * w_outer, [(ROLE_OUTCOME, dataset.y)]),
        ("comparison", icomp, ind_comp, 1.0 / cr / p_comp * w_outer, [(ROLE_MEDIATOR, dataset.m)]),
        ("baseline", ibase, ind_base, 1.0 / p_base * w_outer,
         [(role, dataset.c1[..., j]) for j, role in enumerate(roles[2:])]),
    ]
    refitted = {}
    for arm, level, ind, w, members in refits:
        # Each refit is held to its arm by zero weights on the other rows,
        # which serves a stacked dataset, whose replicates have different
        # arms.  The refits on one reduced design share its build and one
        # Gram; the design serves the fits and the predictions at the data,
        # then is dropped so that the next build does not add to peak memory.
        ww = w * ind
        groups: dict = {}
        for role, response in members:
            groups.setdefault(working_set[role].design.reduce_at_e(level), []).append((role, response))
        for design, group in groups.items():
            X = build_design_matrix(dataset, design)
            # an arm with fewer records of positive weight than columns
            # leaves the refit rank deficient whatever its values: say so,
            # rather than name the column at which rounding ends the QR
            records = np.count_nonzero(ww > 0, axis=-1)
            _reject(records < X.shape[-1], lambda b: NuisanceError(
                f"{group[0][0]} (mr_seq refit, {arm} arm): {records[b]} records for {X.shape[-1]} columns"),
                comp.failures)
            try:
                fits = _least_squares(X, [response for _, response in group], ww, design=design)
            except Exception as exc:  # re-tag with the refit stage
                raise NuisanceError(f"{group[0][0]}: {exc}") from exc
            for (role, _), fit in zip(group, fits):
                refitted[role] = (_tagged(role, fit, comp.failures), np.asarray(predict_mean(fit, X)))
            del X
    b, b_prime, b_dd = _compose_linear(coding, dataset, [refitted[role] for role in roles])[:3]
    term1 = wmean(ind_base * mr / p_base * (dataset.y - b), w_outer)
    term2 = wmean(ind_comp / p_comp / cr * (b - b_prime), w_outer)
    term3 = wmean(ind_base / p_base * (b_prime - b_dd), w_outer)

    return SequentialFit(value=wmean(b_dd, w_outer), term_values=(term1, term2, term3))


# ---------------------------------------------------------------------------
# the pipeline: one fit of the working models feeds every estimator


@dataclass(frozen=True)
class Analysis:
    """What one evaluation fits and estimates.

    ``pairs`` holds (contrast estimator, baseline-mean estimator) pairs, one
    of ``BETA_KINDS`` with one of ``DELTA_KINDS`` or ``None`` for the
    contrast mean alone.  ``scale`` is ``combine_effect``'s, one of
    ``SCALES``, and ``stabilize`` and ``clip`` are ``compute_components``',
    with its defaults: no stabilization and the ``DEFAULT_CLIP`` clip.  A
    malformed analysis is refused when it is made, before any model is
    fitted.
    """

    working_set: WorkingModelSet
    pairs: tuple[tuple[str, str | None], ...]
    pathway: str = "linear"
    scale: str = "mean_difference"
    stabilize: StabilizeFlags = StabilizeFlags()
    clip: tuple[float, float] | None = DEFAULT_CLIP

    def __post_init__(self):
        if not self.pairs:
            raise EstimationError("an analysis needs at least one (beta, delta) pair")
        for pair in self.pairs:
            try:
                kind, delta_kind = pair
            except (TypeError, ValueError):
                raise EstimationError(f"{pair!r} is not a (beta, delta) pair") from None
            if kind not in BETA_KINDS:
                raise EstimationError(f"unknown estimator {kind!r}; expected one of {BETA_KINDS}")
            if delta_kind is not None and delta_kind not in DELTA_KINDS:
                raise EstimationError(f"unknown delta estimator {delta_kind!r}; expected one of {DELTA_KINDS}")
        if self.scale not in SCALES:
            raise EstimationError(f"unknown effect scale {self.scale!r}; expected one of {SCALES}")
        error = _clip_error(self.clip)
        if error:
            raise EstimationError(error)


@dataclass(frozen=True)
class Evaluation:
    """The contrast mean, the baseline mean and the effect of each of an
    analysis' pairs, along the last axis, and the fits and components they
    came from.  A batch adds a leading replicate axis, and
    ``comp.failures`` gives each failed replicate's first reason.  A pair
    without a baseline-mean estimator has NaN for its baseline mean and effect."""

    beta: np.ndarray
    delta: np.ndarray
    effect: np.ndarray
    comp: NuisanceComponents
    fits: NuisanceFits


def evaluate(
    dataset: Dataset,
    analysis: Analysis,
    coding: PairCoding,
    *,
    weights: np.ndarray | None = None,
    start: NuisanceFits | None = None,
) -> Evaluation:
    """Fit the working models once, and estimate every pair from that fit.

    ``weights`` and ``start`` are ``fit_nuisances``'.  Each estimator runs
    once, however many pairs name it.  ``(B, n)`` weights, or a stacked
    dataset, evaluate a batch: a replicate whose fits or components fail is
    NaN for every pair, one whose ``mr_seq`` refit fails or whose log risk
    ratio is undefined for that pair alone.
    """
    fits = fit_nuisances(dataset, analysis.working_set, coding, weights=weights,
                         pathway=analysis.pathway, start=start)
    comp = compute_components(dataset, fits, stabilize=analysis.stabilize, clip=analysis.clip)
    unfitted = list(comp.failures)
    betas, deltas, rows = {}, {}, []
    for kind, delta_kind in analysis.pairs:
        if kind not in betas:
            betas[kind] = (beta_mr_sequential(dataset, analysis.working_set, coding, comp=comp).value
                           if kind == "mr_seq" else BETA_FUNCS[kind](dataset, comp))
        if delta_kind not in deltas:
            deltas[delta_kind] = (np.full(np.shape(betas[kind]), np.nan) if delta_kind is None
                                  else DELTA_FUNCS[delta_kind](dataset, comp))
        beta, delta = betas[kind], deltas[delta_kind]
        rows.append((beta, delta, delta if delta_kind is None
                     else combine_effect(beta, delta, analysis.scale, comp.failures)))
    beta, delta, effect = (np.stack(column, axis=-1) for column in zip(*rows))
    for values in (beta, delta, effect):
        values[unfitted] = np.nan
    return Evaluation(beta=beta, delta=delta, effect=effect, comp=comp, fits=fits)
