"""Point estimators for the mediated-path contrast and the baseline mean.

Four estimators target the comparison-arm-mediator counterfactual mean: a
plug-in of nested regression means, two weighted representations driven by
the mediator and post-treatment density ratios, and a multiply-robust
estimator built from the efficient influence function.  A sequentially
reweighted variant zeroes the influence-function residual terms by
construction.  Three companion estimators target the all-baseline mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, Overrides, PairCoding, TreatmentPair, build_design_matrix, wmean
from .glm import fit_ols, predict_mean
from .nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    DEFAULT_CLIP,
    NuisanceComponents,
    NuisanceError,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    compute_components,
    fit_nuisances,
)

__all__ = [
    "BETA_KINDS",
    "DELTA_KINDS",
    "DEFAULT_DELTA_FOR",
    "EstimationError",
    "EstimateResult",
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


def beta_mle(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Empirical mean of the fully nested regression prediction."""
    return wmean(comp.b_doubleprime, weights)


def beta_a(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Baseline-arm outcomes reweighted by the mediator density ratio."""
    w = comp.ind_baseline / comp.p_baseline * comp.m_ratio
    return wmean(w * dataset.y, weights)


def beta_b(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Comparison-arm outcome regression reweighted by the inverse covariate ratio."""
    w = comp.ind_comparison / comp.p_comparison / comp.c1_ratio
    return wmean(w * comp.b, weights)


def _mr_summands(dataset: Dataset, comp: NuisanceComponents) -> np.ndarray:
    w_base = comp.ind_baseline / comp.p_baseline
    w_comp = comp.ind_comparison / comp.p_comparison
    return (
        w_base * comp.m_ratio * (dataset.y - comp.b)
        + w_comp / comp.c1_ratio * (comp.b - comp.b_prime)
        + w_base * (comp.b_prime - comp.b_doubleprime)
        + comp.b_doubleprime
    )


def beta_mr(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Multiply-robust estimator solving the efficient-influence estimating equation."""
    return wmean(_mr_summands(dataset, comp), weights)


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


def delta_gformula(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Mean of the marginal outcome regression evaluated at the baseline level."""
    if comp.y0_marginal is None:
        raise EstimationError("delta_gformula requires a fitted marginal outcome model")
    return wmean(comp.y0_marginal, weights)


def delta_ipw(dataset: Dataset, comp: NuisanceComponents, weights: np.ndarray | None = None) -> float:
    """Inverse-probability-weighted baseline-arm outcome mean."""
    return wmean(comp.ind_baseline * dataset.y / comp.p_baseline, weights)


def delta_aipw(
    dataset: Dataset,
    comp: NuisanceComponents,
    weights: np.ndarray | None = None,
    *,
    y0: np.ndarray | None = None,
) -> float:
    """Doubly-robust baseline mean; ``y0`` overrides the marginal regression."""
    if y0 is None:
        y0 = comp.y0_marginal
    if y0 is None:
        raise EstimationError("delta_aipw requires a fitted marginal outcome model")
    resid = comp.ind_baseline / comp.p_baseline * (dataset.y - y0)
    return wmean(resid + y0, weights)


BETA_FUNCS = {"mle": beta_mle, "a": beta_a, "b": beta_b, "mr": beta_mr}
DELTA_FUNCS = {"gformula": delta_gformula, "ipw": delta_ipw, "aipw": delta_aipw}


# ---------------------------------------------------------------------------
# effect scales


def combine_effect(beta_hat: float, delta_hat: float, scale: str) -> float:
    """Contrast the two means on the requested scale."""
    if scale == "mean_difference":
        return beta_hat - delta_hat
    if scale == "log_risk_ratio":
        if beta_hat <= 0.0 or delta_hat <= 0.0:
            raise EstimationError(
                f"log risk ratio needs positive means, got beta={beta_hat:.6g}, delta={delta_hat:.6g}"
            )
        return float(np.log(beta_hat) - np.log(delta_hat))
    raise EstimationError(f"unknown effect scale {scale!r}")


@dataclass
class EstimateResult:
    """A single estimator's output on one treatment pair."""

    kind: str
    delta_kind: str
    scale: str
    pair: TreatmentPair
    beta_hat: float
    delta_hat: float
    effect: float
    n_used: int
    diagnostics: dict = field(default_factory=dict)
    ci_lower: float | None = None
    ci_upper: float | None = None
    se: float | None = None


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
    b_doubleprime: np.ndarray


def _wls_on_rows(design, dataset, rows, response, w, labels_role):
    X = build_design_matrix(dataset, design)[rows]
    try:
        return fit_ols(X, response[rows], w, design=design)
    except Exception as exc:  # re-tag with the refit stage
        raise NuisanceError(f"{labels_role}: {exc}") from exc


def beta_mr_sequential(
    dataset: Dataset,
    working_set: WorkingModelSet,
    coding: PairCoding,
    *,
    stabilize: StabilizeFlags | None = None,
    clip: tuple[float, float] | None = DEFAULT_CLIP,
    weights: np.ndarray | None = None,
    comp: NuisanceComponents | None = None,
) -> SequentialFit:
    """Refit the mean models by weighted least squares so the three weighted
    residual terms of the multiply-robust estimator vanish by construction.

    Requires the continuous (linear-pathway) configuration with an intercept
    in every mean model.  The propensities and density ratios come from
    ``comp``, the components of a maximum-likelihood fit of ``working_set``
    on the same data and weights; when it is omitted that fit is made here.
    Each mean model is then refitted on its arm with the weight its residual
    term carries, which makes that term a weighted-least-squares
    orthogonality condition equal to zero.  What remains is the empirical
    mean of the fully nested prediction.
    """
    working_set.validate(dataset.d0, dataset.d1, "linear")
    for role in (ROLE_OUTCOME, ROLE_MEDIATOR, *[c1_mean_role(j) for j in range(1, dataset.d1 + 1)]):
        if not working_set[role].design.has_intercept():
            raise EstimationError(f"{role}: sequential refitting requires an intercept term")
    if comp is None:
        fits = fit_nuisances(dataset, working_set, coding, weights)
        comp = compute_components(dataset, fits, stabilize=stabilize, clip=clip, weights=weights)

    n = dataset.n
    w_outer = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    icomp, ibase = coding.comparison_internal, coding.baseline_internal
    ind_comp, ind_base = comp.ind_comparison, comp.ind_baseline
    p_base, p_comp = comp.p_baseline, comp.p_comparison
    mr, cr = comp.m_ratio, comp.c1_ratio

    base_rows = np.flatnonzero(ind_base > 0)
    comp_rows = np.flatnonzero(ind_comp > 0)

    # Outcome model on the baseline arm, weighted by the first residual term's weight.
    out_design = working_set[ROLE_OUTCOME].design.reduce_at_e(ibase)
    w1_full = mr / p_base * w_outer
    out_fit = _wls_on_rows(out_design, dataset, base_rows, dataset.y, w1_full[base_rows], ROLE_OUTCOME)
    b = np.asarray(predict_mean(out_fit, build_design_matrix(dataset, out_design)))
    term1 = wmean(ind_base * mr / p_base * (dataset.y - b), w_outer)

    # Mediator model on the comparison arm, weighted by the second term's weight.
    med_design = working_set[ROLE_MEDIATOR].design.reduce_at_e(icomp)
    w2_full = 1.0 / cr / p_comp * w_outer
    med_fit = _wls_on_rows(med_design, dataset, comp_rows, dataset.m, w2_full[comp_rows], ROLE_MEDIATOR)
    m_hat = np.asarray(predict_mean(med_fit, build_design_matrix(dataset, med_design)))
    b_prime = np.asarray(predict_mean(out_fit, build_design_matrix(dataset, out_design, Overrides(m=m_hat))))
    term2 = wmean(ind_comp / p_comp / cr * (b - b_prime), w_outer)

    # Post-treatment component models on the baseline arm, third term's weight.
    w3_full = 1.0 / p_base * w_outer
    c1_hat = np.empty((n, dataset.d1))
    for j in range(1, dataset.d1 + 1):
        cj_design = working_set[c1_mean_role(j)].design.reduce_at_e(ibase)
        cj_fit = _wls_on_rows(
            cj_design, dataset, base_rows, dataset.c1[:, j - 1], w3_full[base_rows], c1_mean_role(j)
        )
        c1_hat[:, j - 1] = np.asarray(predict_mean(cj_fit, build_design_matrix(dataset, cj_design)))
    m_hat_cf = np.asarray(
        predict_mean(med_fit, build_design_matrix(dataset, med_design, Overrides(c1=c1_hat)))
    )
    b_dd = np.asarray(
        predict_mean(out_fit, build_design_matrix(dataset, out_design, Overrides(m=m_hat_cf, c1=c1_hat)))
    )
    term3 = wmean(ind_base / p_base * (b_prime - b_dd), w_outer)

    return SequentialFit(
        value=wmean(b_dd, w_outer),
        term_values=(float(term1), float(term2), float(term3)),
        b_doubleprime=b_dd,
    )
