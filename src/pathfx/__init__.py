"""Estimation of the path-specific effect of a binary exposure through a
mediator when a post-treatment covariate confounds the mediator-outcome
relation and shares unmeasured causes with the outcome."""

from .core import (
    DataError,
    Dataset,
    DesignSpec,
    Overrides,
    PairCoding,
    Record,
    Term,
    TreatmentPair,
    build_design_matrix,
    build_design_row,
    dataset_from_arrays,
    read_csv,
    recode_pair,
    restrict_to_pair,
    validate_dataset,
    write_csv,
)
from .glm import (
    Family,
    FittedGlm,
    GlmError,
    NonConvergenceError,
    RankDeficiencyError,
    fit_glm,
    fit_glm_irls,
    fit_ols,
    predict_mean,
    score_and_information,
)
from .nuisance import (
    ModelSpec,
    NuisanceComponents,
    NuisanceError,
    NuisanceFits,
    NuisanceFunctions,
    PositivityError,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    c1_ratio,
    components_from_functions,
    compute_components,
    fit_nuisances,
    m_ratio,
    nested_mean_b,
    nested_mean_b_doubleprime,
    nested_mean_b_prime,
    stabilize_probabilities,
)
from .estimators import (
    DEFAULT_DELTA_FOR,
    EstimateResult,
    EstimationError,
    beta_a,
    beta_b,
    beta_mle,
    beta_mr,
    beta_mr_sequential,
    combine_effect,
    delta_aipw,
    delta_gformula,
    delta_ipw,
    influence_values,
)
from .inference import (
    BootstrapSpec,
    InferenceError,
    IntervalEstimate,
    TTestResult,
    bootstrap,
    derived_rng,
    mc_t_test,
    mle_sandwich_variance,
)
from .simulation import (
    RegimeReport,
    SimulationError,
    SimulationSpec,
    closed_form_beta0,
    closed_form_delta0,
    draw_dataset,
    oracle_beta0_mc,
    oracle_delta0_mc,
    run_monte_carlo,
    truth,
    working_models_for,
)

__version__ = "0.1.0"
