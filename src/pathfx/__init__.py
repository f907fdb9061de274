"""Estimation of the path-specific effect of a binary exposure through a
mediator when a post-treatment covariate confounds the mediator-outcome
relation and shares unmeasured causes with the outcome."""

from .core import (
    DataError,
    Dataset,
    DesignSpec,
    Overrides,
    PairCoding,
    Term,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    read_csv,
    recode_pair,
    restrict_to_pair,
    write_csv,
)
from .glm import (
    Family,
    FittedGlm,
    GlmError,
    NonConvergenceError,
    RankDeficiencyError,
    fit_glm,
    predict_mean,
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
    components_from_functions,
    compute_components,
    default_working_set,
    fit_nuisances,
    stabilize_probabilities,
)
from .estimators import (
    DEFAULT_DELTA_FOR,
    Analysis,
    EstimationError,
    Evaluation,
    beta_a,
    beta_b,
    beta_mle,
    beta_mr,
    beta_mr_sequential,
    combine_effect,
    delta_aipw,
    delta_gformula,
    delta_ipw,
    evaluate,
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
