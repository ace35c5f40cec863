"""Two-step gradient-matching parameter estimation for ODEs.

Fit a regression spline to a noisy trajectory, differentiate it, and estimate
the vector-field parameters by minimizing the weighted L2 distance between the
spline derivative and the field along the fitted path.  No ODE solves are
needed during estimation; the asymptotic diagnostics quantify how spline error
propagates into the estimate.
"""

from .errors import (
    BlowupError,
    ConfigError,
    DegreesOfFreedomError,
    ExperimentError,
    GradMatchError,
    IdentifiabilityError,
    IdentifiabilityWarning,
)
from .splines import (
    BSplineBasis,
    KnotSequence,
    SplineFit,
    design_matrix,
    eval_basis,
    eval_basis_derivative,
    eval_fit,
    eval_fit_derivative,
    fit_least_squares,
    pointwise_variance,
)
from .knots import (
    KnotPolicy,
    SelectionResult,
    default_knot_count,
    elim_add,
    gcv_score,
    select_knots,
    uniform_knots,
)
from .models import (
    MODEL_REGISTRY,
    ModelSpec,
    PartiallyLinearSystem,
    Trajectory,
    VectorFieldModel,
    damped_linear_field,
    duhamel_solve,
    get_model_spec,
    glv_field,
    integrate,
    matrix_exponential,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .estimator import (
    WEIGHT_NAMES,
    CriterionConfig,
    PartialObservationEstimate,
    TwoStepEstimate,
    WeightFunction,
    boundary_functional,
    criterion,
    criterion_components,
    criterion_hessian,
    estimate_report,
    estimate_weights,
    fit_linear_in_theta,
    fit_nonlinear,
    fit_partially_observed,
    quadrature_grid,
    smooth_functional,
    write_report,
)
from .montecarlo import (
    ExperimentConfig,
    ReplicationResult,
    SummaryTable,
    WeightSummary,
    ks_normality,
    run_experiment,
    run_replication,
    simulate_data,
    summary_text,
    write_raw_csv,
    write_summary_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
