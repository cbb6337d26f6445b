"""Entropy-minimal approximation of empirical data to discrete causal models.

The package embeds observational and interventional sample distributions into
a product space, projects them onto the distributions consistent with an
assumed causal model (a linear program plus a re-weighting), and builds two
applications on top: probabilities of causation for binary monotone models
and bivariate causal discovery by error comparison.
"""

from .approximation import (
    ApproximationResult,
    EmpiricalInputs,
    TrivariateInputs,
    approximate,
    create_constraint_matrix,
    get_constraint_distribution,
    shift_for_time_lag,
)
from .causation import (
    CausationReport,
    calc_causal_probabilities,
    probabilities_decreasing,
    probabilities_increasing,
)
from .discovery import (
    Decision,
    DiscoveryConfig,
    DiscoveryVerdict,
    EnvSplit,
    PreprocessMode,
    build_inputs,
    direction_inputs,
    discover,
    monotone_preferred,
    preprocess,
    split_by_environment,
)
from .distributions import (
    DiscreteDistribution,
    DiscretizationResult,
    MarginalSelector,
    Shape,
    discretize_equal_frequency,
    empirical_joint,
    empirical_marginal,
    kl_divergence,
    marginalize,
)
from .exceptions import (
    CausalApproxError,
    InfeasibleConstraintsError,
    InsufficientDataError,
    NoMonotoneModelError,
    SolverFailureError,
    UnsupportedModelError,
)
from .generate import (
    BenchmarkReport,
    BenchmarkRow,
    ScmConfig,
    ScmSample,
    random_scm_config,
    run_benchmark,
    sample_scm,
)
from .models import (
    CausalModelSpec,
    ModelSpace,
    ModelVariant,
    SupportSet,
    build_support,
    model_space,
)
from .simplex import (
    FeasibilityReport,
    LpProblem,
    LpSolution,
    LpStatus,
    feasibility_check,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationResult",
    "BenchmarkReport",
    "BenchmarkRow",
    "CausalApproxError",
    "CausalModelSpec",
    "CausationReport",
    "Decision",
    "DiscreteDistribution",
    "DiscretizationResult",
    "DiscoveryConfig",
    "DiscoveryVerdict",
    "EmpiricalInputs",
    "EnvSplit",
    "FeasibilityReport",
    "InfeasibleConstraintsError",
    "InsufficientDataError",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "MarginalSelector",
    "ModelSpace",
    "ModelVariant",
    "NoMonotoneModelError",
    "PreprocessMode",
    "ScmConfig",
    "ScmSample",
    "Shape",
    "SolverFailureError",
    "SupportSet",
    "TrivariateInputs",
    "UnsupportedModelError",
    "approximate",
    "build_inputs",
    "build_support",
    "calc_causal_probabilities",
    "create_constraint_matrix",
    "direction_inputs",
    "discover",
    "discretize_equal_frequency",
    "empirical_joint",
    "empirical_marginal",
    "feasibility_check",
    "get_constraint_distribution",
    "kl_divergence",
    "marginalize",
    "model_space",
    "monotone_preferred",
    "preprocess",
    "probabilities_decreasing",
    "probabilities_increasing",
    "random_scm_config",
    "run_benchmark",
    "sample_scm",
    "shift_for_time_lag",
    "solve",
    "split_by_environment",
]
