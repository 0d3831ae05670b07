"""FOCAL's core: design points, scenarios, the NCF metric, and the
strong/weak/less sustainability classification (paper §3–§4)."""

from .._lazy import lazy_exports
from .classify import (
    NEUTRAL_ABS_TOL,
    NEUTRAL_REL_TOL,
    Sustainability,
    Verdict,
    classify,
    classify_assessment,
    classify_pair,
    classify_values,
)
from .design import DesignPoint
from .errors import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ReproError,
    ResilienceError,
    UnknownStudyError,
    ValidationError,
    WorkerPoolError,
)
from .metrics import (
    ClassicMetric,
    Disagreement,
    disagreement,
    metric_ratio,
    metric_value,
)
from .mix import time_weighted_mix
from .ncf import (
    NCFAssessment,
    NCFBand,
    assess,
    ncf,
    ncf_band,
    ncf_from_ratios,
    relative_footprint,
)
from .pareto import ParetoPoint, pareto_designs, pareto_frontier
from .scenario import (
    BALANCED,
    EMBODIED_DOMINATED,
    OPERATIONAL_DOMINATED,
    STANDARD_WEIGHTS,
    E2OWeight,
    UseScenario,
)
from .uncertainty import Interval, RobustConclusion, robust_classification

__all__ = [
    # design
    "DesignPoint",
    # scenario
    "UseScenario",
    "E2OWeight",
    "EMBODIED_DOMINATED",
    "OPERATIONAL_DOMINATED",
    "BALANCED",
    "STANDARD_WEIGHTS",
    # ncf
    "ncf",
    "ncf_from_ratios",
    "ncf_band",
    "relative_footprint",
    "NCFBand",
    "NCFAssessment",
    "assess",
    # classification
    "Sustainability",
    "Verdict",
    "classify",
    "classify_values",
    "classify_assessment",
    "classify_pair",
    "NEUTRAL_REL_TOL",
    "NEUTRAL_ABS_TOL",
    # vectorized batch kernels
    "CATEGORIES",
    "ncf_values",
    "classify_arrays",
    "category_counts",
    "categories_from_codes",
    # uncertainty
    "Interval",
    "RobustConclusion",
    "robust_classification",
    # pareto
    "ParetoPoint",
    "pareto_frontier",
    "pareto_designs",
    # classical metrics
    "ClassicMetric",
    "metric_value",
    "metric_ratio",
    "Disagreement",
    "disagreement",
    # workload mixes
    "time_weighted_mix",
    # errors
    "ReproError",
    "ValidationError",
    "DomainError",
    "ConvergenceError",
    "ConfigurationError",
    "UnknownStudyError",
    "ResilienceError",
    "CheckpointError",
    "WorkerPoolError",
]

# The NumPy kernels load on first access, so the scalar model imports
# without NumPy.
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        (
            "CATEGORIES",
            "categories_from_codes",
            "category_counts",
            "classify_arrays",
            "ncf_values",
        ),
        ".batch",
    ),
)
