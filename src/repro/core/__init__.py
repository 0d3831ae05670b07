"""FOCAL's core: design points, scenarios, the NCF metric, and the
strong/weak/less sustainability classification (paper §3–§4)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access: the scalar model
# imports without NumPy, and a command loads only the modules it runs.
_EXPORTS = {
    "DesignPoint": ".design",
    **dict.fromkeys(
        (
            "UseScenario",
            "E2OWeight",
            "EMBODIED_DOMINATED",
            "OPERATIONAL_DOMINATED",
            "BALANCED",
            "STANDARD_WEIGHTS",
        ),
        ".scenario",
    ),
    **dict.fromkeys(
        (
            "ncf",
            "ncf_from_ratios",
            "ncf_band",
            "relative_footprint",
            "NCFBand",
            "NCFAssessment",
            "assess",
        ),
        ".ncf",
    ),
    **dict.fromkeys(
        (
            "Sustainability",
            "Verdict",
            "classify",
            "classify_values",
            "classify_assessment",
            "classify_pair",
            "NEUTRAL_REL_TOL",
            "NEUTRAL_ABS_TOL",
        ),
        ".classify",
    ),
    **dict.fromkeys(
        (
            "CATEGORIES",
            "ncf_values",
            "classify_arrays",
            "category_counts",
            "categories_from_codes",
        ),
        ".batch",
    ),
    **dict.fromkeys(
        ("Interval", "RobustConclusion", "robust_classification"),
        ".uncertainty",
    ),
    **dict.fromkeys(
        ("ParetoPoint", "pareto_frontier", "pareto_designs"), ".pareto"
    ),
    **dict.fromkeys(
        (
            "ClassicMetric",
            "metric_value",
            "metric_ratio",
            "Disagreement",
            "disagreement",
        ),
        ".metrics",
    ),
    "time_weighted_mix": ".mix",
    **dict.fromkeys(
        (
            "ReproError",
            "ValidationError",
            "DomainError",
            "ConvergenceError",
            "ConfigurationError",
            "UnknownStudyError",
            "ResilienceError",
            "CheckpointError",
            "WorkerPoolError",
        ),
        ".errors",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
