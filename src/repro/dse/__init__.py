"""Design-space exploration: grids, sweeps, Pareto frontiers,
break-even solving, sensitivity and Monte-Carlo robustness.

Two sweep engines share one semantics: :class:`Explorer` is the scalar
reference path, :class:`BatchExplorer` the vectorized production path
(chunked streaming, optional process-pool factory evaluation, memoized
factories, array-at-once NCF/classification kernels).
"""

from .._lazy import lazy_exports

# Every name loads with its module on first access, so importing one
# engine piece does not load the others.
_EXPORTS = {
    **dict.fromkeys(("ParameterGrid", "geometric_range", "linear_range"), ".grid"),
    **dict.fromkeys(("Explorer", "ExplorationResult"), ".explorer"),
    **dict.fromkeys(
        (
            "BatchExplorer",
            "BatchSweepResult",
            "FactoryCache",
            "params_key",
            "DesignArrays",
            "VectorFactory",
            "is_vector_factory",
            "SweepEngineStats",
        ),
        ".batch",
    ),
    **dict.fromkeys(
        (
            "SymmetricMulticoreFactory",
            "AsymmetricMulticoreFactory",
            "DVFSOperatingPointFactory",
        ),
        ".factories",
    ),
    **dict.fromkeys(("bisect_crossing", "crossing_or_none"), ".breakeven"),
    **dict.fromkeys(("SensitivityEntry", "tornado", "cached_metric"), ".sensitivity"),
    **dict.fromkeys(
        ("CategoryProbabilities", "sample_verdicts", "sample_measurement_noise"),
        ".montecarlo",
    ),
    **dict.fromkeys(
        ("max_perf_subject_to_ncf", "min_ncf_subject_to_perf"), ".optimizer"
    ),
    **dict.fromkeys(("ResultStore", "StoreStats"), ".store"),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
