"""Speculation mechanisms: branch prediction and runahead execution
(paper §5.7, Figure 8, Findings #12–#13)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BranchPredictorEffect",
            "PARIKH_HYBRID",
            "predictor_design",
            "ncf_vs_area",
            "max_sustainable_area",
        ),
        ".branch_prediction",
    ),
    **dict.fromkeys(
        (
            "RunaheadEffect",
            "PRE",
            "runahead_design",
            "runahead_ncf",
            "classify_runahead",
        ),
        ".runahead",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
