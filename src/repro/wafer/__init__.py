"""Wafer geometry, die yield, and the per-chip embodied-footprint proxy
(paper §3.1, Figure 1)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access: the scalar model
# imports without NumPy, and a command loads only the modules it runs.
_EXPORTS = {
    **dict.fromkeys(
        ("Wafer", "WAFER_200MM", "WAFER_300MM", "WAFER_450MM", "chips_per_wafer"),
        ".geometry",
    ),
    **dict.fromkeys(
        (
            "YieldModel",
            "PerfectYield",
            "PoissonYield",
            "MurphyYield",
            "SeedsYield",
            "BoseEinsteinYield",
            "TSMC_VOLUME_DEFECT_DENSITY",
        ),
        ".yield_models",
    ),
    **dict.fromkeys(
        ("EmbodiedFootprintModel", "FIGURE1_REFERENCE_AREA_MM2"), ".embodied"
    ),
    **dict.fromkeys(("BinningModel", "BinnedYield"), ".binning"),
    **dict.fromkeys(
        (
            "chips_per_wafer_array",
            "de_vries_valid_mask",
            "die_yield_array",
            "footprint_per_chip_array",
            "normalized_footprint_array",
        ),
        ".batch",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
