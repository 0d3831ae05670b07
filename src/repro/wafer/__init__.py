"""Wafer geometry, die yield, and the per-chip embodied-footprint proxy
(paper §3.1, Figure 1)."""

from .._lazy import lazy_exports
from .binning import BinnedYield, BinningModel
from .embodied import FIGURE1_REFERENCE_AREA_MM2, EmbodiedFootprintModel
from .geometry import WAFER_200MM, WAFER_300MM, WAFER_450MM, Wafer, chips_per_wafer
from .yield_models import (
    TSMC_VOLUME_DEFECT_DENSITY,
    BoseEinsteinYield,
    MurphyYield,
    PerfectYield,
    PoissonYield,
    SeedsYield,
    YieldModel,
)

__all__ = [
    "Wafer",
    "WAFER_200MM",
    "WAFER_300MM",
    "WAFER_450MM",
    "chips_per_wafer",
    "YieldModel",
    "PerfectYield",
    "PoissonYield",
    "MurphyYield",
    "SeedsYield",
    "BoseEinsteinYield",
    "TSMC_VOLUME_DEFECT_DENSITY",
    "EmbodiedFootprintModel",
    "FIGURE1_REFERENCE_AREA_MM2",
    "BinningModel",
    "BinnedYield",
    "chips_per_wafer_array",
    "de_vries_valid_mask",
    "die_yield_array",
    "footprint_per_chip_array",
    "normalized_footprint_array",
]

# The NumPy kernels load on first access, so the scalar model imports
# without NumPy.
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        (
            "chips_per_wafer_array",
            "de_vries_valid_mask",
            "die_yield_array",
            "footprint_per_chip_array",
            "normalized_footprint_array",
        ),
        ".batch",
    ),
)
