"""Voltage/frequency scaling: DVFS, turbo boost, and iso-power solving
(paper §5.8, §7)."""

from .._lazy import lazy_exports
from .governor import (
    EnergyModel,
    RaceVsPace,
    energy_for_multiplier,
    optimal_multiplier,
    race_vs_pace,
)
from .laws import (
    dynamic_energy_factor,
    dynamic_power_factor,
    leakage_power_factor,
    performance_factor,
)
from .operating_point import DVFSConfig, classify_downscaling, scale_design
from .power_cap import capped_frequency_multiplier
from .turboboost import TurboBoost, boosted_design, classify_turboboost

__all__ = [
    "dynamic_power_factor",
    "dynamic_energy_factor",
    "leakage_power_factor",
    "performance_factor",
    "DVFSConfig",
    "scale_design",
    "classify_downscaling",
    "TurboBoost",
    "boosted_design",
    "classify_turboboost",
    "capped_frequency_multiplier",
    "EnergyModel",
    "energy_for_multiplier",
    "optimal_multiplier",
    "race_vs_pace",
    "RaceVsPace",
    "dynamic_power_factors",
    "dynamic_energy_factors",
    "leakage_power_factors",
    "performance_factors",
    "scale_design_arrays",
]

# The NumPy kernels load on first access, so the scalar model imports
# without NumPy.
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        (
            "dynamic_energy_factors",
            "dynamic_power_factors",
            "leakage_power_factors",
            "performance_factors",
            "scale_design_arrays",
        ),
        ".batch",
    ),
)
