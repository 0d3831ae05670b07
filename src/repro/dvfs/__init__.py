"""Voltage/frequency scaling: DVFS, turbo boost, and iso-power solving
(paper §5.8, §7)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access: the scalar model
# imports without NumPy, and a command loads only the modules it runs.
_EXPORTS = {
    **dict.fromkeys(
        (
            "dynamic_power_factor",
            "dynamic_energy_factor",
            "leakage_power_factor",
            "performance_factor",
        ),
        ".laws",
    ),
    **dict.fromkeys(
        ("DVFSConfig", "scale_design", "classify_downscaling"), ".operating_point"
    ),
    **dict.fromkeys(
        ("TurboBoost", "boosted_design", "classify_turboboost"), ".turboboost"
    ),
    "capped_frequency_multiplier": ".power_cap",
    **dict.fromkeys(
        (
            "EnergyModel",
            "energy_for_multiplier",
            "optimal_multiplier",
            "race_vs_pace",
            "RaceVsPace",
        ),
        ".governor",
    ),
    **dict.fromkeys(
        (
            "dynamic_power_factors",
            "dynamic_energy_factors",
            "leakage_power_factors",
            "performance_factors",
            "scale_design_arrays",
        ),
        ".batch",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
