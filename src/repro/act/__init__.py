"""Simplified bottom-up ACT-style model and the FOCAL-vs-ACT agreement
harness (paper §3.5)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(("ActChipSpec", "ActFootprint", "ActModel"), ".model"),
    **dict.fromkeys(
        (
            "ActNodeParams",
            "ACT_NODE_PARAMS",
            "CarbonIntensity",
            "COAL_HEAVY_GRID",
            "WORLD_AVERAGE_GRID",
            "RENEWABLE_GRID",
        ),
        ".params",
    ),
    **dict.fromkeys(
        ("DeviceSpec", "DeviceFootprintBreakdown", "SystemActModel"), ".system"
    ),
    **dict.fromkeys(
        ("AgreementReport", "compare_focal_vs_act", "focal_design_from_spec"),
        ".compare",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
