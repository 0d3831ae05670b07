"""Core microarchitectures: InO, FSC, OoO (paper §5.6, Figure 7)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("INO_CORE", "FSC_CORE", "OOO_CORE", "CORE_ROSTER", "core_by_name"),
        ".cores",
    ),
    **dict.fromkeys(
        ("CoreChartPoint", "core_chart", "CoreComparison", "compare_cores"),
        ".study",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
