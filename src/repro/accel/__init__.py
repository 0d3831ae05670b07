"""Hardware acceleration and dark silicon (paper §5.3–§5.4, Figure 5)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Accelerator",
            "AcceleratedSystem",
            "HAMEED_H264",
            "breakeven_utilization",
        ),
        ".accelerator",
    ),
    **dict.fromkeys(("DarkSiliconSoC", "PAPER_DARK_SILICON"), ".dark_silicon"),
    **dict.fromkeys(
        ("SoC", "ScheduledAccelerator", "reconfigurable_equivalent"), ".soc"
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
