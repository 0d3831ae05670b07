"""Lifetime and replacement analyses: GreenChip indifference points and
junkyard-computing amortization (paper §8 related work)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        (
            "DeviceFootprint",
            "indifference_point",
            "footprint_per_work",
            "breakeven_lifetime_extension",
        ),
        ".replacement",
    ),
    "device_from_act": ".act_bridge",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
