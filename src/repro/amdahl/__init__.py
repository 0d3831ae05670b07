"""Multicore performance/power laws: Amdahl, Pollack, Hill–Marty and
the Woo–Lee energy extensions (paper §5.1–§5.2)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access: the scalar model
# imports without NumPy, and a command loads only the laws it runs.
_EXPORTS = {
    "SymmetricMulticore": ".symmetric",
    "AsymmetricMulticore": ".asymmetric",
    "DynamicMulticore": ".dynamic",
    "DEFAULT_LEAKAGE": ".symmetric",
    **dict.fromkeys(
        (
            "pollack_performance",
            "pollack_power",
            "pollack_energy",
            "big_core_design",
        ),
        ".pollack",
    ),
    **dict.fromkeys(
        (
            "symmetric_speedup",
            "symmetric_energy",
            "symmetric_power",
            "asymmetric_valid_mask",
            "asymmetric_speedup",
            "asymmetric_energy",
            "asymmetric_power",
            "dynamic_speedup",
            "dynamic_energy",
            "dynamic_power",
        ),
        ".batch",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
