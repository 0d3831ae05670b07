"""Multicore performance/power laws: Amdahl, Pollack, Hill–Marty and
the Woo–Lee energy extensions (paper §5.1–§5.2)."""

from .._lazy import lazy_exports
from .asymmetric import AsymmetricMulticore
from .dynamic import DynamicMulticore
from .pollack import (
    big_core_design,
    pollack_energy,
    pollack_performance,
    pollack_power,
)
from .symmetric import DEFAULT_LEAKAGE, SymmetricMulticore

__all__ = [
    "SymmetricMulticore",
    "AsymmetricMulticore",
    "DynamicMulticore",
    "DEFAULT_LEAKAGE",
    "pollack_performance",
    "pollack_power",
    "pollack_energy",
    "big_core_design",
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
]

# The NumPy kernels load on first access, so the scalar model imports
# without NumPy.
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        (
            "asymmetric_energy",
            "asymmetric_power",
            "asymmetric_speedup",
            "asymmetric_valid_mask",
            "dynamic_energy",
            "dynamic_power",
            "dynamic_speedup",
            "symmetric_energy",
            "symmetric_power",
            "symmetric_speedup",
        ),
        ".batch",
    ),
)
