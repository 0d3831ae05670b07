"""Columnar DVFS kernels: array versions of the voltage/frequency
scaling laws (paper §5.8).

Twins of :mod:`repro.dvfs.laws` and
:func:`repro.dvfs.operating_point.scale_design` over arrays of
frequency multipliers. The cubic and quadratic laws route through
:func:`~repro.core.batch.exact_pow` (NumPy's array power loop is not
bit-identical to Python's ``s ** 3``), so every factor — and therefore
every scaled operating point — is bit-exact with the scalar path.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import ensure_positive_array, exact_pow
from ..core.design import DesignPoint
from .operating_point import DVFSConfig

__all__ = [
    "dynamic_power_factors",
    "dynamic_energy_factors",
    "leakage_power_factors",
    "performance_factors",
    "scale_design_arrays",
]


def dynamic_power_factors(freq_multipliers: object) -> np.ndarray:
    """Array twin of :func:`~repro.dvfs.laws.dynamic_power_factor`: ``s^3``."""
    s = ensure_positive_array(freq_multipliers, "freq_multipliers")
    return exact_pow(s, 3)


def dynamic_energy_factors(freq_multipliers: object) -> np.ndarray:
    """Array twin of :func:`~repro.dvfs.laws.dynamic_energy_factor`: ``s^2``."""
    s = ensure_positive_array(freq_multipliers, "freq_multipliers")
    return exact_pow(s, 2)


def leakage_power_factors(freq_multipliers: object) -> np.ndarray:
    """Array twin of :func:`~repro.dvfs.laws.leakage_power_factor`: ``s``."""
    return ensure_positive_array(freq_multipliers, "freq_multipliers").copy()


def performance_factors(freq_multipliers: object) -> np.ndarray:
    """Array twin of :func:`~repro.dvfs.laws.performance_factor`: ``s``."""
    return ensure_positive_array(freq_multipliers, "freq_multipliers").copy()


def scale_design_arrays(
    design: DesignPoint,
    freq_multipliers: object,
    config: DVFSConfig = DVFSConfig(),
    *,
    include_regulator_area: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of :func:`~repro.dvfs.operating_point.scale_design`.

    Returns ``(areas, perfs, powers)`` for *design* operated at each
    multiplier — element ``i`` is bit-exact with
    ``scale_design(design, s[i], config)``'s fields.
    """
    s = ensure_positive_array(freq_multipliers, "freq_multipliers")
    dynamic = (1.0 - config.leakage_fraction) * design.power
    leakage = config.leakage_fraction * design.power
    # The factor twins' arithmetic on the once-validated s: s^3 for
    # dynamic power, s for leakage power and for performance.
    powers = dynamic * exact_pow(s, 3) + leakage * s
    area_factor = 1.0 + (
        config.regulator_area_overhead if include_regulator_area else 0.0
    )
    areas = np.full_like(s, design.area * area_factor)
    return areas, design.perf * s, powers
