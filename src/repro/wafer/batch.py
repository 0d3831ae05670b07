"""Columnar wafer kernels: array-in/array-out versions of the wafer
substrate (paper §3.1, Figure 1).

Every function here is the NumPy twin of a scalar method in
:mod:`repro.wafer.geometry`, :mod:`repro.wafer.yield_models`,
:mod:`repro.wafer.binning` or :mod:`repro.wafer.embodied`, and is
**bit-exact** with it: the kernels perform the same IEEE-754 operations
in the same order (transcendental sites route through the exact
elementwise helpers in :mod:`repro.core.batch`, because NumPy's SIMD
``exp``/``expm1`` drift from libm by an ulp on a few percent of
inputs). A die-area sweep through these kernels therefore produces
byte-identical curves to the scalar per-point loop
(:meth:`repro.wafer.embodied.EmbodiedFootprintModel.sweep`) — the
speedup is free of numerical consequences. The figure studies sweep
too few die sizes to need them and stay scalar, without NumPy.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.batch import (
    ensure_non_negative_array,
    ensure_positive_array,
    exact_exp,
    exact_expm1,
    exact_pow,
)
from ..core.errors import DomainError
from ..core.quantities import ensure_positive
from .binning import BinningModel
from .embodied import FIGURE1_REFERENCE_AREA_MM2, EmbodiedFootprintModel
from .geometry import DE_VRIES_EDGE_COEFFICIENT, WAFER_300MM, Wafer
from .yield_models import (
    BoseEinsteinYield,
    MurphyYield,
    PerfectYield,
    PoissonYield,
    SeedsYield,
    YieldModel,
)

__all__ = [
    "gross_dies_array",
    "chips_per_wafer_array",
    "de_vries_valid_mask",
    "poisson_yield_array",
    "murphy_yield_array",
    "seeds_yield_array",
    "bose_einstein_yield_array",
    "binned_yield_array",
    "die_yield_array",
    "good_chips_per_wafer_array",
    "footprint_per_chip_array",
    "normalized_footprint_array",
]

_MM2_PER_CM2 = 100.0


def _defects_per_die_array(
    die_areas_mm2: object, density_per_cm2: float
) -> np.ndarray:
    """Array twin of ``yield_models._defects_per_die``: ``A * D``."""
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    return areas / _MM2_PER_CM2 * density_per_cm2


# ----------------------------------------------------------------------
# Geometry (de Vries chips per wafer)
# ----------------------------------------------------------------------
def gross_dies_array(
    die_areas_mm2: object, wafer: Wafer = WAFER_300MM
) -> np.ndarray:
    """Array twin of :meth:`~repro.wafer.geometry.Wafer.gross_dies`.

    Raises :class:`~repro.core.errors.DomainError` when any die exceeds
    the de Vries formula's validity (non-positive predicted count),
    matching the scalar method; use :func:`de_vries_valid_mask` first
    when sweeping across the validity boundary.
    """
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    edge = DE_VRIES_EDGE_COEFFICIENT * math.pi * wafer.diameter_mm
    cpw = wafer.area_mm2 / areas - edge / np.sqrt(areas)
    bad = cpw <= 0.0
    if bad.any():
        index = int(np.argmax(bad.ravel()))
        area = areas.ravel()[index]
        raise DomainError(
            f"die area {area:g} mm^2 exceeds the de Vries formula's validity "
            f"for a {wafer.diameter_mm:g} mm wafer "
            f"(predicted CPW {cpw.ravel()[index]:g})"
        )
    return cpw


def chips_per_wafer_array(
    die_areas_mm2: object, wafer: Wafer = WAFER_300MM
) -> np.ndarray:
    """Array twin of :func:`~repro.wafer.geometry.chips_per_wafer`."""
    return gross_dies_array(die_areas_mm2, wafer)


def de_vries_valid_mask(
    die_areas_mm2: object, wafer: Wafer = WAFER_300MM
) -> np.ndarray:
    """Boolean mask of die areas inside the de Vries validity region.

    ``True`` exactly where the scalar :meth:`Wafer.gross_dies` would
    return instead of raising ``DomainError`` — the masking primitive
    for sweeps that cross the validity boundary.
    """
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    edge = DE_VRIES_EDGE_COEFFICIENT * math.pi * wafer.diameter_mm
    cpw = wafer.area_mm2 / areas - edge / np.sqrt(areas)
    return cpw > 0.0


# ----------------------------------------------------------------------
# Die-yield models
# ----------------------------------------------------------------------
def poisson_yield_array(
    die_areas_mm2: object, defect_density_per_cm2: float
) -> np.ndarray:
    """Array twin of :meth:`PoissonYield.die_yield`: ``exp(-A D)``."""
    density = ensure_positive_or_zero(defect_density_per_cm2)
    ad = _defects_per_die_array(die_areas_mm2, density)
    return exact_exp(-ad)


def murphy_yield_array(
    die_areas_mm2: object, defect_density_per_cm2: float
) -> np.ndarray:
    """Array twin of :meth:`MurphyYield.die_yield`:
    ``((1 - exp(-A D)) / (A D))^2`` with the small-``A D`` limit."""
    density = ensure_positive_or_zero(defect_density_per_cm2)
    ad = _defects_per_die_array(die_areas_mm2, density)
    small = ad < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        value = exact_pow(-exact_expm1(-ad) / ad, 2)
    return np.where(small, 1.0, value)


def seeds_yield_array(
    die_areas_mm2: object, defect_density_per_cm2: float
) -> np.ndarray:
    """Array twin of :meth:`SeedsYield.die_yield`: ``1 / (1 + A D)``."""
    density = ensure_positive_or_zero(defect_density_per_cm2)
    ad = _defects_per_die_array(die_areas_mm2, density)
    return 1.0 / (1.0 + ad)


def bose_einstein_yield_array(
    die_areas_mm2: object,
    defect_density_per_cm2: float,
    critical_layers: int,
) -> np.ndarray:
    """Array twin of :meth:`BoseEinsteinYield.die_yield`:
    ``(1 + A D / n)^-n`` for *n* critical layers."""
    density = ensure_positive_or_zero(defect_density_per_cm2)
    ad = _defects_per_die_array(die_areas_mm2, density)
    per_layer = ad / critical_layers
    return exact_pow(1.0 + per_layer, -critical_layers)


def binned_yield_array(die_areas_mm2: object, binning: BinningModel) -> np.ndarray:
    """Array twin of :meth:`BinningModel.sellable_fraction`."""
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    expected_defects = areas / _MM2_PER_CM2 * binning.defect_density_per_cm2
    p_good = exact_exp(-expected_defects / binning.blocks)
    p_bad = 1.0 - p_good
    total = np.zeros_like(areas)
    for k in range(binning.max_defective_blocks + 1):
        total = total + math.comb(binning.blocks, k) * exact_pow(
            p_bad, k
        ) * exact_pow(p_good, binning.blocks - k)
    return np.minimum(1.0, total)


def ensure_positive_or_zero(density: float) -> float:
    """Validate a defect density exactly like the scalar models do."""
    from ..core.quantities import ensure_non_negative

    return ensure_non_negative(density, "defect_density_per_cm2")


def die_yield_array(model: YieldModel, die_areas_mm2: object) -> np.ndarray:
    """Per-area die yields for any :class:`YieldModel`.

    The stock models dispatch to their columnar kernels; an unknown
    model falls back to its scalar ``die_yield`` per element (still
    bit-exact — it *is* the scalar path — just not vectorized).
    """
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    if isinstance(model, PerfectYield):
        return np.ones_like(areas)
    if isinstance(model, PoissonYield):
        return poisson_yield_array(areas, model.defect_density_per_cm2)
    if isinstance(model, MurphyYield):
        return murphy_yield_array(areas, model.defect_density_per_cm2)
    if isinstance(model, SeedsYield):
        return seeds_yield_array(areas, model.defect_density_per_cm2)
    if isinstance(model, BoseEinsteinYield):
        return bose_einstein_yield_array(
            areas, model.defect_density_per_cm2, model.critical_layers
        )
    binning = getattr(model, "binning", None)
    if isinstance(binning, BinningModel):
        return binned_yield_array(areas, binning)
    flat = areas.ravel()
    out = np.fromiter(
        (model.die_yield(float(a)) for a in flat), np.float64, count=flat.size
    )
    return out.reshape(areas.shape)


# ----------------------------------------------------------------------
# Embodied footprint per chip
# ----------------------------------------------------------------------
def good_chips_per_wafer_array(
    model: EmbodiedFootprintModel, die_areas_mm2: object
) -> np.ndarray:
    """Array twin of :meth:`EmbodiedFootprintModel.good_chips_per_wafer`."""
    areas = ensure_positive_array(die_areas_mm2, "die_areas_mm2")
    return gross_dies_array(areas, model.wafer) * die_yield_array(
        model.yield_model, areas
    )


def footprint_per_chip_array(
    model: EmbodiedFootprintModel, die_areas_mm2: object
) -> np.ndarray:
    """Array twin of :meth:`EmbodiedFootprintModel.footprint_per_chip`."""
    return model.footprint_per_wafer / good_chips_per_wafer_array(
        model, die_areas_mm2
    )


def normalized_footprint_array(
    model: EmbodiedFootprintModel,
    die_areas_mm2: object,
    reference_area_mm2: float = FIGURE1_REFERENCE_AREA_MM2,
) -> np.ndarray:
    """Array twin of :meth:`EmbodiedFootprintModel.normalized_footprint`.

    The reference divisor is computed through the scalar path, so each
    element equals exactly what the scalar method returns for it.
    """
    ensure_positive(reference_area_mm2, "reference_area_mm2")
    return footprint_per_chip_array(
        model, die_areas_mm2
    ) / model.footprint_per_chip(reference_area_mm2)

