"""Per-chip embodied-footprint proxy (paper §3.1, Figure 1).

The wafer is the unit of production, so the embodied footprint per
*good* chip is the wafer footprint divided by the number of good chips:

    embodied_per_chip  ∝  1 / (CPW(A) * Y(A))

FOCAL's figures normalize this to a reference die size (100 mm^2 in
Figure 1), which cancels the per-wafer constant; this module supports
both the normalized form and an absolute form given a per-wafer
footprint (useful with :mod:`repro.technode` data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.quantities import ensure_positive
from .geometry import WAFER_300MM, Wafer
from .yield_models import PerfectYield, YieldModel

__all__ = ["EmbodiedFootprintModel", "FIGURE1_REFERENCE_AREA_MM2"]

#: Figure 1 normalizes embodied footprint per chip to a 100 mm^2 die.
FIGURE1_REFERENCE_AREA_MM2 = 100.0


@dataclass(frozen=True, slots=True)
class EmbodiedFootprintModel:
    """Embodied footprint per chip as a function of die size.

    Parameters
    ----------
    wafer:
        Wafer geometry (default: 300 mm).
    yield_model:
        Die-yield model (default: perfect yield).
    footprint_per_wafer:
        Carbon footprint attributed to processing one wafer, in
        arbitrary units (default 1.0 — all FOCAL uses are relative).
    """

    wafer: Wafer = WAFER_300MM
    yield_model: YieldModel = field(default_factory=PerfectYield)
    footprint_per_wafer: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "footprint_per_wafer",
            ensure_positive(self.footprint_per_wafer, "footprint_per_wafer"),
        )

    def good_chips_per_wafer(self, die_area_mm2: float) -> float:
        """Gross chips per wafer times die yield."""
        return self.wafer.gross_dies(die_area_mm2) * self.yield_model.die_yield(
            die_area_mm2
        )

    def footprint_per_chip(self, die_area_mm2: float) -> float:
        """Embodied footprint attributed to one good chip."""
        return self.footprint_per_wafer / self.good_chips_per_wafer(die_area_mm2)

    def normalized_footprint(
        self,
        die_area_mm2: float,
        reference_area_mm2: float = FIGURE1_REFERENCE_AREA_MM2,
    ) -> float:
        """Footprint per chip normalized to a reference die size.

        This is exactly the y-axis of the paper's Figure 1.
        """
        ensure_positive(reference_area_mm2, "reference_area_mm2")
        return self.footprint_per_chip(die_area_mm2) / self.footprint_per_chip(
            reference_area_mm2
        )

    def sweep(
        self,
        die_areas_mm2: Sequence[float],
        reference_area_mm2: float = FIGURE1_REFERENCE_AREA_MM2,
    ) -> list[tuple[float, float]]:
        """(die area, normalized footprint) pairs for a range of sizes.

        Areas are echoed back exactly as passed. The loop is scalar:
        Figure 1 sweeps a few dozen sizes, far too few for NumPy's
        import to pay off; :func:`repro.wafer.batch.
        normalized_footprint_array` is the columnar twin for large
        sweeps.
        """
        return [
            (area, self.normalized_footprint(area, reference_area_mm2))
            for area in die_areas_mm2
        ]
