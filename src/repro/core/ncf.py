"""The Normalized Carbon Footprint (NCF) metric (paper §3.4).

When comparing design ``X`` against design ``Y`` FOCAL computes

* fixed-work:  ``NCF_fw,alpha(X, Y) = alpha * A_X/A_Y + (1-alpha) * E_X/E_Y``
* fixed-time:  ``NCF_ft,alpha(X, Y) = alpha * A_X/A_Y + (1-alpha) * P_X/P_Y``

with ``A`` chip area, ``E`` energy per unit work, ``P`` average power,
and ``alpha`` the embodied-to-operational weight. NCF < 1 means ``X``
incurs a lower footprint than ``Y``; NCF > 1 a higher footprint.

Two usage patterns appear in the paper and both are supported here:

1. **Pairwise NCF** (:func:`ncf`): directly compare two designs.
2. **Chart NCF** (:func:`ncf` with a common baseline): every figure
   normalizes all designs to one reference design (e.g. the one-BCE
   single core) and plots the resulting NCF values. The paper's in-text
   percentage comparisons ("reduces the footprint by 30 %") are *ratios
   of chart NCF values*; :func:`relative_footprint` computes exactly
   that. Note that because NCF is an affine combination, a ratio of
   chart NCFs is not in general equal to the pairwise NCF of the two
   designs — the paper consistently uses the former, and so do the
   studies in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .design import DesignPoint
from .errors import ValidationError
from .quantities import ensure_fraction, ensure_positive
from .scenario import E2OWeight, UseScenario

__all__ = [
    "ncf",
    "ncf_from_ratios",
    "ncf_band",
    "relative_footprint",
    "NCFBand",
    "NCFAssessment",
    "assess",
]


def ncf_from_ratios(
    area_ratio: float,
    operational_ratio: float,
    alpha: float,
) -> float:
    """NCF from pre-computed footprint ratios.

    ``area_ratio`` is ``A_X / A_Y``; ``operational_ratio`` is
    ``E_X / E_Y`` (fixed-work) or ``P_X / P_Y`` (fixed-time).
    """
    alpha = ensure_fraction(alpha, "alpha")
    area_ratio = ensure_positive(area_ratio, "area_ratio")
    operational_ratio = ensure_positive(operational_ratio, "operational_ratio")
    return alpha * area_ratio + (1.0 - alpha) * operational_ratio


def ncf(
    design: DesignPoint,
    baseline: DesignPoint,
    scenario: UseScenario,
    alpha: float,
) -> float:
    """The NCF of *design* compared against *baseline*.

    Parameters
    ----------
    design, baseline:
        The two designs to compare (``X`` and ``Y`` in the paper).
    scenario:
        Fixed-work (energy proxy) or fixed-time (power proxy).
    alpha:
        The embodied-to-operational weight in ``[0, 1]``.
    """
    return ncf_from_ratios(
        design.area_ratio(baseline),
        scenario.operational_ratio(design, baseline),
        alpha,
    )


@dataclass(frozen=True, slots=True)
class NCFBand:
    """An NCF value with its uncertainty band over the alpha range.

    ``low``/``high`` bound the NCF across ``alpha in [weight.low,
    weight.high]``; because NCF is affine in alpha, the extrema are
    attained at the band edges.
    """

    nominal: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if not (self.low <= self.nominal <= self.high):
            raise ValidationError(
                f"NCFBand must satisfy low <= nominal <= high, got "
                f"({self.low!r}, {self.nominal!r}, {self.high!r})"
            )

    @property
    def width(self) -> float:
        """Total width of the uncertainty band."""
        return self.high - self.low

    def below_one(self) -> bool:
        """True iff the entire band lies below 1 (robustly sustainable)."""
        return self.high < 1.0

    def above_one(self) -> bool:
        """True iff the entire band lies above 1 (robustly unsustainable)."""
        return self.low > 1.0

    def straddles_one(self) -> bool:
        """True iff the band contains 1 (inconclusive under uncertainty)."""
        return self.low <= 1.0 <= self.high

    def as_dict(self) -> Mapping[str, float]:
        return {"nominal": self.nominal, "low": self.low, "high": self.high}


def ncf_band(
    design: DesignPoint,
    baseline: DesignPoint,
    scenario: UseScenario,
    weight: E2OWeight,
) -> NCFBand:
    """NCF with error bars across the weight's alpha band.

    Because NCF is affine in alpha the band is computed exactly from
    the two edge alphas; no sampling is needed. The nominal value takes
    part in both extrema: for a band narrower than the rounding error,
    the edge values can land one ulp on the same side of it.
    """
    nominal = ncf(design, baseline, scenario, weight.alpha)
    at_low = ncf(design, baseline, scenario, weight.low)
    at_high = ncf(design, baseline, scenario, weight.high)
    return NCFBand(
        nominal=nominal,
        low=min(nominal, at_low, at_high),
        high=max(nominal, at_low, at_high),
    )


def relative_footprint(
    design_x: DesignPoint,
    design_y: DesignPoint,
    baseline: DesignPoint,
    scenario: UseScenario,
    alpha: float,
) -> float:
    """Ratio of chart NCF values: ``NCF(X vs base) / NCF(Y vs base)``.

    This is the quantity behind every in-text percentage in the paper's
    §5 figures ("16 BCEs reduces the footprint by 30 % versus 32
    BCEs"). A value below 1 means *design_x* sits lower on the chart
    than *design_y*.
    """
    num = ncf(design_x, baseline, scenario, alpha)
    den = ncf(design_y, baseline, scenario, alpha)
    return num / den


@dataclass(frozen=True, slots=True)
class NCFAssessment:
    """NCF of one comparison under both scenarios with error bands.

    This is the full information FOCAL produces for a design pair under
    one embodied-to-operational regime; §4's sustainability
    classification is a function of this object.
    """

    design: str
    baseline: str
    weight: E2OWeight
    fixed_work: NCFBand
    fixed_time: NCFBand

    def as_dict(self) -> Mapping[str, object]:
        return {
            "design": self.design,
            "baseline": self.baseline,
            "weight": self.weight.name,
            "alpha": self.weight.alpha,
            "ncf_fw": self.fixed_work.nominal,
            "ncf_fw_low": self.fixed_work.low,
            "ncf_fw_high": self.fixed_work.high,
            "ncf_ft": self.fixed_time.nominal,
            "ncf_ft_low": self.fixed_time.low,
            "ncf_ft_high": self.fixed_time.high,
        }


def assess(
    design: DesignPoint,
    baseline: DesignPoint,
    weight: E2OWeight,
) -> NCFAssessment:
    """Compute the NCF of *design* vs *baseline* under both scenarios."""
    return NCFAssessment(
        design=design.name,
        baseline=baseline.name,
        weight=weight,
        fixed_work=ncf_band(design, baseline, UseScenario.FIXED_WORK, weight),
        fixed_time=ncf_band(design, baseline, UseScenario.FIXED_TIME, weight),
    )
