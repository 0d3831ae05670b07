"""Unit tests for repro.core.ncf — the NCF metric itself."""

from __future__ import annotations

import pytest

from repro.core.design import DesignPoint
from repro.core.errors import ValidationError
from repro.core.ncf import (
    NCFBand,
    assess,
    ncf,
    ncf_band,
    ncf_from_ratios,
    relative_footprint,
)
from repro.core.scenario import EMBODIED_DOMINATED, E2OWeight, UseScenario

FW = UseScenario.FIXED_WORK
FT = UseScenario.FIXED_TIME


class TestNCFFromRatios:
    def test_affine_combination(self):
        assert ncf_from_ratios(2.0, 0.5, 0.5) == pytest.approx(1.25)

    def test_alpha_zero_is_operational_only(self):
        assert ncf_from_ratios(99.0, 0.4, 0.0) == pytest.approx(0.4)

    def test_alpha_one_is_embodied_only(self):
        assert ncf_from_ratios(1.7, 99.0, 1.0) == pytest.approx(1.7)

    def test_rejects_alpha_outside_unit(self):
        with pytest.raises(ValidationError):
            ncf_from_ratios(1.0, 1.0, 1.5)

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValidationError):
            ncf_from_ratios(0.0, 1.0, 0.5)


class TestNCF:
    def test_identity_design_gives_one(self, baseline):
        for scenario in (FW, FT):
            for alpha in (0.0, 0.2, 0.8, 1.0):
                assert ncf(baseline, baseline, scenario, alpha) == pytest.approx(1.0)

    def test_fixed_work_uses_energy(self, baseline):
        # perf 2, power 1 -> energy 0.5: fixed-work rewards it fully.
        d = DesignPoint("x", area=1.0, perf=2.0, power=1.0)
        assert ncf(d, baseline, FW, 0.0) == pytest.approx(0.5)
        assert ncf(d, baseline, FT, 0.0) == pytest.approx(1.0)

    def test_paper_fsc_vs_ino_values(self, baseline):
        """The §5.6 FSC-vs-InO numbers as a canonical worked example."""
        fsc = DesignPoint("FSC", area=1.01, perf=1.64, power=1.01)
        assert ncf(fsc, baseline, FW, 0.8) == pytest.approx(
            0.8 * 1.01 + 0.2 * (1.01 / 1.64)
        )
        assert ncf(fsc, baseline, FT, 0.8) == pytest.approx(1.01)

    def test_below_one_means_lower_footprint(self, better_design, baseline):
        assert ncf(better_design, baseline, FW, 0.5) < 1.0
        assert ncf(better_design, baseline, FT, 0.5) < 1.0

    def test_above_one_means_higher_footprint(self, worse_design, baseline):
        assert ncf(worse_design, baseline, FW, 0.5) > 1.0

    def test_monotone_in_alpha_when_embodied_worse(self, baseline):
        d = DesignPoint("x", area=2.0, perf=1.0, power=0.5)
        values = [ncf(d, baseline, FT, a) for a in (0.1, 0.5, 0.9)]
        assert values == sorted(values)

    def test_reciprocity_not_assumed(self, baseline):
        """NCF(X,Y) * NCF(Y,X) != 1 in general (affine, not ratio)."""
        x = DesignPoint("x", area=2.0, perf=1.0, power=0.5)
        forward = ncf(x, baseline, FW, 0.5)
        backward = ncf(baseline, x, FW, 0.5)
        assert forward * backward != pytest.approx(1.0)


class TestNCFBandClass:
    def test_valid_band(self):
        band = NCFBand(nominal=1.0, low=0.9, high=1.1)
        assert band.width == pytest.approx(0.2)
        assert band.straddles_one()
        assert not band.below_one()
        assert not band.above_one()

    def test_below_one(self):
        band = NCFBand(nominal=0.8, low=0.7, high=0.9)
        assert band.below_one()
        assert not band.straddles_one()

    def test_above_one(self):
        band = NCFBand(nominal=1.2, low=1.1, high=1.3)
        assert band.above_one()

    def test_rejects_disordered(self):
        with pytest.raises(ValidationError):
            NCFBand(nominal=0.5, low=0.9, high=1.1)

    def test_as_dict(self):
        band = NCFBand(nominal=1.0, low=0.9, high=1.1)
        assert band.as_dict() == {"nominal": 1.0, "low": 0.9, "high": 1.1}


class TestNCFBandComputation:
    def test_band_edges_exact_for_affine(self, baseline):
        d = DesignPoint("x", area=2.0, perf=1.0, power=0.5)
        band = ncf_band(d, baseline, FT, EMBODIED_DOMINATED)
        # NCF(alpha) = alpha*2 + (1-alpha)*0.5 is increasing in alpha.
        assert band.low == pytest.approx(0.7 * 2.0 + 0.3 * 0.5)
        assert band.high == pytest.approx(0.9 * 2.0 + 0.1 * 0.5)
        assert band.nominal == pytest.approx(0.8 * 2.0 + 0.2 * 0.5)

    def test_zero_spread_band_degenerates(self, baseline):
        d = DesignPoint("x", area=2.0, perf=1.0, power=0.5)
        weight = E2OWeight("point", alpha=0.3)
        band = ncf_band(d, baseline, FT, weight)
        assert band.low == band.high == band.nominal

    def test_band_orientation_flips_with_slope(self, baseline):
        """When area improves and power worsens the NCF decreases with
        alpha, so the band must still come back ordered."""
        d = DesignPoint("x", area=0.5, perf=1.0, power=2.0)
        band = ncf_band(d, baseline, FT, EMBODIED_DOMINATED)
        assert band.low <= band.nominal <= band.high

    def test_sub_ulp_band_still_contains_nominal(self):
        """Both edge values can round one ulp above the nominal NCF when
        the band is narrower than the rounding error."""
        x = DesignPoint("x", 1000.0, 1000.0, 7.0)
        y = DesignPoint("y", 384.71594527196487, 4.076123290760299, 3.0)
        weight = E2OWeight("w", alpha=0.25, spread=2.2e-16)
        band = ncf_band(x, y, FT, weight)
        assert band.low <= band.nominal <= band.high
        assert band.nominal == ncf(x, y, FT, 0.25)


class TestRelativeFootprint:
    def test_equal_designs_ratio_one(self, baseline, better_design):
        assert relative_footprint(
            better_design, better_design, baseline, FW, 0.5
        ) == pytest.approx(1.0)

    def test_matches_manual_chart_ratio(self, baseline):
        x = DesignPoint("x", area=16.0, perf=9.0, power=10.0)
        y = DesignPoint("y", area=32.0, perf=7.8, power=12.6)
        expected = ncf(x, baseline, FT, 0.2) / ncf(y, baseline, FT, 0.2)
        assert relative_footprint(x, y, baseline, FT, 0.2) == pytest.approx(expected)

    def test_differs_from_pairwise_ncf_in_general(self, baseline):
        """The paper's percentage convention (chart ratio) is not the
        pairwise NCF — guard the distinction."""
        x = DesignPoint("x", area=16.0, perf=9.0, power=10.0)
        y = DesignPoint("y", area=32.0, perf=7.8, power=12.6)
        chart = relative_footprint(x, y, baseline, FT, 0.2)
        pairwise = ncf(x, y, FT, 0.2)
        assert chart != pytest.approx(pairwise)


class TestAssess:
    def test_assessment_structure(self, better_design, baseline):
        a = assess(better_design, baseline, EMBODIED_DOMINATED)
        assert a.design == "better"
        assert a.baseline == "baseline"
        assert a.fixed_work.nominal == pytest.approx(
            ncf(better_design, baseline, FW, 0.8)
        )
        assert a.fixed_time.nominal == pytest.approx(
            ncf(better_design, baseline, FT, 0.8)
        )

    def test_as_dict_keys(self, better_design, baseline):
        payload = assess(better_design, baseline, EMBODIED_DOMINATED).as_dict()
        for key in ("ncf_fw", "ncf_ft", "ncf_fw_low", "ncf_ft_high", "alpha"):
            assert key in payload
