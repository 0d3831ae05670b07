"""Columnar wafer kernels must be bit-exact with the scalar substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DomainError, ValidationError
from repro.wafer.batch import (
    binned_yield_array,
    bose_einstein_yield_array,
    chips_per_wafer_array,
    de_vries_valid_mask,
    die_yield_array,
    footprint_per_chip_array,
    good_chips_per_wafer_array,
    gross_dies_array,
    murphy_yield_array,
    normalized_footprint_array,
    poisson_yield_array,
    seeds_yield_array,
)
from repro.wafer.binning import BinnedYield, BinningModel
from repro.wafer.embodied import EmbodiedFootprintModel
from repro.wafer.geometry import WAFER_300MM, chips_per_wafer
from repro.wafer.yield_models import (
    BoseEinsteinYield,
    MurphyYield,
    PerfectYield,
    PoissonYield,
    SeedsYield,
)

AREAS = np.asarray([1.0, 25.0, 100.0, 147.0, 350.0, 800.0, 1200.0])
#: Just inside the de Vries validity root: the hardest geometric corner.
NEAR_MAX_AREA = WAFER_300MM.max_practical_die_area_mm2() * (1.0 - 1e-9)


class TestGeometryKernels:
    def test_gross_dies_bit_exact(self):
        batch = gross_dies_array(AREAS)
        scalar = [WAFER_300MM.gross_dies(float(a)) for a in AREAS]
        assert batch.tolist() == scalar

    def test_chips_per_wafer_bit_exact(self):
        batch = chips_per_wafer_array(AREAS)
        scalar = [chips_per_wafer(float(a)) for a in AREAS]
        assert batch.tolist() == scalar

    def test_near_max_practical_area(self):
        batch = chips_per_wafer_array([NEAR_MAX_AREA])
        assert batch[0] == chips_per_wafer(NEAR_MAX_AREA)

    def test_oversized_area_raises_domain_error(self):
        over = WAFER_300MM.max_practical_die_area_mm2() * 1.01
        with pytest.raises(DomainError):
            gross_dies_array([100.0, over])
        with pytest.raises(DomainError):
            WAFER_300MM.gross_dies(over)

    def test_de_vries_valid_mask_matches_scalar_raises(self):
        over = WAFER_300MM.max_practical_die_area_mm2() * 1.01
        areas = [100.0, NEAR_MAX_AREA, over]
        mask = de_vries_valid_mask(areas)
        for area, ok in zip(areas, mask):
            if ok:
                WAFER_300MM.gross_dies(area)  # must not raise
            else:
                with pytest.raises(DomainError):
                    WAFER_300MM.gross_dies(area)

    def test_rejects_non_positive_areas(self):
        with pytest.raises(ValidationError):
            gross_dies_array([100.0, 0.0])


class TestYieldKernels:
    @pytest.mark.parametrize("density", [0.0, 0.09, 0.5, 2.0])
    def test_poisson_bit_exact(self, density):
        model = PoissonYield(defect_density_per_cm2=density)
        batch = poisson_yield_array(AREAS, density)
        assert batch.tolist() == [model.die_yield(float(a)) for a in AREAS]

    @pytest.mark.parametrize("density", [0.0, 0.09, 0.5, 2.0])
    def test_murphy_bit_exact(self, density):
        model = MurphyYield(defect_density_per_cm2=density)
        batch = murphy_yield_array(AREAS, density)
        assert batch.tolist() == [model.die_yield(float(a)) for a in AREAS]

    @pytest.mark.parametrize("density", [0.09, 5.0, 50.0])
    def test_seeds_bit_exact_even_at_high_defect_density(self, density):
        model = SeedsYield(defect_density_per_cm2=density)
        batch = seeds_yield_array(AREAS, density)
        assert batch.tolist() == [model.die_yield(float(a)) for a in AREAS]

    def test_bose_einstein_bit_exact(self):
        model = BoseEinsteinYield(defect_density_per_cm2=0.2, critical_layers=8)
        batch = bose_einstein_yield_array(AREAS, 0.2, 8)
        assert batch.tolist() == [model.die_yield(float(a)) for a in AREAS]

    def test_binned_yield_bit_exact(self):
        binning = BinningModel(
            blocks=8, max_defective_blocks=2, defect_density_per_cm2=0.3
        )
        batch = binned_yield_array(AREAS, binning)
        assert batch.tolist() == [
            binning.sellable_fraction(float(a)) for a in AREAS
        ]

    def test_die_yield_array_dispatches_every_model(self):
        models = [
            PerfectYield(),
            PoissonYield(defect_density_per_cm2=0.09),
            MurphyYield(defect_density_per_cm2=0.09),
            SeedsYield(defect_density_per_cm2=0.09),
            BoseEinsteinYield(defect_density_per_cm2=0.09, critical_layers=8),
            BinnedYield(
                binning=BinningModel(
                    blocks=8, max_defective_blocks=2, defect_density_per_cm2=0.3
                )
            ),
        ]
        for model in models:
            batch = die_yield_array(model, AREAS)
            assert batch.tolist() == [model.die_yield(float(a)) for a in AREAS]

    def test_die_yield_array_falls_back_for_unknown_models(self):
        class HalfYield:
            def die_yield(self, area_mm2: float) -> float:
                return 0.5

        assert die_yield_array(HalfYield(), AREAS).tolist() == [0.5] * len(AREAS)


class TestFootprintKernels:
    @pytest.fixture
    def model(self):
        return EmbodiedFootprintModel(
            yield_model=MurphyYield(defect_density_per_cm2=0.09)
        )

    def test_good_chips_bit_exact(self, model):
        batch = good_chips_per_wafer_array(model, AREAS)
        assert batch.tolist() == [
            model.good_chips_per_wafer(float(a)) for a in AREAS
        ]

    def test_footprint_per_chip_bit_exact(self, model):
        batch = footprint_per_chip_array(model, AREAS)
        assert batch.tolist() == [
            model.footprint_per_chip(float(a)) for a in AREAS
        ]

    def test_normalized_footprint_bit_exact(self, model):
        batch = normalized_footprint_array(model, AREAS, 100.0)
        assert batch.tolist() == [
            model.normalized_footprint(float(a), 100.0) for a in AREAS
        ]

    def test_model_sweep_matches_normalized_footprint_array(self, model):
        values = normalized_footprint_array(model, AREAS, 100.0)
        pairs = model.sweep(AREAS.tolist(), 100.0)
        assert pairs == list(zip(AREAS.tolist(), values.tolist()))

    def test_model_sweep_echoes_areas_and_self_normalizes(self, model):
        areas = [100.0, 200.0, 400.0]
        assert [area for area, _ in model.sweep(areas, 100.0)] == areas
        values = dict(model.sweep(areas, 100.0))
        assert values[100.0] == 1.0  # self-normalization stays exact
