"""Parity tests: vectorized batch kernels vs the scalar reference.

The contract of :mod:`repro.core.batch` is bit-exactness — a sweep
computed through the array kernels must be indistinguishable from the
scalar loop it replaces. These tests assert exact (``==``) agreement on
seeded random inputs, including values exactly on and within the
neutral-boundary tolerance of NCF = 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    CATEGORIES,
    categories_from_codes,
    category_counts,
    classify_arrays,
    ncf_values,
)
from repro.core.classify import (
    NEUTRAL_ABS_TOL,
    NEUTRAL_REL_TOL,
    Sustainability,
    classify_values,
)
from repro.core.errors import ValidationError
from repro.core.ncf import ncf_from_ratios


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260805)


class TestNcfValues:
    def test_bit_exact_parity_on_random_inputs(self, rng):
        area = rng.uniform(0.05, 5.0, 2000)
        op = rng.uniform(0.05, 5.0, 2000)
        alphas = rng.uniform(0.0, 1.0, 2000)
        vectorized = ncf_values(area, op, alphas)
        scalar = [
            ncf_from_ratios(float(a), float(o), float(al))
            for a, o, al in zip(area, op, alphas)
        ]
        assert vectorized.tolist() == scalar  # exact, not approx

    def test_scalar_alpha_broadcasts(self, rng):
        area = rng.uniform(0.1, 3.0, 100)
        op = rng.uniform(0.1, 3.0, 100)
        vectorized = ncf_values(area, op, 0.8)
        scalar = [ncf_from_ratios(float(a), float(o), 0.8) for a, o in zip(area, op)]
        assert vectorized.tolist() == scalar

    def test_alpha_array_over_one_design(self):
        alphas = np.linspace(0.0, 1.0, 11)
        values = ncf_values(1.5, 0.5, alphas)
        assert values.shape == alphas.shape
        assert values[0] == 0.5 and values[-1] == 1.5

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValidationError, match="alphas"):
            ncf_values([1.0], [1.0], [1.5])

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValidationError, match="area_ratios"):
            ncf_values([1.0, 0.0], [1.0, 1.0], 0.5)
        with pytest.raises(ValidationError, match="op_ratios"):
            ncf_values([1.0], [-2.0], 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ncf_values([np.nan], [1.0], 0.5)
        with pytest.raises(ValidationError):
            ncf_values([1.0], [np.inf], 0.5)

    def test_empty_arrays(self):
        assert ncf_values([], [], 0.5).size == 0


def boundary_values() -> np.ndarray:
    """NCF values exactly on, just inside and just outside the neutral
    tolerance of 1 (rel_tol 1e-9, abs_tol 1e-12)."""
    eps = NEUTRAL_REL_TOL
    return np.array(
        [
            1.0,
            1.0 + 0.5 * eps,
            1.0 - 0.5 * eps,
            1.0 + eps,  # at the tolerance edge (either verdict; must agree)
            1.0 - eps,
            1.0 + 10 * eps,  # outside
            1.0 - 10 * eps,
            np.nextafter(1.0, 2.0),
            np.nextafter(1.0, 0.0),
            0.5,
            2.0,
            NEUTRAL_ABS_TOL,  # tiny but valid NCF, far below 1
        ]
    )


class TestClassifyArrays:
    def test_parity_on_random_inputs(self, rng):
        ncf_fw = rng.uniform(0.9, 1.1, 5000)
        ncf_ft = rng.uniform(0.9, 1.1, 5000)
        codes = classify_arrays(ncf_fw, ncf_ft)
        scalar = [
            classify_values(float(fw), float(ft)) for fw, ft in zip(ncf_fw, ncf_ft)
        ]
        assert categories_from_codes(codes) == scalar

    def test_parity_on_boundary_grid(self):
        """Every pairing of on/inside/outside-tolerance values."""
        values = boundary_values()
        fw_grid, ft_grid = np.meshgrid(values, values)
        codes = classify_arrays(fw_grid.ravel(), ft_grid.ravel())
        scalar = [
            classify_values(float(fw), float(ft))
            for fw, ft in zip(fw_grid.ravel(), ft_grid.ravel())
        ]
        assert categories_from_codes(codes) == scalar

    def test_parity_with_custom_rel_tol(self, rng):
        ncf_fw = 1.0 + rng.uniform(-3e-4, 3e-4, 2000)
        ncf_ft = 1.0 + rng.uniform(-3e-4, 3e-4, 2000)
        codes = classify_arrays(ncf_fw, ncf_ft, rel_tol=1e-4)
        scalar = [
            classify_values(float(fw), float(ft), rel_tol=1e-4)
            for fw, ft in zip(ncf_fw, ncf_ft)
        ]
        assert categories_from_codes(codes) == scalar

    def test_exact_boundary_is_neutral(self):
        assert categories_from_codes(classify_arrays([1.0], [1.0])) == [
            Sustainability.NEUTRAL
        ]

    def test_neutral_axis_not_worse(self):
        # NCF_fw < 1 with NCF_ft == 1 -> strong (paper Finding #10 reading)
        assert categories_from_codes(classify_arrays([0.9], [1.0])) == [
            Sustainability.STRONG
        ]
        assert categories_from_codes(classify_arrays([1.0], [1.2])) == [
            Sustainability.LESS
        ]

    def test_broadcasting_scalar_axis(self):
        codes = classify_arrays([0.5, 1.5], 0.9)
        assert categories_from_codes(codes) == [
            Sustainability.STRONG,
            Sustainability.WEAK,
        ]

    def test_codes_are_int8(self):
        assert classify_arrays([0.5], [0.5]).dtype == np.int8

    def test_scalar_inputs_give_a_0d_array(self):
        codes = classify_arrays(0.5, 0.9)
        assert type(codes) is np.ndarray
        assert codes.shape == () and codes.dtype == np.int8
        assert categories_from_codes(codes) == [Sustainability.STRONG]


class TestCategoryCounts:
    def test_matches_scalar_histogram(self, rng):
        ncf_fw = rng.uniform(0.95, 1.05, 3000)
        ncf_ft = rng.uniform(0.95, 1.05, 3000)
        counts = category_counts(classify_arrays(ncf_fw, ncf_ft))
        scalar: dict[Sustainability, int] = {cat: 0 for cat in Sustainability}
        for fw, ft in zip(ncf_fw, ncf_ft):
            scalar[classify_values(float(fw), float(ft))] += 1
        assert counts == scalar

    def test_includes_zero_count_categories(self):
        counts = category_counts(classify_arrays([0.5], [0.5]))
        assert set(counts) == set(Sustainability)
        assert counts[Sustainability.STRONG] == 1
        assert counts[Sustainability.LESS] == 0

    def test_counts_sum_to_samples(self, rng):
        codes = classify_arrays(rng.uniform(0.5, 2.0, 999), rng.uniform(0.5, 2.0, 999))
        assert sum(category_counts(codes).values()) == 999

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValidationError):
            category_counts([7])

    def test_rejects_negative_codes(self):
        with pytest.raises(ValidationError, match="must lie in"):
            category_counts([-1])
        with pytest.raises(ValidationError, match="must lie in"):
            category_counts(np.array([0, -1, 3], dtype=np.int8))


class TestCategories:
    def test_order_matches_codes(self):
        assert CATEGORIES == (
            Sustainability.STRONG,
            Sustainability.WEAK,
            Sustainability.LESS,
            Sustainability.NEUTRAL,
        )

    def test_roundtrip(self):
        codes = classify_arrays([0.5, 1.5, 2.0, 1.0], [0.5, 0.5, 2.0, 1.0])
        assert categories_from_codes(codes) == [
            Sustainability.STRONG,
            Sustainability.WEAK,
            Sustainability.LESS,
            Sustainability.NEUTRAL,
        ]
