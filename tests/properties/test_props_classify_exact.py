"""Generated exactness of the table-lookup classifier.

:func:`repro.core.batch.classify_arrays` runs the tolerance test only
inside a bracket around 1 and looks the code up in a 9-entry table. The
oracle here is the formulation it replaced — the tolerance test on every
value, then ``np.select`` over the sign pair — kept verbatim, plus the
scalar :func:`repro.core.classify.classify_values`. Values cluster
within a few ulps of every edge the bracket and the tolerance have
(1, 1 ± rel_tol, 1 / (1 - rel_tol), 1 ± abs_tol, the bracket ends), and
tolerances include 0, the 0.25 switch and values above 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import CATEGORIES, classify_arrays
from repro.core.classify import NEUTRAL_ABS_TOL, NEUTRAL_REL_TOL, classify_values
from repro.core.errors import ValidationError

STRONG, WEAK, LESS, NEUTRAL = range(4)


def select_oracle(ncf_fw, ncf_ft, rel_tol, abs_tol) -> np.ndarray:
    """The classifier before the table lookup: ``np.where`` signs with
    the tolerance test on every value, then ``np.select``."""

    def signs(values):
        tolerance = np.maximum(rel_tol * np.maximum(np.abs(values), 1.0), abs_tol)
        out = np.where(values < 1.0, -1, 1).astype(np.int8)
        out[np.abs(values - 1.0) <= tolerance] = 0
        return out

    fw_arr, ft_arr = np.broadcast_arrays(
        np.asarray(ncf_fw, dtype=np.float64), np.asarray(ncf_ft, dtype=np.float64)
    )
    fw, ft = signs(fw_arr), signs(ft_arr)
    return np.select(
        [(fw == 0) & (ft == 0), (fw <= 0) & (ft <= 0), (fw >= 0) & (ft >= 0)],
        [NEUTRAL, STRONG, LESS],
        default=WEAK,
    ).astype(np.int8)


def _ulps(x: float, k: int) -> float:
    """*x* moved *k* ulps (towards +inf for k > 0)."""
    x = np.float64(x)
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            -1.0, -0.5, 0.5, 2.0, 1.25, 0.75]

rel_tols = st.sampled_from(
    [0.0, NEUTRAL_REL_TOL, 1e-6, 1e-3, 0.1, 0.2, _ulps(0.25, -1), 0.25, 0.3,
     0.9, 1.0, 1.5, 3.0]
)
abs_tols = st.sampled_from(
    [0.0, NEUTRAL_ABS_TOL, 1e-7, 0.05, _ulps(0.25, -1), 0.25, 0.5, 1.0, 2.0]
)


@st.composite
def ncf_values(draw, rel_tol: float, abs_tol: float) -> float:
    """One NCF near an edge of the tolerance or of the bracket."""
    t = max(rel_tol, abs_tol)
    anchors = [1.0, 1.0 + rel_tol, 1.0 - rel_tol, 1.0 + abs_tol, 1.0 - abs_tol,
               1.0 - 2.0 * t, 1.0 + 4.0 * t]
    if rel_tol < 1.0:
        anchors.append(1.0 / (1.0 - rel_tol))
    kind = draw(st.sampled_from(["anchor", "special", "any"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIALS))
    if kind == "any":
        return draw(st.floats(min_value=-4.0, max_value=4.0))
    return _ulps(draw(st.sampled_from(anchors)), draw(st.integers(-4, 4)))


@st.composite
def cases(draw):
    """``(ncf_fw, ncf_ft, rel_tol, abs_tol)`` in a 0-d, 1-d, 2-d or
    broadcast shape."""
    rel_tol, abs_tol = draw(rel_tols), draw(abs_tols)
    values = st.lists(ncf_values(rel_tol, abs_tol), min_size=1, max_size=24)
    shape = draw(st.sampled_from(["0d", "1d", "2d", "row x column", "scalar x 1d"]))
    if shape == "0d":
        fw = np.float64(draw(ncf_values(rel_tol, abs_tol)))
        ft = np.float64(draw(ncf_values(rel_tol, abs_tol)))
        return np.array(fw), np.array(ft), rel_tol, abs_tol
    if shape == "scalar x 1d":
        return draw(ncf_values(rel_tol, abs_tol)), draw(values), rel_tol, abs_tol
    fw = np.array(draw(values))
    if shape == "1d":
        ft = np.array(draw(st.lists(
            ncf_values(rel_tol, abs_tol), min_size=fw.size, max_size=fw.size
        )))
        return fw, ft, rel_tol, abs_tol
    if shape == "2d":
        rows = draw(st.sampled_from([d for d in (1, 2, 3, 4) if fw.size % d == 0]))
        fw = fw.reshape(rows, -1)
        ft = np.array(draw(st.lists(
            ncf_values(rel_tol, abs_tol), min_size=fw.size, max_size=fw.size
        ))).reshape(fw.shape)
        return fw, ft, rel_tol, abs_tol
    return fw[:, None], np.array(draw(values))[None, :], rel_tol, abs_tol


class TestTableLookupExactness:
    @given(cases())
    @settings(max_examples=400)
    @example((np.array(1.0), np.array(1.0), 0.0, 0.0))
    @example((np.array(_ulps(1.0, 1)), np.array(1.0), 0.0, 0.0))
    @example((np.array([1e300, -1e300]), np.array([5e-324, -0.0]), 1.5, 0.0))
    @example((np.array([1.0 / 0.75]), np.array([0.75]), _ulps(0.25, -1), 0.0))
    @example((np.array([0.75, 0.5]), np.array([1.0]), 0.25, 0.0))
    def test_matches_select_oracle(self, case):
        fw, ft, rel_tol, abs_tol = case
        codes = classify_arrays(fw, ft, rel_tol=rel_tol, abs_tol=abs_tol)
        expected = select_oracle(fw, ft, rel_tol, abs_tol)
        assert codes.dtype == np.int8
        assert isinstance(codes, np.ndarray)
        assert codes.shape == expected.shape
        assert np.array_equal(codes, expected)

    @given(cases())
    @settings(max_examples=200)
    def test_matches_scalar_classify_values(self, case):
        """The scalar path takes only ``rel_tol``; ``abs_tol`` is its
        default here."""
        fw, ft, rel_tol, _ = case
        codes = classify_arrays(fw, ft, rel_tol=rel_tol)
        fw_b, ft_b = np.broadcast_arrays(np.asarray(fw, float), np.asarray(ft, float))
        scalar = [
            classify_values(float(a), float(b), rel_tol=rel_tol)
            for a, b in zip(fw_b.ravel(), ft_b.ravel())
        ]
        assert [CATEGORIES[code] for code in codes.ravel()] == scalar


class TestNonFiniteRejection:
    @given(
        st.integers(min_value=1, max_value=30),
        st.data(),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.sampled_from(["ncf_fw", "ncf_ft"]),
    )
    @settings(max_examples=60)
    def test_error_names_axis_and_flat_index(self, size, data, bad, axis):
        index = data.draw(st.integers(min_value=0, max_value=size - 1))
        arrays = {"ncf_fw": np.full(size, 0.5), "ncf_ft": np.full(size, 1.5)}
        arrays[axis][index] = bad
        with pytest.raises(ValidationError) as info:
            classify_arrays(arrays["ncf_fw"], arrays["ncf_ft"])
        assert f"{axis} values must be finite" in str(info.value)
        assert f"(flat index {index})" in str(info.value)

    def test_broadcast_flat_index_counts_the_broadcast_shape(self):
        # ft broadcasts to (2, 3): its NaN sits at flat indices 1 and 4.
        with pytest.raises(ValidationError, match=r"ncf_ft .*flat index 1\)"):
            classify_arrays(np.ones((2, 3)), np.array([0.5, np.nan, 0.5]))
