"""Vectorized batch kernels for NCF evaluation and classification.

Every figure and finding in FOCAL is a sweep: the design-space explorer
maps a factory over a cartesian grid and the Monte-Carlo module
classifies tens of thousands of samples per design pair. This module
provides the NumPy kernels those hot paths run on:

* :func:`ncf_values` — the affine NCF combination over whole arrays of
  footprint ratios and alphas;
* :func:`classify_arrays` — the strong/weak/less/neutral verdict for
  whole arrays of NCF pairs, including the neutral-boundary tolerance;
* :func:`category_counts` — the category histogram of those codes.

The kernels are bit-exact with their scalar counterparts
(:func:`repro.core.ncf.ncf_from_ratios` and
:func:`repro.core.classify.classify_values`): both operate on IEEE-754
doubles with the same operation order and the same boundary-tolerance
arithmetic, so a vectorized sweep produces byte-identical NCF values and
identical verdicts to the scalar loop it replaces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .classify import NEUTRAL_ABS_TOL, NEUTRAL_REL_TOL, Sustainability
from .errors import ValidationError

__all__ = [
    "CATEGORIES",
    "ncf_values",
    "classify_arrays",
    "category_counts",
    "categories_from_codes",
    "ensure_positive_array",
    "ensure_non_negative_array",
    "ensure_fraction_array",
    "ensure_int_at_least_array",
    "exact_exp",
    "exact_expm1",
    "exact_pow",
]

#: Category for each code returned by :func:`classify_arrays`. The order
#: is load-bearing: :func:`category_counts` counts in this order.
CATEGORIES: tuple[Sustainability, ...] = (
    Sustainability.STRONG,
    Sustainability.WEAK,
    Sustainability.LESS,
    Sustainability.NEUTRAL,
)

_STRONG, _WEAK, _LESS, _NEUTRAL = range(len(CATEGORIES))


def _ratio_array(values: object, name: str) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_positive`."""
    arr = np.asarray(values, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        index = int(np.argmax(bad.ravel()))
        raise ValidationError(
            f"{name} must be > 0 and finite, got {arr.ravel()[index]!r} "
            f"(flat index {index})"
        )
    return arr


def _alpha_array(values: object) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_fraction`."""
    arr = np.asarray(values, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        index = int(np.argmax(bad.ravel()))
        raise ValidationError(
            f"alphas must lie in [0, 1], got {arr.ravel()[index]!r} "
            f"(flat index {index})"
        )
    return arr


def ncf_values(
    area_ratios: object,
    op_ratios: object,
    alphas: object,
) -> np.ndarray:
    """Vectorized :func:`~repro.core.ncf.ncf_from_ratios`.

    Computes ``alpha * area + (1 - alpha) * op`` elementwise with NumPy
    broadcasting: any argument may be a scalar or an array (a scalar
    alpha sweeps one weight over many designs; an alpha array sweeps the
    uncertainty band over one design).

    Inputs are validated array-wise with the same rules as the scalar
    path (ratios strictly positive and finite, alphas in ``[0, 1]``) and
    the arithmetic is bit-exact with the scalar implementation.
    """
    area = _ratio_array(area_ratios, "area_ratios")
    op = _ratio_array(op_ratios, "op_ratios")
    alpha = _alpha_array(alphas)
    return alpha * area + (1.0 - alpha) * op


#: Category code for each pair of per-axis signs (-1 below NCF = 1, 0 on
#: it, +1 above), at index ``3 * fw + ft + 4``: the rules of
#: :func:`~repro.core.classify.classify_values`.
_CODE_TABLE = np.array(
    [
        _STRONG, _STRONG, _WEAK,  # fw = -1; ft = -1, 0, +1
        _STRONG, _NEUTRAL, _LESS,  # fw = 0
        _WEAK, _LESS, _LESS,  # fw = +1
    ],
    dtype=np.int8,
)


def _boundary_signs(values: np.ndarray, rel_tol: float, abs_tol: float) -> np.ndarray:
    """Per-element ``int8`` sign of 1-D *values* vs the NCF = 1
    boundary: -1 below, 0 on, +1 above.

    Mirrors ``close(value, 1.0)`` from :mod:`repro.core.quantities`,
    i.e. ``math.isclose``: on-boundary means
    ``|v - 1| <= max(rel_tol * max(|v|, 1), abs_tol)``.

    The comparison signs cost two passes; the tolerance test runs only
    on the values inside ``[1 - 2t, 1 + 4t]`` with
    ``t = max(rel_tol, abs_tol)``, which holds every on-boundary value
    when ``t < 0.25`` (for larger ``t`` the test runs on every value).
    Proof: the tolerance is at most ``t * max(|v|, 1)``, and its one
    rounded product ``rel_tol * |v|`` is at most ``2**-53`` above the
    exact one. Below 1, ``max(|v|, 1) = 1`` for ``v`` in ``[-1, 1]``, so
    an on-boundary ``v`` has ``1 - v <= t`` (``1 - v`` is exact for
    ``v`` in ``[0.5, 1]`` and at least 0.5 > t below it; for
    ``v < -1``, ``|v - 1| > |v| > t * |v|``), hence ``v >= 1 - t``.
    Above 1, ``v - 1 <= t * v * (1 + 2**-53)`` gives
    ``v <= 1 / (1 - t (1 + 2**-53)) < 1 + 4t / 3 (1 + 2**-52)`` for
    ``t < 0.25`` (``v - 1`` is exact for ``v`` in ``[1, 2]``, and no
    larger ``v`` passes). Both bounds sit strictly inside the real
    interval ``[1 - 2t, 1 + 4t]``, and rounding is monotone, so a double
    inside the real interval is inside the computed endpoints too. A
    negative or NaN ``t`` makes every tolerance negative or NaN: no
    value is on the boundary, and the bracket is empty.
    """
    signs = np.greater(values, 1.0).view(np.int8)
    signs -= np.less(values, 1.0).view(np.int8)
    t = max(rel_tol, abs_tol)
    if t >= 0.25:
        near = np.arange(values.size)
    else:
        band = np.greater_equal(values, 1.0 - 2.0 * t)
        band &= np.less_equal(values, 1.0 + 4.0 * t)
        near = np.flatnonzero(band)
        if not near.size:
            return signs
    candidates = values[near]
    tolerance = np.maximum(rel_tol * np.maximum(np.abs(candidates), 1.0), abs_tol)
    signs[near[np.abs(candidates - 1.0) <= tolerance]] = 0
    return signs


def classify_arrays(
    ncf_fw: object,
    ncf_ft: object,
    *,
    rel_tol: float = NEUTRAL_REL_TOL,
    abs_tol: float = NEUTRAL_ABS_TOL,
) -> np.ndarray:
    """Vectorized :func:`~repro.core.classify.classify_values`.

    Returns an ``int8`` array of category codes indexing
    :data:`CATEGORIES`; decode with :func:`categories_from_codes` or
    histogram with :func:`category_counts`. Values within the tolerance
    of 1 are neutral on that axis, exactly as in the scalar path. Each
    axis reduces to a sign (see :func:`_boundary_signs`) and the code is
    one lookup of the sign pair in a 9-entry table.
    """
    fw_arr, ft_arr = np.broadcast_arrays(
        np.asarray(ncf_fw, dtype=np.float64),
        np.asarray(ncf_ft, dtype=np.float64),
    )
    for name, arr in (("ncf_fw", fw_arr), ("ncf_ft", ft_arr)):
        finite = np.isfinite(arr)
        if not finite.all():
            index, value = _first_bad(arr, ~finite)
            raise ValidationError(
                f"{name} values must be finite, got {value!r} (flat index "
                f"{index}); NaN/Inf NCFs cannot be classified"
            )
    # Flat views (a copy only for broadcast inputs): on 0-d arrays the
    # ufuncs would return NumPy scalars, which cannot be updated in place.
    index = _boundary_signs(fw_arr.reshape(-1), rel_tol, abs_tol)
    index *= 3
    index += _boundary_signs(ft_arr.reshape(-1), rel_tol, abs_tol)
    index += 4
    # Every index is in range, and mode="clip" skips take()'s per-element
    # negative-index handling (~4x faster).
    return _CODE_TABLE.take(index, mode="clip").reshape(fw_arr.shape)


def category_counts(codes: object) -> dict[Sustainability, int]:
    """Histogram of :func:`classify_arrays` codes, one ``count_nonzero``
    per code (no widening of the int8 codes).

    Every category appears as a key, including zero-count ones. A code
    outside ``[0, 3]`` raises :class:`ValidationError`.
    """
    arr = np.asarray(codes)
    counts = [int(np.count_nonzero(arr == code)) for code in range(len(CATEGORIES))]
    if sum(counts) != arr.size:
        raise ValidationError(
            f"category codes must lie in [0, {len(CATEGORIES) - 1}]"
        )
    return dict(zip(CATEGORIES, counts))


def categories_from_codes(codes: object) -> list[Sustainability]:
    """Decode :func:`classify_arrays` codes back to categories."""
    return [CATEGORIES[int(code)] for code in np.asarray(codes).ravel()]


# ----------------------------------------------------------------------
# Array-wise quantity validation
#
# The columnar substrate kernels (repro.wafer.batch, repro.amdahl.batch,
# repro.dvfs.batch) enforce the same rules as the scalar helpers in
# repro.core.quantities, but over whole arrays with one vectorized
# check. Error messages name the parameter and the flat index of the
# first offending element, so a bad sweep corner is as diagnosable as a
# bad scalar call.
# ----------------------------------------------------------------------
def _as_float64(values: object, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{name} must be an array of real numbers, got {values!r}"
        ) from exc
    return arr


def _first_bad(arr: np.ndarray, bad: np.ndarray) -> tuple[int, float]:
    index = int(np.argmax(bad.ravel()))
    return index, arr.ravel()[index]


def ensure_positive_array(values: object, name: str) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_positive`."""
    arr = _as_float64(values, name)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        index, value = _first_bad(arr, bad)
        raise ValidationError(
            f"{name} must be > 0 and finite, got {value!r} (flat index {index})"
        )
    return arr


def ensure_non_negative_array(values: object, name: str) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_non_negative`."""
    arr = _as_float64(values, name)
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        index, value = _first_bad(arr, bad)
        raise ValidationError(
            f"{name} must be >= 0 and finite, got {value!r} (flat index {index})"
        )
    return arr


def ensure_fraction_array(values: object, name: str) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_fraction`."""
    arr = _as_float64(values, name)
    bad = ~(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        index, value = _first_bad(arr, bad)
        raise ValidationError(
            f"{name} must lie in [0, 1], got {value!r} (flat index {index})"
        )
    return arr


def ensure_int_at_least_array(values: object, low: int, name: str) -> np.ndarray:
    """Array-wise :func:`~repro.core.quantities.ensure_int_at_least`.

    Returns the values as ``float64`` (every element exactly integral),
    which is what the downstream arithmetic kernels consume.
    """
    raw = np.asarray(values)
    if raw.dtype == np.bool_:
        raise ValidationError(f"{name} must be integers, got booleans")
    arr = _as_float64(raw, name)
    bad = ~(np.isfinite(arr) & (arr == np.floor(arr)) & (arr >= low))
    if bad.any():
        index, value = _first_bad(arr, bad)
        raise ValidationError(
            f"{name} must be an integer >= {low}, got {value!r} "
            f"(flat index {index})"
        )
    return arr


# ----------------------------------------------------------------------
# Exact elementwise transcendentals
#
# NumPy's SIMD exp/expm1 (and its array power loops for exponents other
# than 1 and 2) are faithfully rounded but not bit-identical to the
# libm calls the scalar substrate makes — they drift by an ulp on a few
# percent of inputs. The columnar kernels promise *bit-exact* agreement
# with their scalar counterparts, so the handful of transcendental
# sites route through these helpers, which apply the exact same
# ``math``/``float.__pow__`` operation per element. Everything around
# them (+, -, *, /, sqrt, **2 — all correctly rounded and identical in
# NumPy and libm) stays fully vectorized.
# ----------------------------------------------------------------------
def exact_exp(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``, bit-exact with the scalar substrate."""
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    out = np.fromiter((math.exp(v) for v in flat), np.float64, count=flat.size)
    return out.reshape(arr.shape)


def exact_expm1(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.expm1``, bit-exact with the scalar substrate."""
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    out = np.fromiter((math.expm1(v) for v in flat), np.float64, count=flat.size)
    return out.reshape(arr.shape)


def exact_pow(values: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise ``value ** exponent``, bit-exact with scalar Python.

    Exponents 0 and 1 are exact by the IEEE-754 pow special cases; any
    other integer exponent goes through ``float.__pow__`` per element,
    the operation the scalar substrate performs. (Even ``** 2`` must:
    libm's ``pow(x, 2)`` is not bit-identical to ``x * x`` for every
    ``x``, and NumPy's array power loop differs from both.)
    """
    arr = np.asarray(values, dtype=np.float64)
    if exponent == 0:
        return np.ones_like(arr)
    if exponent == 1:
        return arr.copy()
    flat = arr.ravel()
    out = np.fromiter(
        (float(v) ** exponent for v in flat), np.float64, count=flat.size
    )
    return out.reshape(arr.shape)
