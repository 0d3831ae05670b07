"""Columnar multicore kernels: array-in/array-out versions of the
Amdahl/Hill–Marty/Pollack laws (paper §5.1–§5.2).

Each function is the NumPy twin of a property on
:class:`~repro.amdahl.symmetric.SymmetricMulticore`,
:class:`~repro.amdahl.asymmetric.AsymmetricMulticore`,
:class:`~repro.amdahl.dynamic.DynamicMulticore` or a function in
:mod:`repro.amdahl.pollack`, with the same IEEE-754 operation order —
these laws use only ``+ - * / sqrt``, all correctly rounded and
identical between NumPy and libm, so the kernels are bit-exact with
the scalar substrate and fully SIMD-vectorized.

All arguments broadcast: sweep cores against a scalar ``f``, or a grid
of both, in one call. Validation mirrors the scalar constructors
(:func:`~repro.core.batch.ensure_int_at_least_array`,
:func:`~repro.core.batch.ensure_fraction_array`), so a bad corner is
rejected with the flat index of the first offender.

The module has two layers. The private raw kernels (``_symmetric_*``,
``_asymmetric_*``, ``_dynamic_*``) take already-validated ``float64``
arrays and only do the arithmetic; each public function validates
every input once and composes them. A caller that validated its
columns itself (the stock factories in :mod:`repro.dse.factories`)
calls the raw kernels directly, so one sweep chunk pays one validation
pass per input and evaluates each law once.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import (
    ensure_fraction_array,
    ensure_int_at_least_array,
    ensure_positive_array,
)
from .symmetric import DEFAULT_LEAKAGE

__all__ = [
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
    "pollack_performance_array",
    "pollack_power_array",
    "pollack_energy_array",
]


# ----------------------------------------------------------------------
# Symmetric multicore (Hill–Marty Eq. 1, Woo–Lee Eqs. 2–3)
# ----------------------------------------------------------------------
def _symmetric_speedup(n: np.ndarray, f: np.ndarray) -> np.ndarray:
    return 1.0 / ((1.0 - f) + f / n)


def _symmetric_energy(n: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return 1.0 + (1.0 - f) * (n - 1.0) * g


def _symmetric_inputs(
    cores: object, parallel_fraction: object
) -> tuple[np.ndarray, np.ndarray]:
    return (
        ensure_int_at_least_array(cores, 1, "cores"),
        ensure_fraction_array(parallel_fraction, "parallel_fraction"),
    )


def symmetric_speedup(cores: object, parallel_fraction: object) -> np.ndarray:
    """Array twin of :attr:`SymmetricMulticore.speedup`."""
    return _symmetric_speedup(*_symmetric_inputs(cores, parallel_fraction))


def symmetric_energy(
    cores: object,
    parallel_fraction: object,
    leakage: object = DEFAULT_LEAKAGE,
) -> np.ndarray:
    """Array twin of :attr:`SymmetricMulticore.energy`."""
    n, f = _symmetric_inputs(cores, parallel_fraction)
    return _symmetric_energy(n, f, ensure_fraction_array(leakage, "leakage"))


def symmetric_power(
    cores: object,
    parallel_fraction: object,
    leakage: object = DEFAULT_LEAKAGE,
) -> np.ndarray:
    """Array twin of :attr:`SymmetricMulticore.power` (energy x speedup)."""
    n, f = _symmetric_inputs(cores, parallel_fraction)
    g = ensure_fraction_array(leakage, "leakage")
    return _symmetric_energy(n, f, g) * _symmetric_speedup(n, f)


# ----------------------------------------------------------------------
# Asymmetric multicore (paper Eqs. 4–6)
# ----------------------------------------------------------------------
def asymmetric_valid_mask(total_bces: object, big_core_bces: object) -> np.ndarray:
    """Boolean mask of (N, M) pairs a scalar constructor would accept.

    ``True`` exactly where ``AsymmetricMulticore(N, M, ...)`` succeeds;
    ``False`` where it raises ``DomainError`` because the big core
    leaves no small core (``M >= N``). The masking primitive that
    preserves scalar skip semantics in vector sweeps.
    """
    n = ensure_int_at_least_array(total_bces, 2, "total_bces")
    m = ensure_int_at_least_array(big_core_bces, 1, "big_core_bces")
    n, m = np.broadcast_arrays(n, m)
    return m < n


def _asymmetric_times(
    n: np.ndarray, m: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    serial = (1.0 - f) / np.sqrt(m)
    parallel = f / (n - m)
    return serial, parallel


def _asymmetric_speedup(serial: np.ndarray, parallel: np.ndarray) -> np.ndarray:
    return 1.0 / (serial + parallel)


def _asymmetric_energy(
    n: np.ndarray,
    m: np.ndarray,
    g: np.ndarray,
    serial: np.ndarray,
    parallel: np.ndarray,
) -> np.ndarray:
    small = n - m
    serial_power = m + small * g
    parallel_power = m * g + small
    return serial * serial_power + parallel * parallel_power


def _asymmetric_inputs(
    total_bces: object, big_core_bces: object, parallel_fraction: object
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        ensure_int_at_least_array(total_bces, 2, "total_bces"),
        ensure_int_at_least_array(big_core_bces, 1, "big_core_bces"),
        ensure_fraction_array(parallel_fraction, "parallel_fraction"),
    )


def asymmetric_speedup(
    total_bces: object, big_core_bces: object, parallel_fraction: object
) -> np.ndarray:
    """Array twin of :attr:`AsymmetricMulticore.speedup` (paper Eq. 4).

    Callers must mask invalid (N, M) corners first (see
    :func:`asymmetric_valid_mask`); this kernel assumes ``M < N``.
    """
    n, m, f = _asymmetric_inputs(total_bces, big_core_bces, parallel_fraction)
    return _asymmetric_speedup(*_asymmetric_times(n, m, f))


def asymmetric_energy(
    total_bces: object,
    big_core_bces: object,
    parallel_fraction: object,
    leakage: object = DEFAULT_LEAKAGE,
) -> np.ndarray:
    """Array twin of :attr:`AsymmetricMulticore.energy` (paper Eq. 6)."""
    n, m, f = _asymmetric_inputs(total_bces, big_core_bces, parallel_fraction)
    g = ensure_fraction_array(leakage, "leakage")
    return _asymmetric_energy(n, m, g, *_asymmetric_times(n, m, f))


def asymmetric_power(
    total_bces: object,
    big_core_bces: object,
    parallel_fraction: object,
    leakage: object = DEFAULT_LEAKAGE,
) -> np.ndarray:
    """Array twin of :attr:`AsymmetricMulticore.power` (paper Eq. 5)."""
    n, m, f = _asymmetric_inputs(total_bces, big_core_bces, parallel_fraction)
    g = ensure_fraction_array(leakage, "leakage")
    serial, parallel = _asymmetric_times(n, m, f)
    return _asymmetric_energy(n, m, g, serial, parallel) * _asymmetric_speedup(
        serial, parallel
    )


# ----------------------------------------------------------------------
# Dynamic multicore (Hill–Marty's third organization)
# ----------------------------------------------------------------------
def _dynamic_speedup(n: np.ndarray, f: np.ndarray) -> np.ndarray:
    serial = (1.0 - f) / np.sqrt(n)
    parallel = f / n
    return 1.0 / (serial + parallel)


def _dynamic_power(n: np.ndarray, f: np.ndarray) -> np.ndarray:
    n, _ = np.broadcast_arrays(n, f)
    return n.astype(np.float64)


def _dynamic_inputs(
    bces: object, parallel_fraction: object
) -> tuple[np.ndarray, np.ndarray]:
    return (
        ensure_int_at_least_array(bces, 1, "bces"),
        ensure_fraction_array(parallel_fraction, "parallel_fraction"),
    )


def dynamic_speedup(bces: object, parallel_fraction: object) -> np.ndarray:
    """Array twin of :attr:`DynamicMulticore.speedup`."""
    return _dynamic_speedup(*_dynamic_inputs(bces, parallel_fraction))


def dynamic_power(bces: object, parallel_fraction: object) -> np.ndarray:
    """Array twin of :attr:`DynamicMulticore.power`: all BCEs busy, P = N."""
    return _dynamic_power(*_dynamic_inputs(bces, parallel_fraction))


def dynamic_energy(bces: object, parallel_fraction: object) -> np.ndarray:
    """Array twin of :attr:`DynamicMulticore.energy`: ``N / S``."""
    n, f = _dynamic_inputs(bces, parallel_fraction)
    return _dynamic_power(n, f) / _dynamic_speedup(n, f)


# ----------------------------------------------------------------------
# Pollack's rule
# ----------------------------------------------------------------------
def pollack_performance_array(bces: object) -> np.ndarray:
    """Array twin of :func:`~repro.amdahl.pollack.pollack_performance`."""
    return np.sqrt(ensure_positive_array(bces, "bces"))


def pollack_power_array(bces: object) -> np.ndarray:
    """Array twin of :func:`~repro.amdahl.pollack.pollack_power`."""
    return ensure_positive_array(bces, "bces").copy()


def pollack_energy_array(bces: object) -> np.ndarray:
    """Array twin of :func:`~repro.amdahl.pollack.pollack_energy`."""
    n = ensure_positive_array(bces, "bces")
    return n / np.sqrt(n)
