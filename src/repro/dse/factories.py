"""Stock vector factories for the paper's sweep studies.

Each factory here is a :class:`~repro.dse.batch.VectorFactory`: called
with one grid point it behaves exactly like the plain scalar factories
the studies always used (same DesignPoint names, same ``DomainError``
corners), and handed a whole chunk of axis columns it evaluates the
columnar substrate kernels (:mod:`repro.amdahl.batch`,
:mod:`repro.dvfs.batch`) instead — bit-exact, in a handful of
vectorized passes. Each axis column and the leakage is validated once
per call, with the public kernels' checks and messages, and each law
is evaluated once: perf is the speedup, and power is energy x perf
(the scalar properties' own order).

All factories are frozen dataclasses, hence picklable: the same
instance works with ``BatchExplorer(workers=N)`` process pools (where
it is evaluated scalar) and with the columnar cold path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..amdahl.asymmetric import AsymmetricMulticore
from ..amdahl.batch import (
    _asymmetric_energy,
    _asymmetric_speedup,
    _asymmetric_times,
    _symmetric_energy,
    _symmetric_speedup,
)
from ..amdahl.symmetric import DEFAULT_LEAKAGE, SymmetricMulticore
from ..core.batch import ensure_fraction_array, ensure_int_at_least_array
from ..core.design import DesignPoint
from ..dvfs.batch import scale_design_arrays
from ..dvfs.operating_point import DVFSConfig, scale_design
from .batch import DesignArrays

__all__ = [
    "SymmetricMulticoreFactory",
    "AsymmetricMulticoreFactory",
    "DVFSOperatingPointFactory",
    "IterativeFixedPointFactory",
]


@dataclass(frozen=True)
class SymmetricMulticoreFactory:
    """Vector factory for the symmetric-multicore design space
    (Figure 3's axes: core count x parallel fraction).

    Grid axes: ``cores_param`` (int >= 1) and ``fraction_param``
    (in [0, 1]). Every grid point is valid.
    """

    leakage: float = DEFAULT_LEAKAGE
    cores_param: str = "cores"
    fraction_param: str = "f"

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        return SymmetricMulticore(
            cores=params[self.cores_param],  # type: ignore[arg-type]
            parallel_fraction=params[self.fraction_param],  # type: ignore[arg-type]
            leakage=self.leakage,
        ).design_point()

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays:
        cores = ensure_int_at_least_array(columns[self.cores_param], 1, "cores")
        fractions = ensure_fraction_array(
            columns[self.fraction_param], "parallel_fraction"
        )
        leakage = ensure_fraction_array(self.leakage, "leakage")
        cores, fractions = np.broadcast_arrays(cores, fractions)
        perf = _symmetric_speedup(cores, fractions)
        return DesignArrays(
            area=cores,
            perf=perf,
            power=_symmetric_energy(cores, fractions, leakage) * perf,
            valid=np.ones(cores.shape, dtype=bool),
        )

    def design_points(
        self, chunk: Sequence[Mapping[str, object]], arrays: DesignArrays
    ) -> list[DesignPoint | None]:
        # int()/float() mirror the conversions the scalar constructor's
        # validators apply before the name is formatted, so the labels
        # match even for numpy-typed grid axes.
        leakage = float(self.leakage)
        return [
            DesignPoint(
                name=(
                    f"sym {int(params[self.cores_param])}c "  # type: ignore[call-overload]
                    f"f={float(params[self.fraction_param]):g} g={leakage:g}"  # type: ignore[arg-type]
                ),
                area=float(area),
                perf=float(perf),
                power=float(power),
            )
            for params, area, perf, power in zip(
                chunk, arrays.area, arrays.perf, arrays.power
            )
        ]


@dataclass(frozen=True)
class AsymmetricMulticoreFactory:
    """Vector factory for the asymmetric-multicore design space
    (Figure 4's axes: total BCEs x big-core BCEs x parallel fraction).

    Grid axes: ``total_param`` (N >= 2), ``big_param`` (M >= 1) and
    ``fraction_param``. ``big_core_bces``/``parallel_fraction`` pin M
    or f instead when the grid has no such axis. Corners with
    ``M >= N`` (the big core leaves no small core) are the invalid
    rows: masked in ``batch_arrays``, ``DomainError`` in scalar calls —
    the explorer skips them identically on both paths.
    """

    leakage: float = DEFAULT_LEAKAGE
    total_param: str = "n"
    big_param: str = "m"
    fraction_param: str = "f"
    big_core_bces: int | None = None
    parallel_fraction: float | None = None

    def _value(self, params: Mapping[str, object], key: str, fixed) -> object:
        return params[key] if key in params else fixed

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        return AsymmetricMulticore(
            total_bces=params[self.total_param],  # type: ignore[arg-type]
            big_core_bces=self._value(  # type: ignore[arg-type]
                params, self.big_param, self.big_core_bces
            ),
            parallel_fraction=self._value(  # type: ignore[arg-type]
                params, self.fraction_param, self.parallel_fraction
            ),
            leakage=self.leakage,
        ).design_point()

    def _columns(
        self, columns: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        total = ensure_int_at_least_array(
            columns[self.total_param], 2, "total_bces"
        )
        big = ensure_int_at_least_array(
            columns.get(self.big_param, self.big_core_bces), 1, "big_core_bces"
        )
        fraction = ensure_fraction_array(
            columns.get(self.fraction_param, self.parallel_fraction),
            "parallel_fraction",
        )
        return np.broadcast_arrays(total, big, fraction)

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays:
        total, big, fraction = self._columns(columns)
        valid = big < total
        perf = np.ones(total.shape)
        power = np.ones(total.shape)
        if valid.any():
            # The scalar path checks leakage only for a buildable (N, M).
            leakage = ensure_fraction_array(self.leakage, "leakage")
            n, m, f = total[valid], big[valid], fraction[valid]
            serial, parallel = _asymmetric_times(n, m, f)
            speedup = _asymmetric_speedup(serial, parallel)
            perf[valid] = speedup
            energy = _asymmetric_energy(n, m, leakage, serial, parallel)
            power[valid] = energy * speedup
        return DesignArrays(area=total, perf=perf, power=power, valid=valid)

    def design_points(
        self, chunk: Sequence[Mapping[str, object]], arrays: DesignArrays
    ) -> list[DesignPoint | None]:
        points: list[DesignPoint | None] = []
        for params, area, perf, power, valid in zip(
            chunk, arrays.area, arrays.perf, arrays.power, arrays.valid
        ):
            if not valid:
                points.append(None)
                continue
            total = int(self._value(params, self.total_param, None))  # type: ignore[call-overload]
            big = int(self._value(params, self.big_param, self.big_core_bces))  # type: ignore[call-overload]
            fraction = float(
                self._value(params, self.fraction_param, self.parallel_fraction)  # type: ignore[arg-type]
            )
            points.append(
                DesignPoint(
                    name=(
                        f"asym {total}BCE (1x{big}+"
                        f"{total - big}x1) f={fraction:g}"
                    ),
                    area=float(area),
                    perf=float(perf),
                    power=float(power),
                )
            )
        return points


@dataclass(frozen=True)
class DVFSOperatingPointFactory:
    """Vector factory sweeping one design across frequency multipliers
    (paper §5.8: Findings #14/#15, the power-capped case study).

    Grid axis: ``multiplier_param`` (> 0). Every point is valid.
    """

    design: DesignPoint
    config: DVFSConfig = DVFSConfig()
    include_regulator_area: bool = True
    multiplier_param: str = "s"

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        return scale_design(
            self.design,
            params[self.multiplier_param],  # type: ignore[arg-type]
            self.config,
            include_regulator_area=self.include_regulator_area,
        )

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays:
        areas, perfs, powers = scale_design_arrays(
            self.design,
            columns[self.multiplier_param],
            self.config,
            include_regulator_area=self.include_regulator_area,
        )
        return DesignArrays(
            area=areas,
            perf=perfs,
            power=powers,
            valid=np.ones(areas.shape, dtype=bool),
        )

    def design_points(
        self, chunk: Sequence[Mapping[str, object]], arrays: DesignArrays
    ) -> list[DesignPoint | None]:
        base_name = self.design.name
        return [
            DesignPoint(
                name=f"{base_name} @ {float(params[self.multiplier_param]):g}x",  # type: ignore[arg-type]
                area=float(area),
                perf=float(perf),
                power=float(power),
            )
            for params, area, perf, power in zip(
                chunk, arrays.area, arrays.perf, arrays.power
            )
        ]


@dataclass(frozen=True)
class IterativeFixedPointFactory:
    """A vector factory whose kernel is expensive on purpose.

    The stock factories finish a 100k-point grid in milliseconds, so
    timing them under a worker pool only measures dispatch overhead.
    This one runs a damped fixed-point iteration per point (an
    Amdahl-flavoured relaxation that converges to the usual speedup
    and power surfaces), making the kernel phase dominate the sweep —
    the regime the parallel-columnar mode exists for. All arithmetic
    is elementwise float64, so results are bit-identical no matter how
    the grid is sharded across workers.

    The engine benchmark (``benchmarks/bench_dse_engine.py``) and the
    ``focal profile --bench`` bottleneck profiler both sweep this
    factory, so the profiler's attribution is measured on exactly the
    operating point the benchmark gates.

    Grid axes: ``cores`` and ``f``. Every point is valid.
    """

    iters: int = 2500
    damping: float = 0.5

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        arrays = self.batch_arrays(
            {key: np.asarray([value]) for key, value in params.items()}
        )
        return self.design_points([params], arrays)[0]

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays:
        cores = np.asarray(columns["cores"], dtype=np.float64)
        fractions = np.asarray(columns["f"], dtype=np.float64)
        cores, fractions = np.broadcast_arrays(cores, fractions)
        amdahl = 1.0 / ((1.0 - fractions) + fractions / cores)
        perf = np.ones_like(amdahl)
        power = np.full_like(amdahl, 0.3)
        for _ in range(self.iters):
            perf = perf + self.damping * (np.sqrt(amdahl * perf) - perf)
            power = power + self.damping * (
                (0.3 + 0.7 * fractions * power / amdahl) - power
            )
        return DesignArrays(
            area=cores,
            perf=perf,
            power=power,
            valid=np.ones(cores.shape, dtype=bool),
        )

    def design_points(
        self, chunk: Sequence[Mapping[str, object]], arrays: DesignArrays
    ) -> list[DesignPoint | None]:
        return [
            DesignPoint(
                name=f"fxp {int(params['cores'])}c f={float(params['f']):g}",  # type: ignore[call-overload, arg-type]
                area=float(area),
                perf=float(perf),
                power=float(power),
            )
            for params, area, perf, power in zip(
                chunk, arrays.area, arrays.perf, arrays.power
            )
        ]
