"""The columnar cold path must be invisible in the results: byte-
identical ``explore`` output (ordering, skips, values), identical
cache contents, identical category counts — with and without a
:class:`~repro.dse.batch.VectorFactory`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amdahl.asymmetric import AsymmetricMulticore
from repro.amdahl.symmetric import SymmetricMulticore
from repro.core.design import DesignPoint
from repro.core.errors import ConfigurationError, ValidationError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import (
    BatchExplorer,
    DesignArrays,
    FactoryCache,
    SweepEngineStats,
    is_vector_factory,
)
from repro.dse.explorer import Explorer
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    DVFSOperatingPointFactory,
    SymmetricMulticoreFactory,
)
from repro.dse.grid import ParameterGrid, linear_range
from repro.obs import metrics, trace
from repro.resilience.faults import CountingFactory


@pytest.fixture(autouse=True)
def clean_obs():
    trace.reset()
    metrics.reset()
    yield
    trace.reset()
    metrics.reset()


def multicore_factory(params):
    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


def asymmetric_scalar_factory(params):
    return AsymmetricMulticore(
        total_bces=params["n"], big_core_bces=params["m"], parallel_fraction=0.9
    ).design_point()


GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})
#: A different grid whose points a GRID sweep has all cached: a warm
#: sweep of it takes the point-level path, adopting every row from the
#: cache (a re-sweep of GRID itself adopts the cached columns instead).
SUBGRID = GRID.subgrid(cores=4)
#: n <= m corners raise DomainError scalar-side, are masked vector-side.
ASYM_GRID = ParameterGrid({"n": [2, 3, 4, 8, 16], "m": [1, 4, 8]})


def _explorer(factory, baseline, **kwargs) -> BatchExplorer:
    return BatchExplorer(
        factory=factory, baseline=baseline, weight=EMBODIED_DOMINATED, **kwargs
    )


class TestProtocol:
    def test_stock_factories_are_vector_factories(self):
        assert is_vector_factory(SymmetricMulticoreFactory())
        assert is_vector_factory(AsymmetricMulticoreFactory())
        assert is_vector_factory(
            DVFSOperatingPointFactory(design=DesignPoint.baseline("b"))
        )

    def test_plain_callables_are_not(self):
        assert not is_vector_factory(multicore_factory)

    def test_design_arrays_validates_shapes(self):
        ones = np.ones(3)
        with pytest.raises(ValidationError):
            DesignArrays(area=ones, perf=np.ones(4), power=ones, valid=ones > 0)
        with pytest.raises(ValidationError):
            DesignArrays(
                area=np.ones((2, 2)),
                perf=np.ones((2, 2)),
                power=np.ones((2, 2)),
                valid=np.ones((2, 2)) > 0,
            )
        arrays = DesignArrays(area=ones, perf=ones, power=ones, valid=ones > 0)
        assert len(arrays) == 3


class TestByteIdenticalExplore:
    def test_symmetric_matches_scalar_and_plain(self, baseline):
        scalar = Explorer(
            factory=multicore_factory, baseline=baseline, weight=EMBODIED_DOMINATED
        ).explore(GRID)
        plain = _explorer(multicore_factory, baseline)
        vector = _explorer(SymmetricMulticoreFactory(), baseline)
        assert list(vector.explore(GRID)) == list(plain.explore(GRID)) == list(scalar)

    def test_cache_contents_identical_after_cold_sweep(self, baseline):
        plain = _explorer(multicore_factory, baseline)
        vector = _explorer(SymmetricMulticoreFactory(), baseline)
        plain.explore(GRID)
        vector.explore(GRID)
        assert vector.cache.stats() == plain.cache.stats()
        assert dict(vector.cache._entries) == dict(plain.cache._entries)

    def test_asymmetric_skips_identical(self, baseline):
        scalar = Explorer(
            factory=asymmetric_scalar_factory,
            baseline=baseline,
            weight=EMBODIED_DOMINATED,
        ).explore(ASYM_GRID)
        vector = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9), baseline
        )
        results = vector.explore(ASYM_GRID)
        assert list(results) == list(scalar)
        # The invalid corners really are skipped, not zero-filled.
        assert 0 < len(results) < len(ASYM_GRID)

    def test_chunked_vector_sweep_identical(self, baseline):
        whole = _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        chunked = _explorer(
            SymmetricMulticoreFactory(), baseline, chunk_size=3
        ).explore(GRID)
        assert list(chunked) == list(whole)

    def test_batch_arrays_length_mismatch_is_configuration_error(self, baseline):
        class Broken(SymmetricMulticoreFactory):
            def batch_arrays(self, columns):
                arrays = super().batch_arrays(columns)
                return DesignArrays(
                    area=arrays.area[:-1],
                    perf=arrays.perf[:-1],
                    power=arrays.power[:-1],
                    valid=arrays.valid[:-1],
                )

        with pytest.raises(ConfigurationError):
            _explorer(Broken(), baseline).explore(GRID)


class TestCountCategories:
    def test_vector_counts_match_scalar(self, baseline):
        vector = _explorer(SymmetricMulticoreFactory(), baseline)
        plain = _explorer(multicore_factory, baseline)
        assert vector.count_categories(GRID) == plain.count_categories(GRID)

    def test_asymmetric_counts_match_scalar(self, baseline):
        vector = _explorer(AsymmetricMulticoreFactory(parallel_fraction=0.9), baseline)
        plain = _explorer(asymmetric_scalar_factory, baseline)
        assert vector.count_categories(ASYM_GRID) == plain.count_categories(ASYM_GRID)

    def test_columnar_count_leaves_a_pending_record(self, baseline):
        # A cold count is a columnar explore: it records the sweep's
        # columns as one pending record, which the next same-grid
        # sweep adopts without running a kernel.
        factory = CountingFactory()
        vector = _explorer(factory, baseline)
        vector.count_categories(GRID)
        assert vector.last_sweep.mode == "columnar"
        assert vector.cache._pending is not None
        assert len(vector.cache) == len(GRID)
        assert factory.kernel_points == len(GRID)
        factory.kernel_points = 0
        vector.explore(GRID)
        assert vector.last_sweep.mode == "memo"
        assert (factory.kernel_points, factory.scalar_calls) == (0, 0)

    def test_warm_cache_count_stays_columnar(self, baseline):
        expected = _explorer(multicore_factory, baseline).count_categories(GRID)
        factory = CountingFactory()
        vector = _explorer(factory, baseline)
        vector.explore(SUBGRID)  # warms the cache with part of GRID
        factory.kernel_points = 0
        counts = vector.count_categories(GRID)
        stats = vector.last_sweep
        assert stats.mode == "columnar"
        assert (stats.memo_points, stats.fresh_points) == (
            len(SUBGRID),
            len(GRID) - len(SUBGRID),
        )
        assert stats.vector_points == len(GRID) - len(SUBGRID)
        assert factory.kernel_points == len(GRID) - len(SUBGRID)
        assert factory.scalar_calls == 0
        assert counts == expected


class TestSweepEngineStats:
    def test_vector_cold_sweep_stats(self, baseline):
        vector = _explorer(SymmetricMulticoreFactory(), baseline)
        assert vector.last_sweep is None
        vector.explore(GRID)
        stats = vector.last_sweep
        assert stats.mode == "columnar"
        assert stats.grid_points == len(GRID)
        assert stats.vector_points == len(GRID)
        assert stats.evals_per_s > 0
        assert "columnar path" in stats.summary()
        assert f"{len(GRID)} pts" in stats.summary()

    def test_fallback_accounting_on_warm_cache(self, baseline):
        # A warm cache changes what is evaluated, never how: the cached
        # rows are hits and nothing falls back to scalar calls.
        factory = CountingFactory()
        vector = _explorer(factory, baseline)
        vector.explore(GRID)
        factory.kernel_points = 0
        vector.explore(SUBGRID)  # every SUBGRID point is cached
        stats = vector.last_sweep
        assert stats.mode == "columnar"
        assert (stats.memo_points, stats.fresh_points) == (len(SUBGRID), 0)
        assert stats.vector_points == 0
        assert (factory.kernel_points, factory.scalar_calls) == (0, 0)
        assert "columnar path" in stats.summary()
        assert "vector_points" in stats.as_dict()

    def test_plain_factory_has_no_fallback(self, baseline):
        plain = _explorer(multicore_factory, baseline)
        plain.explore(GRID)
        stats = plain.last_sweep
        assert stats.mode == "scalar"
        assert (stats.memo_points, stats.fresh_points) == (0, len(GRID))
        assert stats.vector_points == 0
        plain.explore(SUBGRID)
        stats = plain.last_sweep
        assert stats.mode == "scalar"
        assert (stats.memo_points, stats.fresh_points) == (len(SUBGRID), 0)

    def test_workers_run_parallel_columnar(self, baseline):
        vector = _explorer(
            SymmetricMulticoreFactory(), baseline, workers=2, chunk_size=9
        )
        results = vector.explore(GRID)
        stats = vector.last_sweep
        assert stats.mode == "parallel-columnar"
        assert stats.workers == 2
        assert stats.shards > 0
        assert stats.shard_points > 0 and stats.shard_points % 9 == 0
        assert "parallel-columnar path" in stats.summary()
        assert "workers" in stats.summary()
        payload = stats.as_dict()
        assert payload["shards"] == stats.shards
        assert payload["shm_bytes"] == stats.shm_bytes
        assert list(results) == list(
            _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        )

    def test_warm_cache_pool_sweep_is_parallel_columnar(self, baseline):
        warm = _explorer(SymmetricMulticoreFactory(), baseline)
        warm.explore(GRID)
        pooled = _explorer(
            SymmetricMulticoreFactory(), baseline, workers=2, cache=warm.cache
        )
        results = pooled.explore(SUBGRID)
        stats = pooled.last_sweep
        # Every row is cached: nothing is dispatched, so no pool runs.
        assert stats.mode == "parallel-columnar"
        assert (stats.memo_points, stats.fresh_points) == (len(SUBGRID), 0)
        assert stats.vector_points == stats.shards == 0
        assert list(results) == list(
            _explorer(SymmetricMulticoreFactory(), baseline).explore(SUBGRID)
        )
        # The other way round, only the chunks with no cached row ship.
        part = _explorer(SymmetricMulticoreFactory(), baseline)
        part.explore(SUBGRID)
        pooled = _explorer(
            SymmetricMulticoreFactory(),
            baseline,
            workers=2,
            chunk_size=5,
            cache=part.cache,
        )
        results = pooled.explore(GRID)
        stats = pooled.last_sweep
        assert stats.mode == "parallel-columnar"
        assert (stats.memo_points, stats.fresh_points) == (
            len(SUBGRID),
            len(GRID) - len(SUBGRID),
        )
        assert stats.vector_points == len(GRID) - len(SUBGRID)
        assert stats.shards > 0
        assert list(results) == list(
            _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        )

    def test_as_dict_round_trips(self, baseline):
        vector = _explorer(SymmetricMulticoreFactory(), baseline)
        vector.explore(GRID)
        payload = vector.last_sweep.as_dict()
        assert payload["mode"] == "columnar"
        assert payload["grid_points"] == len(GRID)
        assert isinstance(payload["evals_per_s"], float)


class TestObservability:
    def _metric(self, name):
        for entry in metrics.get_registry().snapshot():
            if entry["name"] == name:
                return entry
        return None

    def test_vector_metrics_emitted(self, baseline):
        metrics.enable()
        _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        evals = self._metric("focal_vector_evaluations_total")
        rate = self._metric("focal_vector_evals_per_s")
        assert evals is not None and evals["value"] == len(GRID)
        assert rate is not None and rate["value"] > 0

    def test_vector_counter_counts_only_misses(self, baseline):
        explorer = _explorer(SymmetricMulticoreFactory(), baseline)
        explorer.explore(SUBGRID)
        metrics.enable()
        explorer.explore(GRID)  # warm: SUBGRID's rows are hits
        evals = self._metric("focal_vector_evaluations_total")
        hits = self._metric("focal_cache_hits_total")
        assert evals is not None
        assert evals["value"] == len(GRID) - len(SUBGRID)
        assert hits is not None and hits["value"] == len(SUBGRID)

    def test_metrics_do_not_change_results(self, baseline):
        plain_results = _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        metrics.enable()
        trace.enable()
        traced_results = _explorer(SymmetricMulticoreFactory(), baseline).explore(GRID)
        assert list(traced_results) == list(plain_results)
