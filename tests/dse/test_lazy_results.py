"""Column-backed sweep results: a columnar sweep keeps its answer as
columns and builds parameter dicts, DesignPoints and cache entries only
when they are read — and what it builds then is exactly what an eager
sweep would have built, down to the cache contents and counters."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.errors import ValidationError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import BatchExplorer, DesignArrays, params_key
from repro.dse.explorer import Explorer
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    DVFSOperatingPointFactory,
    SymmetricMulticoreFactory,
)
from repro.dse.grid import ParameterGrid, linear_range
from repro.obs import metrics, trace
from repro.resilience.faults import CountingFactory

from .test_parallel_columnar import assert_same_entries

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})
#: Half its corners (m >= n) are invalid.
ASYM_GRID = ParameterGrid({"n": [2, 3, 4, 8, 16], "m": [1, 4, 8], "f": [0.5, 0.9]})
DVFS_GRID = ParameterGrid({"s": linear_range(0.5, 2.0, 13)})
#: Repeated axis values: 2 twice (and 0.5 twice) are one cache key.
REPEAT_GRID = ParameterGrid({"cores": [1, 2, 2, 4], "f": [0.5, 0.9, 0.5]})

CASES = {
    "symmetric": (SymmetricMulticoreFactory(), GRID),
    "asymmetric": (AsymmetricMulticoreFactory(), ASYM_GRID),
    "dvfs": (
        DVFSOperatingPointFactory(
            design=DesignPoint("4-core", area=4.0, perf=3.2, power=2.5)
        ),
        DVFS_GRID,
    ),
}


@pytest.fixture(autouse=True)
def clean_obs():
    trace.reset()
    metrics.reset()
    yield
    trace.reset()
    metrics.reset()


def _explorer(factory, baseline, **kwargs) -> BatchExplorer:
    kwargs.setdefault("chunk_size", 4)
    return BatchExplorer(
        factory=factory, baseline=baseline, weight=EMBODIED_DOMINATED, **kwargs
    )


def _columns_equal(result, reference) -> bool:
    return all(
        getattr(result, name).tobytes() == getattr(reference, name).tobytes()
        for name in ("perf", "ncf_fixed_work", "ncf_fixed_time", "codes")
    )


class BadKernelFactory:
    """A symmetric-multicore factory whose kernel writes *perf* into the
    ``cores=4`` rows at GRID's fourth fraction — valid rows the eager
    path would build (and fail to build) DesignPoints for."""

    def __init__(self, perf: float) -> None:
        self.perf = perf
        self.inner = SymmetricMulticoreFactory()

    def __call__(self, params):
        return self.inner(params)

    def batch_arrays(self, columns):
        arrays = self.inner.batch_arrays(columns)
        perf = arrays.perf.copy()
        target = (columns["cores"] == 4) & (columns["f"] == GRID.axes["f"][3])
        perf[target] = self.perf
        return DesignArrays(arrays.area, perf, arrays.power, arrays.valid)

    def design_points(self, chunk, arrays):
        return self.inner.design_points(chunk, arrays)


class TestResultParity:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_results_equal_scalar_explorer(self, baseline, case, workers):
        factory, grid = CASES[case]
        scalar = Explorer(factory, baseline, EMBODIED_DOMINATED).explore(grid)
        explorer = _explorer(factory, baseline, workers=workers)
        result = explorer.explore_arrays(grid)
        assert explorer.last_sweep.mode == (
            "parallel-columnar" if workers else "columnar"
        )
        assert result.results() == scalar
        assert len(result) == len(scalar)

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_expanded_cache_equals_eager_sweep(
        self, baseline, case, workers, tmp_path
    ):
        factory, grid = CASES[case]
        lazy = _explorer(factory, baseline, workers=workers)
        lazy.explore_arrays(grid)
        # A checkpointed sweep materializes every chunk as it goes.
        eager = _explorer(factory, baseline)
        eager.explore_arrays(grid, checkpoint=tmp_path / "eager.ckpt")
        # Exact while the record is pending, and still after expansion.
        assert lazy.cache.stats() == eager.cache.stats()
        assert_same_entries(lazy.cache, eager.cache)
        assert lazy.cache.stats() == eager.cache.stats()

    def test_parallel_result_read_after_release(self, baseline):
        factory, grid = CASES["asymmetric"]
        serial = _explorer(factory, baseline).explore_arrays(grid)
        pooled = _explorer(factory, baseline, workers=2).explore_arrays(grid)
        assert parallel.live_blocks() == frozenset()
        assert _columns_equal(pooled, serial)
        assert pooled.designs == serial.designs
        assert pooled.params == serial.params

    def test_repeated_axis_values_match_scalar_path(self, baseline):
        def plain(params):
            return SymmetricMulticoreFactory()(params)

        point_level = _explorer(plain, baseline)
        expected = point_level.explore(REPEAT_GRID)
        lazy = _explorer(SymmetricMulticoreFactory(), baseline)
        assert lazy.explore(REPEAT_GRID) == expected
        assert expected == Explorer(plain, baseline, EMBODIED_DOMINATED).explore(
            REPEAT_GRID
        )
        fresh = _explorer(SymmetricMulticoreFactory(), baseline)
        fresh.explore_arrays(REPEAT_GRID)
        assert len(fresh.cache) == len(point_level.cache) == 6
        assert_same_entries(fresh.cache, point_level.cache)


class TestLazyPoints:
    def test_params_hold_the_grids_own_objects(self, baseline):
        result = _explorer(SymmetricMulticoreFactory(), baseline).explore_arrays(
            GRID
        )
        cores = GRID.axes["cores"]
        fractions = GRID.axes["f"]
        for params in result.params:
            assert type(params["cores"]) is int
            assert type(params["f"]) is float
            assert any(params["f"] is value for value in fractions)
            assert any(params["cores"] is value for value in cores)
        assert list(result.params) == list(GRID)
        rows = json.dumps([row.as_dict() for row in result.results()])
        assert json.loads(rows)[0]["cores"] == 1

    def test_points_are_memoized_and_shared_with_the_cache(self, baseline):
        explorer = _explorer(SymmetricMulticoreFactory(), baseline)
        result = explorer.explore_arrays(GRID)
        assert result.params is result.params
        assert result.designs is result.designs
        point = result.params[3]
        assert explorer.cache.lookup(params_key(point)) is result.designs[3]

    def test_results_are_immutable(self, baseline):
        result = _explorer(SymmetricMulticoreFactory(), baseline).explore_arrays(
            GRID
        )
        with pytest.raises(AttributeError):
            result.perf = np.zeros(1)

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_bad_kernel_raises_from_the_sweep(self, baseline, workers, bad):
        with pytest.raises(ValidationError) as expected:
            DesignPoint("d", area=4.0, perf=bad, power=1.0)
        explorer = _explorer(BadKernelFactory(bad), baseline, workers=workers)
        with pytest.raises(ValidationError) as raised:
            explorer.explore_arrays(GRID)
        assert str(raised.value) == str(expected.value)
        assert parallel.live_blocks() == frozenset()


class TestCacheContract:
    def test_cold_then_warm_counts_misses_then_hits(self, baseline):
        explorer = _explorer(SymmetricMulticoreFactory(), baseline)
        explorer.explore_arrays(GRID)
        stats = explorer.cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, len(GRID), len(GRID))
        explorer.explore_arrays(GRID)
        stats = explorer.cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (
            len(GRID),
            len(GRID),
            len(GRID),
        )

    def test_same_grid_resweep_adopts_the_columns(self, baseline):
        factory = CountingFactory()
        explorer = _explorer(factory, baseline)
        cold = explorer.explore_arrays(GRID)
        assert factory.kernel_points == len(GRID)
        factory.kernel_points = 0
        warm = explorer.explore_arrays(GRID)
        stats = explorer.last_sweep
        assert stats.shards == 0
        assert (stats.memo_points, stats.fresh_points) == (len(GRID), 0)
        assert stats.vector_points == 0
        assert (factory.kernel_points, factory.scalar_calls) == (0, 0)
        assert _columns_equal(warm, cold)
        assert warm.results() == cold.results()
        assert factory.scalar_calls == 0

    def test_pooled_resweep_adopts_without_a_pool(self, baseline):
        explorer = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        cold = explorer.explore_arrays(GRID)
        warm = explorer.explore_arrays(GRID)
        assert (explorer.last_sweep.memo_points, explorer.last_sweep.fresh_points) == (
            len(GRID),
            0,
        )
        assert explorer.last_sweep.shards == 0
        assert _columns_equal(warm, cold)

    def test_other_chunk_size_takes_the_point_path(self, baseline):
        cache_owner = _explorer(SymmetricMulticoreFactory(), baseline)
        cold = cache_owner.explore_arrays(GRID)
        factory = CountingFactory()
        other = _explorer(
            factory,
            baseline,
            chunk_size=5,
            cache=cache_owner.cache,
        )
        warm = other.explore_arrays(GRID)
        stats = other.last_sweep
        assert stats.mode == "columnar"
        assert (stats.memo_points, stats.fresh_points) == (len(GRID), 0)
        assert stats.vector_points == 0
        assert (factory.kernel_points, factory.scalar_calls) == (0, 0)
        assert stats.shards == 0
        assert warm.results() == cold.results()

    def test_observing_does_not_expand_the_record(self, baseline):
        trace.enable()
        metrics.enable()
        factory = CountingFactory()
        explorer = _explorer(factory, baseline)
        explorer.explore_arrays(GRID)
        assert explorer.last_sweep.fresh_points == factory.kernel_points == len(GRID)
        assert factory.scalar_calls == 0
        registry = metrics.get_registry()
        assert registry.counter("focal_evaluations_total").value == len(GRID)
        assert registry.counter("focal_vector_evaluations_total").value == len(GRID)
        (root,) = trace.get_tracer().roots
        names = [child.name for child in root.children]
        assert names.count("chunk") == -(-len(GRID) // 4)
        assert names[-1] == "classify"
        assert root.attributes["cache_size"] == len(GRID)


class TestCalibrationReuse:
    @pytest.mark.parametrize("sweep", ["count_categories", "explore_arrays"])
    def test_auto_evaluates_each_point_once(self, baseline, sweep):
        grid = ParameterGrid(
            {"cores": list(range(1, 11)), "f": [0.5, 0.6, 0.7, 0.8, 0.9]}
        )
        factory = CountingFactory()
        explorer = _explorer(factory, baseline, workers="auto", chunk_size=20)
        getattr(explorer, sweep)(grid)
        assert explorer.last_sweep.workers == 0
        assert factory.kernel_points == len(grid) == 50
        assert explorer._cal is None
