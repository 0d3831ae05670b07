"""Tests for the vectorized batch-evaluation engine.

The headline contract: ``BatchExplorer.explore`` is byte-identical to
``Explorer.explore`` — same ordering, same invalid-corner skips, exact
(``==``) float agreement — under every engine configuration (chunking,
memoized cache, process-pool workers).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.amdahl.asymmetric import AsymmetricMulticore
from repro.amdahl.symmetric import SymmetricMulticore
from repro.core.classify import Sustainability
from repro.core.design import DesignPoint
from repro.core.errors import ConfigurationError, DomainError, ValidationError
from repro.core.scenario import OPERATIONAL_DOMINATED
from repro.dse.batch import BatchExplorer, FactoryCache, params_key
from repro.dse.explorer import Explorer
from repro.dse.grid import ParameterGrid


def multicore_factory(params):
    """Module-level (picklable) factory for the workers tests."""
    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


def shape_factory(params):
    """Reads ``(cores, f, ...)`` tuples: an axis no NumPy column holds."""
    cores, f = params["shape"][:2]
    return SymmetricMulticore(cores=cores, parallel_fraction=f).design_point()


def asymmetric_factory(params):
    """Raises DomainError for n < 8 (big core would not fit)."""
    return AsymmetricMulticore(
        total_bces=params["n"], big_core_bces=4, parallel_fraction=0.8
    ).design_point()


@pytest.fixture
def grid() -> ParameterGrid:
    return ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": [0.5, 0.9, 0.95]})


@pytest.fixture
def scalar_results(baseline, grid):
    explorer = Explorer(
        factory=multicore_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
    )
    return explorer.explore(grid)


def batch_explorer(baseline, **kwargs) -> BatchExplorer:
    return BatchExplorer(
        factory=multicore_factory,
        baseline=baseline,
        weight=OPERATIONAL_DOMINATED,
        **kwargs,
    )


class TestByteIdenticalParity:
    def test_explore_matches_scalar_engine(self, baseline, grid, scalar_results):
        results = batch_explorer(baseline).explore(grid)
        assert results == scalar_results

    def test_floats_are_exact(self, baseline, grid, scalar_results):
        for ours, theirs in zip(batch_explorer(baseline).explore(grid), scalar_results):
            assert ours.perf == theirs.perf
            assert ours.ncf_fixed_work == theirs.ncf_fixed_work
            assert ours.ncf_fixed_time == theirs.ncf_fixed_time
            assert ours.category is theirs.category

    def test_ordering_is_grid_order(self, baseline, grid):
        results = batch_explorer(baseline).explore(grid)
        assert [r.params for r in results] == list(grid)

    def test_domain_errors_skipped_like_scalar(self, baseline):
        grid = ParameterGrid({"n": [2, 4, 8, 16]})  # 2 and 4 are invalid
        explorer = BatchExplorer(
            factory=asymmetric_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        results = explorer.explore(grid)
        assert [r.params["n"] for r in results] == [8, 16]

    def test_all_invalid_raises(self, baseline):
        explorer = BatchExplorer(
            factory=asymmetric_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        with pytest.raises(ConfigurationError):
            explorer.explore(ParameterGrid({"n": [2, 4]}))

    def test_count_categories_matches_scalar(self, baseline, grid, scalar_results):
        counts = batch_explorer(baseline).count_categories(grid)
        assert counts == Explorer.count_categories(scalar_results)

    def test_count_categories_all_invalid_raises(self, baseline):
        explorer = BatchExplorer(
            factory=asymmetric_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        with pytest.raises(ConfigurationError):
            explorer.count_categories(ParameterGrid({"n": [2, 4]}))


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 1000])
    def test_chunk_size_never_changes_results(
        self, baseline, grid, scalar_results, chunk_size
    ):
        results = batch_explorer(baseline, chunk_size=chunk_size).explore(grid)
        assert results == scalar_results

    def test_rejects_bad_chunk_size(self, baseline):
        with pytest.raises(ValidationError):
            batch_explorer(baseline, chunk_size=0)

    def test_rejects_negative_workers(self, baseline):
        with pytest.raises(ValidationError):
            batch_explorer(baseline, workers=-1)


class CountingFactory:
    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self, params):
        self.calls += 1
        return self.factory(params)


class TestFactoryCache:
    def test_resweep_never_reevaluates(self, baseline, grid):
        counting = CountingFactory(multicore_factory)
        explorer = BatchExplorer(
            factory=counting, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        first = explorer.explore(grid)
        assert counting.calls == len(grid)
        second = explorer.explore(grid)
        assert counting.calls == len(grid)  # all hits, zero new calls
        assert first == second
        assert explorer.cache.hits == len(grid)

    def test_subgrid_resweep_hits_cache(self, baseline, grid):
        counting = CountingFactory(multicore_factory)
        explorer = BatchExplorer(
            factory=counting, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        explorer.explore(grid)
        explorer.explore(grid.subgrid(cores=8))
        assert counting.calls == len(grid)

    def test_count_categories_shares_cache_with_explore(self, baseline, grid):
        counting = CountingFactory(multicore_factory)
        explorer = BatchExplorer(
            factory=counting, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        explorer.count_categories(grid)
        explorer.explore(grid)
        assert counting.calls == len(grid)

    def test_domain_errors_memoized(self, baseline):
        counting = CountingFactory(asymmetric_factory)
        grid = ParameterGrid({"n": [2, 4, 8, 16]})
        explorer = BatchExplorer(
            factory=counting, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        explorer.explore(grid)
        explorer.explore(grid)
        assert counting.calls == len(grid)  # invalid corners cached too

    def test_cache_shareable_across_explorers(self, baseline, grid):
        counting = CountingFactory(multicore_factory)
        cache = FactoryCache(counting)
        for _ in range(2):
            BatchExplorer(
                factory=counting,
                baseline=baseline,
                weight=OPERATIONAL_DOMINATED,
                cache=cache,
            ).explore(grid)
        assert counting.calls == len(grid)

    def test_callable_wrapper_raises_memoized_domain_error(self):
        cache = FactoryCache(asymmetric_factory)
        with pytest.raises(DomainError):
            cache({"n": 2})
        with pytest.raises(DomainError):
            cache({"n": 2})
        assert cache.misses == 1 and cache.hits == 1

    def test_clear_forces_reevaluation(self, baseline, grid):
        counting = CountingFactory(multicore_factory)
        explorer = BatchExplorer(
            factory=counting, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        explorer.explore(grid)
        explorer.cache.clear()
        assert len(explorer.cache) == 0
        explorer.explore(grid)
        assert counting.calls == 2 * len(grid)

    def test_params_key_ignores_insertion_order(self):
        assert params_key({"a": 1, "b": 2}) == params_key({"b": 2, "a": 1})

    def test_params_key_keeps_numeric_types_apart(self):
        keys = [params_key({"c": value}) for value in (1, 1.0, True)]
        assert len(set(keys)) == 3
        # NumPy scalars key like the Python values they equal.
        assert params_key({"c": np.int64(1)}) == keys[0]
        assert params_key({"c": np.float64(1.0)}) == keys[1]
        assert params_key({"c": np.bool_(True)}) == keys[2]

    def test_mixed_type_axis_sweeps_each_value(self, baseline):
        def named(params):
            return DesignPoint(f"c={params['c']!r}", area=1.0, perf=2.0, power=1.0)

        grid = ParameterGrid({"c": [1, 1.0, True]})
        explorer = BatchExplorer(
            factory=named, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        names = [design.name for design in explorer.explore_arrays(grid).designs]
        assert names == ["c=1", "c=1.0", "c=True"]
        scalar = Explorer(named, baseline, OPERATIONAL_DOMINATED).explore(grid)
        assert names == [result.design.name for result in scalar]
        assert explorer.cache.stats().misses == 3
        assert explorer.cache.lookup(params_key({"c": 1.0})).name == "c=1.0"


class TestWorkers:
    def test_pool_results_identical_to_serial(self, baseline, grid, scalar_results):
        results = batch_explorer(baseline, workers=2, chunk_size=4).explore(grid)
        assert results == scalar_results

    def test_pool_skips_domain_errors(self, baseline):
        grid = ParameterGrid({"n": [2, 4, 8, 16]})
        explorer = BatchExplorer(
            factory=asymmetric_factory,
            baseline=baseline,
            weight=OPERATIONAL_DOMINATED,
            workers=2,
        )
        assert [r.params["n"] for r in explorer.explore(grid)] == [8, 16]

    def test_pool_handles_an_axis_numpy_cannot_hold(self, baseline):
        grid = ParameterGrid(
            {"shape": [(1, 0.5), (4, 0.9, "big"), (2, 0.95)], "g": [0, 1]}
        )
        kwargs = dict(
            factory=shape_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        pooled = BatchExplorer(workers=2, chunk_size=4, **kwargs).explore(grid)
        assert pooled == Explorer(**kwargs).explore(grid)

    def test_traced_pool_records_kernels_and_worker_shards(self, baseline, grid):
        from repro import obs
        from repro.obs import events, trace

        obs.reset()
        obs.enable()
        try:
            batch_explorer(baseline, workers=2, chunk_size=8).explore_arrays(grid)
            spans = [path for _, path, _ in trace.get_tracer().walk()]
            shards = [e for e in events.get_log().events() if e["name"] == "shard"]
        finally:
            obs.reset()
        assert "sweep/chunk/kernels" in spans
        assert {e["attrs"]["points"] for e in shards} >= {4}
        assert sum(e["attrs"]["points"] for e in shards) == len(grid)
        assert os.getpid() not in {e["worker"] for e in shards}

    def test_pool_fills_cache_for_serial_resweep(self, baseline, grid):
        explorer = batch_explorer(baseline, workers=2)
        explorer.explore(grid)
        assert explorer.cache.misses == len(grid)
        explorer.explore(grid)
        assert explorer.cache.hits == len(grid)


class TestBatchSweepResult:
    def test_len_and_categories(self, baseline, grid):
        sweep = batch_explorer(baseline).explore_arrays(grid)
        assert len(sweep) == len(grid)
        assert len(sweep.categories) == len(grid)
        assert all(isinstance(c, Sustainability) for c in sweep.categories)

    def test_category_counts_drops_empty_by_default(self, baseline, grid):
        sweep = batch_explorer(baseline).explore_arrays(grid)
        counts = sweep.category_counts()
        assert all(n > 0 for n in counts.values())
        full = sweep.category_counts(include_empty=True)
        assert set(full) == set(Sustainability)
        assert sum(full.values()) == len(grid)

    def test_results_roundtrip(self, baseline, grid, scalar_results):
        sweep = batch_explorer(baseline).explore_arrays(grid)
        assert sweep.results() == scalar_results

    def test_results_interoperate_with_scalar_pareto(self, baseline, grid):
        scalar = Explorer(
            factory=multicore_factory, baseline=baseline, weight=OPERATIONAL_DOMINATED
        )
        sweep = batch_explorer(baseline).explore_arrays(grid)
        assert scalar.pareto(sweep.results()) == scalar.pareto(scalar.explore(grid))
