"""Known rows change what a sweep evaluates, never how: a vector
factory sweep adopts every row the cache, a checkpoint, the store or
the quarantine ledger already knows, passes only the rest to
``batch_arrays`` — at any worker count, for explore and count alike —
and ends byte-identical to a cold sweep."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import QuarantinedPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import ResultStore
from repro.obs import metrics, trace
from repro.resilience import QuarantineLedger
from repro.resilience.checkpoint import describe_factory
from repro.resilience.faults import CountingFactory

from .test_lazy_results import REPEAT_GRID, _columns_equal
from .test_parallel_columnar import assert_same_entries

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})
SUBGRID = GRID.subgrid(cores=4)


@pytest.fixture(autouse=True)
def clean_obs():
    trace.reset()
    metrics.reset()
    yield
    trace.reset()
    metrics.reset()


class _ThreadPool(ThreadPoolExecutor):
    """A worker pool of threads: the workers call the test's own factory
    instance, so its counters see every kernel row. The explorer
    installs its sweep state in-process before dispatch, so the pool
    initializer (a second attachment to the result block) is skipped."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        super().__init__(max_workers)


@pytest.fixture
def thread_pool(monkeypatch):
    monkeypatch.setattr(batch, "ProcessPoolExecutor", _ThreadPool)


def _explorer(factory, baseline, **kwargs) -> BatchExplorer:
    kwargs.setdefault("chunk_size", 4)
    return BatchExplorer(
        factory=factory, baseline=baseline, weight=EMBODIED_DOMINATED, **kwargs
    )


class TestSubgridWarmedSweep:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_explore_runs_only_the_misses(self, baseline, workers, thread_pool):
        cold = _explorer(SymmetricMulticoreFactory(), baseline)
        reference = cold.explore_arrays(GRID)
        factory = CountingFactory()
        explorer = _explorer(factory, baseline, workers=workers)
        explorer.explore_arrays(SUBGRID)
        factory.kernel_points = factory.scalar_calls = 0
        hits = explorer.cache.hits
        result = explorer.explore_arrays(GRID)
        assert factory.scalar_calls == 0
        assert factory.kernel_points == len(GRID) - len(SUBGRID)
        assert explorer.cache.hits - hits == len(SUBGRID)
        assert explorer.last_sweep.vector_points == len(GRID) - len(SUBGRID)
        assert _columns_equal(result, reference)
        assert result.results() == reference.results()
        assert_same_entries(explorer.cache, cold.cache)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_count_runs_only_the_misses(self, baseline, workers, thread_pool):
        cold = _explorer(SymmetricMulticoreFactory(), baseline)
        expected = cold.count_categories(GRID)
        factory = CountingFactory()
        explorer = _explorer(factory, baseline, workers=workers)
        explorer.explore_arrays(SUBGRID)
        factory.kernel_points = factory.scalar_calls = 0
        hits = explorer.cache.hits
        assert explorer.count_categories(GRID) == expected
        assert factory.scalar_calls == 0
        assert factory.kernel_points == len(GRID) - len(SUBGRID)
        assert explorer.cache.hits - hits == len(SUBGRID)
        assert_same_entries(explorer.cache, cold.cache)


class TestMixedSources:
    def test_poisoned_chunk_adopts_its_stored_rows(self, baseline, tmp_path):
        # Chunk [12, 16) holds a poison point and three stored rows: the
        # marker comes from the ledger, the rest from the store.
        counting = CountingFactory()
        root = tmp_path / "store"
        _explorer(counting, baseline).explore_arrays(GRID, store=ResultStore(root))
        poison = list(GRID)[13]
        ledger = QuarantineLedger(tmp_path / "ledger.json")
        ledger.record(
            describe_factory(counting), poison, kind="crash", reason="test"
        )
        counting.kernel_points = counting.scalar_calls = 0
        explorer = _explorer(counting, baseline)
        result = explorer.explore_arrays(
            GRID,
            store=ResultStore(root),
            quarantine=QuarantineLedger(tmp_path / "ledger.json"),
        )
        assert result.quarantined == (poison,)
        assert explorer.last_sweep.fresh_points == 0
        assert explorer.last_sweep.store_points == len(GRID) - 1
        assert counting.kernel_points == counting.scalar_calls == 0
        key = tuple(sorted(poison.items()))
        assert isinstance(explorer.cache.lookup(key), QuarantinedPoint)
        # Part ledger, part store: the poisoned chunk is a delta chunk.
        stats = explorer.last_sweep
        assert (stats.store_chunks, stats.delta_chunks) == (-(-len(GRID) // 4) - 1, 1)


class TestRepeatedPoints:
    """A point is evaluated once per sweep however often the grid
    repeats it (REPEAT_GRID's 12 rows hold 6 points): later rows take
    its outcome and count as cache hits."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_scalar_factory(self, baseline, workers, thread_pool):
        calls = []

        def plain(params):
            calls.append(params)
            return SymmetricMulticoreFactory()(params)

        explorer = _explorer(plain, baseline, workers=workers)
        result = explorer.explore_arrays(REPEAT_GRID)
        assert len(calls) == 6
        assert (explorer.cache.hits, explorer.cache.misses) == (6, 6)
        assert explorer.last_sweep.fresh_points == 6
        reference = _explorer(SymmetricMulticoreFactory(), baseline)
        assert result.results() == reference.explore(REPEAT_GRID)
        assert_same_entries(explorer.cache, reference.cache)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_vector_factory_point_path(self, baseline, workers, thread_pool, tmp_path):
        factory = CountingFactory()
        explorer = _explorer(factory, baseline, workers=workers)
        # A checkpoint keeps the sweep on the point path.
        result = explorer.explore_arrays(
            REPEAT_GRID, checkpoint=tmp_path / "sweep.ckpt.json"
        )
        assert (factory.kernel_points, factory.scalar_calls) == (6, 0)
        assert (explorer.cache.hits, explorer.cache.misses) == (6, 6)
        assert explorer.last_sweep.vector_points == 6
        reference = _explorer(SymmetricMulticoreFactory(), baseline)
        assert result.results() == reference.explore(REPEAT_GRID)
        assert_same_entries(explorer.cache, reference.cache)

    def test_warm_count(self, baseline):
        factory = CountingFactory()
        explorer = _explorer(factory, baseline)
        explorer.explore_arrays(REPEAT_GRID.subgrid(cores=4))
        factory.kernel_points = 0
        before = explorer.cache.stats()
        expected = _explorer(SymmetricMulticoreFactory(), baseline).count_categories(
            REPEAT_GRID
        )
        assert explorer.count_categories(REPEAT_GRID) == expected
        after = explorer.cache.stats()
        assert (factory.kernel_points, factory.scalar_calls) == (4, 0)
        assert (after.hits - before.hits, after.misses - before.misses) == (8, 4)
