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
from repro.dse.batch import BatchExplorer, params_key
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
        assert isinstance(explorer.cache.lookup(params_key(poison)), QuarantinedPoint)
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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_vector_factory_cold_columnar(self, baseline, workers, thread_pool):
        factory = CountingFactory()
        explorer = _explorer(factory, baseline, workers=workers)
        result = explorer.explore_arrays(REPEAT_GRID)
        assert (factory.kernel_points, factory.scalar_calls) == (6, 0)
        assert (explorer.cache.hits, explorer.cache.misses) == (6, 6)
        assert explorer.last_sweep.fresh_points == 6
        assert len(explorer.cache) == 6
        reference = _explorer(lambda params: factory.inner(params), baseline)
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


class TestLedgerKeysResolveToRows:
    """The ledger's known points resolve to grid rows through each
    axis's value tokens: a sweep never builds a parameter dict or a
    point key for a row the ledger does not name."""

    def test_100k_grid_asks_params_only_for_the_poison_rows(
        self, tmp_path, monkeypatch, baseline
    ):
        factory = SymmetricMulticoreFactory()
        grid = ParameterGrid(
            {"cores": list(range(1, 401)), "f": linear_range(0.5, 0.99, 250)}
        )
        points = list(grid)
        poison = [points[0], points[54_321], points[-1]]
        ledger = QuarantineLedger(tmp_path / "ledger.log")
        for params in poison:
            ledger.record(describe_factory(factory), params, kind="crash", reason="x")
        asked: list[list[int]] = []
        params_of = batch._GridIndex.params

        def counting(index, rows):
            asked.append(rows.tolist())
            return params_of(index, rows)

        monkeypatch.setattr(batch._GridIndex, "params", counting)
        result = _explorer(factory, baseline, chunk_size=1024).explore_arrays(
            grid, quarantine=QuarantineLedger(tmp_path / "ledger.log")
        )
        monkeypatch.undo()
        assert max(map(len, asked)) <= 3
        assert {row for rows in asked for row in rows} == {0, 54_321, len(grid) - 1}
        assert result.quarantined == tuple(poison)
        assert len(result) == len(grid) - 3

    def test_keys_with_the_separator_in_a_string_token(self, tmp_path):
        """A string value holding the key separator still resolves to
        exactly its own row."""
        factory = SymmetricMulticoreFactory()
        grid = ParameterGrid(
            {"cores": [1, 2], "f": [0.5, 0.9], "tag": ["a\x1ef=f1", "b"]}
        )
        ledger = QuarantineLedger(tmp_path / "ledger.log")
        poison = {"cores": 2, "f": 0.9, "tag": "a\x1ef=f1"}
        ledger.record(describe_factory(factory), poison, kind="crash", reason="x")
        index = batch._GridIndex(grid)
        session = QuarantineLedger(tmp_path / "ledger.log").session(
            describe_factory(factory)
        )
        rows = index.key_rows(session.known_keys())
        assert [list(grid)[row] for row in rows.tolist()] == [poison]
