"""Property-based warm sweeps: whatever grid warmed the cache, a sweep
of another grid over the same axis names gathers the rows the cache
knows from its column records and runs the kernel on exactly the rest —
once per distinct key, never through a scalar call — and ends
byte-identical to a cold sweep, at any worker count."""

from __future__ import annotations

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch
from repro.dse.batch import BatchExplorer
from repro.dse.factories import AsymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid
from repro.dse.store import ResultStore
from repro.resilience.faults import CountingFactory

from ..dse.test_parallel_columnar import assert_same_entries

BASELINE = DesignPoint.baseline("1-BCE single core")
#: Corners with m >= n are invalid; 2 and 2.0 are two cache keys.
FACTORY = AsymmetricMulticoreFactory()
VALUES = {
    "n": [2, 3, 4, 8, 2.0, 4.0],
    "m": [1, 2, 4, 2.0],
    "f": [0.5, 0.9, 0.75],
}


class _ThreadPool(ThreadPoolExecutor):
    """Worker threads calling the sweep's own factory instance, so its
    counters see every kernel row."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        super().__init__(max_workers)


def _key(params) -> tuple:
    """A point's identity: its values with their types (2 is not 2.0)."""
    return tuple(sorted((name, type(v).__name__, v) for name, v in params.items()))


def _explorer(factory, chunk_size: int, workers: int = 0) -> BatchExplorer:
    return BatchExplorer(
        factory=factory,
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
        workers=workers,
    )


@st.composite
def grids(draw) -> ParameterGrid:
    """A grid over n, m and f in any axis order; values may repeat
    (also as 2/2.0), and at least one corner is valid."""
    names = draw(st.permutations(list(VALUES)))
    axes = {
        name: draw(st.lists(st.sampled_from(VALUES[name]), min_size=1, max_size=4))
        for name in names
    }
    assume(max(axes["n"]) > min(axes["m"]))
    return ParameterGrid(axes)


@settings(max_examples=40, deadline=None)
@given(
    warm=grids(),
    grid=grids(),
    chunk_size=st.integers(1, 12),
    workers=st.sampled_from([0, 2]),
)
# 4.0 is not the cached 4: the re-sweep evaluates it fresh.
@example(
    warm=ParameterGrid({"n": [8], "m": [1, 2, 4], "f": [0.5]}),
    grid=ParameterGrid({"n": [8], "m": [1, 2, 4.0], "f": [0.5]}),
    chunk_size=2,
    workers=0,
)
def test_warm_sweep_gathers_known_rows(warm, grid, chunk_size, workers):
    cold = _explorer(FACTORY, chunk_size).explore_arrays(grid)
    factory = CountingFactory(FACTORY)
    explorer = _explorer(factory, chunk_size, workers)
    with mock.patch.object(batch, "ProcessPoolExecutor", _ThreadPool):
        explorer.explore_arrays(warm)
        factory.kernel_points = factory.scalar_calls = 0
        before = explorer.cache.stats()
        result = explorer.explore_arrays(grid)
    after = explorer.cache.stats()

    warm_keys = {_key(params) for params in warm}
    keys = {_key(params) for params in grid}
    fresh = len(keys - warm_keys)
    assert factory.kernel_points == fresh
    assert (after.hits - before.hits, after.misses - before.misses) == (
        len(grid) - fresh,
        fresh,
    )
    assert len(explorer.cache) == len(warm_keys | keys)
    for name in ("perf", "ncf_fixed_work", "ncf_fixed_time", "codes"):
        assert getattr(result, name).tobytes() == getattr(cold, name).tobytes()
    assert result.params == cold.params
    assert result.designs == cold.designs
    assert factory.scalar_calls == 0

    # Expanded into points, the records hold exactly what a point-level
    # cache holds after the same two sweeps.
    reference = _explorer(lambda params: FACTORY(params), chunk_size)
    reference.explore_arrays(warm)
    reference.explore_arrays(grid)
    assert_same_entries(explorer.cache, reference.cache)


@settings(max_examples=40, deadline=None)
@given(sweeps=st.lists(grids(), min_size=2, max_size=4), chunk_size=st.integers(1, 12))
def test_cache_records_hold_each_key_once(sweeps, chunk_size):
    """Partly-overlapping sweeps on one cache: each sweep evaluates only
    the keys no earlier one did, and the records the cache keeps hold
    one column row per distinct valid key, however many sweeps saw it."""
    factory = CountingFactory(FACTORY)
    explorer = _explorer(factory, chunk_size)
    seen: set = set()
    for grid in sweeps:
        cold = _explorer(FACTORY, chunk_size).explore_arrays(grid)
        factory.kernel_points = 0
        result = explorer.explore_arrays(grid)
        keys = {_key(params) for params in grid}
        assert factory.kernel_points == len(keys - seen)
        assert result.codes.tobytes() == cold.codes.tobytes()
        assert result.designs == cold.designs
        seen |= keys
    valid = {_key(params) for grid in sweeps for params in grid if params["n"] > params["m"]}
    assert len(explorer.cache) == len(seen)
    assert sum(len(record.rows) for record in explorer.cache._records) == len(valid)
    assert factory.scalar_calls == 0


def _scalar(params):
    """FACTORY as a plain function: a scalar sweep, a point-level cache."""
    return FACTORY(params)


@settings(max_examples=30, deadline=None)
@given(
    sweeps=st.lists(grids(), min_size=2, max_size=4),
    chunk_size=st.integers(1, 12),
    vector=st.booleans(),
    durable=st.sampled_from([None, "checkpoint", "store"]),
)
def test_cache_slots_grow_with_keys(sweeps, chunk_size, vector, durable):
    """Whatever the factory and durable layer, partly-overlapping sweeps
    leave records whose held objects and durable-row slots, like their
    columns, number one per owned key rather than one per grid row swept,
    and the cache ends with a point-level cache's entries."""
    explorer = _explorer(FACTORY if vector else _scalar, chunk_size)
    reference = _explorer(_scalar, chunk_size)
    with tempfile.TemporaryDirectory() as root:
        for n, grid in enumerate(sweeps):
            layer: dict = {}
            if durable == "checkpoint":
                layer = dict(checkpoint=Path(root) / f"{n}.ckpt")
            elif durable == "store":
                layer = dict(store=ResultStore(root))
            explorer.explore_arrays(grid, **layer)
            reference.explore_arrays(grid)
    keys = {_key(params) for grid in sweeps for params in grid}
    assert len(explorer.cache) == len(keys)
    for record in explorer.cache._records:
        for slots in (record.held, record.at):
            assert slots is None or len(slots) == record.owned_points()
    assert_same_entries(explorer.cache, reference.cache)
