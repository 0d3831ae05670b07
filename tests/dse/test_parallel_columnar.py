"""The parallel-columnar engine must be invisible in the results:
byte-identical sweep output, identical cache contents and identical
category counts versus both the single-process columnar path and the
scalar path — at every grid/chunk geometry, over numeric and string
axes, on hosts that refuse shared memory too (the sweep then runs
in-process), and with nothing (workers, shm segments, module state)
left behind afterwards."""

from __future__ import annotations

import dataclasses
import logging
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch, parallel
from repro.dse.batch import (
    BatchExplorer,
    DesignArrays,
    FactoryCache,
    params_key,
    params_keys,
)
from repro.dse.explorer import Explorer
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    SymmetricMulticoreFactory,
)
from repro.dse.grid import ParameterGrid, linear_range

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})
#: n <= m corners raise DomainError scalar-side, are masked vector-side.
ASYM_GRID = ParameterGrid({"n": [2, 3, 4, 8, 16], "m": [1, 4, 8]})

#: Per-node area/power scale of :class:`NodeScaledFactory`.
NODE_SCALE = {"7nm": 1.0, "5nm": 0.75, "3nm": 0.5}
#: A grid with a ``str`` axis (36 points).
STR_GRID = ParameterGrid(
    {"node": list(NODE_SCALE), "cores": [1, 2, 4, 8], "f": [0.5, 0.9, 0.99]}
)


@dataclasses.dataclass(frozen=True)
class NodeScaledFactory:
    """A vector factory with a ``str`` axis: symmetric multicore
    designs whose area and power scale with the process ``node``."""

    inner: SymmetricMulticoreFactory = SymmetricMulticoreFactory()

    def __call__(self, params):
        point = self.inner(params)
        scale = NODE_SCALE[params["node"]]
        return DesignPoint(
            f"{point.name} {params['node']}",
            area=point.area * scale,
            perf=point.perf,
            power=point.power * scale,
        )

    def batch_arrays(self, columns):
        arrays = self.inner.batch_arrays(columns)
        scale = np.array([NODE_SCALE[node] for node in columns["node"].tolist()])
        return DesignArrays(
            area=arrays.area * scale,
            perf=arrays.perf,
            power=arrays.power * scale,
            valid=arrays.valid,
        )


@dataclasses.dataclass(frozen=True)
class ScribblingFactory:
    """Overwrites every writeable input column after reading it, then
    fails once (flagged through *flag*), so the supervisor re-runs a
    shard whose inputs were just damaged: a shard's columns must be its
    own, or the retry (or the grid itself) would see the damage."""

    inner: object
    flag: str

    def __call__(self, params):
        return self.inner(params)

    def batch_arrays(self, columns):
        arrays = self.inner.batch_arrays(columns)
        for column in columns.values():
            if column.flags.writeable:
                column[...] = column[::-1].copy()
        try:
            os.close(os.open(self.flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return arrays
        raise RuntimeError("transient failure after writing the inputs")


def _explorer(factory, baseline, **kwargs) -> BatchExplorer:
    return BatchExplorer(
        factory=factory, baseline=baseline, weight=EMBODIED_DOMINATED, **kwargs
    )


def assert_same_entries(cache, reference_cache) -> None:
    """Cache equality that copes with DomainError's identity compare."""
    entries = dict(cache._entries)
    reference = dict(reference_cache._entries)
    assert entries.keys() == reference.keys()
    for key, outcome in entries.items():
        expected = reference[key]
        if isinstance(expected, Exception):
            assert type(outcome) is type(expected)
            assert str(outcome) == str(expected)
        else:
            assert outcome == expected


def assert_same_sweep(result, reference) -> None:
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


class TestKeyUnification:
    def test_params_keys_match_params_key(self):
        chunk = list(GRID)[:7]
        assert params_keys(chunk) == [params_key(params) for params in chunk]

    def test_store_many_routes_through_shared_keys(self, baseline):
        factory = SymmetricMulticoreFactory()
        cache = FactoryCache(factory)
        chunk = list(GRID)[:5]
        outcomes = [factory(params) for params in chunk]
        cache.store_many(params_keys(chunk), outcomes, misses=len(chunk))
        assert len(cache) == len(chunk)
        assert cache.misses == len(chunk)
        for params, outcome in zip(chunk, outcomes):
            assert cache.lookup(params_key(params)) is outcome

    def test_store_many_length_mismatch_raises(self):
        from repro.core.errors import ValidationError

        cache = FactoryCache(SymmetricMulticoreFactory())
        with pytest.raises(ValidationError):
            cache.store_many([("a", 1)], [])


class TestParity:
    def test_matches_columnar_and_scalar(self, baseline):
        columnar = _explorer(SymmetricMulticoreFactory(), baseline)
        reference = columnar.explore_arrays(GRID)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        result = par.explore_arrays(GRID)
        assert par.last_sweep.mode == "parallel-columnar"
        assert_same_sweep(result, reference)
        assert dict(par.cache._entries) == dict(columnar.cache._entries)
        assert par.cache.stats() == columnar.cache.stats()

    def test_invalid_corners_capture_domain_errors(self, baseline):
        columnar = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9), baseline
        )
        reference = columnar.explore_arrays(ASYM_GRID)
        par = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9),
            baseline,
            workers=2,
            chunk_size=4,
        )
        result = par.explore_arrays(ASYM_GRID)
        assert_same_sweep(result, reference)
        # Skips really happened, and the invalid corners were memoized
        # as genuine DomainError objects, like the scalar path stores.
        assert 0 < len(result.params) < len(ASYM_GRID)
        assert_same_entries(par.cache, columnar.cache)

    def test_category_counts_identical(self, baseline):
        serial = _explorer(SymmetricMulticoreFactory(), baseline)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        assert (
            par.explore_arrays(GRID).category_counts()
            == serial.explore_arrays(GRID).category_counts()
        )


class TestEdgeGeometry:
    """Shard planning must cover every degenerate chunk/grid shape."""

    @pytest.mark.parametrize(
        "chunk_size,axes",
        [
            (1, {"cores": [1, 2, 4], "f": [0.3, 0.9]}),  # chunk_size=1
            (64, {"cores": [1, 2, 4], "f": [0.3, 0.9]}),  # grid < one chunk
            (4, {"cores": [2], "f": [0.5]}),  # single-point grid
            (3, {"cores": [1, 2, 4, 8, 16], "f": [0.25, 0.75]}),  # ragged tail
        ],
        ids=["chunk1", "chunk-bigger-than-grid", "single-point", "partial-tail"],
    )
    def test_bit_exact_vs_scalar(self, baseline, chunk_size, axes):
        grid = ParameterGrid(axes)
        reference = _explorer(
            SymmetricMulticoreFactory(), baseline, chunk_size=chunk_size
        ).explore_arrays(grid)
        result = _explorer(
            SymmetricMulticoreFactory(),
            baseline,
            chunk_size=chunk_size,
            workers=2,
        ).explore_arrays(grid)
        assert_same_sweep(result, reference)

    def test_final_partial_chunk_entirely_invalid(self, baseline):
        # 4 points at chunk_size=2: the last chunk is [m=8]x{n=4 is
        # valid? no:] — axes chosen so the trailing partial chunk holds
        # only n <= m corners, which the kernel masks invalid and the
        # parent re-evaluates to genuine DomainErrors.
        grid = ParameterGrid({"n": [4], "m": [1, 2, 8, 16]})
        factory = AsymmetricMulticoreFactory(parallel_fraction=0.9)
        reference = _explorer(
            factory, baseline, chunk_size=2
        ).explore_arrays(grid)
        par = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9),
            baseline,
            chunk_size=2,
            workers=2,
        )
        result = par.explore_arrays(grid)
        assert_same_sweep(result, reference)
        assert len(result.params) == 2  # m=1, m=2 survive; m=8, m=16 do not


@pytest.fixture
def no_shm(monkeypatch):
    """A host without usable shared memory: segment creation fails."""
    real = shared_memory.SharedMemory

    def refuse(*args, create=False, **kwargs):
        if create:
            raise OSError(28, "No space left on device (no /dev/shm)")
        return real(*args, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


class TestSharedMemoryFallback:
    def test_refused_segment_leaves_nothing_live(self, no_shm):
        with pytest.raises(OSError):
            parallel.ColumnarBlock.allocate(1000)
        assert parallel.live_blocks() == frozenset()

    def test_no_shm_host_sweeps_in_process(
        self, baseline, no_shm, monkeypatch, caplog
    ):
        # Shared-memory creation fails: the sweep logs the cause, spawns
        # no pool and runs the in-process columnar path, bit-exact.
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was spawned without a block")

        monkeypatch.setattr(batch, "ProcessPoolExecutor", no_pool)
        serial = _explorer(SymmetricMulticoreFactory(), baseline)
        reference = serial.explore_arrays(GRID)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = par.explore_arrays(GRID)
        assert_same_sweep(result, reference)
        assert_same_entries(par.cache, serial.cache)
        assert par.last_sweep.mode == "columnar"
        assert par.last_sweep.shards == 0
        assert par.last_sweep.shm_bytes == 0
        assert "block.fallback" in caplog.text
        assert "No space left on device" in caplog.text
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}

    def test_shm_bytes_reported_when_backed(self, baseline):
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        par.explore_arrays(GRID)
        assert par.last_sweep.shm_bytes >= len(GRID) * parallel.BYTES_PER_POINT


class TestNonNumericAxes:
    """String axes take the same shard transport as numeric ones."""

    def test_string_axis_serial_pool_and_scalar_agree(self, baseline):
        scalar = Explorer(NodeScaledFactory(), baseline, EMBODIED_DOMINATED)
        expected = scalar.explore(STR_GRID)
        serial = _explorer(NodeScaledFactory(), baseline, chunk_size=5)
        reference = serial.explore_arrays(STR_GRID)
        par = _explorer(NodeScaledFactory(), baseline, chunk_size=5, workers=2)
        result = par.explore_arrays(STR_GRID)
        assert par.last_sweep.mode == "parallel-columnar"
        assert_same_sweep(result, reference)
        assert_same_entries(par.cache, serial.cache)
        assert result.results() == expected
        assert {type(params["node"]) for params in result.params} == {str}

    @pytest.mark.parametrize(
        "factory,grid",
        [(SymmetricMulticoreFactory(), GRID), (NodeScaledFactory(), STR_GRID)],
        ids=["numeric", "string"],
    )
    # One worker pins the retry to the process that damaged its inputs.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_factory_writing_its_inputs_stays_serial_identical(
        self, baseline, tmp_path, factory, grid, workers
    ):
        from repro.resilience import RetryPolicy

        axes = {name: list(values) for name, values in grid.axes.items()}
        reference = _explorer(factory, baseline).explore_arrays(grid)
        flag = tmp_path / "failed-once"
        par = _explorer(
            ScribblingFactory(factory, str(flag)),
            baseline,
            chunk_size=4,
            workers=workers,
            resilience=RetryPolicy(max_retries=2, backoff_base_s=0.001),
        )
        assert_same_sweep(par.explore_arrays(grid), reference)
        assert par.last_supervision.retries > 0  # the damaged shard re-ran
        serial = _explorer(
            ScribblingFactory(factory, str(flag)), baseline, chunk_size=4
        ).explore_arrays(grid)
        assert_same_sweep(serial, reference)
        assert {name: list(values) for name, values in grid.axes.items()} == axes

    @pytest.mark.chaos
    def test_poison_string_value_lands_in_ledger_as_string(
        self, baseline, tmp_path
    ):
        from repro.resilience import QuarantineLedger, RetryPolicy
        from repro.resilience.faults import FaultPlan, FaultSpec

        poison = {"node": "5nm", "cores": 4, "f": 0.9}
        plan = FaultPlan(
            seed=0,
            state_dir=str(tmp_path / "faults"),
            specs=(FaultSpec("poison", tuple(sorted(poison.items()))),),
        )
        ledger_path = tmp_path / "poison.json"
        explorer = _explorer(
            plan.wrap_vector(NodeScaledFactory()),
            baseline,
            chunk_size=4,
            workers=2,
            resilience=RetryPolicy(
                max_retries=1, backoff_base_s=0.001, chunk_timeout_s=15.0
            ),
        )
        result = explorer.explore_arrays(
            STR_GRID, quarantine=QuarantineLedger(ledger_path)
        )
        assert explorer.last_sweep.mode == "parallel-columnar"
        assert [dict(params) for params in result.quarantined] == [poison]
        entries = [
            entry
            for section in QuarantineLedger(ledger_path)._load().values()
            for entry in section.values()
        ]
        assert [entry["params"] for entry in entries] == [poison]
        assert type(entries[0]["params"]["node"]) is str


class TestTransportParity:
    """The shared-memory block, and the in-process sweep a host without
    one falls back to, give the serial sweep's bytes: results, cache
    entries and checkpoint files, on numeric and string grids."""

    @staticmethod
    def _sweeps(factory, baseline, grid, tmp_path, key, **kwargs):
        explorer = _explorer(factory, baseline, chunk_size=8, **kwargs)
        result = explorer.explore_arrays(grid)
        ckpt = tmp_path / f"{key}.ckpt"
        checkpointed = _explorer(
            factory, baseline, chunk_size=8, **kwargs
        ).explore_arrays(grid, checkpoint=ckpt)
        return explorer, result, checkpointed, ckpt.read_bytes()

    @pytest.mark.parametrize("transport", ["shm", "no-shm"])
    @pytest.mark.parametrize(
        "factory,grid",
        [
            (AsymmetricMulticoreFactory(parallel_fraction=0.9), ASYM_GRID),
            (NodeScaledFactory(), STR_GRID),
        ],
        ids=["numeric", "string"],
    )
    def test_matches_serial_bytes(
        self, baseline, request, tmp_path, factory, grid, transport
    ):
        serial, reference, ref_ckpt, ref_bytes = self._sweeps(
            factory, baseline, grid, tmp_path, "serial"
        )
        if transport == "no-shm":
            request.getfixturevalue("no_shm")
        par, result, checkpointed, ckpt_bytes = self._sweeps(
            factory, baseline, grid, tmp_path, transport, workers=2
        )
        assert par.last_sweep.mode == (
            "parallel-columnar" if transport == "shm" else "columnar"
        )
        assert (par.last_sweep.shm_bytes > 0) == (transport == "shm")
        assert_same_sweep(result, reference)
        assert_same_sweep(checkpointed, ref_ckpt)
        assert_same_entries(par.cache, serial.cache)
        assert ckpt_bytes == ref_bytes
        assert parallel.live_blocks() == frozenset()


class TestHygiene:
    def test_no_leaked_segments_or_state_after_sweep(self, baseline):
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        par.explore_arrays(GRID)
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}

    def test_block_release_is_idempotent(self):
        block = parallel.ColumnarBlock.allocate(8)
        name = block.name
        block.release()
        block.release()
        assert parallel.live_blocks() == frozenset()
        if name is not None:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
