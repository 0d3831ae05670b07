"""The work-stealing scheduler must be invisible in the results.

Shard planning has to cover every pending run exactly once,
chunk-aligned, at any worker count, in ``workers * STEAL_FACTOR``
near-equal spans (so a sweep pays the kernel's fixed per-call cost a
few times per worker, not once per chunk) — and the order shards
actually execute in must never change a single result byte, because
every shard owns disjoint rows of the shared block. ``workers="auto"``
is a scheduling decision too: whatever it resolves to, the sweep output
is byte-identical to both the serial and the forced-pool runs.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch, parallel
from repro.dse.batch import BatchExplorer, _GridIndex, _runs
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import ResultStore
from repro.resilience import truncate_checkpoint
from repro.resilience.faults import CountingFactory

from .test_known_rows import _ThreadPool

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})


def _explorer(factory=None, **kwargs) -> BatchExplorer:
    from repro.core.design import DesignPoint

    return BatchExplorer(
        factory=factory or SymmetricMulticoreFactory(),
        baseline=DesignPoint.baseline("baseline"),
        weight=EMBODIED_DOMINATED,
        **kwargs,
    )


def _sizes_in_chunks(spans, chunk_size):
    return [-(-(hi - lo) // chunk_size) for lo, hi in spans]


def assert_partitions(spans, runs):
    """*spans* must tile *runs* exactly: same coverage, no overlap, no
    span straddling a run boundary."""
    by_run = {run: [] for run in runs if run[1] > run[0]}
    for lo, hi in spans:
        assert lo < hi
        owners = [r for r in by_run if r[0] <= lo and hi <= r[1]]
        assert len(owners) == 1, f"span ({lo}, {hi}) straddles runs {runs}"
        by_run[owners[0]].append((lo, hi))
    for (run_lo, run_hi), parts in by_run.items():
        assert parts == sorted(parts)
        cursor = run_lo
        for lo, hi in parts:
            assert lo == cursor
            cursor = hi
        assert cursor == run_hi


class TestPlanShardRuns:
    """Exact spans the planner gives for edge-case pending runs."""

    def test_empty_runs(self):
        assert parallel.plan_steal_runs([], 16, 4) == []

    def test_degenerate_runs_dropped(self):
        assert parallel.plan_steal_runs([(5, 5), (9, 3)], 16, 4) == []

    def test_chunk_bigger_than_total(self):
        # One run smaller than a single chunk: one span, clipped.
        assert parallel.plan_steal_runs([(0, 7)], 64, 4) == [(0, 7)]

    def test_single_chunk_runs(self):
        runs = [(0, 16), (32, 48), (80, 96)]
        spans = parallel.plan_steal_runs(runs, 16, 2)
        assert_partitions(spans, runs)
        assert spans == runs  # 3 chunks under a 4-way divisor: 1 chunk each

    def test_maximal_workers_one_chunk_per_shard(self):
        # More shard slots than chunks: every span is exactly one chunk.
        runs = [(0, 160)]
        spans = parallel.plan_steal_runs(runs, 16, workers=64)
        assert_partitions(spans, runs)
        assert _sizes_in_chunks(spans, 16) == [1] * 10

    def test_never_straddles_runs(self):
        runs = [(0, 64), (128, 144), (160, 256)]
        spans = parallel.plan_steal_runs(runs, 16, 2)
        assert_partitions(spans, runs)


class TestPlanStealRuns:
    """Properties of the equal-span planner."""

    CASES = [
        ([(0, 256)], 16, 2),
        ([(0, 256)], 16, 8),
        ([(0, 7)], 64, 4),  # sub-chunk run
        ([(0, 16)], 16, 4),  # single chunk
        ([(0, 64), (128, 144), (160, 256)], 16, 2),  # store-gap runs
        ([(0, 1024)], 1, 3),  # chunk_size=1
        ([(0, 160)], 16, 64),  # workers >> chunks
        ([(32, 100)], 16, 3),  # resumed prefix, ragged tail
    ]

    @pytest.mark.parametrize("runs,chunk_size,workers", CASES)
    def test_partitions_runs_chunk_aligned(self, runs, chunk_size, workers):
        spans = parallel.plan_steal_runs(runs, chunk_size, workers)
        assert_partitions(spans, runs)
        for lo, hi in spans:
            run_lo, run_hi = next(r for r in runs if r[0] <= lo and hi <= r[1])
            assert (lo - run_lo) % chunk_size == 0
            assert hi == run_hi or (hi - run_lo) % chunk_size == 0

    @pytest.mark.parametrize("runs,chunk_size,workers", CASES)
    def test_spans_apportioned_by_chunk_count(self, runs, chunk_size, workers):
        spans = parallel.plan_steal_runs(runs, chunk_size, workers)
        chunks = {
            run: -(-(run[1] - run[0]) // chunk_size) for run in runs if run[1] > run[0]
        }
        total = sum(chunks.values())
        seats = min(total, workers * parallel.STEAL_FACTOR)
        # The sweep's seats, plus one for each run too small to earn one.
        assert seats <= len(spans) <= seats + len(chunks)
        for (run_lo, run_hi), run_chunks in chunks.items():
            parts = [(lo, hi) for lo, hi in spans if run_lo <= lo and hi <= run_hi]
            # Largest remainders: within one of the run's exact quota,
            # at least one span and at most one per chunk.
            quota = seats * run_chunks / total
            assert max(1, math.floor(quota)) <= len(parts) <= max(1, math.ceil(quota))
            assert len(parts) <= run_chunks
            sizes = _sizes_in_chunks(parts, chunk_size)
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_one_run_gets_steal_factor_spans_per_worker(self, workers):
        # The compute-heavy benchmark's shape: 40 chunks of 1024 rows
        # less the auto-calibration chunk, a 64-row runt at the end.
        spans = parallel.plan_steal_runs([(1024, 40_000)], 1024, workers)
        assert len(spans) == workers * parallel.STEAL_FACTOR
        sizes = _sizes_in_chunks(spans, 1024)
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) == -(-39 // (workers * parallel.STEAL_FACTOR))

    def test_empty(self):
        assert parallel.plan_steal_runs([], 16, 2) == []
        assert parallel.plan_steal_runs([(4, 4)], 16, 2) == []
        assert parallel.plan_steal_runs([(9, 3)], 16, 2) == []


class TestStolenOrderParity:
    """Shards own disjoint block rows, so *any* execution order — the
    whole point of stealing is that order is nondeterministic — must
    produce identical bytes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_shard_order_is_byte_identical(self, seed):
        factory = SymmetricMulticoreFactory()
        index = _GridIndex(GRID)
        total = index.total
        spans = parallel.plan_steal_runs([(0, total)], 4, 2)
        assert len(spans) > 2

        def run(order):
            block = parallel.ColumnarBlock.allocate(total)
            try:
                parallel.set_worker_state(factory, block, index)
                for seq in order:
                    lo, hi = spans[seq]
                    parallel.eval_shard((lo, hi, seq))
                return tuple(
                    np.asarray(col).tobytes()
                    for col in (block.area, block.perf, block.power, block.valid)
                )
            finally:
                parallel.clear_worker_state()
                block.release()

        sequential = run(range(len(spans)))
        order = list(range(len(spans)))
        random.Random(seed).shuffle(order)
        assert run(order) == sequential

    def test_steal_schedule_matches_serial(self):
        reference = _explorer().explore_arrays(GRID)
        explorer = _explorer(workers=2, chunk_size=4)
        result = explorer.explore_arrays(GRID)
        assert result.params == reference.params
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
        assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
        assert np.array_equal(result.codes, reference.codes)
        assert explorer.last_sweep.shards > 1


# 20 x 8 points in chunks of 4: a 40-chunk sweep.
CALL_GRID = ParameterGrid(
    {"cores": list(range(1, 21)), "f": linear_range(0.5, 0.99, 8)}
)


class TestKernelCalls:
    """A parallel sweep makes one ``batch_arrays`` call per shard: about
    ``STEAL_FACTOR`` per worker, not one per chunk."""

    SEATS = 2 * parallel.STEAL_FACTOR

    @pytest.fixture(autouse=True)
    def thread_pool(self, monkeypatch):
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _ThreadPool)

    def test_cold_sweep(self):
        reference = _explorer(chunk_size=4).explore_arrays(CALL_GRID)
        factory = CountingFactory()
        explorer = _explorer(factory, workers=2, chunk_size=4)
        result = explorer.explore_arrays(CALL_GRID)
        assert np.array_equal(result.codes, reference.codes)
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
        assert factory.kernel_points == len(CALL_GRID)
        assert factory.kernel_calls <= self.SEATS
        assert explorer.last_sweep.shards == factory.kernel_calls

    def test_auto_sweep_adds_only_the_calibration_call(self, monkeypatch):
        monkeypatch.setattr(
            BatchExplorer, "_auto_decision", staticmethod(lambda est, cpus: 2)
        )
        factory = CountingFactory()
        explorer = _explorer(factory, workers="auto", chunk_size=4)
        explorer.explore_arrays(CALL_GRID)
        assert explorer.last_sweep.workers == 2
        assert factory.kernel_points == len(CALL_GRID)
        assert factory.kernel_calls <= self.SEATS + 1

    def test_resumed_prefix(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        factory = CountingFactory()
        reference = _explorer(factory, chunk_size=4).explore_arrays(
            CALL_GRID, checkpoint=ckpt
        )
        truncate_checkpoint(ckpt, keep_fraction=0.5)
        factory.kernel_calls = factory.kernel_points = 0
        explorer = _explorer(factory, workers=2, chunk_size=4)
        result = explorer.explore_arrays(CALL_GRID, checkpoint=ckpt, resume=True)
        assert np.array_equal(result.codes, reference.codes)
        assert 0 < factory.kernel_points < len(CALL_GRID)
        assert factory.kernel_calls <= self.SEATS + 1

    def test_store_gaps(self, tmp_path):
        root = tmp_path / "store"
        factory = CountingFactory()
        for cores in (5, 12):
            _explorer(factory, chunk_size=4).explore_arrays(
                CALL_GRID.subgrid(cores=cores), store=ResultStore(root)
            )
        fresh = np.array([p["cores"] not in (5, 12) for p in CALL_GRID])
        runs = _runs(fresh)
        assert len(runs) == 3
        reference = _explorer(chunk_size=4).explore_arrays(CALL_GRID)
        factory.kernel_calls = factory.kernel_points = 0
        explorer = _explorer(factory, workers=2, chunk_size=4)
        result = explorer.explore_arrays(CALL_GRID, store=ResultStore(root))
        assert np.array_equal(result.codes, reference.codes)
        assert factory.kernel_points == int(fresh.sum())
        assert factory.kernel_calls <= self.SEATS + len(runs)


class TestAutoWorkers:
    def test_auto_matches_serial_bytes(self):
        reference = _explorer().explore_arrays(GRID)
        auto = _explorer(workers="auto")
        result = auto.explore_arrays(GRID)
        assert result.params == reference.params
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
        assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
        assert np.array_equal(result.codes, reference.codes)
        stats = auto.last_sweep
        assert stats.auto_workers
        assert "workers auto->" in stats.summary()
        assert stats.as_dict()["auto_workers"] is True

    def test_tiny_sweep_declines_the_pool(self):
        # A 35-point grid evaluates in microseconds: calibration must
        # conclude that process dispatch cannot win and stay serial.
        auto = _explorer(workers="auto")
        auto.explore_arrays(GRID)
        assert auto.last_sweep.workers == 0
        assert "auto->serial" in auto.last_sweep.summary()

    def test_decision_math(self):
        decide = BatchExplorer._auto_decision
        assert decide(10.0, 1) == 0  # nothing to fan out to
        assert decide(0.001, 8) == 0  # sweep too small to matter
        assert decide(10.0, 8) > 0  # long sweep, real cores: engage
        assert decide(10.0, 8) <= 8

    def test_workers_validated(self):
        with pytest.raises(ValidationError):
            _explorer(workers="fast")
        with pytest.raises(ValidationError):
            _explorer(workers=-1)

    def test_warm_cache_skips_calibration(self):
        auto = _explorer(workers="auto")
        auto.explore_arrays(GRID)
        first = auto.cache.stats().misses
        auto.explore_arrays(GRID)  # warm: every point from cache
        assert auto.cache.stats().misses == first
