"""The work-stealing scheduler must be invisible in the results.

Shard planning has to cover every pending run exactly once,
chunk-aligned, at any worker count — and the order shards
actually execute in must never change a single result byte, because
every shard owns disjoint rows of the shared block. ``workers="auto"``
is a scheduling decision too: whatever it resolves to, the sweep output
is byte-identical to both the serial and the forced-pool runs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import BatchExplorer, _GridIndex
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})


def _explorer(**kwargs) -> BatchExplorer:
    from repro.core.design import DesignPoint

    return BatchExplorer(
        factory=SymmetricMulticoreFactory(),
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
    """Properties of the guided (geometric) planner."""

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
    def test_sizes_shrink_geometrically(self, runs, chunk_size, workers):
        spans = parallel.plan_steal_runs(runs, chunk_size, workers)
        sizes = _sizes_in_chunks(spans, chunk_size)
        total = sum(sizes)
        # No shard ever exceeds the first guided budget — the unclipped
        # take is monotonically nonincreasing because the backlog only
        # shrinks — and none is ever empty.
        budget = max(1, total // (workers * parallel.STEAL_FACTOR))
        for size in sizes:
            assert 1 <= size <= budget

    def test_tail_shrinks_to_single_chunks(self):
        spans = parallel.plan_steal_runs([(0, 1024)], 16, 2)
        sizes = _sizes_in_chunks(spans, 16)
        assert sizes[-1] == 1
        assert sizes[0] > sizes[-1]

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
