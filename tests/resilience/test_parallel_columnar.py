"""Resilience of the parallel-columnar engine path.

The parallel-columnar mode moves kernel execution into worker processes
and results into shared memory — every recovery guarantee the scalar
pool enjoys must hold there too: injected crashes/hangs/errors recover
byte-identically, kill-then-resume is bit-exact (a truncated checkpoint
and a real worker crash alike), and aborted sweeps leave neither orphan
workers nor shared-memory segments behind.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.dse import parallel
from repro.dse.factories import SymmetricMulticoreFactory
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
    sweep_fingerprint,
)

pytestmark = pytest.mark.chaos


def _settled_children(timeout_s: float = 10.0) -> list:
    """Child processes still alive after giving reaping a moment."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [p for p in multiprocessing.active_children() if p.is_alive()]
        if not alive:
            return []
        time.sleep(0.05)
    return alive


def assert_identical(result, reference):
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


@dataclasses.dataclass(frozen=True)
class CrashOnceVectorFactory:
    """A vector factory whose worker dies hard (``os._exit``) the first
    time it sees the grid's ``cores=32`` tail, flagged through the
    *flag* file so a resumed run evaluates clean. It stays a genuine
    vector factory (unlike ``FaultPlan.wrap``), so the sweep takes the
    parallel-columnar path with its shared-memory block."""

    inner: SymmetricMulticoreFactory
    flag: str

    def __call__(self, params):
        return self.inner(params)

    def batch_arrays(self, columns):
        cores = np.asarray(columns["cores"])
        if cores.size and cores.max() >= 32 and not os.path.exists(self.flag):
            open(self.flag, "w").close()
            os._exit(13)
        return self.inner.batch_arrays(columns)

    def design_points(self, chunk, arrays):
        return self.inner.design_points(chunk, arrays)


@pytest.fixture
def reference(make_explorer, grid):
    return make_explorer().explore_arrays(grid)


class TestParallelChaos:
    def test_shard_crash_recovers_identically(
        self, make_explorer, grid, factory, tmp_path, fast_policy, reference
    ):
        plan = FaultPlan.plan(grid, seed=11, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=fast_policy
        )
        result = explorer.explore_arrays(grid)
        assert explorer.last_sweep.mode == "parallel-columnar"
        assert_identical(result, reference)
        stats = explorer.last_supervision
        assert stats.crashes >= 1
        assert stats.respawns >= 1
        assert parallel.live_blocks() == frozenset()

    def test_shard_hang_recovers_identically(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        plan = FaultPlan.plan(
            grid, seed=13, state_dir=tmp_path, hangs=1, hang_s=30.0
        )
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.001, chunk_timeout_s=2.0
        )
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        assert explorer.last_supervision.timeouts >= 1
        assert explorer.last_supervision.respawns >= 1

    def test_shard_errors_recover_identically(
        self, make_explorer, grid, factory, tmp_path, fast_policy, reference
    ):
        plan = FaultPlan.plan(grid, seed=17, state_dir=tmp_path, errors=2)
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=fast_policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        assert explorer.last_supervision.transient_errors >= 1

    def test_degraded_pool_finishes_in_process(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        # Respawn budget 0: the first crash declares the pool
        # irrecoverable and the remaining shards run in the parent —
        # through the mirrored worker state, writing the same block.
        plan = FaultPlan.plan(grid, seed=19, state_dir=tmp_path, crashes=1)
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.001, max_respawns=0
        )
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        stats = explorer.last_supervision
        assert stats.pool_degraded
        assert stats.degraded_batches >= 1
        assert parallel.live_blocks() == frozenset()

    def test_unsupervised_crash_leaves_nothing_behind(
        self, make_explorer, grid, factory, tmp_path
    ):
        from concurrent.futures.process import BrokenProcessPool

        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(factory=plan.wrap_vector(factory), workers=2)
        with pytest.raises(BrokenProcessPool):
            explorer.explore_arrays(grid)
        assert _settled_children() == []
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}


class TestParallelResume:
    def test_checkpointed_parallel_run_changes_nothing(
        self, make_explorer, grid, tmp_path, reference
    ):
        explorer = make_explorer(workers=2)
        result = explorer.explore_arrays(
            grid, checkpoint=tmp_path / "sweep.ckpt"
        )
        assert explorer.last_sweep.mode == "parallel-columnar"
        assert_identical(result, reference)

    def test_kill_then_resume_parallel_is_bit_exact(
        self, make_explorer, grid, tmp_path, reference, factory, sweep_baseline
    ):
        ckpt = tmp_path / "sweep.ckpt"
        serial = make_explorer()
        serial.explore_arrays(grid, checkpoint=ckpt)
        # Simulate a run killed after two chunks: rewrite the file with
        # only the first two completed chunks, then resume on workers.
        store = CheckpointStore(ckpt)
        fingerprint = sweep_fingerprint(
            axes=grid.axes,
            chunk_size=16,
            baseline=sweep_baseline,
            alpha=0.5,
            factory=factory,
        )
        full = store.load(kind="sweep", fingerprint=fingerprint)
        store.save(
            kind="sweep",
            fingerprint=fingerprint,
            state={"chunks": full["chunks"][:2]},
        )
        resumed = make_explorer(workers=2)
        result = resumed.explore_arrays(grid, checkpoint=ckpt, resume=True)
        assert resumed.last_sweep.mode == "parallel-columnar"
        assert_identical(result, reference)
        assert resumed.cache._entries == serial.cache._entries
        # Restored chunks were replayed, not re-dispatched: only the
        # non-restored suffix of the grid went through the kernels.
        assert resumed.last_sweep.shard_points <= len(grid) - 32
        # And the checkpoint grew back to full length, byte-identical.
        assert (
            store.load(kind="sweep", fingerprint=fingerprint)["chunks"]
            == full["chunks"]
        )

    def test_worker_crash_then_resume_is_byte_identical(
        self, make_explorer, grid, tmp_path, factory, reference
    ):
        """A worker dies for real (``os._exit``, unsupervised) in the
        middle of a checkpointed parallel sweep; the resumed run on a
        fresh pool finishes byte-identical to a never-crashed serial
        sweep, checkpoint file included, and the crash leaves no
        worker, segment or worker state behind."""
        from concurrent.futures.process import BrokenProcessPool

        ckpt = tmp_path / "sweep.ckpt"
        crashing = CrashOnceVectorFactory(factory, str(tmp_path / "crashed"))
        doomed = make_explorer(factory=crashing, workers=2)
        with pytest.raises(BrokenProcessPool):
            doomed.explore_arrays(grid, checkpoint=ckpt)
        assert os.path.exists(crashing.flag), "the fault never fired"
        assert _settled_children() == []
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}
        resumed = make_explorer(factory=crashing, workers=2)
        result = resumed.explore_arrays(grid, checkpoint=ckpt, resume=True)
        assert resumed.last_sweep.mode == "parallel-columnar"
        assert_identical(result, reference)
        # The fault is spent: a serial run of the same factory writes
        # the reference checkpoint (the fingerprint names the factory).
        serial_ckpt = tmp_path / "serial.ckpt"
        make_explorer(factory=crashing).explore_arrays(
            grid, checkpoint=serial_ckpt
        )
        assert ckpt.read_bytes() == serial_ckpt.read_bytes()
        assert parallel.live_blocks() == frozenset()

    def test_parallel_and_serial_checkpoints_identical(
        self, make_explorer, grid, tmp_path, factory, sweep_baseline
    ):
        serial_ckpt = tmp_path / "serial.ckpt"
        parallel_ckpt = tmp_path / "parallel.ckpt"
        make_explorer().explore_arrays(grid, checkpoint=serial_ckpt)
        make_explorer(workers=2).explore_arrays(grid, checkpoint=parallel_ckpt)
        fingerprint = sweep_fingerprint(
            axes=grid.axes,
            chunk_size=16,
            baseline=sweep_baseline,
            alpha=0.5,
            factory=factory,
        )
        assert CheckpointStore(serial_ckpt).load(
            kind="sweep", fingerprint=fingerprint
        ) == CheckpointStore(parallel_ckpt).load(
            kind="sweep", fingerprint=fingerprint
        )


class TestParallelInterruptHygiene:
    def test_interrupt_with_live_pool_leaves_nothing(
        self, make_explorer, grid, monkeypatch
    ):
        # Record the segment so its removal can be proven afterwards.
        created: list = []
        real_allocate = parallel.ColumnarBlock.allocate.__func__

        def recording(cls, total, **kwargs):
            block = real_allocate(cls, total, **kwargs)
            created.append(block.name)
            return block

        monkeypatch.setattr(
            parallel.ColumnarBlock, "allocate", classmethod(recording)
        )
        # A deterministic Ctrl-C on the parent's read of the second
        # chunk's kernel columns, while the worker pool and the shared
        # block are both live (workers only ever write the block).
        real_rows = parallel.ColumnarBlock.rows
        reads: list = []

        def interrupting_rows(block, start, stop):
            reads.append(start)
            if len(reads) == 2:
                raise KeyboardInterrupt()
            return real_rows(block, start, stop)

        monkeypatch.setattr(parallel.ColumnarBlock, "rows", interrupting_rows)
        explorer = make_explorer(workers=2)
        with pytest.raises(KeyboardInterrupt):
            explorer.explore_arrays(grid)
        assert len(reads) == 2
        assert _settled_children() == []
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}
        assert created, "sweep never allocated a block"
        if created[0] is not None:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=created[0])
