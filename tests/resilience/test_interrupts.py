"""Interrupt hygiene: aborted sweeps leave no orphans, no bad files.

The two abort modes that matter operationally are ``Ctrl-C``
(``KeyboardInterrupt`` in the parent) and a worker dying hard
(``BrokenProcessPool``). Both must reap every worker process and leave
any checkpoint either absent or fully loadable — never torn.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.resilience.chunklog import ChunkLog


def _settled_children(timeout_s: float = 10.0) -> list:
    """Child processes still alive after giving reaping a moment."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [p for p in multiprocessing.active_children() if p.is_alive()]
        if not alive:
            return []
        time.sleep(0.05)
    return alive


@contextmanager
def interrupt_at_commit(chunk: int):
    """Raise KeyboardInterrupt in place of a durable sweep's *chunk*-th
    (0-based) chunk commit, checkpoint or store alike — a deterministic
    stand-in for Ctrl-C mid-sweep, fired from the chunk loop while the
    sweep's worker pool is still live. Every commit writes one log
    record through ``ChunkLog.reset`` (a new file) or ``ChunkLog.append``."""
    commits = {"n": 0}

    def interrupting(write):
        def wrapper(log, records):
            if commits["n"] == chunk:
                raise KeyboardInterrupt()
            commits["n"] += 1
            return write(log, records)

        return wrapper

    with (
        mock.patch.object(ChunkLog, "reset", interrupting(ChunkLog.reset)),
        mock.patch.object(ChunkLog, "append", interrupting(ChunkLog.append)),
    ):
        yield


class TestKeyboardInterrupt:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_no_orphan_workers(
        self, make_explorer, grid, tmp_path, fast_policy, supervised
    ):
        explorer = make_explorer(
            workers=2, resilience=fast_policy if supervised else None
        )
        with pytest.raises(KeyboardInterrupt), interrupt_at_commit(2):
            explorer.explore_arrays(grid, checkpoint=tmp_path / "sweep.ckpt")
        assert _settled_children() == []

    def test_checkpoint_loadable_after_interrupt(
        self, make_explorer, grid, tmp_path
    ):
        ckpt = tmp_path / "sweep.ckpt"
        with pytest.raises(KeyboardInterrupt), interrupt_at_commit(2):
            make_explorer().explore_arrays(grid, checkpoint=ckpt)
        # Two full chunks completed before the interrupt: the log holds
        # its header and them, every record verifies, and no temp
        # siblings were left behind.
        records, damage = ChunkLog(ckpt).read()
        assert damage is None
        assert len(records) == 3
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_interrupted_then_resumed_is_identical(
        self, make_explorer, grid, tmp_path
    ):
        import numpy as np

        reference = make_explorer().explore_arrays(grid)
        ckpt = tmp_path / "sweep.ckpt"
        with pytest.raises(KeyboardInterrupt), interrupt_at_commit(2):
            make_explorer().explore_arrays(grid, checkpoint=ckpt)
        result = make_explorer().explore_arrays(
            grid, checkpoint=ckpt, resume=True
        )
        assert np.array_equal(result.codes, reference.codes)
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)


class TestBrokenPool:
    def test_no_orphans_after_unsupervised_crash(
        self, make_explorer, grid, factory, tmp_path
    ):
        from concurrent.futures.process import BrokenProcessPool

        from repro.resilience import FaultPlan

        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(factory=plan.wrap(factory), workers=2)
        with pytest.raises(BrokenProcessPool):
            explorer.explore_arrays(grid)
        assert _settled_children() == []

    def test_no_orphans_after_supervised_recovery(
        self, make_explorer, grid, factory, tmp_path, fast_policy
    ):
        from repro.resilience import FaultPlan

        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=fast_policy
        )
        explorer.explore_arrays(grid)
        assert _settled_children() == []

    def test_no_orphans_after_hung_worker_teardown(
        self, make_explorer, grid, factory, tmp_path
    ):
        """A hung worker cannot be cancelled, only terminated — the
        supervisor's teardown must still reap it."""
        from repro.resilience import FaultPlan, RetryPolicy

        plan = FaultPlan.plan(
            grid, seed=29, state_dir=tmp_path, hangs=1, hang_s=30.0
        )
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.001, chunk_timeout_s=1.0
        )
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=policy
        )
        explorer.explore_arrays(grid)
        assert _settled_children() == []
