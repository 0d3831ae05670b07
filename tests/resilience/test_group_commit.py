"""Group commit: a chunk log fsyncs once per interval, plus a barrier
where its run ends.

Every durable run appends one record per chunk with one write. A log
fsyncs on an append only when its handle's last ``fsync`` is
``SYNC_INTERVAL_S`` old, and the run-end barrier (``ChunkLog.sync``)
fsyncs the rest. These tests count real ``os.fsync`` calls under a fake
clock. They check that no handle keeps unsynced records past any exit
from a sweep, a sampler run or the quarantine ledger, and that a
barrier that fails takes the path a failed commit takes.
"""

from __future__ import annotations

import errno
import logging
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch
from repro.dse.grid import ParameterGrid
from repro.dse.montecarlo import sample_measurement_noise, sample_verdicts
from repro.dse.store import ResultStore
from repro.resilience import FaultPlan, QuarantineLedger, RetryPolicy
from repro.resilience import chunklog
from repro.resilience.chunklog import CHUNK, HEADER, SYNC_INTERVAL_S, ChunkLog

from .test_interrupts import interrupt_at_commit

#: 98 points: 49 chunks at the chunk size below.
GRID49 = ParameterGrid({"cores": list(range(1, 50)), "f": [0.5, 0.9]})
CHUNK49 = 2


class Clock:
    """A fake ``time.monotonic`` for the chunk log: ``now`` moves only
    by ``step`` per reading, or when a test sets it."""

    def __init__(self, step: float = 0.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture
def clock(monkeypatch) -> Clock:
    """A frozen clock (no append is ever due for an ``fsync``) unless the
    test gives it a step."""
    fake = Clock()
    monkeypatch.setattr(chunklog, "time", SimpleNamespace(monotonic=fake))
    return fake


@pytest.fixture
def fsyncs(monkeypatch, clock) -> list[float]:
    """Every ``os.fsync`` call made during the test, as the fake time it
    was made at."""
    calls: list[float] = []
    real = os.fsync

    def counting(fd):
        calls.append(clock.now)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


@pytest.fixture
def handles(monkeypatch) -> list[ChunkLog]:
    """Every :class:`ChunkLog` made during the test."""
    made: list[ChunkLog] = []
    init = ChunkLog.__init__

    def tracking(self, path):
        init(self, path)
        made.append(self)

    monkeypatch.setattr(ChunkLog, "__init__", tracking)
    return made


@pytest.fixture(autouse=True)
def _no_fault_hook():
    yield
    chunklog.set_disk_fault_hook(None)


def _durable(target: str, tmp_path) -> dict:
    if target == "checkpoint":
        return {"checkpoint": tmp_path / "sweep.ckpt"}
    return {"store": ResultStore(tmp_path / "store")}


def _same(result, cold) -> None:
    assert result.designs == cold.designs
    assert result.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
    assert result.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------
class TestChunkLog:
    def test_appends_within_an_interval_wait_for_the_barrier(
        self, tmp_path, clock, fsyncs
    ):
        log = ChunkLog(tmp_path / "run.log")
        log.reset([(HEADER, b"h")])
        synced = len(fsyncs)  # the file and its directory
        for i in range(10):
            log.append([(CHUNK, bytes([i]))])
        assert len(fsyncs) == synced
        assert log.dirty
        log.sync()
        assert len(fsyncs) == synced + 1
        assert not log.dirty
        log.sync()  # a clean handle has nothing to sync
        assert len(fsyncs) == synced + 1
        records, damage = ChunkLog(log.path).read()
        assert damage is None and len(records) == 11

    def test_an_advancing_clock_gets_an_fsync_every_interval(
        self, tmp_path, clock, fsyncs
    ):
        step = 0.3
        log = ChunkLog(tmp_path / "run.log")
        log.reset([(HEADER, b"h")])
        start = len(fsyncs)
        for i in range(40):
            clock.now += step
            log.append([(CHUNK, bytes([i]))])
        # One fsync per interval, to the appends' granularity: no record
        # waits longer than that for its fsync.
        assert len(fsyncs) - start >= clock.now / (SYNC_INTERVAL_S + step)
        gaps = np.diff([0.0, *fsyncs[start:], clock.now])
        assert gaps.max() <= SYNC_INTERVAL_S + step + 1e-9

    def test_barrier_of_a_deleted_file_has_nothing_to_sync(self, tmp_path, clock):
        log = ChunkLog(tmp_path / "run.log")
        log.reset([(HEADER, b"h")])
        log.append([(CHUNK, b"x")])
        log.path.unlink()
        log.sync()
        assert not log.dirty

    def test_dirty_state_lives_on_the_handle(self, tmp_path, clock):
        first, second = ChunkLog(tmp_path / "a.log"), ChunkLog(tmp_path / "b.log")
        for log in (first, second):
            log.reset([(HEADER, b"h")])
        first.append([(CHUNK, b"x")])
        assert first.dirty and not second.dirty


# ----------------------------------------------------------------------
# fsyncs per durable sweep
# ----------------------------------------------------------------------
class TestSweepFsyncs:
    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    def test_a_49_chunk_sweep_fsyncs_at_most_four_times(
        self, make_explorer, tmp_path, clock, fsyncs, target
    ):
        cold = make_explorer(chunk_size=CHUNK49).explore_arrays(GRID49)
        result = make_explorer(chunk_size=CHUNK49).explore_arrays(
            GRID49, **_durable(target, tmp_path)
        )
        _same(result, cold)
        # Start the file (the file and its directory), one barrier, and
        # the store's marker.
        assert 3 <= len(fsyncs) <= 4

    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    def test_an_advancing_clock_fsyncs_every_commit_it_must(
        self, make_explorer, tmp_path, clock, fsyncs, target
    ):
        # Every reading is a whole interval later: each append is due.
        clock.step = SYNC_INTERVAL_S
        make_explorer(chunk_size=CHUNK49).explore_arrays(
            GRID49, **_durable(target, tmp_path)
        )
        assert len(fsyncs) >= -(-len(GRID49) // CHUNK49)


# ----------------------------------------------------------------------
# No handle is left dirty, whatever ends the run
# ----------------------------------------------------------------------
def _salvage_at(chunk: int, monkeypatch) -> None:
    """End the sweep at *chunk* as a salvaged partial result, the way
    the supervisor ends one whose pool is irrecoverable."""
    step = batch.BatchExplorer._chunk_step

    def salvaging(self, k, *args):
        if k == chunk:
            raise batch._SalvageAbort("pool gone")
        return step(self, k, *args)

    monkeypatch.setattr(batch.BatchExplorer, "_chunk_step", salvaging)


class TestNoDirtyHandleLeft:
    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    @pytest.mark.parametrize("end", ["return", "interrupt", "salvage"])
    def test_sweep(
        self, make_explorer, tmp_path, clock, handles, monkeypatch, target, end
    ):
        durable = _durable(target, tmp_path)
        explorer = make_explorer(chunk_size=CHUNK49)
        if end == "interrupt":
            with pytest.raises(KeyboardInterrupt), interrupt_at_commit(7):
                explorer.explore_arrays(GRID49, **durable)
        elif end == "salvage":
            _salvage_at(7, monkeypatch)
            result = explorer.explore_arrays(GRID49, **durable)
            assert result.failure is not None
        else:
            explorer.explore_arrays(GRID49, **durable)
        assert handles
        assert not [log.path for log in handles if log.dirty]

    @pytest.mark.parametrize("sampler", [sample_verdicts, sample_measurement_noise])
    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    @pytest.mark.parametrize("end", ["return", "interrupt"])
    def test_sampler(self, tmp_path, clock, fsyncs, handles, sampler, target, end):
        design = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
        baseline = DesignPoint.baseline("baseline")
        third = (
            EMBODIED_DOMINATED
            if sampler is sample_verdicts
            else EMBODIED_DOMINATED.alpha
        )
        kwargs = dict(samples=3000, seed=5, checkpoint_every=250)
        reference = sampler(design, baseline, third, **kwargs)
        durable = _durable(target, tmp_path)
        if end == "interrupt":
            with pytest.raises(KeyboardInterrupt), interrupt_at_commit(5):
                sampler(design, baseline, third, **kwargs, **durable)
        else:
            assert sampler(design, baseline, third, **kwargs, **durable) == reference
            assert 3 <= len(fsyncs) <= 4
        assert handles
        assert not [log.path for log in handles if log.dirty]

    def test_quarantine_ledger(self, tmp_path, clock, fsyncs):
        ledger = QuarantineLedger(tmp_path / "poison.log")
        for cores in range(5):
            ledger.record("fac", {"cores": cores}, kind="poison", reason="r")
        assert len(fsyncs) == 2  # the first record starts the file
        ledger.sync()
        assert len(fsyncs) == 3
        assert len(QuarantineLedger(ledger.path)) == 5

    @pytest.mark.chaos
    def test_sweep_that_quarantines(
        self, make_explorer, grid, factory, tmp_path, clock, handles
    ):
        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=2)
        ledger = QuarantineLedger(tmp_path / "poison.log")
        explorer = make_explorer(
            factory=plan.wrap(factory),
            workers=2,
            resilience=RetryPolicy(
                max_retries=1, backoff_base_s=0.001, chunk_timeout_s=15.0
            ),
        )
        result = explorer.explore_arrays(grid, quarantine=ledger)
        assert len(result.quarantined) == 2
        assert len(QuarantineLedger(ledger.path)) == 2
        assert not [log.path for log in handles if log.dirty]


# ----------------------------------------------------------------------
# A barrier that fails
# ----------------------------------------------------------------------
def _full(path) -> None:
    raise OSError(errno.ENOSPC, f"injected: volume full ({path})")


@pytest.fixture
def failing_barrier(monkeypatch) -> list:
    """Fire a persistent disk fault from the durable-write hook at every
    barrier that has records to sync (and nowhere else); returns the
    paths it fired for."""
    fired: list = []
    sync = ChunkLog.sync

    def failing(self):
        if self.dirty:
            fired.append(self.path)
        chunklog.set_disk_fault_hook(_full)
        try:
            sync(self)
        finally:
            chunklog.set_disk_fault_hook(None)

    monkeypatch.setattr(ChunkLog, "sync", failing)
    return fired


class TestBarrierFailure:
    def test_checkpoint_is_disabled_and_the_sweep_is_right(
        self, make_explorer, tmp_path, clock, failing_barrier, caplog
    ):
        cold = make_explorer(chunk_size=CHUNK49).explore_arrays(GRID49)
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = make_explorer(chunk_size=CHUNK49).explore_arrays(
                GRID49, checkpoint=tmp_path / "sweep.ckpt"
            )
        assert failing_barrier
        assert "checkpoint.disabled" in caplog.text
        _same(result, cold)

    def test_store_falls_back_and_the_sweep_is_right(
        self, make_explorer, tmp_path, clock, failing_barrier, caplog
    ):
        cold = make_explorer(chunk_size=CHUNK49).explore_arrays(GRID49)
        store = ResultStore(tmp_path / "store")
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = make_explorer(chunk_size=CHUNK49).explore_arrays(
                GRID49, store=store
            )
        assert failing_barrier
        assert "store.disk_fallback" in caplog.text
        assert store.stats().disk_fallback
        _same(result, cold)
        # The store stopped writing; it still serves what reached disk.
        again = make_explorer(chunk_size=CHUNK49).explore_arrays(
            GRID49, store=ResultStore(tmp_path / "store")
        )
        _same(again, cold)

    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    def test_sampler_result_is_right(
        self, tmp_path, clock, failing_barrier, caplog, target
    ):
        design = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
        baseline = DesignPoint.baseline("baseline")
        kwargs = dict(samples=2000, seed=3, checkpoint_every=250)
        reference = sample_verdicts(design, baseline, EMBODIED_DOMINATED, **kwargs)
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = sample_verdicts(
                design, baseline, EMBODIED_DOMINATED, **kwargs,
                **_durable(target, tmp_path),
            )
        assert result == reference
        assert failing_barrier
        event = {"checkpoint": "checkpoint.disabled", "store": "store.disk_fallback"}
        assert event[target] in caplog.text
