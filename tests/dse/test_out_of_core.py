"""Out-of-core columnar blocks: the memmap backing must be a pure
transport swap — same allocate/attach/write/rows/release contract as
shared memory, byte-identical sweep results, nothing left on disk
afterwards — under clean runs and under crash + resume."""

from __future__ import annotations

import dataclasses
import logging
import os
import types

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})


@dataclasses.dataclass(frozen=True)
class _CrashOnceVectorFactory:
    """A vector factory whose worker dies (hard, ``os._exit``) the
    first time it sees the grid's tail — once, flagged through *flag*
    so the resumed run evaluates clean. Stays a genuine
    :class:`VectorFactory` so the sweep takes the parallel-columnar
    (and hence out-of-core) path, unlike ``FaultPlan.wrap``."""

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


def _explorer(**kwargs) -> BatchExplorer:
    kwargs.setdefault("factory", SymmetricMulticoreFactory())
    return BatchExplorer(
        baseline=DesignPoint.baseline("baseline"),
        weight=EMBODIED_DOMINATED,
        **kwargs,
    )


def assert_same_sweep(result, reference) -> None:
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


class TestSpillPolicy:
    def test_threshold_selects_backing(self, tmp_path):
        assert parallel._should_spill(100, tmp_path, 100)
        assert not parallel._should_spill(99, tmp_path, 100)
        assert parallel._should_spill(100, None, 50)  # threshold alone
        assert parallel._should_spill(1, tmp_path, None)  # bare dir: always
        assert not parallel._should_spill(10**9, None, None)

    def test_block_spills_at_threshold(self, tmp_path):
        block = parallel.ColumnarBlock.allocate(
            64, spill_dir=tmp_path, spill_bytes=1
        )
        try:
            assert block.backing == "file"
            assert block.name.startswith(parallel.FILE_PREFIX)
            assert block.nbytes == 0
            assert block.spill_nbytes >= 64 * parallel.BYTES_PER_POINT
            assert list(tmp_path.glob("focal-block-*.bin"))
        finally:
            block.release()
        assert not list(tmp_path.glob("focal-block-*.bin"))

    def test_block_below_threshold_stays_in_ram(self, tmp_path):
        block = parallel.ColumnarBlock.allocate(
            64, spill_dir=tmp_path, spill_bytes=10**12
        )
        try:
            assert block.backing == "shm"
            assert not list(tmp_path.glob("focal-block-*.bin"))
        finally:
            block.release()


class TestFailedSegment:
    """A segment that cannot be created leaves nothing behind and never
    falls back silently."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    def test_failed_spill_file_is_unlinked_then_shm_used(
        self, tmp_path, monkeypatch, caplog
    ):
        # Only the spill file's mapping fails (shm keeps its own mmap).
        monkeypatch.setattr(
            parallel, "mmap", types.SimpleNamespace(mmap=self._refuse)
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            block = parallel.ColumnarBlock.allocate(
                1000, spill_dir=tmp_path, spill_bytes=1
            )
        try:
            assert block.backing == "shm"
            assert not list(tmp_path.glob("focal-block-*.bin"))
            assert "block.fallback" in caplog.text
        finally:
            block.release()
        assert parallel.live_blocks() == frozenset()

    def test_no_backing_raises_naming_both_causes(self, tmp_path, monkeypatch):
        from multiprocessing import shared_memory

        from repro.core.errors import ConfigurationError

        monkeypatch.setattr(
            parallel, "mmap", types.SimpleNamespace(mmap=self._refuse)
        )
        monkeypatch.setattr(shared_memory, "SharedMemory", self._refuse)
        with pytest.raises(ConfigurationError, match=r"file: .*shm: "):
            parallel.ColumnarBlock.allocate(
                1000, spill_dir=tmp_path, spill_bytes=1
            )
        assert list(tmp_path.iterdir()) == []
        assert parallel.live_blocks() == frozenset()


class TestSpilledBlockContract:
    def test_write_rows_roundtrip_through_attach(self, tmp_path):
        total = 32
        parent = parallel.ColumnarBlock.allocate(total, spill_dir=tmp_path)
        try:
            area = np.arange(total, dtype=np.float64)
            perf = area * 2.0
            power = area * 3.0
            valid = np.ones(total, dtype=np.bool_)
            # A second mapping of the same file (what a worker does).
            attached = parallel.ColumnarBlock.attach(parent.name, total)
            try:
                attached.write(0, total, area, perf, power, valid)
            finally:
                attached.release()
            got = parent.rows(0, total)
            assert np.array_equal(got[0], area)
            assert np.array_equal(got[1], perf)
            assert np.array_equal(got[2], power)
            assert np.array_equal(got[3], valid)
        finally:
            parent.release()

    def test_release_idempotent_and_unlinks(self, tmp_path):
        block = parallel.ColumnarBlock.allocate(8, spill_dir=tmp_path)
        path = block.name[len(parallel.FILE_PREFIX):]
        assert os.path.exists(path)
        block.release()
        assert not os.path.exists(path)
        block.release()  # second call is a no-op, not an error
        assert parallel.live_blocks() == frozenset()


class TestSpilledSweepParity:
    def test_spilled_sweep_is_byte_identical(self, tmp_path):
        reference = _explorer(workers=2).explore_arrays(GRID)
        spilled = _explorer(workers=2, spill_dir=tmp_path, spill_bytes=1)
        result = spilled.explore_arrays(GRID)
        assert_same_sweep(result, reference)
        stats = spilled.last_sweep
        assert stats.spill_bytes >= len(GRID) * parallel.BYTES_PER_POINT
        assert "spilled" in stats.summary()
        assert stats.as_dict()["spill_bytes"] == stats.spill_bytes
        # Everything under the spill dir was cleaned on the way out:
        # the block, worker event files, heartbeat dirs.
        assert list(tmp_path.iterdir()) == []

    def test_spilled_matches_serial_too(self, tmp_path):
        reference = _explorer().explore_arrays(GRID)
        result = _explorer(
            workers=2, spill_dir=tmp_path, spill_bytes=1
        ).explore_arrays(GRID)
        assert_same_sweep(result, reference)

    def test_spill_threshold_not_met_reports_zero(self, tmp_path):
        explorer = _explorer(
            workers=2, spill_dir=tmp_path, spill_bytes=10**12
        )
        explorer.explore_arrays(GRID)
        assert explorer.last_sweep.spill_bytes == 0
        assert "spilled" not in explorer.last_sweep.summary()

    def test_spill_knobs_validated(self, tmp_path):
        from repro.core.errors import ValidationError

        with pytest.raises(ValidationError):
            _explorer(spill_bytes=-1)


@pytest.mark.chaos
class TestSpilledCrashResume:
    def test_crash_mid_spilled_sweep_then_resume_identical(self, tmp_path):
        """A sweep running out-of-core dies partway (real worker crash,
        unsupervised) with a checkpoint; the resumed run — also spilled
        — finishes byte-identical to an in-RAM, never-crashed sweep."""
        from concurrent.futures.process import BrokenProcessPool

        grid = ParameterGrid({"cores": list(range(1, 33)), "f": [0.5, 0.9]})
        reference = _explorer(chunk_size=16).explore_arrays(grid)
        spill = tmp_path / "spill"
        ckpt = tmp_path / "sweep.ckpt"
        crashing = _CrashOnceVectorFactory(
            inner=SymmetricMulticoreFactory(), flag=str(tmp_path / "crashed")
        )
        doomed = _explorer(
            factory=crashing,
            chunk_size=16,
            workers=2,
            spill_dir=spill,
            spill_bytes=1,
        )
        with pytest.raises(BrokenProcessPool):
            doomed.explore_arrays(grid, checkpoint=ckpt)
        assert os.path.exists(crashing.flag), "the fault never fired"
        resumed = _explorer(
            factory=crashing,
            chunk_size=16,
            workers=2,
            spill_dir=spill,
            spill_bytes=1,
        )
        result = resumed.explore_arrays(grid, checkpoint=ckpt, resume=True)
        assert_same_sweep(result, reference)
        assert resumed.last_sweep.spill_bytes > 0
        # The spill dir holds no leftover blocks or event files.
        assert list(spill.glob("focal-*")) == []
