"""Unit tests for the failure-containment primitives.

The quarantine ledger, heartbeat watchdog, failure report and
disk-fault-tolerant writes are each exercised in isolation here; the
chaos suite (``test_quarantine.py``) proves they compose against real
worker pools.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.core.errors import DomainError, QuarantinedPoint, ValidationError
from repro.core.design import DesignPoint
from repro.obs import metrics as _metrics
from repro.resilience import (
    INCOMPLETE,
    QUARANTINE_FORMAT,
    BisectOutcome,
    FailureReport,
    HeartbeatMonitor,
    QuarantineLedger,
    atomic_write_text,
    decode_outcomes,
    encode_outcomes,
    set_disk_fault_hook,
)
from repro.resilience.chunklog import CHUNK, HEADER, MAGIC, ChunkLog
from repro.resilience.containment import (
    _Incomplete,
    arm_heartbeat,
    beat,
    disarm_heartbeat,
    point_key,
)


@pytest.fixture(autouse=True)
def _clean_hooks():
    """Never leak a disk-fault hook or armed heartbeat across tests."""
    yield
    set_disk_fault_hook(None)
    disarm_heartbeat()


# ----------------------------------------------------------------------
# point_key
# ----------------------------------------------------------------------

def _record_points(path, tag: str, barrier) -> None:
    """One of two concurrent ledger writers: 200 points each."""
    ledger = QuarantineLedger(path)
    barrier.wait()
    for i in range(200):
        ledger.record("fac", {"writer": tag, "i": i}, kind="poison", reason="r")

class TestPointKey:
    def test_axis_order_free(self):
        assert point_key({"a": 1, "b": 0.5}) == point_key({"b": 0.5, "a": 1})

    def test_type_tagged(self):
        # 1 (int), 1.0 (float) and True (bool) are == in Python but are
        # distinct grid values; the key must keep them apart.
        keys = {
            point_key({"x": 1}),
            point_key({"x": 1.0}),
            point_key({"x": True}),
            point_key({"x": "1"}),
            point_key({"x": None}),
        }
        assert len(keys) == 5

    def test_floats_are_bit_exact(self):
        assert point_key({"f": 0.1 + 0.2}) != point_key({"f": 0.3})


# ----------------------------------------------------------------------
# QuarantineLedger / QuarantineSession
# ----------------------------------------------------------------------
def _flip_header_bit(path):
    """Flip one bit inside the ledger's header record."""
    data = bytearray(path.read_bytes())
    data[len(MAGIC) + 12] ^= 0x04
    path.write_bytes(bytes(data))


class TestQuarantineLedger:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "poison.json"
        ledger = QuarantineLedger(path)
        ledger.record("fac", {"cores": 3, "f": 0.5}, kind="poison", reason="boom")
        ledger.record("fac", {"cores": 7, "f": 0.9}, kind="poison", reason="boom")
        ledger.record("other", {"cores": 3, "f": 0.5}, kind="crash", reason="x")

        fresh = QuarantineLedger(path)
        assert len(fresh) == 3
        entries = fresh.entries("fac")
        assert len(entries) == 2
        entry = entries[point_key({"cores": 3, "f": 0.5})]
        assert entry["kind"] == "poison"
        assert entry["reason"] == "boom"
        # sections are keyed by factory identity: a different factory
        # never sees another factory's poison points.
        assert len(fresh.entries("other")) == 1
        assert fresh.entries("missing") == {}

    def test_record_persists_immediately(self, tmp_path):
        """A sweep killed right after isolating a point still skips it."""
        path = tmp_path / "poison.json"
        QuarantineLedger(path).record(
            "fac", {"cores": 1}, kind="poison", reason="r"
        )
        assert path.exists()
        assert len(QuarantineLedger(path)) == 1

    def test_ledger_is_a_chunk_log(self, tmp_path):
        path = tmp_path / "poison.json"
        ledger = QuarantineLedger(path)
        ledger.record("fac", {"cores": 1}, kind="poison", reason="r")
        ledger.record("fac", {"cores": 2}, kind="crash", reason="s")
        records, damage = ChunkLog(path).read()
        assert damage is None
        assert [kind for kind, _ in records] == [HEADER, CHUNK, CHUNK]
        assert json.loads(records[0][1]) == {"format": QUARANTINE_FORMAT}
        assert json.loads(records[2][1])["params"] == {"cores": 2}

    def test_params_roundtrip_as_json_scalars(self, tmp_path):
        """numpy scalars are stored as the JSON scalars they equal (numpy
        integers and bools as floats), while the point key keeps the
        type the sweep saw."""
        path = tmp_path / "poison.json"
        params = {
            "i": np.int64(3),
            "f": np.float64(0.1 + 0.2),
            "b": np.True_,
            "s": np.str_("5nm"),
            "n": None,
            "t": True,
            "x": 7,
        }
        QuarantineLedger(path).record("fac", params, kind="poison", reason="r")
        (entry,) = QuarantineLedger(path).entries("fac").values()
        assert entry["params"] == {
            "i": 3.0, "f": 0.1 + 0.2, "b": 1.0, "s": "5nm", "n": None,
            "t": True, "x": 7,
        }
        assert [type(v) for v in entry["params"].values()] == [
            float, float, float, str, type(None), bool, int
        ]
        assert QuarantineLedger(path).session("fac").known(params) == entry

    def test_two_handles_keep_both_points(self, tmp_path):
        """A handle adopts what another handle appended before it
        commits, so neither overwrites the other's points."""
        path = tmp_path / "poison.json"
        first, second = QuarantineLedger(path), QuarantineLedger(path)
        assert len(first) == len(second) == 0
        first.record("fac", {"x": 1}, kind="poison", reason="r")
        second.record("fac", {"x": 2}, kind="poison", reason="r")
        assert set(QuarantineLedger(path).entries("fac")) == {
            point_key({"x": 1}),
            point_key({"x": 2}),
        }
        assert len(second) == 2

    def test_two_processes_keep_every_point(self, tmp_path):
        """Two processes recording 200 points each into one ledger at
        the same time keep all 400: a commit holds the file locked from
        adopting the other writer's records to appending its own."""
        path = tmp_path / "poison.log"
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_record_points, args=(path, tag, barrier))
            for tag in "ab"
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert len(QuarantineLedger(path).entries("fac")) == 400

    def test_bytes_written_equal_file_size(self, tmp_path):
        """Each point is one appended record: recording N points writes
        exactly the bytes the ledger ends up holding."""
        from repro.obs import metrics

        path = tmp_path / "poison.json"
        metrics.reset()
        metrics.enable()
        try:
            ledger = QuarantineLedger(path)
            for i in range(50):
                ledger.record("fac", {"x": i, "f": i / 7}, kind="poison", reason="r")
            written = metrics.get_registry().counter(
                "focal_durable_bytes_written_total"
            ).value
        finally:
            metrics.reset()
        assert written == path.stat().st_size
        assert len(QuarantineLedger(path)) == 50

    def test_old_format_ledger_is_refused_by_name(self, tmp_path):
        path = tmp_path / "poison.json"
        path.write_text(
            json.dumps(
                {
                    "format": "focal-quarantine/1",
                    "sha256": "0" * 64,
                    "payload": {"sections": {}},
                }
            )
        )
        with pytest.raises(ValidationError, match="focal-quarantine/1"):
            len(QuarantineLedger(path))

    def test_damaged_tail_is_dropped_then_truncated(self, tmp_path, caplog):
        path = tmp_path / "poison.json"
        ledger = QuarantineLedger(path)
        for i in range(3):
            ledger.record("fac", {"x": i}, kind="poison", reason="r")
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # tear the third record
        reopened = QuarantineLedger(path)
        assert len(reopened) == 2
        assert "quarantine.corrupt" in caplog.text
        reopened.record("fac", {"x": 9}, kind="poison", reason="r")
        records, damage = ChunkLog(path).read()
        assert damage is None and len(records) == 4
        assert len(QuarantineLedger(path)) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.write_text("{not json"),
            lambda p: p.write_text(json.dumps({"format": "other/9"})),
            lambda p: _flip_header_bit(p),
        ],
        ids=["truncated", "wrong-format", "bad-checksum"],
    )
    def test_damaged_ledger_is_an_empty_ledger(self, tmp_path, damage):
        """Losing the ledger costs re-discovery, never correctness."""
        path = tmp_path / "poison.json"
        QuarantineLedger(path).record("fac", {"x": 1}, kind="poison", reason="r")
        damage(path)
        assert len(QuarantineLedger(path)) == 0

    def test_coerce(self, tmp_path):
        path = tmp_path / "poison.json"
        ledger = QuarantineLedger(path)
        assert QuarantineLedger.coerce(None) is None
        assert QuarantineLedger.coerce(ledger) is ledger
        assert QuarantineLedger.coerce(path).path == path

    def test_session_tracks_new_and_known(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "poison.json")
        ledger.record("fac", {"cores": 9}, kind="poison", reason="old")
        session = ledger.session("fac")
        assert session.known_count == 1
        assert session.count == 0
        assert session.known({"cores": 9})["reason"] == "old"
        assert session.known({"cores": 1}) is None

        marker = session.quarantine({"cores": 1}, kind="poison", reason="new")
        assert isinstance(marker, QuarantinedPoint)
        assert "poison" in str(marker) and "new" in str(marker)
        assert session.count == 1
        assert session.known_count == 2
        assert session.new_points[0]["params"] == {"cores": 1}
        # ...and the record hit the disk without any explicit flush.
        assert len(QuarantineLedger(ledger.path).entries("fac")) == 2

    def test_marker_for_known_point(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "poison.json")
        session = ledger.session("fac")
        session.quarantine({"cores": 5}, kind="crash", reason="why")
        marker = session.marker({"cores": 5})
        assert isinstance(marker, QuarantinedPoint)
        assert session.marker({"cores": 6}) is None

    def test_record_counts_metric(self, tmp_path):
        _metrics.reset()
        _metrics.enable()
        try:
            QuarantineLedger(tmp_path / "p.json").record(
                "fac", {"cores": 1}, kind="poison", reason="r"
            )
            counter = _metrics.get_registry().counter("focal_quarantine_total")
            assert counter.value == 1
        finally:
            _metrics.reset()


# ----------------------------------------------------------------------
# INCOMPLETE / BisectOutcome / FailureReport
# ----------------------------------------------------------------------
class TestSalvageTypes:
    def test_incomplete_is_a_singleton(self):
        assert _Incomplete() is INCOMPLETE
        assert repr(INCOMPLETE) == "INCOMPLETE"

    def test_bisect_outcome_keeps_dispatch_order(self):
        replies = ("a", QuarantinedPoint("q"), "c")
        assert BisectOutcome(replies=replies).replies == replies

    def test_failure_report_roundtrip(self):
        report = FailureReport(
            reason="pool gone",
            error="BrokenProcessPool",
            completed_chunks=2,
            total_chunks=4,
            completed_points=32,
            pending_points=32,
            checkpoint="sweep.ckpt",
        )
        as_dict = report.as_dict()
        assert as_dict["completed_chunks"] == 2
        assert as_dict["checkpoint"] == "sweep.ckpt"
        summary = report.summary()
        assert summary.startswith("salvaged: 2/4 chunks (32 points) kept")
        assert "32 points pending" in summary
        assert summary.endswith("resume from sweep.ckpt")

    def test_failure_report_without_checkpoint(self):
        report = FailureReport(
            reason="r", error="e", completed_chunks=0, total_chunks=1,
            completed_points=0, pending_points=16,
        )
        assert "resume" not in report.summary()
        assert report.as_dict()["checkpoint"] is None


# ----------------------------------------------------------------------
# Quarantined outcomes survive checkpoint encoding
# ----------------------------------------------------------------------
class TestQuarantineEncoding:
    def test_q_tag_roundtrips(self):
        outcomes = [
            DesignPoint(name="d", area=4.0, perf=2.0, power=3.0),
            QuarantinedPoint("quarantined (poison): isolated"),
            DomainError("invalid corner"),
        ]
        decoded = decode_outcomes(encode_outcomes(outcomes))
        assert decoded[0] == outcomes[0]
        assert isinstance(decoded[1], QuarantinedPoint)
        assert str(decoded[1]) == str(outcomes[1])
        # QuarantinedPoint subclasses DomainError; the tag must keep the
        # two apart so resumed sweeps keep reporting quarantine.
        assert isinstance(decoded[2], DomainError)
        assert not isinstance(decoded[2], QuarantinedPoint)


# ----------------------------------------------------------------------
# Heartbeat watchdog
# ----------------------------------------------------------------------
class TestHeartbeatMonitor:
    def test_no_reports_is_never_stale(self):
        monitor = HeartbeatMonitor()
        monitor.arm()
        try:
            # An empty directory means no worker reported yet — the pool
            # may still be warming up and must not be reaped.
            assert not monitor.stale(0.0)
        finally:
            monitor.cleanup()

    def test_live_beat_is_not_stale(self):
        monitor = HeartbeatMonitor()
        arm_heartbeat(monitor.arm())
        try:
            assert not monitor.stale(5.0)
        finally:
            monitor.cleanup()

    def test_all_stale_heartbeats_trip_the_watchdog(self):
        monitor = HeartbeatMonitor()
        arm_heartbeat(monitor.arm())
        try:
            time.sleep(0.05)
            assert monitor.stale(0.01)
        finally:
            monitor.cleanup()

    def test_one_live_worker_keeps_the_pool(self):
        import os
        import pathlib

        monitor = HeartbeatMonitor()
        hb_dir = monitor.arm()
        try:
            arm_heartbeat(hb_dir)  # this process's beat, fresh
            old = pathlib.Path(hb_dir) / "hb-999999"
            old.touch()
            past = time.time() - 60.0
            os.utime(old, (past, past))
            # One worker went silent a minute ago, but ours just beat:
            # the pool is draining jobs and must not be reaped.
            assert not monitor.stale(5.0)
        finally:
            monitor.cleanup()

    def test_beat_is_rate_limited(self):
        monitor = HeartbeatMonitor()
        hb_dir = monitor.arm()
        try:
            arm_heartbeat(hb_dir)
            path = next(iter(monitor._files()))
            first = path.stat().st_mtime_ns
            beat()  # within HEARTBEAT_MIN_INTERVAL_S: no touch
            assert path.stat().st_mtime_ns == first
        finally:
            monitor.cleanup()

    def test_beat_without_arming_is_a_noop(self):
        disarm_heartbeat()
        beat()  # must not raise

    def test_clear_forgets_heartbeats(self):
        monitor = HeartbeatMonitor()
        arm_heartbeat(monitor.arm())
        try:
            time.sleep(0.05)
            assert monitor.stale(0.01)
            monitor.clear()
            assert not monitor.stale(0.01)
        finally:
            monitor.cleanup()

    def test_cleanup_removes_the_directory(self):
        import pathlib

        monitor = HeartbeatMonitor()
        hb_dir = monitor.arm()
        assert pathlib.Path(hb_dir).is_dir()
        monitor.cleanup()
        assert not pathlib.Path(hb_dir).exists()
        assert monitor.directory is None

    def test_arm_is_idempotent(self):
        monitor = HeartbeatMonitor()
        try:
            assert monitor.arm() == monitor.arm()
        finally:
            monitor.cleanup()


# ----------------------------------------------------------------------
# Disk-fault tolerance in durable writes
# ----------------------------------------------------------------------
class TestDiskFaults:
    def test_transient_fault_is_retried(self, tmp_path):
        path = tmp_path / "out.json"
        fires = {"left": 2}

        def hook(_path):
            if fires["left"]:
                fires["left"] -= 1
                raise OSError(errno.ENOSPC, "no space")

        set_disk_fault_hook(hook)
        atomic_write_text(path, "payload", sleep=lambda _s: None)
        assert path.read_text() == "payload"
        assert fires["left"] == 0

    def test_retries_count_the_metric(self, tmp_path):
        _metrics.reset()
        _metrics.enable()
        fires = {"left": 2}

        def hook(_path):
            if fires["left"]:
                fires["left"] -= 1
                raise OSError(errno.EIO, "io error")

        set_disk_fault_hook(hook)
        try:
            atomic_write_text(tmp_path / "o", "x", sleep=lambda _s: None)
            counter = _metrics.get_registry().counter("focal_disk_retry_total")
            assert counter.value == 2
        finally:
            _metrics.reset()

    def test_persistent_transient_fault_propagates(self, tmp_path):
        def hook(_path):
            raise OSError(errno.ENOSPC, "forever full")

        set_disk_fault_hook(hook)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "o", "x", sleep=lambda _s: None)

    def test_non_transient_fault_is_not_retried(self, tmp_path):
        calls = {"n": 0}

        def hook(_path):
            calls["n"] += 1
            raise OSError(errno.EACCES, "configuration, not weather")

        set_disk_fault_hook(hook)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "o", "x", sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_no_temp_file_left_behind(self, tmp_path):
        def hook(_path):
            raise OSError(errno.ENOSPC, "full")

        set_disk_fault_hook(hook)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "o", "x", sleep=lambda _s: None)
        assert list(tmp_path.iterdir()) == []
