"""The persistent result store: keys, tiers, durability, maintenance."""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.errors import DomainError, ValidationError
from repro.dse.store import (
    MARKER_NAME,
    ChunkProbe,
    PointKeys,
    ResultStore,
    point_store_key,
)
from repro.resilience.chunklog import MAGIC, ChunkLog


def _chunk(n: int, offset: int = 0) -> list[dict]:
    return [{"cores": float(i + offset + 1), "f": 0.5} for i in range(n)]


def _outcomes(chunk: list[dict]) -> list:
    return [
        DesignPoint(
            f"c{params['cores']:g}",
            area=params["cores"],
            perf=params["cores"] ** 0.5,
            power=params["cores"] * 0.9,
        )
        for params in chunk
    ]


def _session(store: ResultStore):
    return store.sweep_session(lambda params: None)


def _put_points(root, offset: int, barrier) -> None:
    """One of two concurrent store writers: 200 one-point chunks each."""
    session = _session(ResultStore(root))
    barrier.wait()
    for i in range(200):
        chunk = _chunk(1, offset + i)
        session.put(chunk, _outcomes(chunk))


class TestPointKeys:
    def test_axis_order_free(self):
        assert point_store_key({"a": 1.0, "b": 2.0}) == point_store_key(
            {"b": 2.0, "a": 1.0}
        )

    def test_type_tags_never_alias(self):
        values = [2, 2.0, "2", True, None]
        keys = {point_store_key({"x": value}) for value in values}
        assert len(keys) == len(values)

    def test_floats_are_bit_exact(self):
        assert point_store_key({"x": 0.1}) != point_store_key(
            {"x": 0.1 + 1e-17}
        ) or (0.1 == 0.1 + 1e-17)
        assert point_store_key({"x": 0.5}) == point_store_key({"x": 0.5})

    def test_chunk_key_depends_on_order(self):
        chunk = [{"x": 1.0}, {"x": 2.0}]
        keys = PointKeys.of_params(chunk).to_bytes()
        assert keys != PointKeys.of_params(chunk[::-1]).to_bytes()


class TestMarkerSafety:
    def test_fresh_directory_is_fine(self, tmp_path):
        ResultStore(tmp_path / "new")
        ResultStore(tmp_path)  # empty existing dir

    def test_refuses_foreign_nonempty_directory(self, tmp_path):
        (tmp_path / "precious.txt").write_text("hands off")
        with pytest.raises(ValidationError, match="refusing"):
            ResultStore(tmp_path)

    def test_reopens_marked_store(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        session.put(_chunk(3), _outcomes(_chunk(3)))
        session.flush()
        assert (tmp_path / MARKER_NAME).exists()
        ResultStore(tmp_path)  # no complaint second time

    def test_coerce(self, tmp_path):
        store = ResultStore(tmp_path)
        assert ResultStore.coerce(None) is None
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(tmp_path).root == store.root


class TestSweepSession:
    def test_unknown_chunk_all_missing(self, tmp_path):
        probe = _session(ResultStore(tmp_path)).probe(_chunk(4))
        assert probe.missing == [0, 1, 2, 3]
        assert not probe.complete
        assert probe.hit_points == 0

    def test_roundtrip_same_chunking_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(5)
        outcomes = _outcomes(chunk)
        session.put(chunk, outcomes)
        probe = session.probe(chunk)
        assert probe.complete
        assert probe.memory_points == 5
        assert probe.outcomes == outcomes

    def test_roundtrip_fresh_process_disk_tier(self, tmp_path):
        chunk = _chunk(5)
        outcomes = _outcomes(chunk)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk, outcomes)
        writer.flush()
        store = ResultStore(tmp_path)  # empty LRU: must come from disk
        probe = _session(store).probe(chunk)
        assert probe.complete
        assert probe.disk_points == 5
        assert probe.outcomes == outcomes
        assert store.stats().disk_hits == 5

    def test_two_processes_keep_every_chunk(self, tmp_path):
        """Two processes committing 200 chunks each to one run file at
        the same time keep all 400 (a commit locks the file)."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_put_points, args=(tmp_path, offset, barrier))
            for offset in (0, 200)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]
        probe = _session(ResultStore(tmp_path)).probe(_chunk(400))
        assert probe.missing == []

    def test_cross_chunking_per_point_lookup(self, tmp_path):
        """Points stored at one chunking are found at any other."""
        chunk = _chunk(10)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk[:6], _outcomes(chunk[:6]))
        writer.put(chunk[6:], _outcomes(chunk[6:]))
        writer.flush()
        reader = _session(ResultStore(tmp_path))
        probe = reader.probe(chunk[3:9])  # straddles both stored objects
        assert probe.complete
        assert probe.outcomes == _outcomes(chunk[3:9])

    def test_partial_probe_reports_missing_rows(self, tmp_path):
        chunk = _chunk(6)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk[:3], _outcomes(chunk[:3]))
        writer.flush()
        probe = _session(ResultStore(tmp_path)).probe(chunk)
        assert probe.missing == [3, 4, 5]
        assert probe.hit_points == 3
        assert probe.outcomes[:3] == _outcomes(chunk[:3])
        assert probe.outcomes[3:] == [None, None, None]

    def test_identical_chunks_dedupe_to_one_object(self, tmp_path):
        store = ResultStore(tmp_path)
        chunk = _chunk(4)
        outcomes = _outcomes(chunk)
        first = _session(store)
        first.put(chunk, outcomes)
        first.flush()
        second = _session(store)
        second.put(chunk, outcomes)  # the run file holds it: no append
        second.flush()
        (run,) = tmp_path.glob("sweeps/*.log")
        records, damage = ChunkLog(run).read()
        assert damage is None
        assert len(records) == 2  # the header and one chunk record
        assert store.stats().objects_written == 1

    def test_error_outcomes_roundtrip(self, tmp_path):
        chunk = _chunk(2)
        outcomes = [_outcomes(chunk)[0], DomainError("cores must be >= 1")]
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk, outcomes)
        writer.flush()
        probe = _session(ResultStore(tmp_path)).probe(chunk)
        assert probe.complete
        assert probe.outcomes[0] == outcomes[0]
        assert isinstance(probe.outcomes[1], DomainError)
        assert str(probe.outcomes[1]) == "cores must be >= 1"

    def test_different_factories_never_share(self, tmp_path):
        store = ResultStore(tmp_path)
        chunk = _chunk(3)

        def factory_a(params):
            return None

        class FactoryB:
            def __call__(self, params):
                return None

        session_a = store.sweep_session(factory_a)
        session_a.put(chunk, _outcomes(chunk))
        session_a.flush()
        probe = store.sweep_session(FactoryB()).probe(chunk)
        assert not probe.hit_points


class TestCorruption:
    def _populated(self, tmp_path) -> list[dict]:
        chunk = _chunk(4)
        session = _session(ResultStore(tmp_path))
        session.put(chunk, _outcomes(chunk))
        session.flush()
        return chunk

    def test_truncated_object_recomputes_not_errors(self, tmp_path):
        chunk = self._populated(tmp_path)
        (run,) = tmp_path.glob("sweeps/*.log")
        run.write_bytes(run.read_bytes()[: run.stat().st_size // 2])
        store = ResultStore(tmp_path)
        session = _session(store)
        probe = session.probe(chunk)
        assert probe.missing == [0, 1, 2, 3]  # recompute, never a wrong answer
        assert store.stats().corrupt == 1
        # The rewrite drops the torn tail: the file is whole again.
        session.put(chunk, _outcomes(chunk))
        records, damage = ChunkLog(run).read()
        assert damage is None and len(records) == 2
        assert _session(ResultStore(tmp_path)).probe(chunk).complete

    def test_checksum_mismatch_detected(self, tmp_path):
        chunk = self._populated(tmp_path)
        (run,) = tmp_path.glob("sweeps/*.log")
        data = bytearray(run.read_bytes())
        data[-3] ^= 0x10  # inside the last row's power column
        run.write_bytes(bytes(data))
        store = ResultStore(tmp_path)
        probe = _session(store).probe(chunk)
        assert probe.missing == [0, 1, 2, 3]
        assert store.stats().corrupt == 1

    def test_corrupt_index_recovers_committed_objects(self, tmp_path):
        # The point-key index is rebuilt from the record headers, so a
        # damaged tail after them must not strand the committed chunk.
        chunk = self._populated(tmp_path)
        (run,) = tmp_path.glob("sweeps/*.log")
        run.write_bytes(run.read_bytes() + b"ni!")
        store = ResultStore(tmp_path)
        probe = _session(store).probe(chunk)
        assert probe.complete
        assert probe.disk_points == 4  # the one 4-point chunk record
        assert store.stats().corrupt == 1

    def test_missing_index_recovers_committed_objects(self, tmp_path):
        # No index survives the process: a fresh store rebuilds it by
        # scanning the run file's records.
        chunk = self._populated(tmp_path)
        store = ResultStore(tmp_path)
        probe = _session(store).probe(chunk)
        assert probe.complete
        assert probe.disk_points == 4  # the one 4-point chunk record
        assert store.stats().corrupt == 0

    def test_damaged_header_drops_the_run_file(self, tmp_path):
        chunk = self._populated(tmp_path)
        (run,) = tmp_path.glob("sweeps/*.log")
        data = bytearray(run.read_bytes())
        data[len(MAGIC) + 12] ^= 0x01  # inside the header record
        run.write_bytes(bytes(data))
        store = ResultStore(tmp_path)
        session = _session(store)
        assert session.probe(chunk).missing == [0, 1, 2, 3]
        assert store.stats().corrupt == 1
        session.put(chunk, _outcomes(chunk))  # starts the file over
        assert _session(ResultStore(tmp_path)).probe(chunk).complete

    def test_records_another_writer_appended_are_adopted(self, tmp_path):
        """Two sessions appending to one run file never clobber each
        other: the later append adopts the earlier one's record."""
        first, second, third = (_chunk(3, offset=k) for k in (0, 10, 20))
        a = _session(ResultStore(tmp_path))
        b = _session(ResultStore(tmp_path))
        a.put(first, _outcomes(first))  # creates the run file b never saw
        b.put(second, _outcomes(second))
        a.put(third, _outcomes(third))
        assert b.probe(first).complete and a.probe(second).complete
        reader = _session(ResultStore(tmp_path))
        for chunk in (first, second, third):
            assert reader.probe(chunk).complete


class TestOldFormat:
    def test_old_store_raises_naming_it(self, tmp_path):
        (tmp_path / MARKER_NAME).write_text(
            json.dumps(
                {
                    "format": "focal-store/1",
                    "payload": {"marker": "focal-store/1"},
                    "sha256": "0" * 64,
                }
            )
        )
        (tmp_path / "sweeps" / "0123456789abcdef").mkdir(parents=True)
        (tmp_path / "sweeps" / "0123456789abcdef" / "index.json").write_text("{}")
        with pytest.raises(ValidationError, match="focal-store/1"):
            ResultStore(tmp_path)

    def test_point_key_string_store_raises_naming_it(self, tmp_path):
        (tmp_path / MARKER_NAME).write_text('{"format":"focal-store/2"}')
        (tmp_path / "sweeps").mkdir()
        (tmp_path / "sweeps" / "0123456789abcdef.log").write_bytes(MAGIC)
        with pytest.raises(ValidationError, match="focal-store/2"):
            ResultStore(tmp_path)

    def test_untagged_record_store_raises_naming_it(self, tmp_path):
        # focal-store/3 records carry no writer grid tag or chunk index.
        (tmp_path / MARKER_NAME).write_text('{"format":"focal-store/3"}')
        (tmp_path / "sweeps").mkdir()
        (tmp_path / "sweeps" / "0123456789abcdef.log").write_bytes(MAGIC)
        with pytest.raises(ValidationError, match="focal-store/3"):
            ResultStore(tmp_path)


class TestMemoryTier:
    def test_stats_reset_keeps_contents(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(2)
        session.put(chunk, _outcomes(chunk))
        store.reset()
        assert store.stats().lookups == 0
        assert session.probe(chunk).complete  # memory tier survived


class TestSegments:
    FP = {"sampler": "test", "seed": 7}

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        codes = np.array([0, 1, 2, 3], dtype=np.int8)
        state = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}
        store.save_segment(self.FP, 0, 4, codes, state)
        fresh = ResultStore(tmp_path)
        loaded = fresh.load_segment(self.FP, 0, 4)
        assert loaded is not None
        got_codes, got_state = loaded
        assert np.array_equal(got_codes, codes)
        assert got_state == state
        assert fresh.stats().disk_hits == 4

    def test_second_read_or_own_write_is_a_memory_hit(self, tmp_path):
        """A run serves a segment from disk once, then from memory; a
        segment it wrote is a memory hit at once."""
        codes = np.zeros(4, dtype=np.int8)
        ResultStore(tmp_path).save_segment(self.FP, 0, 4, codes, {"s": 1})
        reader = ResultStore(tmp_path)
        reader.load_segment(self.FP, 0, 4)
        reader.load_segment(self.FP, 0, 4)
        reader.save_segment(self.FP, 4, 4, codes, {"s": 2})
        reader.load_segment(self.FP, 4, 4)
        assert (reader.stats().disk_hits, reader.stats().memory_hits) == (4, 8)

    def test_wrong_position_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_segment(self.FP, 0, 4, np.zeros(4, dtype=np.int8), {"s": 1})
        fresh = ResultStore(tmp_path)
        assert fresh.load_segment(self.FP, 4, 4) is None
        assert fresh.load_segment(self.FP, 0, 8) is None
        assert fresh.load_segment({"other": True}, 0, 4) is None
        assert fresh.stats().misses == 16

    def test_corrupt_segment_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_segment(self.FP, 0, 4, np.zeros(4, dtype=np.int8), {"s": 1})
        (run,) = tmp_path.glob("mc/*.log")
        data = bytearray(run.read_bytes())
        data[-2] ^= 0x01  # inside the segment's codes
        run.write_bytes(bytes(data))
        fresh = ResultStore(tmp_path)
        assert fresh.load_segment(self.FP, 0, 4) is None
        assert fresh.stats().corrupt == 1


class TestMaintenance:
    def _populate(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(4)
        session.put(chunk, _outcomes(chunk))
        session.flush()
        store.save_segment(
            {"sampler": "x"}, 0, 3, np.zeros(3, dtype=np.int8), {"s": 1}
        )
        return store

    def test_ls_and_stat(self, tmp_path):
        store = self._populate(tmp_path)
        rows = store.ls()
        assert {row["kind"] for row in rows} == {"sweep", "mc"}
        info = store.stat()
        assert info["fingerprints"] == 2
        assert info["sweep_fingerprints"] == 1
        assert info["mc_fingerprints"] == 1
        assert info["bytes"] > 0

    def test_ls_on_missing_dir_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent").ls() == []

    def test_gc_removes_tmp_litter_and_orphans(self, tmp_path):
        store = self._populate(tmp_path)
        (run,) = (tmp_path / "sweeps").glob("*.log")
        (tmp_path / f"{MARKER_NAME}.tmp.999").write_text("litter")
        stray = tmp_path / "sweeps" / "notes.txt"
        stray.write_text("{}")
        (tmp_path / "mc" / "objects").mkdir()  # a stray directory
        report = store.gc()
        assert report["removed_tmp"] == 1
        assert report["removed_orphans"] == 2
        assert not stray.exists() and not (tmp_path / "mc" / "objects").exists()
        assert run.exists()

    def test_gc_truncates_damaged_tails_and_drops_headless_files(self, tmp_path):
        store = self._populate(tmp_path)
        (run,) = (tmp_path / "sweeps").glob("*.log")
        (segments,) = (tmp_path / "mc").glob("*.log")
        whole = run.read_bytes()
        run.write_bytes(whole + b"\x05torn")
        segments.write_bytes(b"not a log")
        report = store.gc()
        assert report["removed_corrupt"] == 2
        assert run.read_bytes() == whole
        assert not segments.exists()
        assert _session(ResultStore(tmp_path)).probe(_chunk(4)).complete

    def test_gc_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("keep me")
        store = ResultStore(tmp_path / "elsewhere")
        store.root = foreign  # dodge the init guard; gc has its own
        with pytest.raises(ValidationError, match="refusing to gc"):
            store.gc()
        assert (foreign / "data.txt").exists()

    def test_gc_max_bytes_evicts_oldest_first_without_leaks(self, tmp_path):
        import os
        import time as time_module

        store = self._populate(tmp_path)
        (sweep_run,) = (tmp_path / "sweeps").glob("*.log")
        (mc_run,) = (tmp_path / "mc").glob("*.log")
        # Make the sweep fingerprint the older of the two.
        past = time_module.time() - 3600
        os.utime(sweep_run, (past, past))
        report = store.gc(max_bytes=1)
        assert report["evicted_fingerprints"][0].startswith("sweeps/")
        assert not sweep_run.exists()
        assert not mc_run.exists()
        assert report["freed_bytes"] > 0
        # Hygiene: only the marker survives, and the store still works.
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.name for p in leftovers] == [MARKER_NAME]
        session = _session(store)
        chunk = _chunk(2)
        session.put(chunk, _outcomes(chunk))
        assert session.probe(chunk).complete

    def test_gc_under_budget_evicts_nothing(self, tmp_path):
        store = self._populate(tmp_path)
        report = store.gc(max_bytes=10**9)
        assert report["evicted_fingerprints"] == []
        assert store.ls()

    def test_gc_empty_store_is_a_noop(self, tmp_path):
        report = ResultStore(tmp_path / "absent").gc(max_bytes=1)
        assert report["freed_bytes"] == 0


class TestChunkProbe:
    def test_complete_and_hit_points(self):
        probe = ChunkProbe(
            outcomes=[object(), object()],
            missing=[],
            memory_points=1,
            disk_points=1,
        )
        assert probe.complete
        assert probe.hit_points == 2
