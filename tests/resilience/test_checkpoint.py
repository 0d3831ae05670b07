"""CheckpointStore durability, verification and outcome codecs."""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.design import DesignPoint
from repro.core.errors import CheckpointError, DomainError
from repro.resilience import (
    CheckpointStore,
    corrupt_checkpoint,
    decode_outcomes,
    describe_factory,
    encode_outcomes,
    sweep_fingerprint,
    truncate_checkpoint,
)
from repro.resilience.checkpoint import canonical_json
from repro.resilience.chunklog import HEADER, MAGIC, ChunkLog

FP = {"sampler": "test", "seed": 1}
CHUNKS = [bytes([n]) * 64 for n in (1, 2, 3)]


@pytest.fixture
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "run.ckpt")


def _frame_offsets(path) -> list[int]:
    """Start offset of every record in a log file, plus its end."""
    data = path.read_bytes()
    offsets = [len(MAGIC)]
    while offsets[-1] < len(data):
        (length,) = struct.unpack_from("<I", data, offsets[-1])
        offsets.append(offsets[-1] + 9 + length)
    return offsets


class TestSaveLoad:
    def test_roundtrip(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [b"\x01\x02"]})
        assert store.load(kind="sweep", fingerprint=FP) == {"chunks": [b"\x01\x02"]}

    def test_save_is_atomic_replacement(self, store):
        """A save starts the log over; nothing but the log is left
        behind."""
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [b"one"]})
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [b"two"]})
        assert store.load(kind="sweep", fingerprint=FP) == {"chunks": [b"two"]}
        assert list(store.path.parent.iterdir()) == [store.path]

    def test_commit_only_appends(self, store):
        assert store.commit(kind="sweep", fingerprint=FP, record=CHUNKS[0])
        first = store.path.read_bytes()
        for record in CHUNKS[1:]:
            assert store.commit(kind="sweep", fingerprint=FP, record=record)
        grown = store.path.read_bytes()
        assert grown.startswith(first)
        assert len(grown) - len(first) == 2 * (9 + 64)
        reader = CheckpointStore(store.path)
        assert reader.load(kind="sweep", fingerprint=FP) == {"chunks": CHUNKS}

    def test_commit_of_another_run_starts_over(self, store):
        store.commit(kind="sweep", fingerprint=FP, record=CHUNKS[0])
        other = {"sampler": "test", "seed": 2}
        store.commit(kind="sweep", fingerprint=other, record=CHUNKS[1])
        assert store.load(kind="sweep", fingerprint=other) == {"chunks": CHUNKS[1:2]}

    def test_bytes_written_equal_file_size(self, store):
        from repro.obs import metrics

        metrics.reset()
        metrics.enable()
        try:
            for record in CHUNKS:
                store.commit(kind="sweep", fingerprint=FP, record=record)
            written = metrics.get_registry().counter(
                "focal_durable_bytes_written_total"
            ).value
        finally:
            metrics.reset()
        assert written == store.path.stat().st_size

    def test_resumed_commit_appends_after_loaded_records(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS[:2]})
        before = store.path.read_bytes()
        resumed = CheckpointStore(store.path)
        assert resumed.load_or_restart(kind="sweep", fingerprint=FP) == {
            "chunks": CHUNKS[:2]
        }
        resumed.commit(kind="sweep", fingerprint=FP, record=CHUNKS[2])
        assert store.path.read_bytes().startswith(before)
        assert resumed.load(kind="sweep", fingerprint=FP) == {"chunks": CHUNKS}

    def test_state_must_be_chunk_records(self, store):
        with pytest.raises(CheckpointError, match="record bytes"):
            store.save(kind="sweep", fingerprint=FP, state={"n": 1})

    def test_missing_file_raises_on_load(self, store):
        with pytest.raises(CheckpointError, match="does not exist"):
            store.load(kind="sweep", fingerprint=FP)

    def test_missing_file_is_cold_start_on_resume(self, store):
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_kind_mismatch_raises(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": []})
        with pytest.raises(CheckpointError, match="expected 'montecarlo'"):
            store.load(kind="montecarlo", fingerprint=FP)

    def test_fingerprint_mismatch_raises(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": []})
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            store.load(kind="sweep", fingerprint={"sampler": "test", "seed": 2})

    def test_fingerprint_mismatch_still_raises_on_resume(self, store):
        """A mismatch is a configuration error, never a silent restart."""
        store.save(kind="sweep", fingerprint=FP, state={"chunks": []})
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            store.load_or_restart(
                kind="sweep", fingerprint={"sampler": "test", "seed": 2}
            )

    def test_old_format_raises_naming_it(self, store):
        """A JSON checkpoint of the older format is refused by name on
        resume, not silently restarted."""
        store.path.write_text(
            json.dumps(
                {
                    "format": "focal-checkpoint/1",
                    "sha256": "0" * 64,
                    "payload": {"kind": "sweep", "fingerprint": FP, "state": {}},
                }
            )
        )
        with pytest.raises(CheckpointError, match="focal-checkpoint/1"):
            store.load_or_restart(kind="sweep", fingerprint=FP)

    def test_named_record_log_raises_naming_it(self, store):
        """A log of the format whose records name every design is
        refused by name on resume, not silently restarted."""
        header = canonical_json(
            {"format": "focal-checkpoint/2", "kind": "sweep", "fingerprint": FP}
        )
        ChunkLog(store.path).reset([(HEADER, header.encode())])
        with pytest.raises(CheckpointError, match="focal-checkpoint/2"):
            store.load_or_restart(kind="sweep", fingerprint=FP)

    def test_coerce(self, tmp_path):
        assert CheckpointStore.coerce(None) is None
        store = CheckpointStore(tmp_path / "a")
        assert CheckpointStore.coerce(store) is store
        assert CheckpointStore.coerce(tmp_path / "b").path == tmp_path / "b"

    def test_remove(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": []})
        store.remove()
        assert not store.exists()
        store.remove()  # idempotent


class TestDamageDetection:
    def test_truncated_file_restarts_cold(self, store):
        """A log cut inside its header record has nothing to resume."""
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS})
        header_end = _frame_offsets(store.path)[1]
        size = store.path.stat().st_size
        truncate_checkpoint(store.path, keep_fraction=(header_end - 1) / size)
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_torn_tail_resumes_after_whole_records(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS})
        offsets = _frame_offsets(store.path)
        data = store.path.read_bytes()
        store.path.write_bytes(data[: offsets[-2] + 20])  # inside the last record
        resumed = CheckpointStore(store.path)
        state = resumed.load_or_restart(kind="sweep", fingerprint=FP)
        assert state == {"chunks": CHUNKS[:2]}
        # The next commit truncates the torn tail and appends after it.
        resumed.commit(kind="sweep", fingerprint=FP, record=CHUNKS[2])
        assert store.path.read_bytes() == data

    def test_corrupted_byte_restarts_cold(self, store):
        """A flipped byte in the header record: nothing is trusted."""
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS})
        data = bytearray(store.path.read_bytes())
        data[_frame_offsets(store.path)[0] + 12] ^= 0x01
        store.path.write_bytes(bytes(data))
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_flipped_record_byte_drops_it_and_every_later_record(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS})
        data = bytearray(store.path.read_bytes())
        data[_frame_offsets(store.path)[2] + 20] ^= 0x80  # inside chunk 2
        store.path.write_bytes(bytes(data))
        reader = CheckpointStore(store.path)
        state = reader.load_or_restart(kind="sweep", fingerprint=FP)
        assert state == {"chunks": CHUNKS[:1]}

    def test_corrupted_byte_fails_checksum_on_strict_load(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [bytes(64)]})
        corrupt_checkpoint(store.path)
        with pytest.raises(CheckpointError):
            CheckpointStore(store.path).load(kind="sweep", fingerprint=FP)

    def test_wrong_format_tag_restarts_cold(self, store):
        header = canonical_json(
            {"format": "focal-checkpoint/999", "kind": "sweep", "fingerprint": FP}
        )
        ChunkLog(store.path).reset([(HEADER, header.encode())])
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_non_json_restarts_cold(self, store):
        store.path.write_text("definitely not json{")
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_garbage_tail_is_dropped(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": CHUNKS[:1]})
        with open(store.path, "ab") as handle:
            handle.write(b"\x07garbage that is no record")
        reader = CheckpointStore(store.path)
        with pytest.raises(CheckpointError):
            reader.load(kind="sweep", fingerprint=FP)
        assert reader.load_or_restart(kind="sweep", fingerprint=FP) == {
            "chunks": CHUNKS[:1]
        }


class TestOutcomeCodec:
    def test_designs_roundtrip_bit_exact(self):
        outcomes = [
            DesignPoint("a", area=1.0 / 3.0, perf=2.0 / 7.0, power=0.1),
            DomainError("invalid corner"),
            DesignPoint("b \u00fc\ud800", area=5.5, perf=1e-300, power=3.14159),
        ]
        decoded = decode_outcomes(encode_outcomes(outcomes))
        assert decoded[0] == outcomes[0]
        assert isinstance(decoded[1], DomainError)
        assert str(decoded[1]) == "invalid corner"
        assert decoded[2] == outcomes[2]

    def test_undecodable_row_raises(self):
        record = encode_outcomes([DesignPoint("a", area=1.0, perf=1.0, power=1.0)])
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_outcomes(b"mystery")
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_outcomes(record[:-1])  # one byte short of its columns
        tag = record.index(b"a") + 1
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_outcomes(record[:tag] + b"\x09" + record[tag + 1 :])


class TestFingerprints:
    def test_function_factories_named_without_address(self):
        def local_factory(params):
            return None

        described = describe_factory(local_factory)
        assert "0x" not in described
        assert "local_factory" in described

    def test_instance_factories_use_value_repr(self):
        from repro.dse.factories import SymmetricMulticoreFactory

        assert describe_factory(SymmetricMulticoreFactory()) == repr(
            SymmetricMulticoreFactory()
        )

    def test_sweep_fingerprint_changes_with_configuration(self):
        baseline = DesignPoint.baseline("b")

        def fingerprint(**overrides):
            kwargs = dict(
                axes={"cores": [1, 2], "f": [0.5]},
                chunk_size=16,
                baseline=baseline,
                alpha=0.5,
                factory=SweepFactory(),
            )
            kwargs.update(overrides)
            return sweep_fingerprint(**kwargs)

        base = fingerprint()
        assert fingerprint() == base
        assert fingerprint(chunk_size=8) != base
        assert fingerprint(alpha=0.25) != base
        assert fingerprint(axes={"cores": [1, 2, 3], "f": [0.5]}) != base


class SweepFactory:
    def __repr__(self) -> str:
        return "SweepFactory()"


class TestRunWithoutResume:
    """A run without ``resume`` over an existing checkpoint starts the
    file over: whatever the file held, the run ends with a fresh run's
    bytes."""

    @pytest.fixture(params=["sweep", "sampler"])
    def run(self, request, make_explorer, grid):
        from repro.core.scenario import BALANCED
        from repro.dse.grid import ParameterGrid
        from repro.dse.montecarlo import sample_verdicts

        design = DesignPoint("candidate", area=1.2, perf=1.4, power=1.1)
        baseline = DesignPoint.baseline("baseline")
        other_grid = ParameterGrid({"cores": [1, 2, 3], "f": [0.5]})

        def run(path, *, other=False):
            if request.param == "sweep":
                return make_explorer().explore_arrays(
                    other_grid if other else grid, checkpoint=path
                ).designs
            return sample_verdicts(
                design, baseline, BALANCED, samples=5000, seed=2 if other else 1,
                checkpoint=path, checkpoint_every=1000,
            )

        return run

    @pytest.mark.parametrize("existing", ["same run", "another run", "damaged"])
    def test_final_bytes_equal_a_fresh_run(self, run, existing, tmp_path):
        fresh = tmp_path / "fresh.ckpt"
        expected = run(fresh)
        path = tmp_path / "run.ckpt"
        run(path, other=existing == "another run")
        if existing == "damaged":
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x10
            path.write_bytes(bytes(data))
        assert path.read_bytes() != fresh.read_bytes() or existing == "same run"
        assert run(path) == expected
        assert path.read_bytes() == fresh.read_bytes()
