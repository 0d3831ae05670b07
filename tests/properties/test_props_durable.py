"""Property-based damage: whatever byte a checkpoint or store run file
is truncated at, and whatever bit of it flips, the resumed or
store-backed sweep ends byte-identical to a cold sweep — result columns
and cache entries — and recomputes exactly the rows whose record did
not survive whole. Damage is never returned, only recomputed. The
quarantine ledger keeps exactly its whole records the same way, a
sweep killed at any point resumes to the cold sweep's bytes, and so
does one whose host crashed, whatever became of its unsynced records."""

from __future__ import annotations

import itertools
import json
import os
import stat
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.errors import CheckpointError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import batch
from repro.dse.batch import BatchExplorer
from repro.dse.factories import AsymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid
from repro.dse.montecarlo import sample_measurement_noise, sample_verdicts
from repro.dse.store import ResultStore
from repro.obs import metrics
from repro.resilience import CheckpointStore, QuarantineLedger
from repro.resilience.checkpoint import canonical_json
from repro.resilience import chunklog
from repro.resilience.chunklog import MAGIC, SYNC_INTERVAL_S, ChunkLog

from ..dse.test_parallel_columnar import assert_same_entries
from ..resilience.test_interrupts import interrupt_at_commit
from .test_props_warm_cache import _ThreadPool

BASELINE = DesignPoint.baseline("1-BCE single core")
FACTORY = AsymmetricMulticoreFactory()  # m >= n corners are DomainErrors


def _explorer(chunk_size: int, workers: int = 0) -> BatchExplorer:
    return BatchExplorer(
        factory=FACTORY,
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
        workers=workers,
    )


def _record_ends(data: bytes) -> list[int]:
    """End offset of every record of an undamaged log (header first)."""
    ends = [len(MAGIC)]
    while ends[-1] < len(data):
        (length,) = struct.unpack_from("<I", data, ends[-1])
        ends.append(ends[-1] + 9 + length)
    return ends[1:]


def _surviving_chunks(ends: list[int], offset: int) -> int:
    """Chunk records a reader may still trust when the log is cut at
    *offset*, or a bit of byte *offset* flips: those ending at or before
    it — none when the magic or the header record is hit."""
    return max(sum(1 for end in ends if end <= offset) - 1, 0)


def _grids(min_n: int = 1):
    n = st.lists(st.integers(2, 12), min_size=min_n, max_size=4, unique=True)
    # m = 1 keeps a valid row in every grid (n >= 2).
    m = st.lists(st.integers(2, 8), max_size=2, unique=True).map(lambda m: [1, *m])
    f = st.lists(st.sampled_from([0.5, 0.75, 0.9, 0.99]), min_size=1, unique=True)
    return st.builds(lambda n, m, f: ParameterGrid({"n": n, "m": m, "f": f}), n, m, f)


def _assert_same_sweep(result, explorer, cold, cold_explorer) -> None:
    assert result.designs == cold.designs
    assert result.perf.tobytes() == cold.perf.tobytes()
    assert result.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
    assert result.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()
    assert_same_entries(explorer.cache, cold_explorer.cache)


@st.composite
def damaged_runs(draw):
    return {
        "grid": draw(_grids()),
        "chunk_size": draw(st.integers(1, 10)),
        "target": draw(st.sampled_from(["checkpoint", "store"])),
        "kind": draw(st.sampled_from(["truncate", "flip"])),
        "where": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "bit": draw(st.integers(0, 7)),
        "workers": draw(st.sampled_from([0, 2])),
    }


def _damage(path: Path, run: dict) -> int:
    """Damage *path* as *run* says; returns the damaged byte offset."""
    data = bytearray(path.read_bytes())
    offset = int(run["where"] * len(data))
    if run["kind"] == "truncate":
        del data[offset:]
    else:
        data[offset] ^= 1 << run["bit"]
    path.write_bytes(bytes(data))
    return offset


@settings(max_examples=60, deadline=None)
@given(run=damaged_runs())
def test_damage_is_recomputed_never_returned(run):
    grid, chunk_size = run["grid"], run["chunk_size"]
    cold_explorer = _explorer(chunk_size)
    cold = cold_explorer.explore_arrays(grid)
    with tempfile.TemporaryDirectory() as root:
        if run["target"] == "checkpoint":
            path = Path(root) / "sweep.ckpt"
            _explorer(chunk_size).explore_arrays(grid, checkpoint=path)
            durable = dict(checkpoint=path, resume=True)
            counter = "focal_checkpoint_corrupt_total"
        else:
            _explorer(chunk_size).explore_arrays(grid, store=ResultStore(root))
            (path,) = Path(root).glob("sweeps/*.log")
            durable = dict(store=ResultStore(root))
            counter = "focal_store_corrupt_total"
        ends = _record_ends(path.read_bytes())
        offset = _damage(path, run)
        survivors = _surviving_chunks(ends, offset)
        metrics.reset()
        metrics.enable()
        try:
            # With workers, the durable rows are gathered before the
            # rest goes to a (thread) pool.
            explorer = _explorer(chunk_size, run["workers"])
            with mock.patch.object(batch, "ProcessPoolExecutor", _ThreadPool):
                resumed = explorer.explore_arrays(grid, **durable)
            corrupt = metrics.get_registry().counter(counter).value
        finally:
            metrics.reset()
    _assert_same_sweep(resumed, explorer, cold, cold_explorer)
    # Every row outside the surviving records is recomputed, and only
    # those: a cut at a record boundary keeps every whole record.
    kept = min(survivors * chunk_size, len(grid))
    assert explorer.last_sweep.fresh_points == len(grid) - kept
    cut_at_boundary = run["kind"] == "truncate" and offset in ends
    assert (corrupt == 0) == cut_at_boundary


_FLOATS = st.floats(allow_nan=False)  # NaN never equals its reloaded self
_PARAMS = st.dictionaries(
    st.sampled_from(["n", "m", "f", "node"]),
    st.one_of(
        st.integers(-(2**40), 2**40),
        _FLOATS,
        st.text(max_size=3),
        st.booleans(),
        st.none(),
        st.integers(-100, 100).map(np.int64),
        _FLOATS.map(np.float64),
        st.booleans().map(np.bool_),
    ),
    min_size=1,
)


@st.composite
def damaged_ledgers(draw):
    return {
        "points": draw(
            st.lists(
                st.tuples(st.sampled_from(["fac-a", "fac-b"]), _PARAMS),
                min_size=1,
                max_size=8,
            )
        ),
        "kind": draw(st.sampled_from(["truncate", "flip"])),
        "where": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "bit": draw(st.integers(0, 7)),
    }


def _ledger_view(path: Path) -> dict:
    ledger = QuarantineLedger(path)
    return {factory: ledger.entries(factory) for factory in ("fac-a", "fac-b", "new")}


@settings(max_examples=80, deadline=None)
@given(run=damaged_ledgers())
def test_ledger_damage_keeps_exactly_the_whole_records(run):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "quarantine.log"
        ledger = QuarantineLedger(path)
        views = [_ledger_view(path)]
        for factory, params in run["points"]:
            ledger.record(factory, params, kind="poison", reason=f"r{len(views)}")
            views.append(_ledger_view(path))
        ends = _record_ends(path.read_bytes())
        survivors = _surviving_chunks(ends, _damage(path, run))

        reopened = QuarantineLedger(path)
        assert _ledger_view(path) == views[survivors]
        assert len(reopened) == sum(map(len, views[survivors].values()))

        reopened.record("new", {"z": 0}, kind="crash", reason="after damage")
        records, damage = ChunkLog(path).read()
        assert damage is None
        assert len(records) == 1 + survivors + 1
        expected = dict(views[survivors])
        expected["new"] = {
            "z=i0": {"params": {"z": 0}, "kind": "crash", "reason": "after damage"}
        }
        assert _ledger_view(path) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_resume_after_kill_matches_a_cold_sweep(data):
    """Kill a durable sweep at any point, resume it: the result and cache
    equal a cold sweep's, and only the chunks the kill cut short (or
    never reached) are recomputed."""
    grid = data.draw(_grids(min_n=3))
    chunk_size = data.draw(st.integers(1, 6))
    target = data.draw(st.sampled_from(["checkpoint", "store"]))
    k = data.draw(st.integers(0, len(grid) - 1))
    cold_explorer = _explorer(chunk_size)
    cold = cold_explorer.explore_arrays(grid)
    with tempfile.TemporaryDirectory() as root:
        if target == "checkpoint":
            path = Path(root) / "sweep.ckpt"
            first, durable = dict(checkpoint=path), dict(checkpoint=path, resume=True)
        else:
            first, durable = dict(store=ResultStore(root)), dict(store=ResultStore(root))
        with pytest.raises(KeyboardInterrupt), interrupt_at_commit(k // chunk_size):
            _explorer(chunk_size).explore_arrays(grid, **first)
        explorer = _explorer(chunk_size)
        resumed = explorer.explore_arrays(grid, **durable)
    _assert_same_sweep(resumed, explorer, cold, cold_explorer)
    assert explorer.last_sweep.fresh_points == len(grid) - (k // chunk_size) * chunk_size


# ----------------------------------------------------------------------
# A host crash: the records past the last fsync are lost or garbled
# ----------------------------------------------------------------------
@st.composite
def crashed_runs(draw):
    return {
        "grid": draw(_grids()),
        "chunk_size": draw(st.integers(1, 10)),
        "target": draw(st.sampled_from(["checkpoint", "store"])),
        # Fake seconds per clock reading: frozen, some appends due for an
        # fsync, every append due.
        "tick": draw(st.sampled_from([0.0, 0.4, SYNC_INTERVAL_S])),
        "kind": draw(st.sampled_from(["cut", "zero"])),
        "where": draw(st.floats(0.0, 1.0)),
        "span": draw(st.floats(0.0, 1.0)),
    }


def _unsynced_loss(data: bytes, synced: int, run: dict) -> tuple[bytes, int]:
    """*data* as a host crash may leave it: cut at a byte past *synced*,
    or a range there zeroed; and the first byte that differs (the
    length of *data* when none does)."""
    at = synced + int(run["where"] * (len(data) - synced))
    if run["kind"] == "cut":
        return data[:at], at
    end = at + int(run["span"] * (len(data) - at))
    zeroed = data[:at] + bytes(end - at) + data[end:]
    changed = [i for i in range(at, end) if data[i]]
    return zeroed, changed[0] if changed else len(data)


@settings(max_examples=60, deadline=None)
@given(run=crashed_runs())
def test_host_crash_recomputes_only_the_unsynced_chunks(run):
    """Run a durable sweep whose host dies before the run-end barrier:
    whatever the crash does to the log past its last fsync — cut it
    anywhere there, or zero a range there — the resumed or re-run sweep
    equals a cold sweep bit for bit, and recomputes only the chunks
    whose records did not survive whole."""
    grid, chunk_size = run["grid"], run["chunk_size"]
    cold_explorer = _explorer(chunk_size)
    cold = cold_explorer.explore_arrays(grid)
    clock = itertools.count(0.0, run["tick"])
    synced: list[tuple[int, int]] = []  # (inode, size) at each file fsync
    real_fsync = os.fsync

    def fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            synced.append((info.st_ino, info.st_size))
        real_fsync(fd)

    with tempfile.TemporaryDirectory() as root:
        if run["target"] == "checkpoint":
            path = Path(root) / "sweep.ckpt"
            first, durable = dict(checkpoint=path), dict(checkpoint=path, resume=True)
        else:
            first, durable = dict(store=ResultStore(root)), dict(store=ResultStore(root))
        with (
            mock.patch.object(os, "fsync", fsync),
            mock.patch.object(
                chunklog, "time", SimpleNamespace(monotonic=clock.__next__)
            ),
            mock.patch.object(ChunkLog, "sync", lambda log: None),  # the crash
        ):
            _explorer(chunk_size).explore_arrays(grid, **first)
        if run["target"] == "store":
            (path,) = Path(root).glob("sweeps/*.log")
        data = path.read_bytes()
        inode = path.stat().st_ino
        last_synced = max(size for ino, size in synced if ino == inode)
        ends = _record_ends(data)
        assert last_synced in ends  # an fsync always follows a whole record
        damaged, first_change = _unsynced_loss(data, last_synced, run)
        path.write_bytes(damaged)
        explorer = _explorer(chunk_size)
        resumed = explorer.explore_arrays(grid, **durable)
    _assert_same_sweep(resumed, explorer, cold, cold_explorer)
    kept = min(_surviving_chunks(ends, first_change) * chunk_size, len(grid))
    assert kept >= min(_surviving_chunks(ends, last_synced) * chunk_size, len(grid))
    assert explorer.last_sweep.fresh_points == len(grid) - kept


# ----------------------------------------------------------------------
# The samplers' logs: a checkpoint and a store segment run file
# ----------------------------------------------------------------------
MC_DESIGN = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
MC_BASELINE = DesignPoint.baseline("baseline")
MC_SAMPLES = 3000


def _sample(sampler: str, **kwargs):
    if sampler == "verdicts":
        return sample_verdicts(
            MC_DESIGN, MC_BASELINE, EMBODIED_DOMINATED,
            samples=MC_SAMPLES, seed=5, **kwargs,
        )
    return sample_measurement_noise(
        MC_DESIGN, MC_BASELINE, EMBODIED_DOMINATED.alpha,
        samples=MC_SAMPLES, seed=5, **kwargs,
    )


@st.composite
def damaged_sampler_runs(draw):
    return {
        "sampler": draw(st.sampled_from(["verdicts", "noise"])),
        "every": draw(st.sampled_from([700, 1000, 3000])),
        "target": draw(st.sampled_from(["checkpoint", "store"])),
        "kind": draw(st.sampled_from(["truncate", "flip"])),
        "where": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "bit": draw(st.integers(0, 7)),
    }


@settings(max_examples=60, deadline=None)
@given(run=damaged_sampler_runs())
def test_sampler_log_damage_is_redrawn_never_returned(run):
    """Truncate a sampler's checkpoint or store segment log at any byte,
    or flip any bit of it: the resumed or store-backed run gives the
    uninterrupted run's probabilities and leaves the log it finishes
    byte-identical to the undamaged one."""
    reference = _sample(run["sampler"])
    with tempfile.TemporaryDirectory() as root:
        if run["target"] == "checkpoint":
            path = Path(root) / "mc.ckpt"
            _sample(run["sampler"], checkpoint=path, checkpoint_every=run["every"])
            durable = dict(checkpoint=path, resume=True)
        else:
            _sample(
                run["sampler"], store=ResultStore(root), checkpoint_every=run["every"]
            )
            (path,) = Path(root).glob("mc/*.log")
            durable = dict(store=ResultStore(root))
        finished = path.read_bytes()
        assert len(_record_ends(finished)) == 1 + -(-MC_SAMPLES // run["every"])
        _damage(path, run)
        resumed = _sample(run["sampler"], checkpoint_every=run["every"], **durable)
        assert resumed == reference
        assert path.read_bytes() == finished


# ----------------------------------------------------------------------
# Checkpoint headers are compared by their bytes
# ----------------------------------------------------------------------
_LEAVES = st.one_of(
    st.floats(),  # NaN, -0.0 and the infinities included
    st.just(-0.0),
    st.just(float("nan")),
    st.integers(),
    st.integers(2**63, 2**200),
    st.booleans(),
    st.none(),
    st.text(st.characters(min_codepoint=0x80), max_size=4),
    st.text(max_size=4),
)
_FINGERPRINTS = st.dictionaries(
    st.text(max_size=4),
    st.recursive(  # containers are never empty: every path ends in a leaf
        _LEAVES,
        lambda inner: st.lists(inner, min_size=1, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, min_size=1, max_size=3),
        max_leaves=8,
    ),
    min_size=1,
    max_size=4,
)


def _rebuilt(value):
    """An equal value built separately: new containers, numbers
    re-parsed from their text."""
    if isinstance(value, dict):
        return {"".join(key): _rebuilt(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rebuilt(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(str(value))
    if isinstance(value, float):
        return float.fromhex(value.hex())
    return "".join(value)


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, (*path, key))
    elif isinstance(value, list):
        for at, item in enumerate(value):
            yield from _leaf_paths(item, (*path, at))
    else:
        yield path


def _replaced(value, path, leaf):
    if not path:
        return leaf
    head, *rest = path
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[head] = _replaced(value[head], rest, leaf)
    return copy


@settings(max_examples=200, deadline=None)
@given(fingerprint=_FINGERPRINTS, data=st.data())
def test_checkpoint_header_bytes_match_the_parsed_comparison(fingerprint, data):
    """A header written from one fingerprint object resumes under an
    equal fingerprint built separately, and refuses one that differs in
    any single leaf — exactly where the canonical JSON of the parsed
    header and of the fingerprint agree or differ."""
    chunks = [b"\x00" * 5, b"\x01" * 7]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "run.ckpt"
        CheckpointStore(path).save(
            kind="montecarlo", fingerprint=fingerprint, state={"chunks": chunks}
        )
        records, _ = ChunkLog(path).read()
        stored = json.loads(records[0][1])["fingerprint"]
        equal = _rebuilt(fingerprint)
        assert canonical_json(stored) == canonical_json(equal)
        assert CheckpointStore(path).load_or_restart(
            kind="montecarlo", fingerprint=equal
        ) == {"chunks": chunks}

        where = data.draw(st.sampled_from(list(_leaf_paths(fingerprint))))
        leaf = data.draw(_LEAVES)
        changed = _replaced(fingerprint, where, leaf)
        assume(canonical_json(changed) != canonical_json(fingerprint))
        assert canonical_json(stored) != canonical_json(changed)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            CheckpointStore(path).load_or_restart(
                kind="montecarlo", fingerprint=changed
            )
