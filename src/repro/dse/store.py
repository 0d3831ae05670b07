"""Persistent fingerprint-keyed result store with chunk-granular reuse.

:class:`~repro.dse.batch.FactoryCache` memoizes within one process and
:class:`~repro.resilience.checkpoint.CheckpointStore` resumes one
interrupted run; both forget everything the moment the process exits or
the grid changes shape. This module is the third tier: a persistent,
content-addressed store of factory outcomes that any later sweep of the
same factory can read — a warm re-sweep loads byte-identical outcomes
from disk instead of recomputing, and a **delta sweep** over a grid that
merely *overlaps* a stored one evaluates only the new points and
stitches the rest from the store.

Keying follows the checkpoint fingerprints: the factory's identity is
:func:`~repro.resilience.checkpoint.describe_factory`, and every grid
point is reduced to a canonical key string with ``float.hex`` encoding
for floats, so two parameter dicts collide exactly when the factory
would compute bit-identical outcomes for them. Nothing else enters the
key — not chunk size, not worker count, not baseline or weight — so a
store written at ``chunk_size=4096, workers=4`` serves a reader at
``chunk_size=100, workers=0`` bit-exactly (outcomes depend only on
``factory(params)``).

Two tiers: an in-process LRU over decoded outcome chunks (bounded,
stats-instrumented like :class:`~repro.dse.batch.CacheStats`), and an
on-disk tier of append-only run files
(:class:`~repro.resilience.chunklog.ChunkLog`), one per factory or
sampler fingerprint::

    focal-store.json   # marker: {"format": "focal-store/2"}
    sweeps/<fp>.log    # header {factory}; per stored chunk: point keys
                       #   + encode_outcomes columns
    mc/<fp>.log        # header {fingerprint}; per Monte-Carlo segment:
                       #   int8 codes + post-segment rng state

Storing a chunk appends one checksummed record (one write, one
``fsync``); opening a run file rebuilds its point-key index from the
records. Damage is never an error and never a wrong answer: a torn or
corrupt record is dropped with everything after it, counted in
``focal_store_corrupt_total``, and its points recompute; the next
append truncates the damage. ``ResultStore.gc`` removes temp litter,
stray files, damaged tails and headerless run files, and with
``max_bytes`` evicts whole fingerprints oldest-first. A
``focal-store/1`` directory (JSON objects plus ``index.json``) is
refused with an error naming that format.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import DomainError, QuarantinedPoint, ValidationError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv
from ..resilience.checkpoint import (
    OutcomeRecord,
    atomic_write_text,
    canonical_json,
    describe_factory,
    encode_outcomes,
    pack_texts,
    point_key as point_store_key,
    sha256_hex,
    unpack_texts,
)
from ..resilience.chunklog import CHUNK, HEADER, TRANSIENT_DISK_ERRNOS, ChunkLog

__all__ = [
    "STORE_FORMAT",
    "StoreStats",
    "ResultStore",
    "SweepStoreSession",
    "ChunkProbe",
    "point_store_key",
    "chunk_store_key",
]

#: Format tag of the store marker and of every run-file header.
STORE_FORMAT = "focal-store/2"

#: The JSON-object layout of earlier versions, refused by name.
_OLD_FORMAT = "focal-store/1"

#: Name of the marker file identifying a directory as a result store
#: (``gc`` refuses to delete anything from a directory without it).
MARKER_NAME = "focal-store.json"


# ----------------------------------------------------------------------
# Chunk keys (point keys are repro.resilience.checkpoint.point_key,
# shared with the quarantine ledger)
# ----------------------------------------------------------------------
def chunk_store_key(keys: Sequence[str]) -> str:
    """One hash for a whole chunk of point keys — the fast path a warm
    re-sweep with unchanged chunking hits (one probe, not N)."""
    return sha256_hex("\x1f".join(keys))


def _fingerprint_hash(payload: object) -> str:
    return sha256_hex(canonical_json(payload))[:16]


# ----------------------------------------------------------------------
# Monte-Carlo segment records: start, post-segment rng state, codes
# ----------------------------------------------------------------------
_SEGMENT = struct.Struct("<QI")


def encode_segment(start: int, codes: np.ndarray, rng_state: Mapping) -> bytes:
    """One rng-stream segment as a record: its start sample, the
    generator state after it (canonical JSON) and its int8 codes."""
    state = canonical_json(dict(rng_state)).encode("utf-8")
    codes = np.asarray(codes, dtype=np.int8).tobytes()
    return _SEGMENT.pack(start, len(state)) + state + codes


def decode_segment(record: bytes) -> tuple[int, np.ndarray, dict]:
    """Invert :func:`encode_segment`: ``(start, codes, rng_state)``."""
    start, size = _SEGMENT.unpack_from(record)
    body = _SEGMENT.size + size
    state = json.loads(record[_SEGMENT.size : body])
    return start, np.frombuffer(record[body:], np.int8).copy(), state


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreStats:
    """One consistent snapshot of a :class:`ResultStore`'s counters.

    Hits and misses count *entries served* — grid points for sweep
    probes, samples for Monte-Carlo segments — mirroring how
    :class:`~repro.dse.batch.CacheStats` counts lookups.
    """

    memory_hits: int
    disk_hits: int
    misses: int
    corrupt: int
    memory_evictions: int
    objects_written: int
    segments_written: int
    bytes_read: int
    bytes_written: int
    disk_fallback: bool = False

    @property
    def hits(self) -> int:
        """Entries served from either tier."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {**asdict(self), "hit_ratio": self.hit_ratio}


#: The per-process counters behind :class:`StoreStats`.
_COUNTERS = [
    name for name in StoreStats.__dataclass_fields__ if name != "disk_fallback"
]


@dataclass
class ChunkProbe:
    """What the store knows about one grid chunk.

    ``outcomes`` has one slot per chunk row — a decoded outcome for
    stored points, ``None`` for rows the sweep must still evaluate
    (their indices are in ``missing``). ``parts`` locates the stored
    rows without decoding them: per stored record, its columns, the
    chunk rows it serves and their rows in it.
    """

    keys: list[str]
    chunk_hash: str
    outcomes: list[DesignPoint | DomainError | None]
    missing: list[int]
    memory_points: int = 0
    disk_points: int = 0
    parts: list[tuple[OutcomeRecord, list[int], list[int]]] = field(
        default_factory=list
    )

    @property
    def hit_points(self) -> int:
        return self.memory_points + self.disk_points

    @property
    def complete(self) -> bool:
        """Every row of the chunk came from the store."""
        return not self.missing


@dataclass
class _SegmentRun:
    """One sampler fingerprint's run file and its decoded segments,
    keyed by ``(start, count)``."""

    fp: str
    log: ChunkLog
    header: bytes
    segments: dict[tuple[int, int], tuple[np.ndarray, dict]] = field(
        default_factory=dict
    )

    def adopt(self, record: bytes) -> None:
        start, codes, state = decode_segment(record)
        self.segments.setdefault((start, len(codes)), (codes, state))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """A persistent, content-addressed store of factory outcomes.

    Parameters
    ----------
    root:
        Store directory (created on first write). Refuses a non-empty
        directory that is not a store — the marker file guards ``gc``
        and plain writes alike from clobbering unrelated data — and a
        store in the older ``focal-store/1`` format.
    max_memory_entries:
        LRU bound of the in-process tier, in decoded chunk records /
        Monte-Carlo segments (not points).
    """

    def __init__(
        self, root: str | os.PathLike, *, max_memory_entries: int = 64
    ) -> None:
        if max_memory_entries < 0:
            raise ValidationError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        self.root = Path(root)
        self.max_memory_entries = max_memory_entries
        self._memory: OrderedDict[tuple, object] = OrderedDict()
        self._runs: dict[str, _SegmentRun] = {}
        self._counts = dict.fromkeys(_COUNTERS, 0)
        self._disk_disabled = False
        self._marked("open")

    @classmethod
    def coerce(
        cls, value: "ResultStore | str | os.PathLike | None"
    ) -> "ResultStore | None":
        """``None`` passes through; paths become stores."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    # -- stats ---------------------------------------------------------
    def stats(self) -> StoreStats:
        """Snapshot of the per-process counters."""
        return StoreStats(**self._counts, disk_fallback=self._disk_disabled)

    def reset(self) -> None:
        """Zero the counters (keeps the memory tier)."""
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def _count(self, memory: int = 0, disk: int = 0, misses: int = 0) -> None:
        """Tally entries served from each tier and entries missed."""
        for tier, n in (("memory", memory), ("disk", disk)):
            if n:
                self._counts[f"{tier}_hits"] += n
                _metrics.count(
                    "focal_store_hits_total",
                    "result-store entries served, by tier",
                    n,
                    labels={"tier": tier},
                )
        if misses:
            self._counts["misses"] += misses
            _metrics.count(
                "focal_store_misses_total",
                "result-store entries that had to be computed",
                misses,
            )

    def _note_corrupt(self, path: Path, reason: str) -> None:
        self._counts["corrupt"] += 1
        get_logger().warning(
            kv("store.corrupt", path=str(path), reason=reason)
        )
        _metrics.count(
            "focal_store_corrupt_total",
            "damaged result-store records discarded (recomputed)",
        )

    # -- memory tier ---------------------------------------------------
    def _memory_get(self, key: tuple):
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
        return entry

    def _memory_put(self, key: tuple, value: object) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self._counts["memory_evictions"] += 1
            _metrics.count(
                "focal_store_memory_evictions_total",
                "decoded entries evicted from the store's LRU tier",
            )

    # -- disk tier -----------------------------------------------------
    def _marked(self, verb: str) -> bool:
        """Whether the root holds a store (``False`` for an absent or
        empty directory); :class:`ValidationError` for a foreign
        directory or an older store format."""
        if not self.root.exists():
            return False
        marker = self.root / MARKER_NAME
        if not marker.exists():
            if any(self.root.iterdir()):
                raise ValidationError(
                    f"refusing to {verb} {self.root}: it is not empty and "
                    f"has no {MARKER_NAME} marker, so it is not a focal "
                    "result store"
                )
            return False
        try:
            found = json.loads(marker.read_text(encoding="utf-8")).get("format")
        except (OSError, ValueError, AttributeError):
            found = None
        if found != STORE_FORMAT:
            raise ValidationError(
                f"refusing to {verb} {self.root}: its {MARKER_NAME} names format "
                f"{found!r}, not {STORE_FORMAT!r} (a {_OLD_FORMAT} store of JSON "
                "objects and index.json is from an older version; its results "
                "are recomputable: delete it or use a fresh directory)"
            )
        return True

    def _open_log(self, path: Path, header: bytes) -> tuple[ChunkLog, list[bytes]]:
        """A run file's log and its verified chunk records. Damage is
        counted and dropped; a missing, damaged or foreign header drops
        the whole file (the next write starts it over)."""
        log = ChunkLog(path)
        try:
            records, damage = log.open(header)
        except OSError as exc:
            records, damage = [], f"unreadable: {exc}"
        self._counts["bytes_read"] += log.end
        if damage is not None:
            self._note_corrupt(path, damage)
        return log, records

    def _append(
        self,
        log: ChunkLog,
        header: bytes,
        record: bytes,
        adopt: Callable[[bytes], None],
    ) -> bool:
        """Commit one chunk *record* to *log* through
        :meth:`~repro.resilience.chunklog.ChunkLog.commit` (one write +
        ``fsync``; records another writer committed meanwhile go to
        *adopt* first), creating the store marker on first use.

        Transient disk faults (EIO/ENOSPC) are retried inside
        :func:`~repro.resilience.chunklog.retry_disk_write`; when the
        retry budget is exhausted the store degrades to memory-only for
        the rest of the process instead of failing the sweep — reads
        keep working, writes become no-ops (returning ``False``), and
        the degradation is visible in stats and
        ``focal_store_disk_fallback_total``.
        """
        if self._disk_disabled:
            return False
        try:
            marker = self.root / MARKER_NAME
            if not marker.exists():
                self.root.mkdir(parents=True, exist_ok=True)
                atomic_write_text(marker, canonical_json({"format": STORE_FORMAT}))
            written = log.commit(header, record, adopt)
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS:
                raise
            self._disk_disabled = True
            get_logger().warning(
                kv(
                    "store.disk_fallback",
                    path=str(log.path),
                    error=str(exc),
                    action="store degraded to memory-only tier",
                )
            )
            _metrics.count(
                "focal_store_disk_fallback_total",
                "result stores degraded to memory-only after disk faults",
            )
            return False
        self._counts["bytes_written"] += written
        _metrics.count(
            "focal_store_bytes_written_total",
            "bytes written to result-store files",
            written,
        )
        return True

    # -- sweep tier ----------------------------------------------------
    def sweep_session(self, factory: object) -> "SweepStoreSession":
        """Open (or create) the per-factory run file for one sweep."""
        return SweepStoreSession(self, describe_factory(factory))

    # -- Monte-Carlo rng-stream segments -------------------------------
    def _segment_run(self, fingerprint: Mapping) -> _SegmentRun:
        fp = _fingerprint_hash(fingerprint)
        run = self._runs.get(fp)
        if run is None:
            header = canonical_json(
                {"format": STORE_FORMAT, "fingerprint": fingerprint}
            ).encode("utf-8")
            log, records = self._open_log(self.root / "mc" / f"{fp}.log", header)
            run = self._runs[fp] = _SegmentRun(fp, log, header)
            for record in records:
                run.adopt(record)
        return run

    def load_segment(
        self, fingerprint: Mapping, start: int, count: int
    ) -> tuple[np.ndarray, dict] | None:
        """One stored sampler segment: ``(codes, post-segment rng
        state)``, or ``None`` when the store has nothing usable."""
        run = self._segment_run(fingerprint)
        memo_key = ("mc", run.fp, start, count)
        entry = self._memory_get(memo_key)
        if entry is not None:
            self._count(memory=count)
        else:
            entry = run.segments.get((start, count))
            if entry is None:
                self._count(misses=count)
                return None
            self._memory_put(memo_key, entry)
            self._count(disk=count)
        codes, state = entry
        return np.array(codes), state

    def save_segment(
        self,
        fingerprint: Mapping,
        start: int,
        count: int,
        codes: np.ndarray,
        rng_state: Mapping,
    ) -> None:
        """Persist one sampler segment plus the rng state that follows
        it (required: the draw is data-dependent, so a later segment
        can only continue from a restored state, never by skip-ahead)."""
        run = self._segment_run(fingerprint)
        record = encode_segment(start, codes, rng_state)
        self._append(run.log, run.header, record, run.adopt)
        entry = (np.asarray(codes, dtype=np.int8), dict(rng_state))
        run.segments[(start, count)] = entry
        self._counts["segments_written"] += 1
        self._memory_put(("mc", run.fp, start, count), entry)

    # -- maintenance ---------------------------------------------------
    def _run_files(self) -> list[tuple[str, Path]]:
        return [
            (parent, path)
            for parent in ("sweeps", "mc")
            for path in sorted((self.root / parent).glob("*"))
        ]

    def ls(self) -> list[dict]:
        """One row per stored fingerprint (sweep and Monte-Carlo run
        files), oldest first."""
        if not self._marked("list"):
            return []
        rows: list[dict] = []
        for parent, path in self._run_files():
            if path.suffix != ".log" or not path.is_file():
                continue
            header, records = _read_run(ChunkLog(path))
            if parent == "sweeps":
                keys = {
                    key for record in records for key in unpack_texts(record)[0]
                }
                what, entries = header.get("factory", "?"), len(keys)
            else:
                fingerprint = header.get("fingerprint") or {}
                what = fingerprint.get("kind", fingerprint.get("factory", "?"))
                entries = len(records)
            stat = path.stat()
            rows.append(
                {
                    "kind": "sweep" if parent == "sweeps" else "mc",
                    "fingerprint": path.stem,
                    "what": str(what),
                    "entries": entries,
                    "files": 1,
                    "bytes": stat.st_size,
                    "last_used": stat.st_mtime,
                }
            )
        rows.sort(key=lambda row: row["last_used"])
        return rows

    def stat(self) -> dict:
        """Aggregate store totals plus this process's counters."""
        rows = self.ls()
        return {
            "root": str(self.root),
            "fingerprints": len(rows),
            "sweep_fingerprints": sum(1 for r in rows if r["kind"] == "sweep"),
            "mc_fingerprints": sum(1 for r in rows if r["kind"] == "mc"),
            "entries": sum(r["entries"] for r in rows),
            "files": sum(r["files"] for r in rows),
            "bytes": _tree_bytes(self.root) if self.root.exists() else 0,
            "session": self.stats().as_dict(),
        }

    def gc(self, *, max_bytes: int | None = None) -> dict:
        """Collect garbage; with *max_bytes*, also evict whole
        fingerprints oldest-first until the store fits the budget.

        Removes: temp-file litter from interrupted marker writes, stray
        files that are not run files (orphans), run files without a
        readable header, and damaged record tails (both counted as
        corrupt). Never touches files outside the store root, and
        refuses to run on a directory without the store marker.
        """
        report: dict = {
            "removed_tmp": 0,
            "removed_orphans": 0,
            "removed_corrupt": 0,
            "evicted_fingerprints": [],
            "freed_bytes": 0,
            "bytes": 0,
        }
        if not self._marked("gc"):
            return report
        before = _tree_bytes(self.root)
        for tmp in self.root.rglob("*.tmp.*"):
            tmp.unlink(missing_ok=True)
            report["removed_tmp"] += 1
        for _, path in self._run_files():
            if path.is_dir() or path.suffix != ".log":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
                report["removed_orphans"] += 1
                continue
            log = ChunkLog(path)
            if not _read_run(log)[0]:
                path.unlink()
            elif path.stat().st_size > log.end:
                log.append([])  # truncates the damaged tail
            else:
                continue
            report["removed_corrupt"] += 1
        if max_bytes is not None:
            candidates = sorted(
                (path for _, path in self._run_files() if path.is_file()),
                key=lambda path: path.stat().st_mtime,
            )
            while candidates and _tree_bytes(self.root) > max_bytes:
                victim = candidates.pop(0)
                report["evicted_fingerprints"].append(
                    f"{victim.parent.name}/{victim.stem}"
                )
                victim.unlink(missing_ok=True)
        after = _tree_bytes(self.root)
        self._memory.clear()
        self._runs.clear()
        report.update(freed_bytes=max(0, before - after), bytes=after)
        return report


def _read_run(log: ChunkLog) -> tuple[dict, list[bytes]]:
    """A run file's parsed header (``{}`` when unusable) and its
    verified chunk records, for maintenance."""
    records, _ = log.read()
    try:
        kind, head = records[0]
        header = json.loads(head) if kind == HEADER else {}
    except (IndexError, ValueError):
        header = {}
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        return {}, []
    return header, [payload for kind, payload in records[1:] if kind == CHUNK]


def _tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


# ----------------------------------------------------------------------
# Sweep sessions
# ----------------------------------------------------------------------
class SweepStoreSession:
    """One sweep's view of the store, bound to one factory identity.

    Opening the session scans the factory's run file once and rebuilds
    its point-key index from the records; probes are answered from it
    (memory tier first, then the records read at open), and :meth:`put`
    commits each newly evaluated chunk as one appended record.
    """

    def __init__(self, store: ResultStore, factory_desc: str) -> None:
        self.store = store
        self.factory = factory_desc
        self.fp = _fingerprint_hash({"factory": factory_desc})
        self.path = store.root / "sweeps" / f"{self.fp}.log"
        self._header = canonical_json(
            {"format": STORE_FORMAT, "factory": factory_desc}
        ).encode("utf-8")
        # Per record: its payload, the offset of its outcome columns and
        # its chunk hash; then chunk hash -> record, point key ->
        # (record, row).
        self._records: list[tuple[bytes, int, str]] = []
        self._chunks: dict[str, int] = {}
        self._points: dict[str, tuple[int, int]] = {}
        self._probed = False
        self._log, records = store._open_log(self.path, self._header)
        for record in records:
            self._adopt(record)

    def _adopt(self, record: bytes) -> None:
        keys, offset = unpack_texts(record)
        self._index(keys, record, offset, chunk_store_key(keys))

    def _index(
        self, keys: list[str], record: bytes, offset: int, chunk_hash: str
    ) -> None:
        index = len(self._records)
        self._records.append((record, offset, chunk_hash))
        self._chunks.setdefault(chunk_hash, index)
        # A point stored twice has the same outcome in both records, so
        # the later one may win.
        self._points.update(zip(keys, zip(repeat(index), range(len(keys)))))

    # -- reading -------------------------------------------------------
    def probe(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """What the store holds for *chunk*, decoded (never raises; a
        fully unknown chunk comes back with every row missing)."""
        probe = self.locate(chunk)
        for stored, rows, sources in probe.parts:
            outcomes = stored.outcomes()
            for row, source in zip(rows, sources):
                probe.outcomes[row] = outcomes[source]
        return probe

    def locate(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """Where the store holds *chunk*'s points (``parts``), nothing
        decoded into objects; tallied per tier like :meth:`probe`."""
        self._probed = True
        keys = [point_store_key(params) for params in chunk]
        chunk_hash = chunk_store_key(keys)
        index = self._chunks.get(chunk_hash)
        wanted: dict[int, tuple[list[int], list[int]]] = {}
        if index is not None:
            # The fast path a warm re-sweep with unchanged chunking hits.
            rows = list(range(len(chunk)))
            wanted[index] = (rows, rows)
        else:
            for row, key in enumerate(keys):
                entry = self._points.get(key)
                if entry is not None:
                    rows, sources = wanted.setdefault(entry[0], ([], []))
                    rows.append(row)
                    sources.append(entry[1])
        probe = ChunkProbe(keys, chunk_hash, [None] * len(chunk), [])
        served = np.zeros(len(chunk), dtype=bool)
        for index, (rows, sources) in wanted.items():
            stored, tier = self._load(index)
            probe.parts.append((stored, rows, sources))
            served[rows] = True
            if tier == "memory":
                probe.memory_points += len(rows)
            else:
                probe.disk_points += len(rows)
        probe.missing = np.flatnonzero(~served).tolist()
        self.store._count(probe.memory_points, probe.disk_points, len(probe.missing))
        return probe

    def _load(self, index: int) -> tuple[OutcomeRecord, str]:
        """One stored record read as columns (LRU'd per process), and
        the tier that served it."""
        record, offset, chunk_hash = self._records[index]
        memo_key = ("sweep", self.fp, chunk_hash)
        cached = self.store._memory_get(memo_key)
        if cached is not None:
            return cached, "memory"
        stored = OutcomeRecord(record, offset)
        self.store._memory_put(memo_key, stored)
        return stored, "disk"

    # -- writing -------------------------------------------------------
    def put(
        self,
        chunk: Sequence[Mapping[str, object]],
        outcomes: Sequence[DesignPoint | DomainError],
        probe: ChunkProbe | None = None,
    ) -> None:
        """Store one fully evaluated chunk as one appended record
        (idempotent: a chunk the run file already holds is not
        appended again).

        Chunks holding quarantined points are not stored: a
        :class:`~repro.core.errors.QuarantinedPoint` is containment
        state (the quarantine ledger's job), not a factory outcome, and
        must not be served to a later sweep running without the ledger.
        """
        if any(isinstance(outcome, QuarantinedPoint) for outcome in outcomes):
            return
        if probe is not None:
            keys, chunk_hash = probe.keys, probe.chunk_hash
        else:
            keys = [point_store_key(params) for params in chunk]
            chunk_hash = chunk_store_key(keys)
        if chunk_hash in self._chunks:
            return
        head = pack_texts(keys)
        record = head + encode_outcomes(outcomes)
        if self.store._append(self._log, self._header, record, self._adopt):
            self.store._counts["objects_written"] += 1
        self._index(keys, record, len(head), chunk_hash)
        self.store._memory_put(
            ("sweep", self.fp, chunk_hash), OutcomeRecord(record, len(head))
        )

    def flush(self) -> None:
        """Nothing is pending — every :meth:`put` is committed when it
        returns. After a sweep that probed the store, freshen the run
        file's mtime so ``gc`` eviction ordering sees the use."""
        if self._probed:
            try:
                os.utime(self.path)
            except FileNotFoundError:
                pass
