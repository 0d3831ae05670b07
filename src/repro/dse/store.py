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
:func:`~repro.resilience.checkpoint.describe_factory`, and a grid point's
key is a row of key columns (:class:`PointKeys`): per axis, in sorted
name order, a type tag and a 64-bit payload. Two points share a key
exactly when their :func:`point_store_key` strings are equal — int 2
never aliases float 2.0 or ``True``, floats compare bit for bit (``-0.0``
is not ``0.0``; every NaN is one NaN) — so they collide exactly when the
factory would compute bit-identical outcomes for them. Nothing else
enters the key — not chunk size, not worker count, not baseline or
weight — so a store written at ``chunk_size=4096, workers=4`` serves a
reader at ``chunk_size=100, workers=0`` bit-exactly (outcomes depend
only on ``factory(params)``). A sweep never builds a key per row: each
axis value of its grid is encoded once (:class:`GridKeys`), a chunk is
looked up by the digest of its key bytes, and any other rows are
matched against every stored key in one vectorized sort-join. A
sweep of the very grid and chunk size that wrote a record skips even
the digest: each record carries its writer's grid tag
(:meth:`GridKeys.tag`) and chunk index, and chunk *k* of a same-tag
sweep maps to the record stamped *k* (:meth:`SweepStoreSession.at`),
once its row count checks out.

The store is its append-only run files
(:class:`~repro.resilience.chunklog.ChunkLog`), one per factory or
sampler fingerprint; a sweep session or sampler run holds the records
it opened, so nothing is cached beside them::

    focal-store.json   # marker: {"format": "focal-store/4"}
    sweeps/<fp>.log    # header {factory}; per stored chunk: head (key
                       #   digest, writer grid tag, chunk index, key
                       #   size), key columns + outcome record
    mc/<fp>.log        # header {fingerprint}; per Monte-Carlo segment:
                       #   int8 codes + post-segment rng state

Storing a chunk appends one checksummed record with one write; a run
file fsyncs at most once per
:data:`~repro.resilience.chunklog.SYNC_INTERVAL_S`, and the barrier
every sweep (:meth:`SweepStoreSession.flush`) and sampler run
(:meth:`ResultStore.sync`) calls where it ends fsyncs the rest. Opening
a run file indexes its records by key digest and by grid tag and chunk
(the key columns are read on the first sweep that needs a join).
Damage is never an error and never a wrong answer: a torn or corrupt record is dropped with
everything after it, counted in ``focal_store_corrupt_total``, and its
points recompute; the next append truncates the damage.
``ResultStore.gc`` removes temp litter, stray files, damaged tails and
headerless run files, and with ``max_bytes`` evicts whole fingerprints
oldest-first. A store of an older format — ``focal-store/1`` (JSON
objects plus ``index.json``), ``focal-store/2`` (point-key strings) or
``focal-store/3`` (records without grid tags) — is refused with an
error naming that format.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import (
    CheckpointError,
    DomainError,
    QuarantinedPoint,
    ValidationError,
)
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
    "PointKeys",
    "GridKeys",
    "point_store_key",
]

#: Format tag of the store marker and of every run-file header.
STORE_FORMAT = "focal-store/4"

#: Name of the marker file identifying a directory as a result store
#: (``gc`` refuses to delete anything from a directory without it).
MARKER_NAME = "focal-store.json"


# ----------------------------------------------------------------------
# Point keys as columns (point_store_key is the string form they
# replace on store paths; the quarantine ledger still keys by it)
# ----------------------------------------------------------------------
#: Key tags. Strings and ints outside int64 index a value table.
_INT, _FLOAT, _BOOL, _NONE, _STR, _BIG = range(6)
_INT64 = range(-(2**63), 2**63)
_NAN = struct.unpack("<q", struct.pack("<d", float("nan")))[0]


def _key_value(value: object) -> tuple[int, int | str]:
    """One axis value as ``(tag, payload)``, with
    :func:`point_store_key`'s classes: bools, ints (NumPy ints too),
    strings and ``None`` keep their type, anything else is a float
    compared by its bit pattern (every NaN as one)."""
    if isinstance(value, bool):
        return _BOOL, int(value)
    if isinstance(value, (int, np.integer)):
        number = int(value)
        return (_INT, number) if number in _INT64 else (_BIG, str(number))
    if isinstance(value, str):
        return _STR, value
    if value is None:
        return _NONE, 0
    number = float(value)
    if number != number:
        return _FLOAT, _NAN
    return _FLOAT, struct.unpack("<q", struct.pack("<d", number))[0]


def _key_column(
    values: Sequence[object], table: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """One axis's key cells for *values*: tags and payloads, texts
    numbered in *table* in first-use order. An axis of plain floats or
    of plain int64-range ints is encoded in one pass."""
    kinds = set(map(type, values))
    if kinds == {float}:
        column = np.array(values, np.float64)
        bits = column.view(np.int64).copy()
        bits[np.isnan(column)] = _NAN
        return np.full(len(values), _FLOAT, np.uint8), bits
    if kinds == {int} and -(2**63) <= min(values) and max(values) < 2**63:
        return np.full(len(values), _INT, np.uint8), np.array(values, np.int64)
    tags, bits = [], []
    for tag, payload in map(_key_value, values):
        tags.append(tag)
        bits.append(table.setdefault(payload, len(table)) if tag >= _STR else payload)
    return np.array(tags, np.uint8), np.array(bits, np.int64)


def _factorize(tags: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct ``(tag, payload)`` pairs of one key column and each
    row's position among them."""
    pairs = np.stack((tags.astype(np.int64), bits), axis=1)
    distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return distinct[:, 0], distinct[:, 1], inverse.reshape(-1)


def _digest(block: bytes) -> bytes:
    return hashlib.sha256(block).digest()[:16]


class PointKeys:
    """The keys of a run of grid points as columns: ``tags`` (u8) and
    ``bits`` (int64) of shape ``(axes, rows)``, axes in sorted
    ``names`` order. A payload is an int64 value, a float's bit pattern,
    0/1 for a bool, 0 for ``None``, or, for a string or an int outside
    int64, its position in ``texts`` (in first-use order, so equal rows
    give equal bytes whichever side encoded them)."""

    def __init__(
        self, names: list[str], tags: np.ndarray, bits: np.ndarray, texts: list[str]
    ) -> None:
        self.names, self.tags, self.bits, self.texts = names, tags, bits, texts
        self._digest: bytes | None = None

    def __len__(self) -> int:
        return self.tags.shape[1]

    @classmethod
    def of_params(cls, chunk: Sequence[Mapping[str, object]]) -> "PointKeys":
        """The keys of parameter dicts sharing one axis set."""
        names = sorted(chunk[0]) if chunk else []
        table: dict[str, int] = {}
        columns = [
            _key_column([params[name] for params in chunk], table) for name in names
        ]
        shape = (len(names), len(chunk))
        tags = np.array([tags for tags, _ in columns], np.uint8).reshape(shape)
        bits = np.array([bits for _, bits in columns], np.int64).reshape(shape)
        return cls(names, tags, bits, list(table))

    def to_bytes(self) -> bytes:
        """The keys as a record stores them."""
        return b"".join(
            (
                pack_texts(self.names),
                pack_texts(self.texts),
                struct.pack("<I", len(self)),
                self.tags.tobytes(),
                self.bits.astype("<i8", copy=False).tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "PointKeys":
        names, offset = unpack_texts(data, offset)
        texts, offset = unpack_texts(data, offset)
        (n,) = struct.unpack_from("<I", data, offset)
        cells = len(names) * n
        tags = np.frombuffer(data, np.uint8, cells, offset + 4)
        bits = np.frombuffer(data, "<i8", cells, offset + 4 + cells)
        return cls(names, tags.reshape(-1, n), bits.reshape(-1, n), texts)

    def digest(self) -> bytes:
        """The digest of :meth:`to_bytes`, which keys a whole chunk
        (computed once; the bytes are not kept)."""
        if self._digest is None:
            self._digest = _digest(self.to_bytes())
        return self._digest

    def query(self, rows: None = None) -> list[tuple[np.ndarray, ...]]:
        """These keys as a :meth:`SweepStoreSession.join` query: each
        axis's distinct values, and per row its position among them."""
        return [_factorize(*column) for column in zip(self.tags, self.bits)]


class GridKeys:
    """A grid's point keys without a key per row: every axis value of
    the grid is encoded once, and any rows' key columns are gathered by
    stride arithmetic (*index* is the sweep's
    :class:`~repro.dse.batch._GridIndex`)."""

    def __init__(self, index) -> None:
        axes = sorted(
            zip(index.names, index.values, index.strides, index.sizes),
            key=lambda axis: axis[0],
        )
        self.names = [axis[0] for axis in axes]
        self.strides = [axis[2] for axis in axes]
        self.sizes = [axis[3] for axis in axes]
        self.total = index.total
        table: dict[str, int] = {}
        self.tags, self.bits, self.distinct = [], [], []
        for _, values, _, _ in axes:
            tags, bits = _key_column(values, table)
            self.tags.append(tags)
            self.bits.append(bits)
            self.distinct.append(_factorize(tags, bits))
        self.texts = list(table)
        self._columns: tuple[np.ndarray, np.ndarray] | None = None

    def tag(self, size: int) -> bytes:
        """This grid's tag at chunk *size*: a digest of its axes (names,
        strides, sizes, key cells) and *size*. Two sweeps share a tag
        exactly when chunk *k* holds the same keys in both, so a record
        stamped with the tag and *k* holds chunk *k*'s keys."""
        shape = np.array([*self.strides, *self.sizes, size], "<i8")
        cells = np.concatenate([*self.tags, *self.bits]).astype("<i8")
        return _digest(
            pack_texts(self.names)
            + pack_texts(self.texts)
            + shape.tobytes()
            + cells.tobytes()
        )

    def _positions(self, rows: np.ndarray) -> list[np.ndarray]:
        axes = zip(self.strides, self.sizes)
        return [(rows // stride) % size for stride, size in axes]

    def block(self, lo: int, hi: int) -> PointKeys:
        """The keys of grid rows ``[lo, hi)``, byte for byte what
        :meth:`PointKeys.of_params` makes of their parameter dicts."""
        if self._columns is None:
            # Every row's key cells at once: in row-major order an axis
            # repeats each value `stride` times, the whole run tiled.
            axes = list(zip(self.strides, self.sizes))
            self._columns = tuple(
                np.stack(
                    [
                        np.tile(np.repeat(cells, stride), self.total // (stride * size))
                        for cells, (stride, size) in zip(column, axes)
                    ]
                )
                for column in (self.tags, self.bits)
            )
        tags, bits = self._columns[0][:, lo:hi], self._columns[1][:, lo:hi]
        texts: list[str] = []
        cells = tags >= _STR
        if self.texts and cells.any():
            # Grid text ids become the block's own value-table positions.
            bits = bits.copy()
            ids = bits[cells]
            unique, first = np.unique(ids, return_index=True)
            order = np.argsort(first)
            local = np.empty(len(unique), np.int64)
            local[order] = np.arange(len(unique))
            bits[cells] = local[np.searchsorted(unique, ids)]
            texts = [self.texts[i] for i in unique[order].tolist()]
        return PointKeys(self.names, tags, bits, texts)

    def query(self, rows: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """The keys of grid *rows* as a :meth:`SweepStoreSession.join`
        query, like :meth:`PointKeys.query`."""
        positions = self._positions(rows)
        return [
            (tags, bits, inverse[at])
            for (tags, bits, inverse), at in zip(self.distinct, positions)
        ]


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
    :class:`~repro.dse.batch.CacheStats` counts lookups. A hit is a
    disk hit the first time a sweep session or sampler run reads its
    record, and a memory hit after that, or once it wrote the record.
    ``positional_chunks`` counts the sweep chunks served by position
    (:meth:`SweepStoreSession.at`).
    """

    memory_hits: int
    disk_hits: int
    misses: int
    corrupt: int
    objects_written: int
    segments_written: int
    bytes_read: int
    bytes_written: int
    positional_chunks: int
    disk_fallback: bool = False

    @property
    def hits(self) -> int:
        """Entries served, from disk or memory."""
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
    """One sampler fingerprint's run file, its decoded segments keyed by
    ``(start, count)``, and the ones this run already served or wrote."""

    log: ChunkLog
    header: bytes
    segments: dict[tuple[int, int], tuple[np.ndarray, dict]] = field(
        default_factory=dict
    )
    served: set[tuple[int, int]] = field(default_factory=set)

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
        store of an older format.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
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
        """Zero the counters (keeps what sessions and runs hold)."""
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def _count(self, memory: int = 0, disk: int = 0, misses: int = 0) -> None:
        """Tally entries served from memory and disk, and entries
        missed."""
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

    # -- run files -----------------------------------------------------
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
                f"{found!r}, not {STORE_FORMAT!r} (a store from an older version; "
                "its results are recomputable: delete it or use a fresh directory)"
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
        :meth:`~repro.resilience.chunklog.ChunkLog.commit` (one write;
        records another writer committed meanwhile go to *adopt*
        first), creating the store marker on first use.

        Transient disk faults (EIO/ENOSPC) are retried inside
        :func:`~repro.resilience.chunklog.retry_disk_write`; when the
        retry budget is exhausted the store stops writing for the rest
        of the process instead of failing the sweep — reads keep
        working, sessions and runs keep what they computed, writes
        become no-ops (returning ``False``), and the degradation is
        visible in stats and ``focal_store_disk_fallback_total``.
        """

        def commit() -> int:
            marker = self.root / MARKER_NAME
            if not marker.exists():
                self.root.mkdir(parents=True, exist_ok=True)
                atomic_write_text(marker, canonical_json({"format": STORE_FORMAT}))
            return log.commit(header, record, adopt)

        written = self._disk(log, commit)
        if written is None:
            return False
        self._counts["bytes_written"] += written
        _metrics.count(
            "focal_store_bytes_written_total",
            "bytes written to result-store files",
            written,
        )
        return True

    def _disk(self, log: ChunkLog, write: Callable[[], object]) -> object:
        """*write*'s result (a commit to *log*, or its run-end
        :meth:`~repro.resilience.chunklog.ChunkLog.sync` barrier), or
        ``None`` when the store does not write (any more): a transient
        disk fault that outlived its retries disables writes for the
        rest of the process."""
        if self._disk_disabled:
            return None
        try:
            return write()
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS:
                raise
            self._disk_disabled = True
            get_logger().warning(
                kv(
                    "store.disk_fallback",
                    path=str(log.path),
                    error=str(exc),
                    action="store writes disabled for this process",
                )
            )
            _metrics.count(
                "focal_store_disk_fallback_total",
                "result stores that stopped writing after disk faults",
            )
            return None

    def sync(self) -> None:
        """The barrier a Monte-Carlo run calls where it ends: fsync
        every sampler run file this store appended to since its last
        ``fsync``."""
        for run in self._runs.values():
            self._disk(run.log, run.log.sync)

    # -- sweep tier ----------------------------------------------------
    def sweep_session(self, factory: object) -> "SweepStoreSession":
        """Open (or create) the per-factory run file for one sweep."""
        return SweepStoreSession(self, factory)

    # -- Monte-Carlo rng-stream segments -------------------------------
    def _segment_run(self, fingerprint: Mapping) -> _SegmentRun:
        fp = _fingerprint_hash(fingerprint)
        run = self._runs.get(fp)
        if run is None:
            header = canonical_json(
                {"format": STORE_FORMAT, "fingerprint": fingerprint}
            ).encode("utf-8")
            log, records = self._open_log(self.root / "mc" / f"{fp}.log", header)
            run = self._runs[fp] = _SegmentRun(log, header)
            for record in records:
                run.adopt(record)
        return run

    def load_segment(
        self, fingerprint: Mapping, start: int, count: int
    ) -> tuple[np.ndarray, dict] | None:
        """One stored sampler segment: ``(codes, post-segment rng
        state)``, or ``None`` when the store has nothing usable."""
        run = self._segment_run(fingerprint)
        entry = run.segments.get((start, count))
        if entry is None:
            self._count(misses=count)
            return None
        if (start, count) in run.served:
            self._count(memory=count)
        else:
            run.served.add((start, count))
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
        run.served.add((start, count))
        self._counts["segments_written"] += 1

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
                columns = _key_columns(records, {}).values()
                entries = sum(
                    len(np.unique(np.concatenate((tags, bits)), axis=1).T)
                    for tags, bits, _, _ in columns
                )
                what = header.get("factory", "?")
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
                log.sync()
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


def _key_columns(
    records: Sequence[bytes], texts: dict[str, int]
) -> dict[tuple, tuple[np.ndarray, ...]]:
    """The key columns of sweep *records*, by axis names: tags, payloads
    (value-table positions turned into ids in *texts*, grown as needed,
    so keys of different records compare), and each key's record and
    row."""
    groups: dict[tuple, list] = {}
    for index, record in enumerate(records):
        if not record:
            continue  # discarded by SweepStoreSession._discard
        keys = PointKeys.from_bytes(record, _RECORD.size)
        bits = keys.bits
        cells = keys.tags >= _STR
        if cells.any():
            ids = [texts.setdefault(text, len(texts)) for text in keys.texts]
            bits = bits.copy()
            bits[cells] = np.array(ids, np.int64)[bits[cells]]
        groups.setdefault(tuple(keys.names), []).append((keys.tags, bits, index))
    return {
        names: (
            np.concatenate([tags for tags, _, _ in parts], axis=1),
            np.concatenate([bits for _, bits, _ in parts], axis=1),
            np.concatenate([np.full(tags.shape[1], i) for tags, _, i in parts]),
            np.concatenate([np.arange(tags.shape[1]) for tags, _, _ in parts]),
        )
        for names, parts in groups.items()
    }


def _tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


# ----------------------------------------------------------------------
# Sweep sessions
# ----------------------------------------------------------------------
#: A sweep record's head: the digest of its key columns, its writer's
#: grid tag (:meth:`GridKeys.tag`; zero bytes for a record not written
#: as a grid chunk), its chunk index in that grid, and the size of its
#: key columns.
_RECORD = struct.Struct("<16s16sII")

#: The grid tag of a record no grid sweep wrote (:meth:`SweepStoreSession.put`).
NO_GRID = bytes(16)


class SweepStoreSession:
    """One sweep's view of the store, bound to one factory.

    Opening the session scans the factory's run file once and indexes
    its records by key digest and by writer grid and chunk. A chunk of
    the grid that wrote a record is served by position (:meth:`at`: no
    key bytes, no digest); a chunk whose key bytes a record holds is
    served whole (:meth:`find`); and any other rows are matched against
    the key columns of every record in one sort-join (:meth:`join`),
    built on first use. :meth:`put_record` commits each newly
    evaluated chunk as one appended record.
    """

    def __init__(self, store: ResultStore, factory: object) -> None:
        self.store = store
        self._factory = factory
        self.factory = describe_factory(factory)
        self.fp = _fingerprint_hash({"factory": self.factory})
        self.path = store.root / "sweeps" / f"{self.fp}.log"
        self._header = canonical_json(
            {"format": STORE_FORMAT, "factory": self.factory}
        ).encode("utf-8")
        # Per record: its payload and digest; digest -> record; (grid
        # tag, chunk) -> record; the records read as columns so far, by
        # index, and those served or written so far; the join's stored
        # key columns by axis names (None until a join needs them) and
        # the text ids they share.
        self._records: list[tuple[bytes, bytes]] = []
        self._chunks: dict[bytes, int] = {}
        self._grid_chunks: dict[tuple[bytes, int], int] = {}
        self._loaded: dict[int, OutcomeRecord] = {}
        self._served: set[int] = set()
        self._stored: dict[tuple, tuple[np.ndarray, ...]] | None = None
        self._texts: dict[str, int] = {}
        self._probed = False
        self._log, records = store._open_log(self.path, self._header)
        for record in records:
            self._adopt(record)

    def _adopt(self, record: bytes) -> None:
        digest, tag, chunk, _ = _RECORD.unpack_from(record)
        self._chunks.setdefault(digest, len(self._records))
        self._grid_chunks[tag, chunk] = len(self._records)
        self._records.append((record, digest))
        self._stored = None

    # -- reading -------------------------------------------------------
    def at(
        self, tag: bytes, chunk: int, rows: int
    ) -> tuple[OutcomeRecord, str] | None:
        """The record a sweep of the grid with *tag* wrote as its chunk
        *chunk*, loaded (see :meth:`load`) when it holds *rows* rows, or
        ``None``. The fast path of a warm same-grid re-sweep: no key
        bytes, no digest. A record that does not decode or holds
        another row count is discarded, counted as corrupt."""
        self._probed = True
        index = self._decoded(self._grid_chunks.get((tag, chunk)))
        if index is None:
            return None
        if len(self._loaded[index]) != rows:
            # Its checksum held, yet it is not this chunk's record.
            self._discard(index, f"{len(self._loaded[index])} rows")
            return None
        self.store._counts["positional_chunks"] += 1
        return self.load(index)

    def find(self, keys: PointKeys) -> int | None:
        """The record holding exactly the chunk *keys* (the fast path a
        warm re-sweep with unchanged chunking hits: one digest, no
        join), or ``None``."""
        self._probed = True
        return self._decoded(self._chunks.get(keys.digest()))

    def join(
        self, keys: "PointKeys | GridKeys", asked: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row of *keys* (a :class:`PointKeys`, or the grid rows
        *asked* of a :class:`GridKeys`), the record holding its key and
        its row there (-1 and 0 where no record does; a key stored twice
        is served by the later record). One vectorized sort-join: each
        axis maps the stored payloads onto the query's distinct values,
        the per-axis positions combine into one int64 code per row, and
        the queried codes are looked up in the sorted stored ones.
        Every record it names decodes: one that does not is discarded
        and the join runs again without it."""
        self._probed = True
        while True:
            record, row = self._join(keys, asked)
            named = np.flatnonzero(np.bincount(record[record >= 0])).tolist()
            if all(self._decoded(index) is not None for index in named):
                return record, row

    def _join(
        self, keys: "PointKeys | GridKeys", asked: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        count = len(keys) if asked is None else len(asked)
        record = np.full(count, -1, np.int64)
        row = np.zeros(count, np.int64)
        stored = self._stored_keys().get(tuple(keys.names)) if count else None
        if stored is None:
            return record, row
        axes = keys.query(asked)
        tags, bits, records, rows = stored
        ids = [self._texts.get(text, -1) for text in keys.texts]
        ids = np.array(ids, np.int64)
        keep = np.ones(len(records), dtype=bool)
        code = np.zeros(len(records), np.int64)
        queried = np.zeros(count, np.int64)
        bound = 1
        for axis, (values, payloads, positions) in enumerate(axes):
            cells = values >= _STR
            if cells.any():
                payloads = payloads.copy()
                payloads[cells] = ids[payloads[cells]]
            position = _lookup(values, payloads, tags[axis], bits[axis])
            keep &= position >= 0
            size = len(values)
            if bound * size >= 2**62:
                # Renumber the codes seen so far densely before they
                # could overflow.
                both = np.concatenate((queried, code[keep]))
                unique, inverse = np.unique(both, return_inverse=True)
                queried, code[keep] = inverse[:count], inverse[count:]
                bound = len(unique)
            queried = queried * size + positions
            code = code * size + np.maximum(position, 0)
            bound *= size
        kept = np.flatnonzero(keep)
        order = kept[np.argsort(code[kept], kind="stable")]
        ordered = code[order]
        at = np.searchsorted(ordered, queried, side="right") - 1
        hit = at >= 0
        hit[hit] = ordered[at[hit]] == queried[hit]
        source = order[at[hit]]
        record[hit], row[hit] = records[source], rows[source]
        return record, row

    def _stored_keys(self) -> dict[tuple, tuple[np.ndarray, ...]]:
        """Every record's key columns (:func:`_key_columns`), read on
        the first join after a record was added."""
        if self._stored is None:
            records = [record for record, _ in self._records]
            self._stored = _key_columns(records, self._texts)
        return self._stored

    def load(self, index: int) -> tuple[OutcomeRecord, str]:
        """Record *index* (one :meth:`at`, :meth:`find` or :meth:`join`
        named) read as columns, and the tier that served it: ``"disk"``
        the first time this session serves the record, ``"memory"``
        after that or once it wrote the record."""
        if index in self._served:
            return self._loaded[index], "memory"
        self._served.add(index)
        return self._loaded[index], "disk"

    def _decoded(self, index: int | None) -> int | None:
        """*index* once its record's outcomes are read as columns, or
        ``None`` (also for a record that does not decode: its checksum
        held, yet its bytes are not a record, so it is discarded)."""
        if index is None or index in self._loaded:
            return index
        record, _ = self._records[index]
        size = _RECORD.unpack_from(record)[3]
        try:
            self._loaded[index] = OutcomeRecord(record, _RECORD.size + size)
        except CheckpointError as exc:
            self._discard(index, str(exc))
            return None
        return index

    def _discard(self, index: int, damage: str) -> None:
        """Drop record *index* from every lookup, the join's included,
        and count it as corrupt, so the rows it held recompute."""
        record, digest = self._records[index]
        _, tag, chunk, _ = _RECORD.unpack_from(record)
        if self._grid_chunks.get((tag, chunk)) == index:
            del self._grid_chunks[tag, chunk]
        if self._chunks.get(digest) == index:
            del self._chunks[digest]
        self._records[index] = (b"", digest)
        self._loaded.pop(index, None)
        self._stored = None
        self.store._note_corrupt(self.path, f"chunk {chunk} record: {damage}")

    def count(self, memory: int = 0, disk: int = 0, misses: int = 0) -> None:
        """Tally points served from each tier and points missed."""
        self.store._count(memory, disk, misses)

    def probe(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """What the store holds for *chunk*, decoded (never raises; a
        fully unknown chunk comes back with every row missing). A
        nameless record's designs take the factory's own outcome."""
        probe = self.locate(chunk)
        for stored, rows, sources in probe.parts:
            outcomes = stored.outcomes()
            for row, source in zip(rows, sources):
                outcome = outcomes[source]
                probe.outcomes[row] = (
                    self._factory(chunk[row]) if outcome is None else outcome
                )
        return probe

    def locate(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """Where the store holds *chunk*'s points (``parts``), nothing
        decoded into objects; tallied per tier like :meth:`probe`."""
        keys = PointKeys.of_params(chunk)
        index = self.find(keys)
        if index is not None:
            records = np.full(len(chunk), index)
            rows = np.arange(len(chunk))
        else:
            records, rows = self.join(keys)
        probe = ChunkProbe([None] * len(chunk), [])
        for index in np.unique(records[records >= 0]).tolist():
            served = np.flatnonzero(records == index)
            stored, tier = self.load(index)
            probe.parts.append((stored, served.tolist(), rows[served].tolist()))
            if tier == "memory":
                probe.memory_points += len(served)
            else:
                probe.disk_points += len(served)
        probe.missing = np.flatnonzero(records < 0).tolist()
        self.count(probe.memory_points, probe.disk_points, len(probe.missing))
        return probe

    # -- writing -------------------------------------------------------
    def put(
        self,
        chunk: Sequence[Mapping[str, object]],
        outcomes: Sequence[DesignPoint | DomainError],
    ) -> None:
        """Store one fully evaluated chunk of parameter dicts and their
        outcomes, names included (see :meth:`put_record`).

        Chunks holding quarantined points are not stored: a
        :class:`~repro.core.errors.QuarantinedPoint` is containment
        state (the quarantine ledger's job), not a factory outcome, and
        must not be served to a later sweep running without the ledger.
        """
        if any(isinstance(outcome, QuarantinedPoint) for outcome in outcomes):
            return
        self.put_record(PointKeys.of_params(chunk), encode_outcomes(outcomes))

    def put_record(
        self, keys: PointKeys, outcomes: bytes, tag: bytes = NO_GRID, chunk: int = 0
    ) -> None:
        """Store one chunk's *outcomes* record under its *keys* as one
        appended record, stamped with the writing grid's *tag* and the
        *chunk* index (idempotent: a chunk the run file already holds is
        not appended again)."""
        block, digest = keys.to_bytes(), keys.digest()
        if digest in self._chunks:
            return
        record = _RECORD.pack(digest, tag, chunk, len(block)) + block + outcomes
        if self.store._append(self._log, self._header, record, self._adopt):
            self.store._counts["objects_written"] += 1
        self._adopt(record)
        index = len(self._records) - 1
        self._loaded[index] = OutcomeRecord(record, _RECORD.size + len(block))
        self._served.add(index)

    def flush(self) -> None:
        """The barrier a sweep calls where it ends: fsync the records
        :meth:`put` appended since the run file's last ``fsync``. After
        a sweep that probed the store, freshen the run file's mtime so
        ``gc`` eviction ordering sees the use."""
        self.store._disk(self._log, self._log.sync)
        if self._probed:
            try:
                os.utime(self.path)
            except FileNotFoundError:
                pass


def _lookup(
    values: np.ndarray, payloads: np.ndarray, tags: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Per stored key cell ``(tags, bits)``, its position among the
    query's distinct ``(values, payloads)`` of one axis, or -1."""
    found = np.full(len(tags), -1, np.int64)
    for tag in np.unique(values).tolist():
        mine = np.flatnonzero(values == tag)
        mine = mine[np.argsort(payloads[mine])]
        ordered = payloads[mine]
        cells = np.flatnonzero(tags == tag)
        at = np.minimum(np.searchsorted(ordered, bits[cells]), len(ordered) - 1)
        hit = ordered[at] == bits[cells]
        found[cells[hit]] = mine[at[hit]]
    return found
