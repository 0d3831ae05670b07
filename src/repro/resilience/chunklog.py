"""The one durable file format: an append-only log of checksummed records.

Checkpoints, the result store's run files and the quarantine ledger are
:class:`ChunkLog` files: ``MAGIC record*``, each record ``length:u32le
kind:u8 crc32:u32le payload``, the CRC-32 covering length, kind and
payload. The first record is a :data:`HEADER` (canonical JSON naming the
format and the run's fingerprint), each later one a :data:`CHUNK` (raw
little-endian column bytes, or one quarantined point). A chunk commit is
one ``write``; nothing is rewritten, so a run writes exactly the bytes
its file holds.

Durability is a group commit: an append fsyncs only when its handle's
last ``fsync`` is :data:`SYNC_INTERVAL_S` old, and otherwise leaves the
handle :attr:`~ChunkLog.dirty`. :meth:`ChunkLog.sync` is the barrier
every durable run calls where it ends, on every exit path, so a run that
returns is wholly on disk. A killed process loses no record it wrote
(the page cache holds it). A host crash loses at most the records a
handle appended in the one interval after its last ``fsync``, and the
verified prefix read turns that loss into a recompute.

:meth:`ChunkLog.read` returns the longest prefix of whole, verified
records and names the damage that ended it (torn tail, flipped bit,
foreign file); nothing past it is ever returned, and the next append
truncates it. :meth:`ChunkLog.open` and :meth:`ChunkLog.commit` add the
header check and the adoption of records another writer appended, for
files several handles — in one process or several — share: a commit
holds an exclusive ``flock`` on the file from adopting to appending, so
concurrent writers never overwrite each other.

Every durable write goes through :func:`retry_disk_write`, which retries
transient disk faults and fires the chaos suite's
:func:`set_disk_fault_hook`.
"""

from __future__ import annotations

import errno
import fcntl
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Callable, Sequence

from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv

__all__ = [
    "SYNC_INTERVAL_S",
    "MAGIC",
    "HEADER",
    "CHUNK",
    "ChunkLog",
    "retry_disk_write",
    "set_disk_fault_hook",
    "TRANSIENT_DISK_ERRNOS",
]

#: First bytes of every log file.
MAGIC = b"focal-log/1\n"

#: Record kinds: the run's identity, then one record per committed chunk.
HEADER, CHUNK = 0, 1

_FRAME = struct.Struct("<IBI")

#: ``OSError`` errnos treated as transient disk faults: a wedged I/O
#: path (EIO) or a momentarily full volume (ENOSPC) often clears within
#: milliseconds; anything else (EACCES, EROFS, ...) is configuration
#: and propagates immediately.
TRANSIENT_DISK_ERRNOS = (errno.EIO, errno.ENOSPC)

#: Longest time, in seconds, a handle leaves appended records without an
#: ``fsync``: an append fsyncs once the handle's last ``fsync`` is this
#: old, and the run-end :meth:`ChunkLog.sync` barrier covers the rest.
SYNC_INTERVAL_S = 1.0

#: Bounded retry budget for transient disk faults, and the backoff base
#: between attempts (doubled each retry).
DISK_RETRIES = 3
DISK_BACKOFF_S = 0.01

# Chaos hook: when set (FaultPlan.disk_hook), every durable write calls
# it first so the fault suite can inject OSError deterministically.
_disk_fault_hook: Callable[[Path], None] | None = None


def set_disk_fault_hook(hook: Callable[[Path], None] | None) -> None:
    """Install (or clear, with ``None``) the durable-write fault hook —
    the test-only seam :class:`repro.resilience.faults.FaultPlan` fires
    deterministic ``OSError`` faults through."""
    global _disk_fault_hook
    _disk_fault_hook = hook


def retry_disk_write(
    path: Path,
    write: Callable[[], None],
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Run *write* (safe to repeat), retrying transient disk faults up
    to :data:`DISK_RETRIES` times with doubling backoff, counting
    ``focal_disk_retry_total``. A persistent or non-transient
    ``OSError`` propagates: checkpoints then raise
    :class:`~repro.core.errors.CheckpointError`, the result store stops
    writing."""
    for attempt in range(DISK_RETRIES + 1):
        try:
            if _disk_fault_hook is not None:
                _disk_fault_hook(path)
            write()
            return
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS or attempt >= DISK_RETRIES:
                raise
            get_logger().warning(
                kv("disk.retry", path=str(path), errno=exc.errno,
                   attempt=attempt + 1, error=str(exc))
            )
            _metrics.count(
                "focal_disk_retry_total", "transient OSError retries on durable writes"
            )
            sleep(DISK_BACKOFF_S * (2.0**attempt))


def _frame(kind: int, payload: bytes) -> tuple[bytes, bytes]:
    """One record as its frame head and payload (written back to back)."""
    crc = zlib.crc32(payload, zlib.crc32(struct.pack("<IB", len(payload), kind)))
    return _FRAME.pack(len(payload), kind, crc), payload


def _scan(
    data: bytes, offset: int = 0
) -> tuple[list[tuple[int, bytes]], int, str | None]:
    """The verified records of *data* from *offset* on, the offset after
    the last of them, and the damage that stopped the scan (``None`` at
    a clean end)."""
    records: list[tuple[int, bytes]] = []
    while offset < len(data):
        if len(data) - offset < _FRAME.size:
            return records, offset, "torn record header"
        length, kind, crc = _FRAME.unpack_from(data, offset)
        body = offset + _FRAME.size
        if body + length > len(data):
            return records, offset, "torn record"
        payload = data[body : body + length]
        if zlib.crc32(payload, zlib.crc32(data[offset : offset + 5])) != crc:
            return records, offset, "record checksum mismatch"
        records.append((kind, payload))
        offset = body + length
    return records, offset, None


def _pread(fd: int, size: int, offset: int) -> bytes:
    """*size* bytes of *fd* from *offset* on, fewer only at end of file
    (one ``pread`` returns at most ~2 GiB)."""
    parts = []
    while size > 0:
        part = os.pread(fd, size, offset)
        if not part:
            break
        parts.append(part)
        size -= len(part)
        offset += len(part)
    return b"".join(parts)


class ChunkLog:
    """One append-only record file. ``end`` is the offset just past the
    last record verified or written; ``0`` means there is no usable log
    yet, so the next write must be a :meth:`reset`. ``dirty`` is true
    while records this handle appended wait for an ``fsync``."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.end = 0
        self.dirty = False
        # When this handle last fsynced (or was made): an append fsyncs
        # once this is SYNC_INTERVAL_S old.
        self._synced_at = time.monotonic()
        # The locked descriptor while a commit() runs: read() and
        # append() use it instead of reopening the path.
        self._fd: int | None = None

    def read(self) -> tuple[list[tuple[int, bytes]], str | None]:
        """Every verified ``(kind, payload)`` record and the damage that
        ended the scan (``None`` for a clean or missing file)."""
        self.end = 0
        try:
            if self._fd is None:
                data = self.path.read_bytes()
            else:
                data = _pread(self._fd, os.fstat(self._fd).st_size, 0)
        except FileNotFoundError:
            return [], None
        if not data.startswith(MAGIC):
            return [], "missing log header (torn, foreign or older file)"
        records, self.end, damage = _scan(data, len(MAGIC))
        return records, damage

    def open(self, header: bytes) -> tuple[list[bytes], str | None]:
        """The chunk payloads of a log whose first record is *header*,
        and the damage that ended the scan (``None`` for a clean or
        missing file). A missing, damaged or foreign header yields no
        payloads and leaves :attr:`end` ``0``, so the next
        :meth:`commit` starts the file over."""
        records, damage = self.read()
        if records[:1] == [(HEADER, header)]:
            return [payload for kind, payload in records[1:] if kind == CHUNK], damage
        if damage is None and self.end:
            damage = "missing or foreign header"
        self.end = 0
        return [], damage

    def legacy(self, tag: str) -> bool:
        """Whether the file is a JSON document of the pre-log format
        *tag* (named in its first bytes) rather than a log."""
        try:
            with open(self.path, "rb") as handle:
                head = handle.read(64)
        except OSError:
            return False
        return not head.startswith(MAGIC) and tag.encode() in head

    def commit(
        self, header: bytes, payload: bytes, adopt: Callable[[bytes], None]
    ) -> int:
        """Append one chunk *payload* with one write (see
        :meth:`append` for when it fsyncs) — or, when the log has no
        usable header, start the file over with *header* and it. Chunk
        records another writer committed since this handle last read
        are handed to *adopt* first, never overwritten: the whole
        commit holds an exclusive ``flock`` on the file, so no other
        handle, in this process or another, can append between the
        adoption and this append. The lock, the check for other
        writers' records and the append share one file descriptor.
        Returns bytes written."""
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._fd = fd
            records = self._tail(fd) if self.end else ()
            fresh = [body for kind, body in records if kind == CHUNK]
            if not self.end:  # another writer may have started the file
                fresh, _ = self.open(header)
            for record in fresh:
                adopt(record)
            if self.end:
                return self.append([(CHUNK, payload)])
            return self.reset([(HEADER, header), (CHUNK, payload)])
        finally:
            self._fd = None
            os.close(fd)

    def _tail(self, fd: int) -> list[tuple[int, bytes]]:
        """Verified records another writer appended past :attr:`end`,
        which advances over them. A file cut shorter (started over)
        resets :attr:`end` to ``0``."""
        size = os.fstat(fd).st_size
        if size < self.end:
            self.end = 0
            return []
        records, used, _ = _scan(_pread(fd, size - self.end, self.end))
        self.end += used
        return records

    def reset(self, records: Sequence[tuple[int, bytes]]) -> int:
        """Start the file over with *records* (one write, an ``fsync``
        of the file and of its directory); returns bytes written."""
        blob = MAGIC + b"".join(
            part for kind, payload in records for part in _frame(kind, payload)
        )

        def write() -> None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())

        retry_disk_write(self.path, write)
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - not every platform allows it
            pass
        self._synced()
        self.end = len(blob)
        return self._count(len(blob))

    def append(self, records: Sequence[tuple[int, bytes]]) -> int:
        """Truncate anything past :attr:`end` (a torn or corrupt tail),
        then commit *records* with one write, and an ``fsync`` when this
        handle's last one is :data:`SYNC_INTERVAL_S` old (otherwise the
        handle turns :attr:`dirty` until :meth:`sync`); returns bytes
        written."""
        parts = [part for kind, payload in records for part in _frame(kind, payload)]
        size = sum(map(len, parts))
        due = time.monotonic() - self._synced_at >= SYNC_INTERVAL_S

        def write() -> None:
            fd = os.open(self.path, os.O_RDWR) if self._fd is None else self._fd
            try:
                if os.lseek(fd, 0, os.SEEK_END) != self.end:
                    os.ftruncate(fd, self.end)
                if os.pwritev(fd, parts, self.end) != size:
                    raise OSError(errno.EIO, "short write")
                if due:
                    os.fsync(fd)
            finally:
                if self._fd is None:
                    os.close(fd)

        retry_disk_write(self.path, write)
        if due:
            self._synced()
        else:
            self.dirty = True
        self.end += size
        return self._count(size)

    def sync(self) -> None:
        """The barrier: ``fsync`` the file when this handle appended
        records since its last ``fsync`` (reopening the path, since
        :meth:`commit` closes its descriptor). Transient faults are
        retried by :func:`retry_disk_write`; a barrier that still fails
        raises ``OSError`` and leaves the handle dirty. A file deleted
        meanwhile has nothing left to sync."""
        if not self.dirty:
            return

        def write() -> None:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                return
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

        retry_disk_write(self.path, write)
        self._synced()

    def _synced(self) -> None:
        self.dirty = False
        self._synced_at = time.monotonic()

    @staticmethod
    def _count(n: int) -> int:
        _metrics.count("focal_durable_bytes_written_total", "bytes written to logs", n)
        return n
