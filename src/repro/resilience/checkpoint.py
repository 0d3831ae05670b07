"""Crash-safe checkpoints: one append-only, checksummed log per run.

A checkpoint is a :class:`~repro.resilience.chunklog.ChunkLog` file
(format :data:`CHECKPOINT_FORMAT`) holding:

* one **header** record — canonical JSON naming the **kind**
  (``"sweep"``, ``"montecarlo"``) and the run's **fingerprint**:
  everything its results depend on (grid axes, chunk size, baseline,
  weight, factory, sampler arguments). Resume refuses a checkpoint whose
  fingerprint does not match the run being resumed, so a stale file can
  never silently contaminate results;
* one **chunk** record per committed chunk — a sweep chunk's outcomes
  as a tag byte per row, raw float64 area/perf/power columns and texts
  (:func:`encode_columns`, :func:`encode_outcomes`), or a Monte-Carlo
  segment's int8 codes plus its post-segment RNG state.

Durability contract: committing a chunk appends its record with one
write, and an ``fsync`` at most once per
:data:`~repro.resilience.chunklog.SYNC_INTERVAL_S`; the run's end calls
:meth:`CheckpointStore.sync`, a barrier that fsyncs the rest, so a run
that returns is wholly on disk. A killed process loses no committed
chunk; a host crash loses at most one interval's commits, which resume
recomputes. Nothing is ever rewritten, so a run's checkpoint bytes grow
linearly with its chunks. Every record carries a CRC-32, so a reader
sees whole verified records only. Damage is not fatal on resume:
:meth:`CheckpointStore.load_or_restart` logs and counts
``focal_checkpoint_corrupt_total``, resumes from the whole records
before a torn or corrupt one (or cold, when the header itself is
damaged), and the next commit truncates the damaged tail — the final
output stays byte-identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from itertools import accumulate
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import CheckpointError, DomainError, QuarantinedPoint
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv
from .chunklog import (
    CHUNK,
    HEADER,
    TRANSIENT_DISK_ERRNOS,
    ChunkLog,
    retry_disk_write,
    set_disk_fault_hook,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "sweep_fingerprint",
    "encode_columns",
    "encode_outcomes",
    "decode_outcomes",
    "OutcomeRecord",
    "describe_factory",
    "canonical_json",
    "point_key",
    "sha256_hex",
    "atomic_write_text",
    "set_disk_fault_hook",
    "TRANSIENT_DISK_ERRNOS",
]

#: Format tag written into (and required from) every checkpoint header.
CHECKPOINT_FORMAT = "focal-checkpoint/3"

#: The JSON-document format of the first version, refused by name.
_OLD_FORMAT = "focal-checkpoint/1"

#: The log format whose outcome records name every design, refused by
#: name too (its records do not decode as this version's).
_NAMED_FORMAT = "focal-checkpoint/2"


def atomic_write_text(
    path: Path, text: str, *, sleep: Callable[[float], None] = time.sleep
) -> None:
    """Durably write *text* to *path*: write-temp, fsync, atomic rename,
    with transient disk faults retried by
    :func:`~repro.resilience.chunklog.retry_disk_write`. Only the
    result-store marker is written this way; every other durable file is
    a :class:`~repro.resilience.chunklog.ChunkLog`."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")

    def write() -> None:
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except OSError:
            temp.unlink(missing_ok=True)
            raise

    retry_disk_write(path, write, sleep=sleep)


def canonical_json(payload: object) -> str:
    """The canonical serialization fingerprints are compared and hashed
    over (checkpoint headers, result-store run files, quarantine
    ledgers)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


# A point key is equal exactly when a factory would compute the identical
# outcome: floats go through float.hex (bit-exact, like the fingerprints),
# other JSON scalars keep their type tag so int 2 and float 2.0 never
# alias (a conservative miss, never a wrong answer).
def key_token(value: object) -> str:
    """One axis value's token in a :func:`point_key`."""
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, (int, np.integer)):
        return f"i{int(value)}"
    if isinstance(value, str):
        return f"s{value}"
    if value is None:
        return "n"
    return "f" + float(value).hex()


def point_key(params: Mapping[str, object]) -> str:
    """The canonical key of one grid point (axis-order free), shared by
    the result store and the quarantine ledger."""
    return "\x1e".join(
        f"{name}={key_token(params[name])}" for name in sorted(params)
    )


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of *text* (the content-checksum primitive)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CheckpointStore:
    """One checkpoint log with append-only commits and verified loads.

    The store keeps no copy of the records: :meth:`load` returns them
    and :meth:`commit` appends one."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._log = ChunkLog(self.path)
        # The run the log holds once this store wrote or loaded it: its
        # kind and fingerprint object.
        self._run: tuple | None = None

    @classmethod
    def coerce(
        cls, value: "CheckpointStore | str | os.PathLike | None"
    ) -> "CheckpointStore | None":
        """``None`` passes through; paths become stores."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def exists(self) -> bool:
        return self.path.exists()

    def remove(self) -> None:
        """Delete the checkpoint file if present."""
        self.path.unlink(missing_ok=True)
        self._run = None

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, *, kind: str, fingerprint: Mapping, state: Mapping) -> None:
        """Start the file over with *state* — ``{"chunks": [record
        bytes, ...]}`` — in one write and one ``fsync``. Transient disk
        faults (EIO/ENOSPC) are retried with bounded backoff; a write
        that still fails raises :class:`CheckpointError`.
        """
        if list(state) != ["chunks"]:
            raise CheckpointError(
                "checkpoint state must be {'chunks': [record bytes, ...]}, "
                f"got keys {sorted(state)}"
            )
        self._write(kind, fingerprint, state["chunks"], append=False)

    def commit(self, *, kind: str, fingerprint: Mapping, record: bytes) -> bool:
        """Append one chunk *record* (one write, however many chunks the
        run committed; see :meth:`sync`) when this store wrote or loaded
        this *kind* with this very *fingerprint* object — an identity
        check, so no per-chunk re-serialization — and otherwise start
        the file over with it.

        Returns ``False`` (logged) when the checkpoint cannot be
        written: a dead checkpoint must not kill a live run, which
        continues without checkpointing.
        """
        run = self._run
        same = run is not None and run[0] == kind and run[1] is fingerprint
        try:
            self._write(kind, fingerprint, [record], append=same)
        except CheckpointError as exc:
            return self._disabled(exc)
        return True

    def sync(self) -> bool:
        """The run-end barrier: ``fsync`` the chunks committed since the
        log's last ``fsync``. Returns ``False`` (logged, like a failed
        :meth:`commit`) when that fails after the disk-fault retries."""
        try:
            self._log.sync()
        except OSError as exc:
            self._run = None
            return self._disabled(exc)
        return True

    def _disabled(self, exc: Exception) -> bool:
        get_logger().warning(
            kv("checkpoint.disabled", path=str(self.path), error=str(exc))
        )
        return False

    def _write(
        self, kind: str, fingerprint: Mapping, chunks: Sequence[bytes], *, append: bool
    ) -> None:
        records = [(CHUNK, chunk) for chunk in chunks]
        try:
            if append:
                self._log.append(records)
            else:
                self._log.reset([(HEADER, _header(kind, fingerprint)), *records])
        except OSError as exc:
            self._run = None
            raise CheckpointError(
                f"checkpoint {self.path} could not be written: {exc}"
            ) from exc
        self._run = (kind, fingerprint)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, *, kind: str, fingerprint: Mapping) -> dict:
        """The verified state, or :class:`CheckpointError` on any problem
        (missing file, damage anywhere, an older format, wrong kind,
        fingerprint mismatch)."""
        chunks, damage = self._read(kind, fingerprint)
        if damage is not None:
            raise CheckpointError(f"checkpoint {self.path}: {damage}")
        return {"chunks": chunks}

    def load_or_restart(self, *, kind: str, fingerprint: Mapping) -> dict | None:
        """Resume-friendly load: ``None`` means "start cold".

        A missing file, or a damaged header, starts cold. A torn or
        corrupt record is dropped with everything after it and the whole
        records before it are returned; the next commit truncates the
        damage. Damage is logged and counted in
        ``focal_checkpoint_corrupt_total``. A *fingerprint mismatch* or
        an older-format file still raises: that is a configuration error
        the user must resolve, not damage.
        """
        if not self.path.exists():
            return None
        chunks, damage = self._read(kind, fingerprint)
        if chunks is None:
            self._note_corrupt(damage)
            return None
        if damage is not None:
            self._note_corrupt(
                f"{damage}; resuming after {len(chunks)} whole chunk records"
            )
        return {"chunks": chunks}

    def _note_corrupt(self, reason: str) -> None:
        get_logger().warning(
            kv("checkpoint.corrupt", path=str(self.path), reason=reason)
        )
        _metrics.count(
            "focal_checkpoint_corrupt_total",
            "damaged checkpoint records discarded on resume",
        )

    def _read(
        self, kind: str, fingerprint: Mapping
    ) -> tuple[list[bytes] | None, str | None]:
        """The verified chunk records and the damage after them, or
        ``None`` and the damage when the header itself is unusable.

        The header is checked by its bytes. Only a header that differs
        is parsed, to tell an older format, another kind or another
        fingerprint (each a :class:`CheckpointError`) from damage."""
        self._run = None
        try:
            records, damage = self._log.read()
        except OSError as exc:
            raise CheckpointError(f"checkpoint {self.path} unreadable: {exc}")
        if records[:1] == [(HEADER, _header(kind, fingerprint))]:
            self._run = (kind, fingerprint)
            return [payload for _, payload in records[1:]], damage
        if not records:
            if not self.path.exists():
                raise CheckpointError(f"checkpoint {self.path} does not exist")
            if self._log.legacy(_OLD_FORMAT):
                raise self._older(_OLD_FORMAT, "JSON file")
            return None, f"no readable header ({damage or 'empty log'})"
        head_kind, head = records[0]
        try:
            header = json.loads(head) if head_kind == HEADER else {}
        except ValueError:
            header = {}
        if not isinstance(header, dict):
            header = {}
        if header.get("format") == _NAMED_FORMAT:
            raise self._older(_NAMED_FORMAT, "log")
        if header.get("format") == CHECKPOINT_FORMAT:
            if header.get("kind") != kind:
                raise CheckpointError(
                    f"checkpoint {self.path} holds a {header.get('kind')!r} "
                    f"run, expected {kind!r}"
                )
            if canonical_json(header.get("fingerprint")) != canonical_json(
                fingerprint
            ):
                raise CheckpointError(
                    f"checkpoint {self.path} was written by a different run "
                    "configuration (grid/chunk-size/baseline/weight/factory "
                    "fingerprint mismatch); delete it or point --checkpoint "
                    "at a fresh path"
                )
        return None, f"no {CHECKPOINT_FORMAT} header for this run"

    def _older(self, tag: str, what: str) -> CheckpointError:
        return CheckpointError(
            f"checkpoint {self.path} is a {tag} {what} from an older version; "
            f"this version reads {CHECKPOINT_FORMAT} logs only — delete it or "
            "point --checkpoint at a fresh path"
        )


def _header(kind: str, fingerprint: Mapping) -> bytes:
    """The header record of a *kind* run with *fingerprint*."""
    return canonical_json(
        {"format": CHECKPOINT_FORMAT, "kind": kind, "fingerprint": fingerprint}
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Sweep-specific encoding
#
# One chunk of outcomes is one record of raw little-endian columns, so a
# resumed sweep rebuilds arrays and cache entries bit-for-bit:
#
#   head    u32 rows, u8 named (1: a text per row, 0: texts of the
#           DomainError and QuarantinedPoint rows only)
#   texts   design names (named records), error messages
#   tags    u8 per row: 0 design, 1 DomainError, 2 QuarantinedPoint
#   values  f64 area of every row, then perf, then power (zeros for
#           errors)
#
# A vector factory's sweep writes nameless records straight from its
# columns; its design_points rebuild the names on read (the factory is
# part of every fingerprint). Other factories' records keep the names.
# ----------------------------------------------------------------------
_DESIGN, _ERROR, _QUARANTINED = 0, 1, 2
_HEAD = struct.Struct("<IB")


def pack_texts(texts: Sequence[str]) -> bytes:
    """Strings as one record field: count, byte size, per-string
    code-point lengths, then one UTF-8 blob (lone surrogates pass)."""
    blob = "".join(texts).encode("utf-8", "surrogatepass")
    n = len(texts)
    return struct.pack(f"<II{n}I", n, len(blob), *map(len, texts)) + blob


def unpack_texts(data: bytes, offset: int = 0) -> tuple[list[str], int]:
    """Invert :func:`pack_texts`: the strings and the offset past them."""
    n, size = struct.unpack_from("<II", data, offset)
    offset += 8
    ends = list(accumulate(struct.unpack_from(f"<{n}I", data, offset)))
    offset += 4 * n
    text = data[offset : offset + size].decode("utf-8", "surrogatepass")
    if (ends[-1] if ends else 0) != len(text):
        raise ValueError("text lengths do not match the blob")
    return [text[a:b] for a, b in zip([0, *ends], ends)], offset + size


def describe_factory(factory: object) -> str:
    """A run-stable identity string for a design factory.

    Functions are named by module + qualname (their ``repr`` embeds a
    memory address, which would make every fingerprint unique); class
    instances use ``repr``, which for the stock frozen-dataclass
    factories encodes their configuration values.
    """
    qualname = getattr(factory, "__qualname__", None)
    if qualname is not None:
        return f"{getattr(factory, '__module__', '?')}.{qualname}"
    return repr(factory)


def json_scalar(value: object) -> object:
    """*value* as a JSON scalar: bools, ints, strings and ``None`` as
    they are, anything else (numpy scalars, plain floats) as a float —
    shortest-repr JSON floats roundtrip bit-exactly."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return float(value)


def sweep_fingerprint(
    *,
    axes: Mapping[str, Sequence[object]],
    chunk_size: int,
    baseline: DesignPoint,
    alpha: float,
    factory: object,
) -> dict:
    """Everything a sweep's results depend on, as a JSON-able mapping."""
    return {
        "axes": {name: list(map(json_scalar, values)) for name, values in axes.items()},
        "chunk_size": chunk_size,
        "baseline": {
            "name": baseline.name,
            "area": baseline.area.hex(),
            "perf": baseline.perf.hex(),
            "power": baseline.power.hex(),
        },
        "alpha": float(alpha).hex(),
        "factory": describe_factory(factory),
    }


def encode_columns(
    valid: np.ndarray,
    quarantined: np.ndarray,
    area: np.ndarray,
    perf: np.ndarray,
    power: np.ndarray,
    messages: Sequence[str],
) -> bytes:
    """One nameless chunk record straight from columns: a row is a
    design where *valid*, else quarantined or a ``DomainError`` whose
    text is the next of *messages* (one per invalid row, in row order)."""
    n = len(valid)
    values = np.concatenate((area, perf, power)).astype("<f8", copy=False)
    if valid.all():
        tags = bytes(n)  # every row _DESIGN
    else:
        values.reshape(3, n)[:, ~valid] = 0.0
        tags = np.where(valid, _DESIGN, np.where(quarantined, _QUARANTINED, _ERROR))
        tags = tags.astype(np.uint8).tobytes()
    return _HEAD.pack(n, False) + pack_texts(messages) + tags + values.tobytes()


def encode_outcomes(outcomes: Sequence[DesignPoint | DomainError]) -> bytes:
    """One named chunk record: designs as raw float64 columns plus
    names, errors by message. Quarantined points keep their own tag so a
    resumed sweep restores them as :class:`QuarantinedPoint` — still an
    excluded outcome, but one the engine keeps reporting as quarantined.
    """
    texts: list[str] = []
    tags = bytearray()
    area: list[float] = []
    perf: list[float] = []
    power: list[float] = []
    for outcome in outcomes:
        if isinstance(outcome, DomainError):
            quarantined = isinstance(outcome, QuarantinedPoint)
            tags.append(_QUARANTINED if quarantined else _ERROR)
            texts.append(str(outcome))
            area.append(0.0)
            perf.append(0.0)
            power.append(0.0)
        else:
            tags.append(_DESIGN)
            texts.append(outcome.name)
            area.append(outcome.area)
            perf.append(outcome.perf)
            power.append(outcome.power)
    return (
        _HEAD.pack(len(tags), True)
        + pack_texts(texts)
        + tags
        + struct.pack(f"<{3 * len(tags)}d", *area, *perf, *power)
    )


class OutcomeRecord:
    """One chunk record (at *offset* of *data*) read as columns:
    ``tags`` (u8 per row) and ``values`` (the area, perf and power
    columns, shape ``(3, rows)``) are NumPy views of the bytes, so a sweep restores its rows without
    building an object. The texts decode into outcomes on the first
    :meth:`outcomes` call."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        try:
            n, named = _HEAD.unpack_from(data, offset)
            count, size = struct.unpack_from("<II", data, offset + _HEAD.size)
            tags = offset + _HEAD.size + 8 + 4 * count + size
            if len(data) != tags + 25 * n:
                raise ValueError(f"{len(data) - offset} bytes do not hold {n} rows")
            if named > 1:
                raise ValueError(f"unknown text layout {named}")
            self.tags = np.frombuffer(data, np.uint8, n, tags)
            if n and int(self.tags.max()) > _QUARANTINED:
                raise ValueError(f"unknown outcome tag {int(self.tags.max())}")
            texts = n if named else int(np.count_nonzero(self.tags))
            if count != texts:
                raise ValueError(f"{count} texts for {texts} rows that need one")
            self.values = np.frombuffer(data, "<f8", 3 * n, tags + n).reshape(3, n)
        except (ValueError, struct.error) as exc:
            raise CheckpointError(
                f"checkpoint outcome record is undecodable: {exc}"
            ) from exc
        self.named = bool(named)
        self._data = data
        self._offset = offset
        self._outcomes: list[DesignPoint | DomainError | None] | None = None

    def __len__(self) -> int:
        return len(self.tags)

    def columns(self, at: "np.ndarray | None" = None) -> tuple[np.ndarray, ...]:
        """Area, perf, power, valid and quarantined of rows *at* (all
        rows when ``None``)."""
        values, tags = self.values, self.tags
        if at is not None:
            values, tags = values[:, at], tags[at]
        valid, quarantined = tags == _DESIGN, tags == _QUARANTINED
        return values[0], values[1], values[2], valid, quarantined

    @staticmethod
    def stacked(records: Sequence["OutcomeRecord"]) -> tuple[np.ndarray, ...]:
        """Area, perf, power, valid and quarantined of *records*' rows,
        back to back."""
        values = np.concatenate([record.values for record in records], axis=1)
        tags = np.concatenate([record.tags for record in records])
        valid, quarantined = tags == _DESIGN, tags == _QUARANTINED
        return values[0], values[1], values[2], valid, quarantined

    def outcomes(self) -> list[DesignPoint | DomainError | None]:
        """Every row as its outcome object (bit-exact design fields),
        decoded once — ``None`` for the designs of a nameless record,
        whose names only the factory can rebuild."""
        if self._outcomes is None:
            try:
                texts, _ = unpack_texts(self._data, self._offset + _HEAD.size)
            except (ValueError, struct.error) as exc:
                raise CheckpointError(
                    f"checkpoint outcome record is undecodable: {exc}"
                ) from exc
            messages = iter(texts)
            outcomes: list[DesignPoint | DomainError | None] = []
            for tag, area, perf, power in zip(
                self.tags.tolist(), *self.values.tolist()
            ):
                if tag == _DESIGN:
                    outcomes.append(
                        DesignPoint(
                            name=next(messages), area=area, perf=perf, power=power
                        )
                        if self.named
                        else None
                    )
                elif tag == _ERROR:
                    outcomes.append(DomainError(next(messages)))
                else:
                    outcomes.append(QuarantinedPoint(next(messages)))
            self._outcomes = outcomes
        return self._outcomes


def decode_outcomes(record: bytes) -> list[DesignPoint | DomainError | None]:
    """Invert :func:`encode_outcomes` (bit-exact design fields; a
    nameless :func:`encode_columns` record decodes its designs to
    ``None``)."""
    return OutcomeRecord(record).outcomes()
