"""Crash-safe checkpoint files: atomic, checksummed, resumable.

A checkpoint is one JSON document holding three things:

* a **kind** (``"sweep"``, ``"montecarlo"``) naming the producer;
* a **fingerprint** — everything the run's identity depends on (grid
  axes, chunk size, baseline, weight, factory, sampler arguments).
  Resume refuses a checkpoint whose fingerprint does not match the run
  being resumed, so a stale file can never silently contaminate results;
* the **state** — chunk-granular progress (encoded outcomes, RNG
  states) that lets the producer continue bit-exactly from the last
  completed chunk.

Durability contract: every save rewrites the file via
write-temp → ``fsync`` → atomic ``os.replace``, with a SHA-256 content
checksum over the canonical payload serialization. A reader therefore
sees either the previous complete checkpoint or the new one — never a
torn write — and detects any truncation or corruption by checksum.
Corrupt files are *not* fatal on resume: :meth:`CheckpointStore.
load_or_restart` logs, counts ``focal_checkpoint_corrupt_total``, and
restarts cold, which keeps the final output byte-identical to a
fault-free run.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..core.design import DesignPoint
from ..core.errors import CheckpointError, DomainError, QuarantinedPoint
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "sweep_fingerprint",
    "encode_outcomes",
    "decode_outcomes",
    "describe_factory",
    "canonical_json",
    "sha256_hex",
    "atomic_write_text",
    "set_disk_fault_hook",
    "TRANSIENT_DISK_ERRNOS",
]

#: Format tag written into (and required from) every checkpoint file.
CHECKPOINT_FORMAT = "focal-checkpoint/1"

#: ``OSError`` errnos treated as transient disk faults: a wedged I/O
#: path (EIO) or a momentarily full volume (ENOSPC) often clears within
#: milliseconds; anything else (EACCES, EROFS, ...) is configuration
#: and propagates immediately.
TRANSIENT_DISK_ERRNOS = (errno.EIO, errno.ENOSPC)

#: Bounded retry budget for transient disk faults, and the backoff base
#: between attempts (doubled each retry).
DISK_RETRIES = 3
DISK_BACKOFF_S = 0.01

# Chaos hook: when set (FaultPlan.disk_hook), every durable write calls
# it first so the fault suite can inject OSError deterministically.
_disk_fault_hook: Callable[[Path], None] | None = None


def set_disk_fault_hook(hook: Callable[[Path], None] | None) -> None:
    """Install (or clear, with ``None``) the durable-write fault hook.

    Test-only seam used by :class:`repro.resilience.faults.FaultPlan`
    to fire deterministic ``OSError`` faults inside
    :func:`atomic_write_text` without mocking the filesystem.
    """
    global _disk_fault_hook
    _disk_fault_hook = hook


def atomic_write_text(
    path: Path, text: str, *, sleep: Callable[[float], None] = time.sleep
) -> None:
    """Durably write *text* to *path*: write-temp, fsync, atomic rename.

    Transient disk faults (:data:`TRANSIENT_DISK_ERRNOS`) are retried
    up to :data:`DISK_RETRIES` times with doubling backoff, counting
    ``focal_disk_retry_total`` per retry; a persistent fault — or any
    non-transient ``OSError`` — propagates to the caller, which decides
    whether the write is essential (checkpoints raise
    :class:`CheckpointError`) or shed-able (the result store falls back
    to its memory tier).
    """
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    for attempt in range(DISK_RETRIES + 1):
        try:
            if _disk_fault_hook is not None:
                _disk_fault_hook(path)
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
            return
        except OSError as exc:
            try:
                temp.unlink()
            except OSError:
                pass
            transient = exc.errno in TRANSIENT_DISK_ERRNOS
            if not transient or attempt >= DISK_RETRIES:
                raise
            get_logger().warning(
                kv(
                    "disk.retry",
                    path=str(path),
                    errno=exc.errno,
                    attempt=attempt + 1,
                    error=str(exc),
                )
            )
            registry = _metrics.get_registry()
            if registry.enabled:
                registry.counter(
                    "focal_disk_retry_total",
                    "transient OSError retries on durable writes",
                ).inc()
            sleep(DISK_BACKOFF_S * (2.0**attempt))


class _CorruptCheckpoint(CheckpointError):
    """Internal marker: the file is damaged (vs. merely mismatched).

    ``load_or_restart`` recovers from damage by restarting cold; a
    fingerprint/kind mismatch is a configuration error and always
    propagates as a plain :class:`CheckpointError`.
    """


def canonical_json(payload: object) -> str:
    """The canonical serialization checksums are computed over.

    Shared with :mod:`repro.dse.store` so every durable FOCAL file —
    checkpoints and persistent result-store documents alike — hashes
    the same byte stream for the same payload.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of *text* (the content-checksum primitive)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CheckpointStore:
    """One checkpoint file with atomic saves and checksum-verified loads."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

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
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, *, kind: str, fingerprint: Mapping, state: Mapping) -> None:
        """Atomically replace the file with a checksummed checkpoint.

        Transient disk faults (EIO/ENOSPC) are retried with bounded
        backoff inside :func:`atomic_write_text`; a write that still
        fails raises :class:`CheckpointError` so callers can decide to
        continue without checkpointing rather than abort the run.
        """
        payload = {"kind": kind, "fingerprint": fingerprint, "state": state}
        body = canonical_json(payload)
        document = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "sha256": sha256_hex(body),
                "payload": payload,
            },
            default=str,
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path, document)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} could not be written: {exc}"
            ) from exc
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Durability of the rename itself (best-effort; not all
        filesystems allow opening a directory)."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, *, kind: str, fingerprint: Mapping) -> dict:
        """The verified state, or :class:`CheckpointError` on any problem
        (missing file, corruption, wrong kind, fingerprint mismatch)."""
        payload = self._read_payload()
        if payload.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint {self.path} holds a {payload.get('kind')!r} "
                f"run, expected {kind!r}"
            )
        recorded = canonical_json(payload.get("fingerprint"))
        expected = canonical_json(fingerprint)
        if recorded != expected:
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different run "
                "configuration (grid/chunk-size/baseline/weight/factory "
                "fingerprint mismatch); delete it or point --checkpoint "
                "at a fresh path"
            )
        state = payload.get("state")
        if not isinstance(state, dict):
            raise _CorruptCheckpoint(
                f"checkpoint {self.path} has no usable state"
            )
        return state

    def load_or_restart(self, *, kind: str, fingerprint: Mapping) -> dict | None:
        """Resume-friendly load: ``None`` means "start cold".

        A missing file and a corrupt/truncated file both return ``None``
        (the latter with a warning log and a bump of
        ``focal_checkpoint_corrupt_total``) — recovery from a damaged
        checkpoint is a cold start, which reproduces the fault-free
        output exactly. A *fingerprint mismatch* still raises: that is a
        configuration error the user must resolve, not damage.
        """
        if not self.path.exists():
            return None
        try:
            return self.load(kind=kind, fingerprint=fingerprint)
        except _CorruptCheckpoint as exc:
            self._note_corrupt(str(exc))
            return None

    def _note_corrupt(self, reason: str) -> None:
        get_logger().warning(
            kv("checkpoint.corrupt", path=str(self.path), reason=reason)
        )
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_checkpoint_corrupt_total",
                "corrupt/truncated checkpoint files discarded on resume",
            ).inc()

    def _read_payload(self) -> dict:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CheckpointError(f"checkpoint {self.path} does not exist")
        except OSError as exc:
            raise CheckpointError(f"checkpoint {self.path} unreadable: {exc}")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _CorruptCheckpoint(
                f"checkpoint {self.path} is not valid JSON "
                f"(truncated write?): {exc}"
            )
        if not isinstance(document, dict):
            raise _CorruptCheckpoint(f"checkpoint {self.path} is not an object")
        if document.get("format") != CHECKPOINT_FORMAT:
            raise _CorruptCheckpoint(
                f"checkpoint {self.path} has format "
                f"{document.get('format')!r}, expected {CHECKPOINT_FORMAT!r}"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise _CorruptCheckpoint(f"checkpoint {self.path} has no payload")
        if sha256_hex(canonical_json(payload)) != document.get("sha256"):
            raise _CorruptCheckpoint(
                f"checkpoint {self.path} failed its content checksum "
                "(corrupted on disk)"
            )
        return payload


# ----------------------------------------------------------------------
# Sweep-specific encoding
#
# Design points are serialized with float hex so a resumed sweep rebuilds
# arrays and cache entries bit-for-bit; DomainError outcomes keep their
# message (the one observable the engine relies on).
# ----------------------------------------------------------------------
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


def _jsonable_axis(values: Sequence[object]) -> list:
    out = []
    for value in values:
        if isinstance(value, (bool, int, str)) or value is None:
            out.append(value)
        else:
            # numpy scalars and plain floats: shortest-repr JSON floats
            # roundtrip bit-exactly, so float() is identity-preserving.
            out.append(float(value))
    return out


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
        "axes": {name: _jsonable_axis(values) for name, values in axes.items()},
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


def encode_outcomes(
    outcomes: Sequence[DesignPoint | DomainError],
) -> list[list]:
    """One JSON row per outcome: designs as float hex, errors by message.

    Quarantined points get their own tag (``"q"``) so a resumed sweep
    restores them as :class:`QuarantinedPoint` — still an excluded
    outcome, but one the engine keeps reporting as quarantined.
    """
    rows: list[list] = []
    for outcome in outcomes:
        if isinstance(outcome, QuarantinedPoint):
            rows.append(["q", str(outcome)])
        elif isinstance(outcome, DomainError):
            rows.append(["e", str(outcome)])
        else:
            rows.append(
                [
                    "d",
                    outcome.name,
                    outcome.area.hex(),
                    outcome.perf.hex(),
                    outcome.power.hex(),
                ]
            )
    return rows


def decode_outcomes(rows: Sequence[Sequence]) -> list[DesignPoint | DomainError]:
    """Invert :func:`encode_outcomes` (bit-exact design fields)."""
    outcomes: list[DesignPoint | DomainError] = []
    for row in rows:
        try:
            tag = row[0]
            if tag == "d":
                _, name, area, perf, power = row
                outcomes.append(
                    DesignPoint(
                        name=name,
                        area=float.fromhex(area),
                        perf=float.fromhex(perf),
                        power=float.fromhex(power),
                    )
                )
            elif tag == "e":
                outcomes.append(DomainError(row[1]))
            elif tag == "q":
                outcomes.append(QuarantinedPoint(row[1]))
            else:
                raise ValueError(f"unknown outcome tag {tag!r}")
        except (ValueError, TypeError, IndexError) as exc:
            raise CheckpointError(
                f"checkpoint outcome row {row!r} is undecodable: {exc}"
            ) from exc
    return outcomes
