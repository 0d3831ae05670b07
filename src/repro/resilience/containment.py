"""Failure containment: quarantine ledger, heartbeat watchdog, salvage.

Three mechanisms that keep a long sweep alive when the retry ladder in
:mod:`repro.resilience.supervisor` is not enough:

* **poison-point quarantine** — a chunk that exhausts its retry budget
  is bisected down to the minimal crashing point set; those points are
  recorded in a persisted, factory-keyed :class:`QuarantineLedger` (a
  :class:`~repro.resilience.chunklog.ChunkLog`, one CRC-checked record
  appended per point, like checkpoints and the result store) and the
  sweep continues without them. Re-runs consult the ledger first and
  skip known poison points without re-crashing a worker.
* **heartbeat watchdog** — workers touch per-process heartbeat files
  while evaluating (:func:`beat`, armed via :func:`arm_heartbeat`);
  the parent-side :class:`HeartbeatMonitor` distinguishes
  slow-but-alive workers from hung ones, so the supervisor reaps a
  wedged pool as soon as *every* heartbeat goes stale past
  ``RetryPolicy.heartbeat_timeout_s`` instead of waiting out the blunt
  ``chunk_timeout_s``.
* **partial-result salvage** — under ``RetryPolicy(salvage=True)`` an
  irrecoverable pool returns :data:`INCOMPLETE` sentinels instead of
  raising; the sweep engine keeps every completed chunk, persists a
  resumable checkpoint, and reports a structured
  :class:`FailureReport`.

Everything here is deterministic and byte-transparent for the points
that survive: quarantine only ever *removes* points from the result
(reported, never silently), and the watchdog/salvage paths reuse the
supervisor's existing respawn/retry machinery.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from ..core.errors import QuarantinedPoint, ValidationError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv
from .checkpoint import canonical_json, json_scalar, point_key
from .chunklog import ChunkLog

__all__ = [
    "QUARANTINE_FORMAT",
    "INCOMPLETE",
    "BisectOutcome",
    "FailureReport",
    "QuarantineLedger",
    "QuarantineSession",
    "HeartbeatMonitor",
    "arm_heartbeat",
    "beat",
    "disarm_heartbeat",
    "point_key",
]

#: Format tag of the header record every quarantine ledger starts with.
QUARANTINE_FORMAT = "focal-quarantine/2"

#: The JSON-document format of earlier versions, refused by name.
_OLD_FORMAT = "focal-quarantine/1"

_HEADER = canonical_json({"format": QUARANTINE_FORMAT}).encode("utf-8")


class _Incomplete:
    """Singleton sentinel: a batch slot salvage could not materialize."""

    _instance: "_Incomplete | None" = None

    def __new__(cls) -> "_Incomplete":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INCOMPLETE"


#: Placeholder the supervisor returns for jobs an irrecoverable pool
#: never completed (``RetryPolicy(salvage=True)``); the engine stops at
#: the first chunk containing one and salvages the prefix.
INCOMPLETE = _Incomplete()


@dataclass(frozen=True)
class BisectOutcome:
    """Per-job replies recovered by quarantine bisection.

    When a dispatched batch crashes on a poison point, bisection re-runs
    its healthy subsets and quarantines the culprits. The supervisor
    hands the merged result back as one :class:`BisectOutcome` in the
    failing job's slot; ``replies`` holds one entry per original job
    (clean results interleaved with :class:`~repro.core.errors.
    QuarantinedPoint` markers) in dispatch order.
    """

    replies: tuple


@dataclass(frozen=True)
class FailureReport:
    """What an irrecoverable-but-salvaged run managed to keep.

    Attached to :class:`~repro.dse.batch.BatchSweepResult` when
    ``RetryPolicy(salvage=True)`` turned a fatal pool failure into a
    partial result: the completed prefix is intact (and checkpointed,
    when a checkpoint was configured), the rest is accounted for here.
    """

    reason: str
    error: str
    completed_chunks: int
    total_chunks: int
    completed_points: int
    pending_points: int
    checkpoint: str | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "reason": self.reason,
            "error": self.error,
            "completed_chunks": self.completed_chunks,
            "total_chunks": self.total_chunks,
            "completed_points": self.completed_points,
            "pending_points": self.pending_points,
            "checkpoint": self.checkpoint,
        }

    def summary(self) -> str:
        line = (
            f"salvaged: {self.completed_chunks}/{self.total_chunks} chunks "
            f"({self.completed_points} points) kept, "
            f"{self.pending_points} points pending — {self.reason}"
        )
        if self.checkpoint:
            line += f"; resume from {self.checkpoint}"
        return line


# ----------------------------------------------------------------------
# Quarantine ledger
# ----------------------------------------------------------------------
class QuarantineLedger:
    """A persisted registry of poison points, keyed by factory identity.

    A :class:`~repro.resilience.chunklog.ChunkLog` whose header record
    names ``focal-quarantine/2``, then one CRC-checked record per
    quarantined point: its factory description (:func:`~repro.
    resilience.checkpoint.describe_factory`), point key, parameters,
    fault kind and reason. :meth:`record` adopts the records other
    handles on the same file appended, then commits its own with one
    append; the log fsyncs at most once per
    :data:`~repro.resilience.chunklog.SYNC_INTERVAL_S`, and :meth:`sync`
    is the barrier a sweep calls where it ends. Damage is never an
    error: a load keeps the whole records before a torn or corrupt one
    (none when the header is hit), logs ``quarantine.corrupt``, and the
    next append truncates the damage — losing quarantine history costs
    re-discovering the poison points, never correctness. A
    ``focal-quarantine/1`` JSON ledger is refused with a
    :class:`~repro.core.errors.ValidationError` naming that format.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._log = ChunkLog(self.path)
        self._sections: dict[str, dict[str, dict]] | None = None

    @classmethod
    def coerce(
        cls, value: "QuarantineLedger | str | os.PathLike | None"
    ) -> "QuarantineLedger | None":
        """``None`` passes through; paths become ledgers."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def _load(self) -> dict[str, dict[str, dict]]:
        if self._sections is not None:
            return self._sections
        try:
            records, damage = self._log.open(_HEADER)
        except OSError as exc:
            records, damage = [], f"unreadable: {exc}"
        if not records and self._log.legacy(_OLD_FORMAT):
            raise ValidationError(
                f"quarantine ledger {self.path} is a {_OLD_FORMAT} JSON file "
                f"from an older version; this version reads {QUARANTINE_FORMAT} "
                "logs only — delete it (its poison points are re-discovered) "
                "or point --quarantine at a fresh path"
            )
        if damage is not None:
            get_logger().warning(
                kv("quarantine.corrupt", path=str(self.path), reason=damage)
            )
        self._sections = {}
        for record in records:
            self._adopt(record)
        return self._sections

    def _adopt(self, record: bytes) -> None:
        entry = json.loads(record)
        section = self._sections.setdefault(entry.pop("factory"), {})
        section[entry.pop("key")] = entry

    def record(
        self, factory: str, params: Mapping[str, object], *, kind: str, reason: str
    ) -> None:
        """Quarantine one point under *factory* and persist immediately.

        Persisting per point (not per run) means a sweep killed right
        after isolating a poison point still skips it on the next run.
        """
        record = json.dumps(
            {
                "factory": factory,
                "key": point_key(params),
                "params": {name: json_scalar(value) for name, value in params.items()},
                "kind": kind,
                "reason": reason,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._load()
        self._log.commit(_HEADER, record, self._adopt)
        self._adopt(record)
        get_logger().warning(
            kv("quarantine.point", factory=factory, kind=kind, reason=reason)
        )
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_quarantine_total",
                "design points quarantined by failure containment",
            ).inc()

    def sync(self) -> None:
        """The run-end barrier: fsync the points recorded since the
        log's last ``fsync`` (an ``OSError`` that outlives the disk-fault
        retries propagates, like a failed :meth:`record`)."""
        self._log.sync()

    def entries(self, factory: str) -> dict[str, dict]:
        """The quarantined points recorded for *factory* (by key)."""
        return dict(self._load().get(factory, {}))

    def __len__(self) -> int:
        return sum(len(section) for section in self._load().values())

    def session(self, factory: str) -> "QuarantineSession":
        """A per-run view bound to one factory identity."""
        return QuarantineSession(self, factory)


class QuarantineSession:
    """One run's view of the ledger, bound to a factory description."""

    def __init__(self, ledger: QuarantineLedger, factory: str) -> None:
        self.ledger = ledger
        self.factory = factory
        self._known = ledger.entries(factory)
        #: Points quarantined during *this* run, in discovery order.
        self.new_points: list[dict] = []

    def quarantine(
        self, params: Mapping[str, object], *, kind: str, reason: str
    ) -> QuarantinedPoint:
        """Record *params* as poison; the returned marker fills its slot."""
        self.ledger.record(self.factory, params, kind=kind, reason=reason)
        entry = {"params": dict(params), "kind": kind, "reason": reason}
        self._known[point_key(params)] = entry
        self.new_points.append(entry)
        return QuarantinedPoint(
            f"quarantined ({kind}): {reason}"
        )

    def known(self, params: Mapping[str, object]) -> dict | None:
        """The ledger entry for *params*, or ``None`` if not quarantined."""
        return self._known.get(point_key(params))

    def known_keys(self) -> list[str]:
        """The :func:`point_key` of every point the ledger knows as
        poison for this factory."""
        return list(self._known)

    def marker(self, params: Mapping[str, object]) -> QuarantinedPoint | None:
        """A :class:`QuarantinedPoint` for a known poison point, else ``None``."""
        entry = self.known(params)
        if entry is None:
            return None
        return QuarantinedPoint(
            f"quarantined ({entry['kind']}): {entry['reason']}"
        )

    @property
    def count(self) -> int:
        """Points quarantined during this run."""
        return len(self.new_points)

    @property
    def known_count(self) -> int:
        """Points the ledger knows as poison for this factory."""
        return len(self._known)


# ----------------------------------------------------------------------
# Heartbeat watchdog
# ----------------------------------------------------------------------
#: Minimum seconds between heartbeat-file touches — beats are called
#: per evaluated job, so rate-limiting keeps the watchdog's cost off
#: the hot path.
HEARTBEAT_MIN_INTERVAL_S = 0.02

_hb_path: Path | None = None
_hb_last: float = 0.0


def arm_heartbeat(hb_dir: str | os.PathLike) -> None:
    """Worker-side: start touching a per-pid heartbeat file in *hb_dir*.

    Called from the pool initializer the supervisor installs when a
    :class:`HeartbeatMonitor` is armed; the first touch happens
    immediately so the parent sees a live worker before its first job.
    """
    global _hb_path, _hb_last
    _hb_path = Path(hb_dir) / f"hb-{os.getpid()}"
    _hb_last = 0.0
    beat()


def beat() -> None:
    """Worker-side liveness tick (no-op when no monitor is armed).

    Cheap enough for per-job call sites: one monotonic read, and at
    most one ``touch`` per :data:`HEARTBEAT_MIN_INTERVAL_S`.
    """
    global _hb_last
    if _hb_path is None:
        return
    now = time.monotonic()
    if _hb_last and now - _hb_last < HEARTBEAT_MIN_INTERVAL_S:
        return
    _hb_last = now
    try:
        _hb_path.touch()
    except OSError:  # pragma: no cover - monitor dir torn down mid-run
        pass


def disarm_heartbeat() -> None:
    """Worker-side: stop beating (used by tests and pool teardown)."""
    global _hb_path, _hb_last
    _hb_path = None
    _hb_last = 0.0


class HeartbeatMonitor:
    """Parent-side watchdog over a pool's per-worker heartbeat files.

    The monitor owns a temporary directory; workers armed through
    :func:`arm_heartbeat` touch ``hb-<pid>`` files in it. A pool is
    *stale* when at least one worker has reported in and **every**
    heartbeat file is older than the deadline — a single live worker
    means the pool is still draining jobs and must not be reaped.
    """

    def __init__(self) -> None:
        self._dir: str | None = None

    def arm(self) -> str:
        """Create (if needed) and return the heartbeat directory."""
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="focal-heartbeat-")
        return self._dir

    @property
    def directory(self) -> str | None:
        return self._dir

    def _files(self) -> Iterator[Path]:
        if self._dir is None:
            return iter(())
        try:
            return iter(sorted(Path(self._dir).glob("hb-*")))
        except OSError:  # pragma: no cover
            return iter(())

    def stale(self, deadline_s: float) -> bool:
        """True when every reported heartbeat is older than *deadline_s*."""
        now = time.time()
        ages = []
        for path in self._files():
            try:
                ages.append(now - path.stat().st_mtime)
            except OSError:
                continue
        return bool(ages) and all(age > deadline_s for age in ages)

    def clear(self) -> None:
        """Forget all heartbeats (called when the pool is respawned)."""
        for path in self._files():
            try:
                path.unlink()
            except OSError:
                pass

    def cleanup(self) -> None:
        """Remove the heartbeat directory entirely."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
