"""The vectorized batch-evaluation engine for design-space sweeps.

:class:`~repro.dse.explorer.Explorer` evaluates one grid point at a
time; every NCF and every verdict is a scalar Python call. This module
provides the production path for large sweeps:

* :class:`BatchExplorer` streams grid points in chunks, evaluates the
  design factory (serially or over a ``ProcessPoolExecutor``), collects
  the area/energy/power ratios into arrays, and computes all NCFs,
  classifications and category histograms in single vectorized passes
  over :mod:`repro.core.batch` kernels;
* :class:`FactoryCache` memoizes factory evaluations on parameter
  tuples, so ``subgrid`` and tornado re-sweeps never re-evaluate a
  design (invalid corners — ``DomainError`` — are memoized too);
* :class:`VectorFactory` is the columnar protocol: a factory that
  additionally maps a whole grid chunk (one NumPy column per axis) to
  :class:`DesignArrays` in a few vectorized passes. A sweep of such a
  factory never evaluates the scalar substrate point-by-point (see
  :mod:`repro.dse.factories` for the stock implementations): rows the
  cache, a checkpoint or the store already know are adopted and only
  the rest run the kernel. A cold sweep keeps its answer as columns —
  parameter dicts, DesignPoints and cache entries are built only when
  read — and a re-sweep of the same grid adopts those columns;
* with ``workers > 0`` a vector-factory sweep runs
  **parallel-columnar**: the chunks no source knows any row of are
  sharded into contiguous, chunk-aligned spans, each span ships to a worker as a ``(lo, hi,
  seq)`` job (one per span, never per point), workers derive the
  span's axis columns, run ``batch_arrays`` over them and write the
  result columns into one shared block (see :mod:`repro.dse.parallel`).
  The factory and the grid index ship once per pool via an
  initializer; no DesignPoint ever crosses the process boundary. The parent copies the valid rows'
  columns out of the block and defers everything point-level exactly
  like ``workers=0`` does — byte-identical results and cache contents;
* :class:`BatchSweepResult` holds the sweep as arrays and converts back
  to the scalar :class:`~repro.dse.explorer.ExplorationResult` objects
  on demand; its ``params``/``designs`` are built on first read when
  the sweep kept columns.

``BatchExplorer.explore`` is byte-identical to ``Explorer.explore``:
same point ordering, same skip semantics for invalid corners, and
bit-exact NCF values (the kernels perform the same IEEE-754 operations
as the scalar path).

Resilience (:mod:`repro.resilience`) is layered on without touching the
numbers: handing the explorer a
:class:`~repro.resilience.policy.RetryPolicy` routes worker dispatch
through a :class:`~repro.resilience.supervisor.SupervisedPool` (crash
recovery, chunk timeouts, bounded retry, in-process degradation), and
``explore_arrays(..., checkpoint=..., resume=True)`` persists
chunk-granular progress through an atomic, checksummed
:class:`~repro.resilience.checkpoint.CheckpointStore` so a killed sweep
resumes bit-exactly — same result arrays, same cache contents — from
the last completed chunk.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..core.batch import (
    categories_from_codes,
    category_counts,
    classify_arrays,
    ncf_values,
)
from ..core.classify import Sustainability
from ..core.design import DesignPoint
from ..core.errors import (
    CheckpointError,
    ConfigurationError,
    DomainError,
    QuarantinedPoint,
    ValidationError,
)
from ..core.quantities import ensure_positive
from ..core.scenario import E2OWeight
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.log import get_logger, kv
from ..resilience.checkpoint import (
    CheckpointStore,
    decode_outcomes,
    describe_factory,
    encode_outcomes,
    sweep_fingerprint,
)
from ..resilience.containment import (
    INCOMPLETE,
    BisectOutcome,
    FailureReport,
    HeartbeatMonitor,
    QuarantineLedger,
    QuarantineSession,
)
from ..resilience.policy import RetryPolicy, SupervisionStats
from ..resilience.supervisor import SupervisedPool
from . import parallel as _parallel
from .explorer import DesignFactory, ExplorationResult
from .grid import ParameterGrid
from .store import ChunkProbe, ResultStore, SweepStoreSession

__all__ = [
    "params_key",
    "params_keys",
    "CacheStats",
    "FactoryCache",
    "DesignArrays",
    "VectorFactory",
    "is_vector_factory",
    "SweepEngineStats",
    "BatchSweepResult",
    "BatchExplorer",
]


def params_key(params: Mapping[str, object]) -> tuple:
    """Hashable cache key for one grid point: sorted ``(name, value)``
    pairs, so dict insertion order never splits the cache. Plain tuple
    sort is safe — axis names are unique, so values never compare."""
    return tuple(sorted(params.items()))


def params_keys(chunk: Sequence[Mapping[str, object]]) -> list[tuple]:
    """:func:`params_key` for every point of one grid chunk.

    Chunks of one grid share a single axis set, so the sorted name
    order is computed once for the whole chunk — the only difference
    from mapping :func:`params_key` over the points, and one the
    test suite pins down: the keys are identical, so the scalar,
    columnar and restore paths can never drift apart on key shape.
    """
    names = sorted(chunk[0])
    return [
        tuple([(name, params[name]) for name in names]) for params in chunk
    ]


@dataclass(frozen=True)
class CacheStats:
    """One consistent snapshot of a :class:`FactoryCache`'s counters."""

    hits: int
    misses: int
    size: int

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "size": self.size,
        }


class FactoryCache:
    """Memoizes a design factory on parameter tuples.

    A sweep engine re-visits grid points constantly — ``subgrid`` pins,
    tornado re-sweeps, chart re-draws — and factories are pure functions
    of their parameters, so each distinct point needs evaluating exactly
    once. ``DomainError`` outcomes (invalid corners the explorer skips)
    are memoized as well.

    The cache is shareable: hand the same instance to several
    :class:`BatchExplorer` objects sweeping the same factory.
    Effectiveness is reported through :meth:`stats` (hits, misses, hit
    ratio, size); every path that bumps the counters goes through the
    single :meth:`record` choke point.

    A cold columnar sweep does not fill the cache point by point: it
    hands over its result columns as one *pending record*
    (:meth:`defer`) and counts its misses. The counters, ``len`` and
    :meth:`stats` are exact without touching the record; the first
    point-level read — ``_entries``, :meth:`lookup`, :meth:`evaluate`,
    :meth:`store`/:meth:`store_many` or a call — expands it into
    entries through the same materialization an eager sweep runs, so
    the memoized contents never depend on when they were read.
    """

    def __init__(self, factory: DesignFactory) -> None:
        self.factory = factory
        self._memo: dict[tuple, DesignPoint | DomainError] = {}
        self._pending: _SweepColumns | None = None
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        if self._pending is not None:
            return len(self._memo) + self._pending.distinct_points()
        return len(self._memo)

    @property
    def _entries(self) -> dict[tuple, DesignPoint | DomainError]:
        """The memo dict, with any pending record expanded into it."""
        self._expand()
        return self._memo

    def _expand(self) -> None:
        record, self._pending = self._pending, None
        if record is not None:
            memo = self._memo
            for keys, outcomes in record.chunk_outcomes():
                for key, outcome in zip(keys, outcomes):
                    memo[key] = outcome

    def defer(self, record: "_SweepColumns") -> None:
        """Hold a columnar sweep's columns as the pending record.

        Counters are the sweep's business (it records its misses as it
        goes). A record only stays pending in an otherwise empty cache;
        anywhere else it expands at once, keeping insertion order.
        """
        empty = not len(self)
        self._expand()
        self._pending = record
        if not empty:
            self._expand()

    def pending_for(
        self, grid: ParameterGrid, chunk_size: int
    ) -> "_SweepColumns | None":
        """The pending record, when it covers exactly *grid* swept at
        *chunk_size* — a re-sweep may then adopt its columns whole."""
        record = self._pending
        if record is not None and record.covers(grid, chunk_size):
            return record
        return None

    @property
    def hits(self) -> int:
        """Lookups served from memo (read-only; see :meth:`record`)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that ran the factory (read-only)."""
        return self._misses

    def record(self, *, hits: int = 0, misses: int = 0) -> None:
        """Bump the counters — the one place they change, so batched
        hot loops and single-point lookups can't drift apart."""
        self._hits += hits
        self._misses += misses

    def stats(self) -> CacheStats:
        """Snapshot of hits, misses, hit ratio and entry count."""
        return CacheStats(hits=self._hits, misses=self._misses, size=len(self))

    def reset(self) -> None:
        """Zero the hit/miss counters (keeps memoized entries)."""
        self._hits = 0
        self._misses = 0

    def clear(self) -> None:
        """Drop all memoized evaluations (keeps hit/miss counters)."""
        self._memo.clear()
        self._pending = None

    def lookup(self, key: tuple) -> DesignPoint | DomainError | None:
        """The memoized outcome for *key*, or ``None`` when unseen."""
        return self._entries.get(key)

    def store(self, key: tuple, outcome: DesignPoint | DomainError) -> None:
        """Memoize a factory *outcome* (a design or a ``DomainError``)."""
        self._entries[key] = outcome

    def store_many(
        self,
        keys: Sequence[tuple],
        outcomes: Sequence[DesignPoint | DomainError],
        *,
        hits: int = 0,
        misses: int = 0,
    ) -> None:
        """Bulk-memoize a chunk's outcomes under its :func:`params_key`
        keys, bumping the counters once.

        The public API the batched paths (columnar, parallel-columnar,
        checkpoint restore) store through, so they share key
        construction with the scalar path instead of poking
        ``_entries`` with hand-rolled tuples.
        """
        if len(keys) != len(outcomes):
            raise ValidationError(
                f"store_many got {len(keys)} keys for {len(outcomes)} outcomes"
            )
        entries = self._entries
        for key, outcome in zip(keys, outcomes):
            entries[key] = outcome
        self.record(hits=hits, misses=misses)

    def evaluate(self, params: Mapping[str, object]) -> DesignPoint | DomainError:
        """Evaluate (or recall) one point; returns rather than raises
        the ``DomainError`` so batch paths can branch without except."""
        key = params_key(params)
        outcome = self._entries.get(key)
        if outcome is not None:
            self.record(hits=1)
            return outcome
        self.record(misses=1)
        try:
            outcome = self.factory(params)
        except DomainError as exc:
            outcome = exc
        self._entries[key] = outcome
        return outcome

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        """Drop-in memoized factory: raises the memoized ``DomainError``
        for invalid corners, exactly like the wrapped factory."""
        outcome = self.evaluate(params)
        if isinstance(outcome, DomainError):
            raise outcome
        return outcome


class _SalvageAbort(Exception):
    """Internal: the supervisor salvaged an irrecoverable pool — stop
    the chunk loop, keep the completed prefix, report the failure."""


def _scalar_job_params(job: Mapping[str, object]) -> Mapping[str, object]:
    """Quarantine ``describe`` hook for the scalar pool path, where a
    job *is* its grid-point parameter dict."""
    return job


def _chunked(
    points: Iterable[Mapping[str, object]], size: int
) -> Iterator[list[Mapping[str, object]]]:
    chunk: list[Mapping[str, object]] = []
    for point in points:
        chunk.append(point)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


@dataclass
class _StoreUse:
    """Per-sweep tally of what the persistent store contributed.

    ``memo_points``/``fresh_points`` are *not* here — those fall out of
    the cache-counter deltas (store- and checkpoint-served points bump
    neither counter, exactly like checkpoint restore always worked).
    """

    full_chunks: int = 0
    delta_chunks: int = 0
    memory_points: int = 0
    disk_points: int = 0


#: Known-row slot of a repeated point: its key is already being
#: evaluated this sweep (an earlier row), so the row takes that
#: outcome and counts as a cache hit.
_REPEAT = object()


@dataclass
class _Known:
    """The rows of one chunk that need no evaluation this sweep.

    ``outcomes`` has one slot per chunk row: the checkpoint-restored,
    quarantine-marker, store-served or cached outcome, :data:`_REPEAT`
    for a repeat of a point an earlier row evaluates, or ``None`` for a
    row still to evaluate. Only cache hits and repeats (``hits``) bump
    a cache counter; the others count as neither hits nor misses.
    ``probe`` is the store's answer when it was asked about the whole
    chunk; ``stored`` counts the rows the store served, from memory and
    from disk. ``restored`` holds the checkpoint's encoded rows of a
    restored chunk, re-saved as they are.
    """

    keys: list[tuple]
    outcomes: list
    hits: int = 0
    probe: "ChunkProbe | None" = None
    stored: tuple[int, int] = (0, 0)
    restored: "list | None" = None


@dataclass
class _SweepState:
    """A point-level sweep's known-row sources and the sinks each
    resolved chunk is recorded in. ``known`` is set when the known rows
    of every chunk were gathered up front (parallel sweeps, so only the
    rows no source knows reach the pool); ``seen`` then holds the keys
    of every row left to evaluate."""

    ckpt: "CheckpointStore | None" = None
    fingerprint: "dict | None" = None
    restored: list = field(default_factory=list)
    saved: list = field(default_factory=list)
    session: "SweepStoreSession | None" = None
    use: "_StoreUse | None" = None
    qsession: "QuarantineSession | None" = None
    known: "dict[int, _Known] | None" = None
    seen: "set[tuple] | None" = None


class _ParallelPlan:
    """Execution state of one parallel-columnar sweep.

    Holds the grid's index, the shared result block, the worker pool
    and the shard spans still to evaluate (rows some source already
    knows are left out: their block rows are never written or read).
    The kernel-phase timing fields feed the ``focal_parallel_*``
    gauges.
    """

    def __init__(
        self,
        index: _GridIndex,
        chunk_size: int,
        block: "_parallel.ColumnarBlock",
        pool,
        spans: list[tuple[int, int]],
        planned: set[int],
        spill_dir: str | None = None,
    ) -> None:
        self.index = index
        self.chunk_size = chunk_size
        self.block = block
        self.pool = pool
        self.spans = spans
        #: Chunk indices whose unknown rows the kernel phase fills —
        #: only these may be read back via :meth:`chunk_arrays`.
        self.planned = planned
        #: Chunk indices covered by shards the supervisor salvaged as
        #: INCOMPLETE — their block rows were never written and the
        #: chunk loop must stop (salvage) when it reaches them.
        self.failed: set[int] = set()
        #: Crash-spill directory for worker events (None when telemetry
        #: is off) — collected and removed when the sweep winds down.
        self.spill_dir = spill_dir
        #: Captured at setup — the block is released before stats are
        #: cut.
        self.shm_bytes = block.nbytes
        self.spill_nbytes = block.spill_nbytes
        self.kernel_wall = 0.0
        self.busy = 0.0

    @property
    def shard_points(self) -> int:
        """The largest dispatched span, in grid points."""
        return max((hi - lo for lo, hi in self.spans), default=0)

    @property
    def tail_shard_points(self) -> int:
        """The smallest dispatched span, in grid points."""
        return min((hi - lo for lo, hi in self.spans), default=0)

    def chunk_arrays(
        self, index: int, rows: "Sequence[int] | None" = None
    ) -> DesignArrays:
        """Chunk *index*'s kernel columns — only its *rows*, when given —
        copied out of the block (so the shared segment can be unlinked
        before results are dropped)."""
        lo = index * self.chunk_size
        hi = min(lo + self.chunk_size, self.index.total)
        columns = self.block.rows(lo, hi)
        if rows is not None:
            columns = tuple(column[rows] for column in columns)
        return DesignArrays(*columns)

    def release(self) -> None:
        self.block.release()


@dataclass(frozen=True)
class DesignArrays:
    """One grid chunk evaluated as columns instead of objects.

    ``area``/``perf``/``power`` hold the would-be
    :class:`~repro.core.design.DesignPoint` fields for each row of the
    chunk; ``valid`` marks rows the scalar factory would return for
    (``False`` rows are the corners it would reject with
    :class:`~repro.core.errors.DomainError`, and their area/perf/power
    values are placeholders that must never be read).
    """

    area: np.ndarray
    perf: np.ndarray
    power: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        area = np.asarray(self.area, dtype=np.float64)
        perf = np.asarray(self.perf, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if area.ndim != 1 or {perf.shape, power.shape, valid.shape} != {area.shape}:
            raise ValidationError(
                "DesignArrays columns must be 1-D arrays of one common "
                f"length, got shapes area={area.shape}, perf={perf.shape}, "
                f"power={power.shape}, valid={valid.shape}"
            )
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "perf", perf)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return int(self.area.shape[0])


class _GridIndex:
    """Flat-row arithmetic over a grid's cartesian product.

    Grid iteration is row-major, so point ``i`` takes value
    ``axis[(i // stride) % len(axis)]`` where an axis's stride is the
    product of the later axes' sizes. That yields a chunk's kernel
    columns, or any rows' parameter dicts, without iterating the grid.
    """

    def __init__(self, grid: ParameterGrid) -> None:
        self.names = list(grid.axes)
        self.sizes = [len(grid.axes[name]) for name in self.names]
        self.strides = [1] * len(self.names)
        for axis in range(len(self.names) - 2, -1, -1):
            self.strides[axis] = self.strides[axis + 1] * self.sizes[axis + 1]
        self.total = len(grid)
        self._arrays = [np.asarray(grid.axes[name]) for name in self.names]

    def columns(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """One NumPy column per axis for grid rows ``[start, stop)``."""
        rows = np.arange(start, stop)
        return {
            name: values[(rows // stride) % size]
            for name, values, stride, size in zip(
                self.names, self._arrays, self.strides, self.sizes
            )
        }

    def params(
        self, grid: ParameterGrid, rows: np.ndarray
    ) -> list[dict[str, object]]:
        """The grid-point dicts of *rows*, holding the grid's own value
        objects (exactly what iterating the grid yields)."""
        values = []
        for name, stride, size in zip(self.names, self.strides, self.sizes):
            axis = grid.axes[name]
            values.append([axis[i] for i in ((rows // stride) % size).tolist()])
        names = self.names
        return [dict(zip(names, combo)) for combo in zip(*values)]

    def distinct(self, grid: ParameterGrid, stop: int) -> int:
        """Distinct cache keys among grid rows ``[0, stop)``.

        Keys compare by value (``1 == 1.0``), so each axis value maps to
        the class of the first equal value; a full grid then has the
        product of the class counts, a prefix is counted row by row.
        """
        classes = []
        counts = []
        for name in self.names:
            first: dict[object, int] = {}
            classes.append(
                [first.setdefault(value, len(first)) for value in grid.axes[name]]
            )
            counts.append(len(first))
        if stop == self.total:
            return math.prod(counts)
        rows = np.arange(stop)
        code = np.zeros(stop, dtype=np.int64)
        for ids, stride, size in zip(classes, self.strides, self.sizes):
            code = code * size + np.asarray(ids)[(rows // stride) % size]
        return int(np.unique(code).size)


def _check_design_columns(
    area: np.ndarray, perf: np.ndarray, power: np.ndarray
) -> None:
    """DesignPoint's finite-and-positive checks over whole columns:
    raises the ``ValidationError`` the first offending row's
    DesignPoint would (same field order, same message)."""
    ok = np.ones(area.shape, dtype=bool)
    for column in (area, perf, power):
        ok &= np.isfinite(column) & (column > 0.0)
    if ok.all():
        return
    row = int(np.argmin(ok))
    for name, column in (("area", area), ("perf", perf), ("power", power)):
        ensure_positive(float(column[row]), name)


def _design_slots(
    factory: DesignFactory,
    chunk: Sequence[Mapping[str, object]],
    arrays: DesignArrays,
) -> list[DesignPoint | None]:
    """The factory's ``design_points`` over one chunk's valid rows, one
    slot per row: ``None`` for invalid rows, rows the materializer left
    unbuilt, and every row of a factory without one."""
    builder = getattr(factory, "design_points", None)
    if builder is None:
        return [None] * len(chunk)
    valid = arrays.valid
    if valid.all():
        return list(builder(chunk, arrays))
    # Builders may assume every row holds a constructible design (an
    # all-valid factory never sees holes), but quarantined/never-written
    # block rows are zeros — build from the valid subset only and
    # scatter back. The conversions stay elementwise, so this is
    # bit-exact.
    rows = np.flatnonzero(valid)
    sub = DesignArrays(
        area=arrays.area[rows],
        perf=arrays.perf[rows],
        power=arrays.power[rows],
        valid=valid[rows],
    )
    slots: list[DesignPoint | None] = [None] * len(chunk)
    for row, point in zip(rows.tolist(), builder([chunk[r] for r in rows], sub)):
        slots[row] = point
    return slots


def _fill_outcomes(
    factory: DesignFactory,
    chunk: Sequence[Mapping[str, object]],
    slots: list,
    marker: Callable[[Mapping[str, object]], object] | None = None,
) -> list:
    """Complete one chunk's outcome *slots* in place: every empty slot
    takes the quarantine *marker*'s answer for its point, if any, else
    one scalar call's outcome — for an invalid corner, the genuine
    ``DomainError``."""
    for row, outcome in enumerate(slots):
        if outcome is None and marker is not None:
            outcome = marker(chunk[row])
        if outcome is None:
            try:
                outcome = factory(chunk[row])
            except DomainError as exc:
                outcome = exc
        slots[row] = outcome
    return slots


class _SweepColumns:
    """A columnar sweep's result, kept as columns.

    Holds each valid row's area/perf/power and its flat grid row index
    for grid rows ``[0, covered)``, plus what it takes to build point
    objects from them on demand: the parameter dicts, the named
    DesignPoints (memoized, so a :class:`BatchSweepResult` and the
    :class:`FactoryCache` expanding this record share the objects) and
    the per-chunk cache outcomes an eager sweep would have stored.
    """

    def __init__(
        self, factory: DesignFactory, grid: ParameterGrid, chunk_size: int
    ) -> None:
        self.factory = factory
        self.grid = grid
        self.chunk_size = chunk_size
        self.index = _GridIndex(grid)
        self.covered = 0
        self._parts: list[tuple[np.ndarray, ...]] = []
        self.rows = np.zeros(0, dtype=np.int64)
        self.area = self.perf = self.power = np.zeros(0)
        self._params: tuple[dict[str, object], ...] | None = None
        self._designs: tuple[DesignPoint, ...] | None = None
        self._distinct: int | None = None

    def add(self, start: int, arrays: DesignArrays) -> int:
        """Keep chunk ``[start, start + len(arrays))``'s valid rows;
        returns how many there were."""
        valid = arrays.valid
        if valid.all():
            rows = np.arange(start, start + len(arrays))
            area, perf, power = arrays.area, arrays.perf, arrays.power
        else:
            keep = np.flatnonzero(valid)
            rows = keep + start
            area, perf, power = (
                arrays.area[keep], arrays.perf[keep], arrays.power[keep]
            )
        _check_design_columns(area, perf, power)
        self._parts.append((rows, area, perf, power))
        self.covered = start + len(arrays)
        return int(rows.shape[0])

    def seal(self) -> None:
        """Concatenate the collected chunks into the final columns."""
        if self._parts:
            self.rows, self.area, self.perf, self.power = (
                np.concatenate(part) for part in zip(*self._parts)
            )
            self._parts = []

    def covers(self, grid: ParameterGrid, chunk_size: int) -> bool:
        """Whether this is a complete sweep of *grid* (equal axes, in
        order, so equal cache keys row for row) at *chunk_size*."""
        return (
            chunk_size == self.chunk_size
            and self.covered == self.index.total
            and list(grid.axes) == self.index.names
            and all(
                list(grid.axes[name]) == list(self.grid.axes[name])
                for name in self.index.names
            )
        )

    def distinct_points(self) -> int:
        """Cache entries this record expands to."""
        if self._distinct is None:
            self._distinct = self.index.distinct(self.grid, self.covered)
        return self._distinct

    def params(
        self, grid: ParameterGrid | None = None
    ) -> tuple[dict[str, object], ...]:
        """The valid rows' parameter dicts, from *grid*'s own values
        (default: the swept grid, memoized)."""
        if grid is not None and grid is not self.grid:
            return tuple(self.index.params(grid, self.rows))
        if self._params is None:
            self._params = tuple(self.index.params(self.grid, self.rows))
        return self._params

    def _chunk_bounds(self) -> Iterator[tuple[int, int, int, int]]:
        """``(lo, hi, first, last)`` per swept chunk: grid rows
        ``[lo, hi)`` hold valid rows ``[first, last)`` of the columns."""
        edges = np.arange(0, self.covered, self.chunk_size)
        cuts = np.searchsorted(self.rows, edges).tolist() + [len(self.rows)]
        for k, lo in enumerate(edges.tolist()):
            yield lo, min(lo + self.chunk_size, self.covered), cuts[k], cuts[k + 1]

    def designs(self) -> tuple[DesignPoint, ...]:
        """The valid rows' DesignPoints: the factory's ``design_points``
        per chunk, one scalar call for any row it leaves ``None`` (or
        for every row, when the factory has no materializer)."""
        if self._designs is not None:
            return self._designs
        params = self.params()
        designs: list[DesignPoint] = []
        for _, _, first, last in self._chunk_bounds():
            chunk = list(params[first:last])
            if not chunk:
                continue
            arrays = DesignArrays(
                area=self.area[first:last],
                perf=self.perf[first:last],
                power=self.power[first:last],
                valid=np.ones(len(chunk), dtype=bool),
            )
            designs += _fill_outcomes(
                self.factory, chunk, _design_slots(self.factory, chunk, arrays)
            )
        self._designs = tuple(designs)
        return self._designs

    def chunk_outcomes(
        self,
    ) -> Iterator[tuple[list[tuple], list[DesignPoint | DomainError]]]:
        """``(keys, outcomes)`` per swept chunk in grid order: exactly
        what an eager sweep memoizes — the designs for valid rows and,
        for each invalid corner, the outcome of one scalar call (the
        genuine ``DomainError``)."""
        designs = self.designs()
        for lo, hi, first, last in self._chunk_bounds():
            chunk = self.index.params(self.grid, np.arange(lo, hi))
            slots: list = [None] * len(chunk)
            for row, design in zip(
                (self.rows[first:last] - lo).tolist(), designs[first:last]
            ):
                slots[row] = design
            yield params_keys(chunk), _fill_outcomes(self.factory, chunk, slots)


@runtime_checkable
class VectorFactory(Protocol):
    """A design factory that can also evaluate whole chunks columnar.

    A vector factory is first of all an ordinary
    :data:`~repro.dse.explorer.DesignFactory` — ``factory(params)``
    returns one :class:`~repro.core.design.DesignPoint` or raises
    :class:`~repro.core.errors.DomainError`. On top of that it maps a
    whole parameter-grid chunk, presented as one NumPy column per axis,
    to :class:`DesignArrays` in a handful of vectorized passes.

    The contract that makes the fast path safe to take silently:

    * ``batch_arrays`` must be **bit-exact** with the scalar call — for
      every valid row, the columns equal the scalar design's
      area/perf/power fields to the last bit (build on the
      ``repro.*.batch`` kernels, which guarantee this);
    * ``valid`` must be ``True`` exactly where the scalar call returns
      instead of raising ``DomainError`` (skip semantics);
    * optionally, a ``design_points(chunk, arrays)`` method may
      materialize the named :class:`DesignPoint` objects for a chunk
      (``None`` for invalid rows); without it the engine falls back to
      the scalar call per point when point objects are required.
    """

    def __call__(self, params: Mapping[str, object]) -> DesignPoint: ...

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays: ...


def is_vector_factory(factory: object) -> bool:
    """Whether *factory* implements the :class:`VectorFactory` protocol."""
    return isinstance(factory, VectorFactory)


#: The two engine modes that run the columnar kernels.
COLUMNAR_MODES = ("columnar", "parallel-columnar")

# ``workers="auto"`` calibration knobs. The heuristic projects the
# serial sweep time from one in-process chunk and engages the pool only
# when dispatch can win by a clear margin — the cost model is
# deliberately pessimistic about the pool (spawn cost per worker,
# margin over break-even), so a wrong guess errs toward the serial
# columnar path, which is never slower than itself.
#: Projected serial seconds below which a pool can never pay off.
AUTO_MIN_SERIAL_S = 0.5
#: Assumed process spawn + initializer cost per worker, seconds.
AUTO_SPAWN_S = 0.06
#: The projected parallel time must beat serial by this factor.
AUTO_MARGIN = 1.3
#: Auto never picks more workers than this (diminishing returns).
AUTO_MAX_WORKERS = 8


@dataclass(frozen=True)
class SweepEngineStats:
    """How the engine executed the last sweep (one immutable snapshot).

    ``mode`` names the execution path the engine resolved to, from the
    factory and the worker count alone: ``"parallel-columnar"`` (vector
    factory, worker pool, shard dispatch), ``"columnar"`` (vector
    factory, single process), ``"scalar-pool"`` (any other factory,
    per-point calls over a worker pool), ``"scalar"`` (per-point calls
    in-process) or ``"memo"`` (a re-sweep that adopted the cache's
    pending columns whole — no factory, kernel or pool ran).
    ``vector_points`` counts the rows evaluated through
    ``batch_arrays`` — the cache misses of a columnar sweep; rows the
    cache, a checkpoint or the store already knew are not among them.
    The ``shards``/``shard_points``/``shm_bytes``/
    ``worker_utilization`` fields are populated by parallel-columnar
    sweeps only and feed the ``focal_parallel_*`` gauges.
    """

    mode: str
    grid_points: int
    valid_points: int
    vector_points: int
    seconds: float
    workers: int = 0
    shards: int = 0
    shard_points: int = 0
    shm_bytes: int = 0
    worker_utilization: float = 0.0
    #: The smallest dispatched shard of a parallel-columnar sweep in
    #: grid points (the steal tail), and file bytes backing the sweep's
    #: result block (0 when it sat in shared memory).
    tail_shard_points: int = 0
    spill_bytes: int = 0
    #: True when ``workers="auto"`` resolved this sweep's worker count
    #: (``workers`` then records the calibrated choice).
    auto_workers: bool = False
    #: Point provenance: memo_points came from the FactoryCache,
    #: fresh_points actually ran the factory/kernels this sweep, and
    #: the store_* fields (persistent-store sweeps only; store_used
    #: marks them meaningful) split the rest by store tier.
    memo_points: int = 0
    fresh_points: int = 0
    store_used: bool = False
    store_chunks: int = 0
    delta_chunks: int = 0
    store_memory_points: int = 0
    store_disk_points: int = 0
    #: Failure containment: grid points excluded by quarantine this
    #: sweep (pre-filtered known poison plus freshly bisected), and
    #: whether the sweep ended as a salvaged partial result.
    quarantined_points: int = 0
    salvaged: bool = False

    @property
    def evals_per_s(self) -> float:
        """Grid points evaluated per second (0.0 for an untimed sweep)."""
        return self.grid_points / self.seconds if self.seconds > 0 else 0.0

    @property
    def store_points(self) -> int:
        """Points adopted from the persistent store (either tier)."""
        return self.store_memory_points + self.store_disk_points

    @property
    def store_reuse_ratio(self) -> float:
        """Store-served points over grid points (0.0 without a store)."""
        return self.store_points / self.grid_points if self.grid_points else 0.0

    def summary(self) -> str:
        """One human line for CLI output."""
        line = (
            f"engine: {self.mode} path, {self.grid_points} pts in "
            f"{self.seconds:.3f} s ({self.evals_per_s:,.0f} evals/s)"
        )
        if self.auto_workers:
            line += (
                f", workers auto->{self.workers}"
                if self.workers
                else ", workers auto->serial"
            )
        if self.shards:
            line += (
                f", {self.shards} shards (<= {self.shard_points} pts) "
                f"x {self.workers} workers, "
                f"{self.worker_utilization:.0%} kernel utilization"
            )
        if self.spill_bytes:
            line += f", {self.spill_bytes / 1e6:.1f} MB spilled"
        if self.store_used:
            line += (
                f", store reuse: {self.store_reuse_ratio * 100:.1f}% "
                f"({self.store_memory_points} pts memory / "
                f"{self.store_disk_points} pts disk / "
                f"{self.fresh_points} fresh)"
            )
            if self.delta_chunks:
                line += f", {self.delta_chunks} stitched delta chunks"
        if self.quarantined_points:
            line += f", {self.quarantined_points} quarantined pts"
        if self.salvaged:
            line += ", salvaged partial result"
        return line

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "mode": self.mode,
            "grid_points": self.grid_points,
            "valid_points": self.valid_points,
            "vector_points": self.vector_points,
            "seconds": self.seconds,
            "evals_per_s": self.evals_per_s,
            "memo_points": self.memo_points,
            "fresh_points": self.fresh_points,
        }
        if self.auto_workers:
            payload["auto_workers"] = True
            payload["workers"] = self.workers
        if self.shards:
            payload.update(
                workers=self.workers,
                shards=self.shards,
                shard_points=self.shard_points,
                shm_bytes=self.shm_bytes,
                worker_utilization=self.worker_utilization,
                tail_shard_points=self.tail_shard_points,
            )
        if self.spill_bytes:
            payload["spill_bytes"] = self.spill_bytes
        if self.store_used:
            payload.update(
                store_chunks=self.store_chunks,
                delta_chunks=self.delta_chunks,
                store_points=self.store_points,
                store_memory_points=self.store_memory_points,
                store_disk_points=self.store_disk_points,
                store_reuse_ratio=self.store_reuse_ratio,
            )
        if self.quarantined_points:
            payload["quarantined_points"] = self.quarantined_points
        if self.salvaged:
            payload["salvaged"] = True
        return payload


class _LazyPoints:
    """A :class:`BatchSweepResult` point field (``params``/``designs``):
    an ordinary dataclass field when the sweep supplied it, built from
    the sweep's columns on first read — then memoized — when it kept
    its result as columns. ``dataclasses.replace`` and the generated
    ``__init__`` go through it like through any field."""

    def __init__(self, build: Callable[["BatchSweepResult"], tuple]) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.slot = "_" + name

    def __get__(
        self, result: "BatchSweepResult | None", owner: type | None = None
    ):
        if result is None:
            # No class-level default: the dataclass field stays required.
            raise AttributeError(self.name)
        value = result.__dict__[self.slot]
        if value is None:
            value = self.build(result)
            result.__dict__[self.slot] = value
        return value

    def __set__(self, result: "BatchSweepResult", value: object) -> None:
        result.__dict__[self.slot] = value


@dataclass(frozen=True)
class BatchSweepResult:
    """A whole sweep held as arrays (valid points only, grid order).

    ``perf``, ``ncf_fixed_work``, ``ncf_fixed_time`` and ``codes`` are
    the result. A sweep that kept its result as columns builds
    ``params`` (the grid's own value objects) and ``designs`` on first
    read and memoizes them; either way they equal what an eager sweep
    holds. ``quarantined`` lists the grid points failure containment
    excluded (always reported, never silent), and ``failure`` is the
    :class:`~repro.resilience.containment.FailureReport` of a salvaged
    partial run (``None`` for a run that completed).
    """

    params: tuple[Mapping[str, object], ...] = _LazyPoints(  # type: ignore[assignment]
        lambda result: result._columns.params(result._grid)
    )
    designs: tuple[DesignPoint, ...] = _LazyPoints(  # type: ignore[assignment]
        lambda result: result._columns.designs()
    )
    perf: np.ndarray
    ncf_fixed_work: np.ndarray
    ncf_fixed_time: np.ndarray
    codes: np.ndarray
    quarantined: tuple[Mapping[str, object], ...] = ()
    failure: "FailureReport | None" = None
    _columns: "_SweepColumns | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _grid: ParameterGrid | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def _from_columns(
        cls,
        columns: _SweepColumns,
        grid: ParameterGrid,
        perf: np.ndarray,
        ncf_fixed_work: np.ndarray,
        ncf_fixed_time: np.ndarray,
        codes: np.ndarray,
        failure: "FailureReport | None" = None,
    ) -> "BatchSweepResult":
        """A result whose points are built from *columns* on demand
        (``params`` from *grid*'s own values)."""
        result = cls(
            None,  # type: ignore[arg-type]
            None,  # type: ignore[arg-type]
            perf,
            ncf_fixed_work,
            ncf_fixed_time,
            codes,
            failure=failure,
        )
        object.__setattr__(result, "_columns", columns)
        object.__setattr__(result, "_grid", grid)
        return result

    def __len__(self) -> int:
        return int(self.perf.shape[0])

    @property
    def complete(self) -> bool:
        """Whether the sweep covered every non-quarantined point."""
        return self.failure is None

    @property
    def categories(self) -> list[Sustainability]:
        """Per-point sustainability categories, grid order."""
        return categories_from_codes(self.codes)

    def category_counts(self, *, include_empty: bool = False) -> dict[Sustainability, int]:
        """Category histogram (``np.bincount`` over the codes).

        With the default ``include_empty=False`` only observed
        categories appear — the same mapping
        :meth:`Explorer.count_categories` builds.
        """
        counts = category_counts(self.codes)
        if include_empty:
            return counts
        return {category: n for category, n in counts.items() if n}

    def results(self) -> list[ExplorationResult]:
        """The sweep as scalar :class:`ExplorationResult` objects,
        byte-identical to what ``Explorer.explore`` returns."""
        return [
            ExplorationResult(
                params=params,
                design=design,
                perf=float(perf),
                ncf_fixed_work=float(fw),
                ncf_fixed_time=float(ft),
            )
            for params, design, perf, fw, ft in zip(
                self.params, self.designs, self.perf,
                self.ncf_fixed_work, self.ncf_fixed_time,
            )
        ]


@dataclass(frozen=True)
class BatchExplorer:
    """Sweep a design factory over a grid with vectorized evaluation.

    Parameters
    ----------
    factory, baseline, weight:
        As in :class:`~repro.dse.explorer.Explorer`.
    chunk_size:
        Grid points are streamed in chunks of this size, bounding
        memory on huge grids.
    workers:
        When > 0, factory evaluation of uncached points fans out over a
        ``ProcessPoolExecutor`` with this many workers. Factories must
        then be picklable (module-level functions); the pool only pays
        off when a single factory call is expensive relative to ~1 ms
        of IPC per chunk. The string ``"auto"`` calibrates instead of
        guessing: the first chunk is timed in-process and the pool
        engages only when the projected serial time is large enough
        for dispatch to win (otherwise the sweep runs the columnar
        ``workers=0`` path — never slower than serial by construction).
        The calibration chunk's arrays are reused, so auto costs no
        extra kernel work on the sweep it serves. A vector factory's
        pool sweep plans geometrically shrinking
        chunk-aligned shards and submits one executor future each, so
        idle workers pull the next shard off the shared call queue the
        moment they finish one (work stealing).
    spill_dir, spill_bytes:
        Out-of-core policy. When ``spill_bytes`` is set, a parallel
        sweep's result block at or above that many bytes is backed by
        an mmapped file instead of shared memory; a bare ``spill_dir``
        (threshold unset) always spills. Files land under
        ``spill_dir`` (a temp dir when only the threshold is given) and
        are removed when the sweep winds down. A host without usable
        shared memory gets the file backing too. Results are
        byte-identical to the in-RAM path.
    cache:
        A :class:`FactoryCache` to (re)use; by default a private one is
        created, so repeated sweeps — ``subgrid`` pins, tornado runs —
        never re-evaluate a design.
    resilience:
        A :class:`~repro.resilience.policy.RetryPolicy` to supervise
        worker dispatch with (crash recovery, per-chunk timeouts,
        bounded retry with backoff, in-process degradation). ``None``
        (the default) keeps the bare ``ProcessPoolExecutor`` path.
        Supervision never changes results — it only re-executes pure
        factory calls that failed to come back.
    """

    factory: DesignFactory
    baseline: DesignPoint
    weight: E2OWeight
    chunk_size: int = 1024
    workers: int | str = 0
    cache: FactoryCache = field(default=None)  # type: ignore[assignment]
    resilience: RetryPolicy | None = None
    spill_dir: str | os.PathLike | None = None
    spill_bytes: int | None = None
    #: Engine execution snapshot of the most recent sweep (set by
    #: explore_arrays/count_categories; None before the first sweep).
    last_sweep: SweepEngineStats | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Supervision counters of the most recent supervised sweep (None
    #: before the first sweep or when resilience is disabled).
    last_supervision: SupervisionStats | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Worker count the current/most recent sweep resolved to (equals
    #: ``workers`` unless ``workers="auto"`` calibrated a choice).
    _active_workers: int | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Calibration leftovers of an auto sweep: ``(grid, points,
    #: arrays)`` of the first chunk, reused so calibration costs no
    #: extra kernels.
    _cal: "tuple[ParameterGrid, int, DesignArrays] | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ValidationError(
                    f"workers must be an int >= 0 or 'auto', got "
                    f"{self.workers!r}"
                )
        elif self.workers < 0:
            raise ValidationError(f"workers must be >= 0, got {self.workers}")
        if self.spill_bytes is not None and self.spill_bytes < 0:
            raise ValidationError(
                f"spill_bytes must be >= 0, got {self.spill_bytes}"
            )
        if self.cache is None:
            object.__setattr__(self, "cache", FactoryCache(self.factory))

    # ------------------------------------------------------------------
    # Worker-count resolution (the ``workers="auto"`` calibration)
    # ------------------------------------------------------------------
    @property
    def _pool_workers(self) -> int:
        """The worker count in effect: the resolved choice during a
        sweep, else the configured int (0 while ``"auto"`` is
        unresolved — the conservative reading)."""
        if self._active_workers is not None:
            return self._active_workers
        return self.workers if isinstance(self.workers, int) else 0

    @staticmethod
    def _cpu_count() -> int:
        try:
            return len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            return os.cpu_count() or 1

    @staticmethod
    def _auto_decision(serial_est_s: float, cpus: int) -> int:
        """Workers the calibration picks for a projected serial time."""
        if cpus < 2 or serial_est_s < AUTO_MIN_SERIAL_S:
            return 0
        candidate = min(cpus, AUTO_MAX_WORKERS)
        parallel_est = serial_est_s / candidate + AUTO_SPAWN_S * candidate
        return candidate if serial_est_s > AUTO_MARGIN * parallel_est else 0

    def _activate_workers(self, grid: ParameterGrid) -> int:
        """Resolve ``workers`` for this sweep, calibrating ``"auto"``.

        Auto on a cold :class:`VectorFactory` times the first chunk's
        ``batch_arrays`` in-process and projects the serial sweep time;
        the pool engages only when dispatch can win by a margin, so the
        auto path is never slower than ``workers=0`` (when it declines,
        it *is* the ``workers=0`` path, and the calibration arrays are
        reused for the first chunk). A warm cache or a scalar-only
        factory resolves to 0: calibration needs a first chunk nothing
        is known of, and a scalar factory has no kernel to time.
        """
        cal = self._cal
        if cal is not None and cal[0] is grid:
            # Already calibrated for this sweep (count_categories hands
            # the sweep on to explore_arrays).
            return self._pool_workers
        object.__setattr__(self, "_cal", None)
        if self.workers != "auto":
            object.__setattr__(self, "_active_workers", self.workers)
            return self.workers
        resolved = 0
        if len(self.cache) == 0 and is_vector_factory(self.factory):
            first = min(self.chunk_size, len(grid))
            columns = _GridIndex(grid).columns(0, first)
            begin = time.perf_counter()
            arrays = self.factory.batch_arrays(columns)
            elapsed = time.perf_counter() - begin
            self._check_rows(arrays, first)
            serial_est = elapsed / first * len(grid)
            resolved = self._auto_decision(serial_est, self._cpu_count())
            object.__setattr__(self, "_cal", (grid, first, arrays))
        object.__setattr__(self, "_active_workers", resolved)
        return resolved

    def _take_cal_arrays(self, chunk_len: int) -> "DesignArrays | None":
        """The calibration chunk's arrays, if they cover exactly this
        first chunk (consumed — reuse is single-shot)."""
        cal = self._cal
        object.__setattr__(self, "_cal", None)
        if cal is not None and cal[1] == chunk_len:
            return cal[2]
        return None

    @staticmethod
    def _check_rows(arrays: DesignArrays, points: int) -> None:
        if len(arrays) != points:
            raise ConfigurationError(
                f"batch_arrays returned {len(arrays)} rows for a "
                f"{points}-point chunk"
            )

    def _chunk_kernel(self, index: _GridIndex, start: int) -> DesignArrays:
        """Kernel columns of the chunk starting at grid row *start*, for
        a sweep that keeps its result as columns: stride-built axis
        columns, the ``workers="auto"`` calibration arrays reused for
        the first chunk, and the row count checked against the chunk.
        """
        stop = min(start + self.chunk_size, index.total)
        if start == 0:
            cal = self._take_cal_arrays(stop)
            if cal is not None:
                return cal
        arrays = self.factory.batch_arrays(index.columns(start, stop))
        self._check_rows(arrays, stop - start)
        return arrays

    # ------------------------------------------------------------------
    # The chunk resolver: known rows, one evaluator, one record
    # ------------------------------------------------------------------
    def _resolve_mode(self) -> str:
        """The execution mode this sweep will run under, from the
        factory and the worker count alone: a vector factory runs
        ``columnar`` (``parallel-columnar`` with workers, grid shards
        dispatched as row spans — :mod:`repro.dse.parallel`), any other
        factory ``scalar`` (``scalar-pool`` with workers). Decided once
        at sweep start.
        """
        if is_vector_factory(self.factory):
            return "parallel-columnar" if self._pool_workers else "columnar"
        return "scalar-pool" if self._pool_workers else "scalar"

    def _known_rows(
        self, index: int, chunk: Sequence[Mapping[str, object]], state: _SweepState
    ) -> _Known:
        """Every row of chunk *index* some source already knows.

        A checkpoint-restored chunk is known whole. Otherwise the
        sources fill the still-empty slots in order: quarantine markers
        for ledger-known poison (re-running one would crash a worker,
        or the sweep itself), then the store probe, then cache hits,
        then repeats of a point an earlier row of the chunk — or, when
        the sweep gathers every chunk up front, of the sweep — left to
        evaluate (``state.seen``), so each point is evaluated once.
        """
        keys = params_keys(chunk)
        if index < len(state.restored):
            rows = state.restored[index]
            if len(rows) != len(chunk):
                raise CheckpointError(
                    f"checkpoint {state.ckpt.path} records {len(rows)} "
                    f"outcomes for a {len(chunk)}-point chunk; the file "
                    "does not match this grid"
                )
            return _Known(keys, decode_outcomes(rows), restored=rows)
        known = _Known(keys, [None] * len(chunk))
        outcomes = known.outcomes
        qsession = state.qsession
        if qsession is not None and qsession.known_count:
            outcomes[:] = [qsession.marker(params) for params in chunk]
        if state.session is not None:
            # The store is asked only for rows no marker claimed, so its
            # tally counts exactly the rows it serves.
            rows = [row for row, outcome in enumerate(outcomes) if outcome is None]
            if rows:
                whole = len(rows) == len(chunk)
                probe = state.session.probe(
                    chunk if whole else [chunk[row] for row in rows]
                )
                for row, stored in zip(rows, probe.outcomes):
                    outcomes[row] = stored
                known.probe = probe if whole else None
                known.stored = (probe.memory_points, probe.disk_points)
        seen = state.seen
        if seen is None and len(set(keys)) < len(keys):
            seen = set()
        if seen is not None or len(self.cache):
            entries = self.cache._entries
            for row, key in enumerate(keys):
                if outcomes[row] is None:
                    outcome = entries.get(key)
                    if outcome is None and seen is not None:
                        if key not in seen:
                            seen.add(key)
                            continue
                        outcome = _REPEAT
                    if outcome is not None:
                        outcomes[row] = outcome
                        known.hits += 1
        return known

    def _evaluate_rows(
        self,
        chunk: Sequence[Mapping[str, object]],
        missing: "list[int] | None" = None,
        index: int | None = None,
        plan: "_ParallelPlan | None" = None,
        pool: "ProcessPoolExecutor | SupervisedPool | None" = None,
        qsession: "QuarantineSession | None" = None,
    ) -> list[DesignPoint | DomainError]:
        """Evaluate the *missing* rows of *chunk* (default: all of
        them) — the one place that chooses how missing rows run.

        A vector factory runs its columnar kernel. The kernel columns
        come from the parallel plan's block when chunk *index* was
        planned (the pool evaluated exactly its missing rows), or from
        the ``workers="auto"`` calibration when they are all of chunk
        0; otherwise ``batch_arrays`` runs over the rows' own columns,
        which is bit-exact for any subset because the kernels are
        elementwise. ``_design_slots`` then builds the named
        DesignPoints and ``_fill_outcomes`` completes the rest: a
        rejected corner takes one scalar call (its genuine
        ``DomainError``), a row the supervisor bisected out of the
        block takes its quarantine marker. Any other factory takes one
        scalar call per point, or the scalar pool.
        """
        factory = self.factory
        rows = chunk if missing is None else [chunk[row] for row in missing]
        marker = qsession.marker if qsession is not None else None
        if is_vector_factory(factory):
            arrays = None
            if plan is not None and index in plan.planned:
                arrays = plan.chunk_arrays(index, missing)
            elif index == 0 and missing is None:
                arrays = self._take_cal_arrays(len(rows))
            if arrays is None:
                arrays = factory.batch_arrays(self._chunk_columns(rows))
                self._check_rows(arrays, len(rows))
            return _fill_outcomes(
                factory, rows, _design_slots(factory, rows, arrays), marker
            )
        if pool is None:
            return _fill_outcomes(factory, rows, [None] * len(rows))
        # The factory itself shipped once, at pool creation, via the
        # worker initializer — each job carries only its param dict.
        if isinstance(pool, SupervisedPool):
            evaluated: Iterable = pool.run(
                _parallel.pool_evaluate, rows, describe=_scalar_job_params
            )
        else:
            evaluated = pool.map(_parallel.pool_evaluate, rows)
        outcomes = list(evaluated)
        incomplete = sum(outcome is INCOMPLETE for outcome in outcomes)
        if incomplete:
            # Salvaged slots: never cache a sentinel; the chunk as a
            # whole is unfinished and aborts the sweep.
            raise _SalvageAbort(
                f"worker pool never completed {incomplete} point(s) "
                "of this chunk"
            )
        return outcomes

    def _resolve_chunk(
        self,
        index: int,
        chunk: Sequence[Mapping[str, object]],
        state: _SweepState,
        plan: "_ParallelPlan | None",
        pool,
    ) -> list[DesignPoint | DomainError]:
        """Resolve one chunk of a point-level sweep.

        Gathers the chunk's known rows (up front for a parallel sweep,
        else now), evaluates the rest once through
        :meth:`_evaluate_rows`, stitches, and records the chunk once:
        in the cache (cache hits and repeats count as hits, every
        evaluated row as a miss, other known rows as neither), in the
        store (unless the store served the whole chunk) and in the
        checkpoint (a restored chunk is re-saved as it was).
        """
        if state.known is not None:
            known = state.known.pop(index)
        else:
            known = self._known_rows(index, chunk, state)
        outcomes = known.outcomes
        missing = [row for row, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            fresh = self._evaluate_rows(
                chunk,
                None if len(missing) == len(chunk) else missing,
                index,
                plan,
                pool,
                state.qsession,
            )
            for row, outcome in zip(missing, fresh):
                outcomes[row] = outcome
        if known.hits:
            # A repeat takes its point's outcome: from this chunk's own
            # evaluation, else from the earlier chunk that recorded it.
            entries = self.cache._entries
            evaluated = {known.keys[row]: outcomes[row] for row in missing}
            for row, outcome in enumerate(outcomes):
                if outcome is _REPEAT:
                    key = known.keys[row]
                    outcome = evaluated.get(key)
                    outcomes[row] = entries[key] if outcome is None else outcome
        self.cache.store_many(
            known.keys, outcomes, hits=known.hits, misses=len(missing)
        )
        probe = known.probe
        if any(known.stored):
            use = state.use
            if probe is not None and probe.complete:
                use.full_chunks += 1
            else:
                use.delta_chunks += 1
            use.memory_points += known.stored[0]
            use.disk_points += known.stored[1]
        if state.session is not None and not (probe is not None and probe.complete):
            # Resumed work is stored too: the next process should not
            # recompute it.
            state.session.put(chunk, outcomes, probe)
        if state.ckpt is not None:
            if known.restored is not None:
                state.saved.append(known.restored)
            else:
                state.saved.append(encode_outcomes(outcomes))
                try:
                    state.ckpt.save(
                        kind="sweep",
                        fingerprint=state.fingerprint,
                        state={"chunks": state.saved},
                    )
                except CheckpointError as exc:
                    # A dead checkpoint must not kill a live sweep:
                    # continue without checkpointing.
                    get_logger().warning(
                        kv(
                            "checkpoint.disabled",
                            path=str(state.ckpt.path),
                            error=str(exc),
                        )
                    )
                    state.ckpt = None
        return outcomes

    @staticmethod
    def _chunk_columns(
        chunk: Sequence[Mapping[str, object]],
    ) -> dict[str, np.ndarray]:
        """One NumPy column per axis for a chunk of grid-point dicts."""
        return {
            name: np.asarray([params[name] for params in chunk])
            for name in chunk[0]
        }

    # ------------------------------------------------------------------
    # Parallel-columnar dispatch
    # ------------------------------------------------------------------
    def _make_pool(
        self,
        initializer: Callable,
        initargs: tuple,
        parent_block: "_parallel.ColumnarBlock | None" = None,
        capture: bool = False,
        quarantine: "QuarantineSession | None" = None,
        parent_index: "_GridIndex | None" = None,
        scratch_dir: "str | None" = None,
    ) -> "ProcessPoolExecutor | SupervisedPool":
        """A worker pool whose *initializer* ships per-pool state once.

        The parent mirrors the worker state first (its own factory and
        its own block and grid index, never a second attachment), so
        SupervisedPool in-process degradation — and thread-pool
        executors injected by tests — evaluate exactly what the worker
        processes would. With *capture* the parent's own event buffer
        is armed too (no spill — the parent cannot crash out from under
        itself), so degraded in-process shards leave the same timeline
        events a worker would. *scratch_dir* (out-of-core sweeps) roots
        the heartbeat watchdog's files under the sweep's spill dir.
        """
        _parallel.set_worker_state(self.factory, parent_block, parent_index)
        _events.init_worker(capture, None)
        if self.resilience is not None:
            monitor = None
            if (
                scratch_dir is not None
                and self.resilience.heartbeat_timeout_s is not None
            ):
                monitor = HeartbeatMonitor(base_dir=scratch_dir)
            return SupervisedPool(
                self._pool_workers,
                self.resilience,
                initializer=initializer,
                initargs=initargs,
                quarantine=quarantine,
                monitor=monitor,
            )
        return ProcessPoolExecutor(
            max_workers=self._pool_workers,
            initializer=initializer,
            initargs=initargs,
        )

    def _parallel_setup(
        self,
        index: _GridIndex,
        known: "Mapping[int, _Known] | None" = None,
        quarantine: "QuarantineSession | None" = None,
    ) -> _ParallelPlan:
        """Allocate the sweep's shared block, plan the shard spans over
        the rows nothing is known of, and spawn the pool (which
        receives the grid *index* once, so a shard job is ``(lo, hi,
        seq)``).

        *known* maps each chunk to its known rows (no map: nothing is
        known). Only the rows no source knows are dispatched — a
        chunk's restored, ledger-poison, stored, cached or repeated
        rows never reach a worker and their block rows are never
        written or read. That keeps resume, store and cache reuse
        bit-exact and free of redundant kernel work, and a known poison
        point never crashes a worker again; every fresh row still runs
        on the pool, under its supervisor, which bisects fresh crashes
        into *quarantine*. A sweep with nothing to evaluate gets no
        pool at all.

        When ``workers="auto"`` calibrated on the first chunk and
        nothing of that chunk is known, its arrays are written into the
        block up front and the chunk is dropped from the dispatch
        spans — calibration cost no extra kernel work.
        """
        total = index.total
        size = self.chunk_size
        block = _parallel.ColumnarBlock.allocate(
            total, spill_dir=self.spill_dir, spill_bytes=self.spill_bytes
        )
        planned: set[int] = set()
        runs: list[tuple[int, int]] = []
        for chunk in range(-(-total // size)):
            lo = chunk * size
            hi = min(lo + size, total)
            outcomes = known[chunk].outcomes if known else ()
            if all(outcome is None for outcome in outcomes):
                cal = self._take_cal_arrays(hi) if chunk == 0 else None
                if cal is not None:
                    # Prefill the calibration chunk: its rows read back
                    # via chunk_arrays like dispatched rows would.
                    block.write(0, hi, cal.area, cal.perf, cal.power, cal.valid)
                    planned.add(0)
                    continue
                fresh = [(lo, hi)]
            else:
                fresh = [
                    (lo + row, lo + row + 1)
                    for row, outcome in enumerate(outcomes)
                    if outcome is None
                ]
            if fresh:
                planned.add(chunk)
            for start, stop in fresh:
                if runs and runs[-1][1] == start:
                    runs[-1] = (runs[-1][0], stop)
                else:
                    runs.append((start, stop))
        spans = _parallel.plan_steal_runs(runs, size, self._pool_workers)
        pool = None
        capture = _events.get_log().enabled
        scratch = (
            os.fspath(self.spill_dir) if self.spill_dir is not None else None
        )
        spill = (
            _events.make_spill_dir(base=scratch) if capture and spans else None
        )
        if spans:
            pool = self._make_pool(
                _parallel.init_columnar_worker,
                (self.factory, index, block.name, capture, spill),
                parent_block=block,
                capture=capture,
                quarantine=quarantine,
                parent_index=index,
                scratch_dir=scratch,
            )
        return _ParallelPlan(
            index, size, block, pool, spans, planned, spill_dir=spill
        )

    def _parallel_kernels(
        self, plan: _ParallelPlan, tracer: _trace.Tracer
    ) -> None:
        """The kernel phase: run ``batch_arrays`` over every pending
        shard span on the pool and land the result columns in the block.

        One job per span — ``(lo, hi, seq)`` out (workers derive their
        columns from the pool-shipped grid index and write their rows
        into the block), a busy-seconds acknowledgement back. Shard
        writes are idempotent, so supervised retry/respawn/
        degradation re-runs are safe. Busy seconds accumulate for the
        worker-utilization gauge and, per worker, into the
        ``focal_worker_busy_seconds`` histogram; worker events riding
        the replies merge into the global event log.
        """
        if not plan.spans:
            return
        registry = _metrics.get_registry()
        log = _events.get_log()
        jobs = [(lo, hi, seq) for seq, (lo, hi) in enumerate(plan.spans)]
        with tracer.span(
            "kernels",
            shards=len(jobs),
            shard_points=plan.shard_points,
            workers=self._pool_workers,
            shm_bytes=plan.shm_bytes,
            spill_bytes=plan.spill_nbytes,
        ):
            begin = time.perf_counter()
            if isinstance(plan.pool, SupervisedPool):
                replies: Iterable = plan.pool.run(
                    _parallel.eval_shard,
                    jobs,
                    splitter=_parallel.split_shard_job,
                    describe=_parallel.shard_job_point,
                    schedule="queue",
                )
            else:
                replies = plan.pool.map(_parallel.eval_shard, jobs)
            for job, reply in zip(jobs, replies):
                if reply is INCOMPLETE or reply is None:
                    # Salvaged shard: its block rows were never written;
                    # the chunk loop stops when it reaches them.
                    first = job[0] // self.chunk_size
                    last = -(-job[1] // self.chunk_size)
                    plan.failed.update(range(first, last))
                    continue
                if isinstance(reply, QuarantinedPoint):
                    # A single-row shard isolated as poison: its block
                    # row stays unwritten (valid=False) and the marker
                    # is re-derived from the quarantine session during
                    # materialization.
                    continue
                subreplies = (
                    reply.replies if isinstance(reply, BisectOutcome) else (reply,)
                )
                for _, _, busy, pid, events in subreplies:
                    plan.busy += busy
                    if events:
                        log.extend(events)
                    if registry.enabled:
                        registry.histogram(
                            "focal_worker_busy_seconds",
                            "kernel busy seconds per shard, by worker process",
                            labels={"worker": str(pid)},
                        ).observe(busy)
            plan.kernel_wall = time.perf_counter() - begin

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def explore_arrays(
        self,
        grid: ParameterGrid,
        *,
        checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        store: "ResultStore | str | os.PathLike | None" = None,
        quarantine: "QuarantineLedger | str | os.PathLike | None" = None,
    ) -> BatchSweepResult:
        """Sweep *grid* and return the results as arrays.

        Invalid corners (factories raising ``DomainError``) are dropped,
        exactly like ``Explorer.explore``; an all-invalid sweep raises
        :class:`~repro.core.errors.ConfigurationError`.

        Every chunk is resolved the same way: the rows a checkpoint,
        the quarantine ledger, the store or the cache already know are
        adopted, and only the rest are evaluated — for a
        :class:`VectorFactory` through ``batch_arrays`` instead of
        per-point factory calls, whatever the cache holds. A cold
        columnar sweep without checkpoint, store or quarantine (whose
        formats encode points) keeps only the valid rows' columns: the
        result builds ``params``/``designs`` on first read, and the
        cache holds the columns as one pending record (misses counted
        now, entries built on the first point-level read). A later
        sweep of the same grid at the same chunk size adopts that
        record (``mode="memo"``: n hits, nothing evaluated). Output
        (ordering, skips, values, cache contents) is byte-identical on
        every path.

        With *checkpoint* set, every completed chunk is atomically
        persisted to that path; with *resume*, completed chunks found
        there are replayed into the cache without re-evaluating the
        factory, and the sweep continues from the first unfinished
        chunk. Resume is bit-exact: result arrays and cache entries
        match an uninterrupted run. A checkpoint written by a different
        run configuration raises
        :class:`~repro.core.errors.CheckpointError`; a corrupt or
        truncated file is discarded and the sweep restarts cold.

        With *store* set (a :class:`~repro.dse.store.ResultStore` or a
        directory path), every evaluated chunk is persisted to the
        fingerprint-keyed result store and every chunk is first probed
        against it: fully stored chunks are adopted byte-identically
        without touching the factory, partially stored chunks evaluate
        only their missing rows and stitch (a **delta sweep** — only
        points no earlier sweep of this factory computed run fresh).
        The store composes with checkpoint/resume, workers and
        resilience; store-served chunks are excluded from parallel
        shard planning exactly like restored checkpoint chunks, and a
        corrupt store file only means recomputation, never a wrong
        answer.

        With *quarantine* set (a :class:`~repro.resilience.containment.
        QuarantineLedger` or a path), points the ledger already records
        as poison are skipped up front — their chunks evaluate only the
        healthy rows — and, under a supervised pool, a chunk that
        exhausts its retry budget is bisected down to the minimal
        crashing point set, which is recorded in the ledger and
        excluded (reported in ``BatchSweepResult.quarantined``, never
        silently dropped). Under ``RetryPolicy(salvage=True,
        degrade_in_process=False)`` an irrecoverable pool ends the
        sweep early with the completed prefix and a
        :class:`~repro.resilience.containment.FailureReport` in
        ``BatchSweepResult.failure`` instead of raising.
        """
        tracer = _trace.get_tracer()
        registry = _metrics.get_registry()
        observing = tracer.enabled or registry.enabled
        workers = self._activate_workers(grid)
        mode = self._resolve_mode()
        state = _SweepState(ckpt=CheckpointStore.coerce(checkpoint))
        if resume and state.ckpt is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint path to resume from"
            )
        result_store = ResultStore.coerce(store)
        if result_store is not None:
            state.session = result_store.sweep_session(self.factory)
            state.use = _StoreUse()
        qledger = QuarantineLedger.coerce(quarantine)
        if qledger is not None:
            state.qsession = qledger.session(describe_factory(self.factory))
        # The durable layers (checkpoint, store, quarantine) encode
        # points; a sweep without them keeps its result as columns when
        # the cache is cold, and re-sweeping a grid the cache holds as
        # columns adopts them.
        record: _SweepColumns | None = None
        adopted = False
        if state.ckpt is None and state.session is None and state.qsession is None:
            record = self.cache.pending_for(grid, self.chunk_size)
            if record is not None:
                adopted = True
                mode = "memo"
            elif mode in COLUMNAR_MODES and not len(self.cache):
                record = _SweepColumns(self.factory, grid, self.chunk_size)
        if state.ckpt is not None:
            state.fingerprint = sweep_fingerprint(
                axes=grid.axes,
                chunk_size=self.chunk_size,
                baseline=self.baseline,
                alpha=self.weight.alpha,
                factory=self.factory,
            )
            if resume:
                loaded = state.ckpt.load_or_restart(
                    kind="sweep", fingerprint=state.fingerprint
                )
                if loaded is not None:
                    state.restored = list(loaded.get("chunks", []))
        params_list: list[Mapping[str, object]] = []
        designs: list[DesignPoint] = []
        pool: ProcessPoolExecutor | SupervisedPool | None = None
        plan: "_ParallelPlan | None" = None
        with tracer.span(
            "sweep",
            grid_points=len(grid),
            chunk_size=self.chunk_size,
            workers=workers,
            mode=mode,
        ) as sweep_span:
            start_s = time.perf_counter()
            cache_before = self.cache.stats()
            failure: FailureReport | None = None
            quarantined_params: list[Mapping[str, object]] = []
            chunks_done = 0
            points_done = 0
            try:
                if adopted:
                    # Served whole from the cache: no kernel, no pool.
                    chunk_stream: Iterable = ()
                    self.cache.record(hits=len(grid))
                    if registry.enabled:
                        registry.counter(
                            "focal_cache_hits_total", "factory cache hits"
                        ).inc(len(grid))
                elif record is not None:
                    if mode == "parallel-columnar":
                        plan = self._parallel_setup(record.index)
                        pool = plan.pool
                        self._parallel_kernels(plan, tracer)
                    # Chunks are grid-row start offsets on this path.
                    chunk_stream = enumerate(
                        range(0, len(grid), self.chunk_size)
                    )
                else:
                    chunks: Iterable = _chunked(iter(grid), self.chunk_size)
                    if mode == "parallel-columnar":
                        # Known rows up front: only the rows no source
                        # knows reach the pool.
                        chunks = list(chunks)
                        state.seen = set()
                        state.known = {
                            index: self._known_rows(index, chunk, state)
                            for index, chunk in enumerate(chunks)
                        }
                        plan = self._parallel_setup(
                            _GridIndex(grid), state.known, state.qsession
                        )
                        pool = plan.pool
                        self._parallel_kernels(plan, tracer)
                    elif workers:
                        pool = self._make_pool(
                            _parallel.init_factory_worker,
                            (self.factory,),
                            quarantine=state.qsession,
                        )
                    chunk_stream = enumerate(chunks)
                for index, chunk in chunk_stream:
                    restored = index < len(state.restored)
                    if plan is not None and index in plan.failed:
                        raise _SalvageAbort(
                            f"the shard covering chunk {index} was never "
                            "completed by the worker pool"
                        )
                    with tracer.span(
                        "chunk", index=index, mode=mode, restored=restored
                    ) as chunk_span:
                        if observing:
                            chunk_start = time.perf_counter()
                            before = self.cache.stats()
                        if record is not None:
                            arrays = (
                                plan.chunk_arrays(index)
                                if plan is not None
                                else self._chunk_kernel(record.index, chunk)
                            )
                            points = len(arrays)
                            valid = record.add(chunk, arrays)
                            self.cache.record(misses=points)
                        else:
                            points = len(chunk)
                            outcomes = self._resolve_chunk(
                                index, chunk, state, plan, pool
                            )
                            valid = 0
                            for params, outcome in zip(chunk, outcomes):
                                if isinstance(outcome, QuarantinedPoint):
                                    quarantined_params.append(params)
                                    continue
                                if isinstance(outcome, DomainError):
                                    continue
                                params_list.append(params)
                                designs.append(outcome)
                                valid += 1
                        chunks_done += 1
                        points_done += points
                        if observing:
                            self._observe_chunk(
                                registry,
                                chunk_span,
                                points=points,
                                valid=valid,
                                seconds=time.perf_counter() - chunk_start,
                                before=before,
                            )
            except _SalvageAbort as exc:
                failure = FailureReport(
                    reason=(
                        "irrecoverable worker pool; completed prefix "
                        "salvaged"
                    ),
                    error=str(exc),
                    completed_chunks=chunks_done,
                    total_chunks=-(-len(grid) // self.chunk_size),
                    completed_points=points_done,
                    pending_points=len(grid) - points_done,
                    checkpoint=(
                        str(state.ckpt.path) if state.ckpt is not None else None
                    ),
                )
                _events.record("sweep.salvage", track="supervisor")
                _metrics.get_registry().counter(
                    "focal_salvage_runs_total",
                    "sweeps salvaged as partial results",
                ).inc()
                get_logger().warning(
                    kv("sweep.salvage", **failure.as_dict())
                )
            finally:
                if state.session is not None:
                    state.session.flush()
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                if plan is not None:
                    plan.release()
                    if plan.spill_dir is not None:
                        # The crash transport: anything a dead worker
                        # flushed but never got to reply with.
                        _events.get_log().collect_spill(plan.spill_dir)
                        _events.cleanup_spill_dir(plan.spill_dir)
                if workers:
                    _parallel.clear_worker_state()
                object.__setattr__(self, "_cal", None)
                if record is not None and not adopted and record.covered:
                    # Even an aborted sweep leaves its completed chunks
                    # memoized, as a point-level sweep would.
                    record.seal()
                    self.cache.defer(record)
            self._record_supervision(pool, sweep_span)
            valid_points = len(designs) if record is None else len(record.rows)
            if not valid_points and failure is None:
                raise ConfigurationError(
                    "exploration produced no valid design points"
                )
            with tracer.span("classify", points=valid_points):
                if record is None:
                    perf, ncf_fw, ncf_ft = self._ncf_arrays(designs)
                else:
                    perf, ncf_fw, ncf_ft = self._ncf_from_columns(
                        record.area, record.perf, record.power
                    )
                codes = classify_arrays(ncf_fw, ncf_ft)
            cache_after = self.cache.stats()
            stats = self._engine_stats(
                mode=mode,
                grid_points=len(grid),
                valid_points=valid_points,
                seconds=time.perf_counter() - start_s,
                plan=plan,
                use=state.use,
                memo_points=cache_after.hits - cache_before.hits,
                fresh_points=cache_after.misses - cache_before.misses,
                quarantined_points=len(quarantined_params),
                salvaged=failure is not None,
            )
            if observing:
                self._observe_sweep(registry, sweep_span, stats)
        if record is not None:
            return BatchSweepResult._from_columns(
                record, grid, perf, ncf_fw, ncf_ft, codes, failure
            )
        return BatchSweepResult(
            params=tuple(params_list),
            designs=tuple(designs),
            perf=perf,
            ncf_fixed_work=ncf_fw,
            ncf_fixed_time=ncf_ft,
            codes=codes,
            quarantined=tuple(quarantined_params),
            failure=failure,
        )

    def _record_supervision(
        self, pool: "ProcessPoolExecutor | SupervisedPool | None", sweep_span
    ) -> None:
        """Publish the sweep's supervision counters (supervised runs
        only): :attr:`last_supervision` always, span attributes when a
        recovery action actually happened."""
        if not isinstance(pool, SupervisedPool):
            return
        stats = pool.stats
        object.__setattr__(self, "last_supervision", stats)
        acted = (
            stats.faults
            or stats.quarantined
            or stats.watchdog_reaps
            or stats.salvaged
        )
        if sweep_span is not _trace.NULL_SPAN and acted:
            sweep_span.set(
                retries=stats.retries,
                worker_crashes=stats.crashes,
                chunk_timeouts=stats.timeouts,
                transient_errors=stats.transient_errors,
                pool_respawns=stats.respawns,
                degraded_batches=stats.degraded_batches,
                pool_degraded=stats.pool_degraded,
                quarantined=stats.quarantined,
                watchdog_reaps=stats.watchdog_reaps,
                salvaged_batches=stats.salvaged,
            )

    def _observe_chunk(
        self,
        registry: _metrics.MetricsRegistry,
        chunk_span,
        *,
        points: int,
        valid: int,
        seconds: float,
        before: CacheStats,
    ) -> None:
        """Per-chunk telemetry (only called while observing): timing,
        throughput, cache effectiveness and worker fan-out."""
        after = self.cache.stats()
        evaluated = after.misses - before.misses
        cached = after.hits - before.hits
        if chunk_span is not _trace.NULL_SPAN:
            chunk_span.set(
                points=points,
                valid=valid,
                invalid=points - valid,
                evaluated=evaluated,
                cached=cached,
                evals_per_s=points / seconds if seconds > 0 else float("inf"),
            )
            if self._pool_workers:
                # Fan-out share: the fraction of this chunk that went
                # to the worker pool rather than the memo.
                chunk_span.set(
                    pool_points=evaluated,
                    worker_utilization=evaluated / points if points else 0.0,
                )
        if registry.enabled:
            registry.counter(
                "focal_evaluations_total", "factory evaluations (cache misses)"
            ).inc(evaluated)
            registry.counter(
                "focal_cache_hits_total", "factory cache hits"
            ).inc(cached)
            registry.histogram(
                "focal_chunk_seconds", "wall time per evaluated chunk"
            ).observe(seconds)

    def _engine_stats(
        self,
        *,
        mode: str,
        grid_points: int,
        valid_points: int,
        seconds: float,
        plan: "_ParallelPlan | None" = None,
        use: "_StoreUse | None" = None,
        memo_points: int = 0,
        fresh_points: int = 0,
        quarantined_points: int = 0,
        salvaged: bool = False,
    ) -> SweepEngineStats:
        """Snapshot how the sweep executed and publish it as
        :attr:`last_sweep` (recorded unconditionally — the CLI summary
        line must not require observability to be enabled)."""
        extras: dict[str, object] = {}
        if self.workers == "auto":
            extras["auto_workers"] = True
            extras["workers"] = self._pool_workers
        if plan is not None and plan.spans:
            wall = plan.kernel_wall * self._pool_workers
            extras.update(
                workers=self._pool_workers,
                shards=len(plan.spans),
                shard_points=plan.shard_points,
                shm_bytes=plan.shm_bytes,
                worker_utilization=(
                    min(1.0, plan.busy / wall) if wall > 0 else 0.0
                ),
                tail_shard_points=plan.tail_shard_points,
            )
        if plan is not None and plan.spill_nbytes:
            extras["spill_bytes"] = plan.spill_nbytes
        if use is not None:
            extras.update(
                store_used=True,
                store_chunks=use.full_chunks,
                delta_chunks=use.delta_chunks,
                store_memory_points=use.memory_points,
                store_disk_points=use.disk_points,
            )
        stats = SweepEngineStats(
            mode=mode,
            grid_points=grid_points,
            valid_points=valid_points,
            vector_points=fresh_points if mode in COLUMNAR_MODES else 0,
            seconds=seconds,
            memo_points=memo_points,
            fresh_points=fresh_points,
            quarantined_points=quarantined_points,
            salvaged=salvaged,
            **extras,  # type: ignore[arg-type]
        )
        object.__setattr__(self, "last_sweep", stats)
        return stats

    def _observe_sweep(
        self,
        registry: _metrics.MetricsRegistry,
        sweep_span,
        engine: SweepEngineStats,
    ) -> None:
        """Sweep-level telemetry: cache effectiveness, throughput and
        the vector/scalar execution split."""
        points = engine.valid_points
        seconds = engine.seconds
        stats = self.cache.stats()
        if sweep_span is not _trace.NULL_SPAN:
            sweep_span.set(
                valid_points=points,
                seconds=seconds,
                evals_per_s=points / seconds if seconds > 0 else float("inf"),
                cache_hits=stats.hits,
                cache_misses=stats.misses,
                cache_hit_ratio=stats.hit_ratio,
                cache_size=stats.size,
            )
            if engine.mode in COLUMNAR_MODES:
                sweep_span.set(vector_evals_per_s=engine.evals_per_s)
            if engine.quarantined_points or engine.salvaged:
                sweep_span.set(
                    quarantined_points=engine.quarantined_points,
                    salvaged=engine.salvaged,
                )
            if engine.store_used:
                sweep_span.set(
                    store_chunks=engine.store_chunks,
                    delta_chunks=engine.delta_chunks,
                    store_points=engine.store_points,
                    store_memory_points=engine.store_memory_points,
                    store_disk_points=engine.store_disk_points,
                    store_reuse_ratio=engine.store_reuse_ratio,
                    memo_points=engine.memo_points,
                    fresh_points=engine.fresh_points,
                )
        if registry.enabled:
            registry.gauge(
                "focal_cache_hit_ratio", "factory cache hits / lookups"
            ).set(stats.hit_ratio)
            registry.gauge(
                "focal_sweep_evals_per_s", "valid grid points per second, last sweep"
            ).set(points / seconds if seconds > 0 else 0.0)
            if engine.vector_points:
                registry.counter(
                    "focal_vector_evaluations_total",
                    "grid points evaluated through the columnar path",
                ).inc(engine.vector_points)
                registry.gauge(
                    "focal_vector_evals_per_s",
                    "columnar grid points per second, last vector sweep",
                ).set(engine.evals_per_s)
            if engine.shards:
                registry.counter(
                    "focal_parallel_shards_total",
                    "column shards dispatched to worker pools",
                ).inc(engine.shards)
                registry.gauge(
                    "focal_parallel_shard_points",
                    "largest shard of the last parallel-columnar sweep, "
                    "in grid points",
                ).set(engine.shard_points)
                registry.gauge(
                    "focal_parallel_shm_bytes",
                    "shared-memory bytes backing the last parallel-columnar "
                    "sweep (0 = file-backed block)",
                ).set(engine.shm_bytes)
                registry.gauge(
                    "focal_parallel_worker_utilization",
                    "worker busy seconds / (kernel wall x workers), "
                    "last parallel-columnar sweep",
                ).set(engine.worker_utilization)
                registry.counter(
                    "focal_steal_shards_total",
                    "shards dispatched through the work-stealing "
                    "queue scheduler",
                ).inc(engine.shards)
                registry.gauge(
                    "focal_steal_tail_shard_points",
                    "smallest (tail) shard of the last work-stealing "
                    "sweep, in grid points",
                ).set(engine.tail_shard_points)
            registry.gauge(
                "focal_spill_bytes",
                "file bytes backing the last sweep's result block "
                "(0 = shared memory)",
            ).set(engine.spill_bytes)
            if engine.store_used:
                registry.counter(
                    "focal_store_sweep_points_total",
                    "grid points adopted from the persistent result store",
                ).inc(engine.store_points)
                if engine.delta_chunks:
                    registry.counter(
                        "focal_store_delta_chunks_total",
                        "partially stored chunks stitched by delta sweeps",
                    ).inc(engine.delta_chunks)
                registry.gauge(
                    "focal_store_reuse_ratio",
                    "store-served points / grid points, last store-backed "
                    "sweep",
                ).set(engine.store_reuse_ratio)

    def _ncf_arrays(
        self, designs: Sequence[DesignPoint]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perf ratios and both NCF arrays for *designs* vs the baseline.

        Same IEEE-754 operations, in the same order, as the scalar
        ratio properties on DesignPoint — the values are bit-exact.
        """
        area = np.array([design.area for design in designs], dtype=np.float64)
        perf = np.array([design.perf for design in designs], dtype=np.float64)
        power = np.array([design.power for design in designs], dtype=np.float64)
        return self._ncf_from_columns(area, perf, power)

    def _ncf_from_columns(
        self, area: np.ndarray, perf: np.ndarray, power: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratio/NCF arithmetic shared by the object and columnar
        paths — one definition, so they cannot drift apart."""
        base = self.baseline
        area_ratio = area / base.area
        energy_ratio = (power / perf) / base.energy
        power_ratio = power / base.power
        alpha = self.weight.alpha
        return (
            perf / base.perf,
            ncf_values(area_ratio, energy_ratio, alpha),
            ncf_values(area_ratio, power_ratio, alpha),
        )

    def explore(
        self,
        grid: ParameterGrid,
        *,
        checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        store: "ResultStore | str | os.PathLike | None" = None,
        quarantine: "QuarantineLedger | str | os.PathLike | None" = None,
    ) -> list[ExplorationResult]:
        """Drop-in replacement for ``Explorer.explore`` (same ordering,
        same skips, bit-exact values) on the vectorized engine.
        ``checkpoint``/``resume``/``store``/``quarantine`` behave as in
        :meth:`explore_arrays`."""
        return self.explore_arrays(
            grid,
            checkpoint=checkpoint,
            resume=resume,
            store=store,
            quarantine=quarantine,
        ).results()

    def count_categories(self, grid: ParameterGrid) -> dict[Sustainability, int]:
        """Sweep *grid* and histogram the verdicts.

        Identical counts to
        ``Explorer.count_categories(Explorer.explore(grid))``. A cold,
        pooled or adoptable count is :meth:`explore_arrays` plus
        :meth:`BatchSweepResult.category_counts` — one pipeline, so a
        cold vector-factory count leaves the cache holding the sweep's
        columns as a pending record, which the next same-grid sweep
        adopts. A warm count never materializes per-point params or
        result objects: cache keys are built straight from the
        cartesian product, so a hit is one dict probe, and the misses
        run through the sweep evaluator (:meth:`_evaluate_rows`) in
        ``chunk_size`` batches — columnar for a vector factory.
        """
        if (
            self._activate_workers(grid)
            or not len(self.cache)
            or self.cache.pending_for(grid, self.chunk_size) is not None
        ):
            return self.explore_arrays(grid).category_counts()
        tracer = _trace.get_tracer()
        registry = _metrics.get_registry()
        observing = tracer.enabled or registry.enabled
        mode = self._resolve_mode()
        with tracer.span(
            "sweep.count", grid_points=len(grid), mode=mode
        ) as sweep_span:
            start_s = time.perf_counter()
            cache_before = self.cache.stats()
            designs = self._designs_only(grid)
            if not designs:
                raise ConfigurationError(
                    "exploration produced no valid design points"
                )
            _, ncf_fw, ncf_ft = self._ncf_arrays(designs)
            counts = category_counts(classify_arrays(ncf_fw, ncf_ft))
            cache_after = self.cache.stats()
            stats = self._engine_stats(
                mode=mode,
                grid_points=len(grid),
                valid_points=len(designs),
                seconds=time.perf_counter() - start_s,
                memo_points=cache_after.hits - cache_before.hits,
                fresh_points=cache_after.misses - cache_before.misses,
            )
            if observing:
                self._observe_sweep(registry, sweep_span, stats)
        return {category: n for category, n in counts.items() if n}

    def _designs_only(self, grid: ParameterGrid) -> list[DesignPoint]:
        """Every valid grid point's design for a warm count, skipping
        params materialization for cached points (the dominant cost of
        a warm re-sweep); misses are memoized a ``chunk_size`` batch at
        a time through :meth:`_evaluate_rows`.

        Deliberately uninstrumented inside the loop — the caller
        observes at sweep granularity, so a disabled-observability run
        pays nothing per point.
        """
        cache = self.cache
        entries = cache._entries
        names = list(grid.axes)
        slots = sorted(range(len(names)), key=names.__getitem__)
        designs: list[DesignPoint] = []
        hits = 0
        keys: list[tuple] = []
        rows: list[dict[str, object]] = []
        for combo in product(*(grid.axes[name] for name in names)):
            key = tuple([(names[i], combo[i]) for i in slots])
            outcome = entries.get(key)
            if outcome is None:
                keys.append(key)
                rows.append(dict(zip(names, combo)))
                if len(rows) == self.chunk_size:
                    self._memoize_rows(keys, rows, designs)
                    keys, rows = [], []
                continue
            hits += 1
            if not isinstance(outcome, DomainError):
                designs.append(outcome)
        if rows:
            self._memoize_rows(keys, rows, designs)
        cache.record(hits=hits)
        return designs

    def _memoize_rows(
        self,
        keys: list[tuple],
        rows: list[dict[str, object]],
        designs: list[DesignPoint],
    ) -> None:
        """Evaluate one batch of a warm count's misses — each distinct
        point once (a repeat takes its outcome and counts as a hit) —
        memoize it and collect its valid designs."""
        first: dict[tuple, dict[str, object]] = {}
        for key, row in zip(keys, rows):
            first.setdefault(key, row)
        entries = self.cache._entries
        entries.update(zip(first, self._evaluate_rows(list(first.values()))))
        self.cache.record(hits=len(keys) - len(first), misses=len(first))
        for key in keys:
            outcome = entries[key]
            if not isinstance(outcome, DomainError):
                designs.append(outcome)
