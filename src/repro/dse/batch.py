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
  :class:`DesignArrays` in a few vectorized passes, so its sweeps never
  evaluate the scalar substrate point-by-point (see
  :mod:`repro.dse.factories` for the stock implementations);
* every sweep, of any factory, first gathers the rows a checkpoint,
  the quarantine ledger, the result store or the cache already knows
  as columns (:class:`_KnownRows`) and evaluates only the rest, and
  keeps its answer as columns: parameter dicts, DesignPoints and cache
  entries are built only when read, and the cache keeps those
  columns, so a later sweep gathers the rows it knows from them. Store
  and ledger lookups use key columns, not a key per row, and a vector
  factory's checkpoint and store records are written straight from
  the columns, without names;
* with ``workers > 0`` a vector-factory sweep runs
  **parallel-columnar**: the rows no source knows are sharded into
  contiguous spans, each shipped to a worker as a ``(lo, hi, seq)``
  job (one per span, never per point); workers derive the span's axis
  columns, run ``batch_arrays`` over them and write the result columns
  into one shared block (see :mod:`repro.dse.parallel`). The factory
  and the grid index ship once per pool via an initializer; no
  DesignPoint ever crosses the process boundary;
* with ``workers > 0`` any other factory runs **scalar-pool**: each
  chunk's fresh rows go out as the same ``(lo, hi, seq)`` shard jobs
  over the same pool-resident grid index, and workers reply with the
  rows' outcomes instead of writing a block;
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
chunk-granular progress through an append-only, checksummed
:class:`~repro.resilience.checkpoint.CheckpointStore` log so a killed
sweep resumes bit-exactly — same result arrays, same cache contents —
from the last completed chunk.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import attrgetter, is_not
from typing import (
    Callable,
    Iterable,
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
    OutcomeRecord,
    describe_factory,
    encode_columns,
    encode_outcomes,
    key_token,
    point_key,
    sweep_fingerprint,
)
from ..resilience.containment import (
    INCOMPLETE,
    BisectOutcome,
    FailureReport,
    QuarantineLedger,
    QuarantineSession,
)
from ..resilience.policy import RetryPolicy, SupervisionStats
from . import parallel as _parallel
from .explorer import DesignFactory, ExplorationResult
from .grid import ParameterGrid
from .store import GridKeys, PointKeys, ResultStore, SweepStoreSession

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


def _key_item(name: str, value: object) -> tuple:
    """One axis's entry in a cache key: ``(name, value)``, with the
    value's class appended for ints and bools. Values equal under
    ``==`` but of another type (``1``, ``1.0``, ``True``) so key apart,
    as the store's point keys do; NumPy scalars key like their Python
    values (they compare and hash alike).

    Exact Python floats, ints and bools are told apart by ``type``
    first: an ``isinstance`` test against the NumPy classes costs
    ~0.2 µs a value, so a 40 × 250 grid's axes took ~0.15 ms per sweep
    (~4 % of a checkpoint resume) instead of ~0.035 ms."""
    kind = type(value)
    if kind is float:
        return (name, value)
    if kind is int or kind is bool:
        return (name, value, kind)
    if isinstance(value, (bool, np.bool_)):
        return (name, value, bool)
    if isinstance(value, (int, np.integer)):
        return (name, value, int)
    return (name, value)


def params_key(params: Mapping[str, object]) -> tuple:
    """Hashable cache key for one grid point: its axes' key items
    (:func:`_key_item`) sorted by name, so dict insertion order never
    splits the cache."""
    return tuple([_key_item(name, params[name]) for name in sorted(params)])


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
        tuple([_key_item(name, params[name]) for name in names]) for params in chunk
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

    Entries live in one of two forms, every key in exactly one place: a
    point dict, and the sealed column records every sweep leaves
    (:meth:`defer`). A record holds only the rows of the keys no other
    record and no point entry held when it was sealed, so the cache
    grows with its distinct keys, not with the sweeps it served; it
    also keeps every outcome its sweep already had (scalar-factory
    outcomes, quarantine markers, and checkpoint or store rows, decoded
    from their record on first read). A sweep gathers its known rows
    from the records as columns; ``len`` and :meth:`stats` count them
    without building a point. The first point-level read —
    ``_entries``, :meth:`lookup`, :meth:`evaluate`,
    :meth:`store`/:meth:`store_many` or a call — expands every record
    into the dict, never calling the factory for an outcome a record
    already held, so the memoized contents never depend on when they
    were read.
    """

    def __init__(self, factory: DesignFactory) -> None:
        self.factory = factory
        self._memo: dict[tuple, DesignPoint | DomainError] = {}
        self._records: list[_SweepColumns] = []
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._memo) + sum(
            record.owned_points() for record in self._records
        )

    @property
    def _entries(self) -> dict[tuple, DesignPoint | DomainError]:
        """The memo dict, with every record expanded into it."""
        records, self._records = self._records, []
        memo = self._memo
        for record in records:
            memo.update(zip(*record.entries()))
        return memo

    def defer(self, record: "_SweepColumns") -> None:
        """Keep a sealed sweep's record. Counters are the
        sweep's business (it records its hits and misses as it goes)."""
        self._records.append(record)

    def disown(self, index: "_GridIndex", rows: np.ndarray) -> None:
        """Forget the keys of *index*'s grid *rows*, wherever they live,
        without expanding a record."""
        for key in index.keys(rows):
            self._memo.pop(key, None)
        for slot, kept in enumerate(self._records):
            found = kept.index.lookup(index)
            if found is not None:
                owned = np.zeros(kept.index.total, dtype=bool)
                owned[slice(kept.covered) if kept.owned is None else kept.owned] = True
                owned[found[rows][found[rows] >= 0]] = False
                self._records[slot] = kept.kept(owned)

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
        self._records = []

    def lookup(self, key: tuple) -> DesignPoint | DomainError | None:
        """The memoized outcome for *key* (a :func:`params_key`), or
        ``None`` when unseen."""
        return self._entries.get(key)

    def store(self, key: tuple, outcome: DesignPoint | DomainError) -> None:
        """Memoize a factory *outcome* (a design or a ``DomainError``)
        under its :func:`params_key` *key*."""
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
        keys, bumping the counters once."""
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


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The contiguous ``[start, stop)`` runs of *mask*'s true rows."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
    return list(zip(edges[0::2], edges[1::2]))


def _objects(values: Sequence) -> np.ndarray:
    """*values* as a 1-D object array (never unpacked as sequences)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _flags(values: Sequence, kind: type) -> np.ndarray:
    """Which of *values* are instances of *kind*."""
    return np.fromiter(map(isinstance, values, repeat(kind)), bool, len(values))


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


@dataclass
class _SweepState:
    """A sweep's durable layers: the checkpoint it commits chunks to and
    the chunk records it restored from it, the store session it reads
    and writes (with its tally), and the quarantine session."""

    ckpt: "CheckpointStore | None" = None
    fingerprint: "dict | None" = None
    restored: list = field(default_factory=list)
    session: "SweepStoreSession | None" = None
    use: "_StoreUse | None" = None
    qsession: "QuarantineSession | None" = None
    #: Whether fresh rows run the factory's columnar kernel.
    columnar: bool = False

    def sync(self) -> None:
        """The run-end barrier: fsync what each durable layer appended
        since its log's last ``fsync``. A checkpoint that fails it is
        dropped (logged), like one whose commit fails."""
        if self.ckpt is not None and not self.ckpt.sync():
            self.ckpt = None
        if self.session is not None:
            self.session.flush()
        if self.qsession is not None:
            self.qsession.ledger.sync()


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
        pool: "_parallel.WorkerPool | None",
        spans: list[tuple[int, int]],
        planned: set[int],
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
        #: Captured at setup — the block is released before stats are
        #: cut.
        self.shm_bytes = block.nbytes
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
    The index keeps the grid's own axis values, so it is all a pool
    worker needs to describe any rows; the NumPy columns are built on
    first use (an axis of tuples, which no column can hold, is fine
    for a scalar factory that never asks for them).
    """

    def __init__(self, grid: ParameterGrid) -> None:
        self.names = list(grid.axes)
        self.values = [list(grid.axes[name]) for name in self.names]
        self.sizes = [len(values) for values in self.values]
        self.strides = [1] * len(self.names)
        for axis in range(len(self.names) - 2, -1, -1):
            self.strides[axis] = self.strides[axis + 1] * self.sizes[axis + 1]
        self.total = len(grid)
        self._arrays: list[np.ndarray] | None = None
        self._items: list[list[tuple]] | None = None
        self._pairs: list[tuple] | None = None
        self._tokens: list[tuple[str, dict[str, list[int]], int]] | None = None

    def columns(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """One NumPy column per axis for grid rows ``[start, stop)``."""
        return self.columns_at(np.arange(start, stop))

    def columns_at(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """One NumPy column per axis for the grid rows *rows*."""
        if self._arrays is None:
            self._arrays = [np.asarray(values) for values in self.values]
        return {
            name: values[(rows // stride) % size]
            for name, values, stride, size in zip(
                self.names, self._arrays, self.strides, self.sizes
            )
        }

    def params(self, rows: np.ndarray) -> list[dict[str, object]]:
        """The grid-point dicts of *rows*, holding the grid's own value
        objects (exactly what iterating the grid yields)."""
        values = []
        for axis, stride, size in zip(self.values, self.strides, self.sizes):
            values.append([axis[i] for i in ((rows // stride) % size).tolist()])
        names = self.names
        return [dict(zip(names, combo)) for combo in zip(*values)]

    def key_items(self) -> list[list[tuple]]:
        """Per axis, in grid order, each value's cache-key item
        (``params_key``'s ``(name, value[, class])``), made once."""
        if self._items is None:
            self._items = [
                [_key_item(name, value) for value in values]
                for name, values in zip(self.names, self.values)
            ]
        return self._items

    def keys(self, rows: np.ndarray) -> list[tuple]:
        """The cache keys of *rows* (:func:`params_keys` of their
        :meth:`params`) with no dict per row: each axis's key items are
        made once and zipped in name order."""
        if self._pairs is None:
            axes = zip(self.names, self.key_items(), self.strides, self.sizes)
            self._pairs = sorted(axes)
        columns = [
            list(map(items.__getitem__, ((rows // stride) % size).tolist()))
            for _, items, stride, size in self._pairs
        ]
        return list(zip(*columns))

    def key_rows(self, keys: Iterable[str]) -> np.ndarray:
        """The sorted rows whose :func:`~repro.resilience.checkpoint.
        point_key` is one of *keys*, found per key rather than per row:
        a key splits into one ``name=token`` part per axis (sorted by
        name), each token maps to the axis positions holding it, and
        strides turn positions into rows."""
        if self._tokens is None:
            self._tokens = []
            for name, values, stride in sorted(
                zip(self.names, self.values, self.strides), key=lambda axis: axis[0]
            ):
                where: dict[str, list[int]] = {}
                for position, value in enumerate(values):
                    where.setdefault(key_token(value), []).append(position)
                self._tokens.append((f"{name}=", where, stride))
        if any(
            "\x1e" in prefix or any("\x1e" in token for token in where)
            for prefix, where, _ in self._tokens
        ):
            # A name or string value holding the separator makes a key
            # ambiguous to split: compare whole keys, row by row.
            wanted = set(keys)
            rows = np.arange(self.total)
            return rows[[point_key(params) in wanted for params in self.params(rows)]]
        found = [np.zeros(0, dtype=np.int64)]
        for key in keys:
            parts = key.split("\x1e")
            if len(parts) != len(self._tokens):
                continue
            positions = []
            for part, (prefix, where, stride) in zip(parts, self._tokens):
                token = part[len(prefix) :] if part.startswith(prefix) else None
                if token not in where:
                    break
                positions.append(np.array(where[token], dtype=np.int64) * stride)
            else:
                found.append(sum(np.ix_(*positions)).ravel())
        return np.unique(np.concatenate(found))

    def same_grid(self, other: "_GridIndex") -> bool:
        """Whether *other* indexes this very grid: equal axes in order,
        so equal cache keys row for row."""
        return self.names == other.names and self.key_items() == other.key_items()

    def repeats(self) -> bool:
        """Whether two rows share a cache key (an axis repeats a value)."""
        return any(
            len(first) < size for first, size in zip(self._first(), self.sizes)
        )

    def lookup(self, other: "_GridIndex") -> np.ndarray | None:
        """For every row of *other*'s grid, the first row of this grid
        with the same cache key, or -1 where there is none; ``None``
        when the axis names differ, so that no key can match.

        Each of *other*'s axis values maps, by its key item (``2`` and
        ``2.0`` differ, ``2`` and ``np.int64(2)`` do not), to the
        position of the first equal item on this grid's axis; strides
        then turn positions into rows, with no per-row key built.
        """
        if sorted(self.names) != sorted(other.names):
            return None
        firsts = dict(zip(self.names, self._first()))
        strides = dict(zip(self.names, self.strides))
        positions = []
        for name, items in zip(other.names, other.key_items()):
            first = firsts[name]
            positions.append(
                np.array([first.get(item, -1) for item in items], dtype=np.int64)
            )
        rows = np.zeros(other.sizes, dtype=np.int64)
        found = np.ones(other.sizes, dtype=bool)
        for name, position in zip(other.names, np.ix_(*positions)):
            rows += position * strides[name]
            found &= position >= 0
        rows[~found] = -1
        return rows.ravel()

    def _first(self) -> list[dict[tuple, int]]:
        """Per axis, each distinct key item's first position."""
        firsts = []
        for items in self.key_items():
            first: dict[tuple, int] = {}
            for position, item in enumerate(items):
                first.setdefault(item, position)
            firsts.append(first)
        return firsts


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


def _positions(
    sorted_rows: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which of *rows* appear in *sorted_rows* (a mask), and where."""
    at = np.searchsorted(sorted_rows, rows)
    hit = at < len(sorted_rows)
    hit[hit] = sorted_rows[at[hit]] == rows[hit]
    return hit, at


class _SweepColumns:
    """A sweep's result, kept as columns.

    While its sweep runs the record is open: full-length area/perf/power
    columns plus a valid and a quarantined mask, one slot per grid row,
    filled as the sweep learns each row — from durable records' columns
    (:meth:`set_records`, :meth:`set_stored`), outcome objects
    (:meth:`set_outcomes`), kernel columns (:meth:`set_arrays`) or
    another record's rows (:meth:`take`). :meth:`seal` then keeps grid
    rows ``[0, covered)``: the valid rows' flat grid indices ``rows``
    and their columns, and the sorted ``quarantined`` rows.

    Point objects are built from it on demand (:meth:`outcomes`), each
    row once, and then held (``held``, so a :class:`BatchSweepResult`
    and the :class:`FactoryCache` expanding this record share them): a
    row takes the object the sweep already held for it (a cache point
    entry, a quarantine marker, a scalar factory's outcome), else the
    outcome decoded from the durable record it came from (``held``
    names that :class:`~repro.resilience.checkpoint.OutcomeRecord`,
    ``at`` the row in it; a nameless record decodes only its invalid
    rows), else the factory's ``design_points`` for a valid row, else
    one scalar call (an invalid corner's genuine ``DomainError``). ``held`` and ``at`` have one slot per grid row,
    or, in a record cut down to its owned rows, one per owned row
    (:meth:`_slots`).

    In a cache, the record owns the keys of its ``owned`` grid rows
    (sorted; all covered rows when ``None``): the first row of every
    key no other record and no point entry held when it was sealed, or
    whose cached outcome a durable quarantine marker replaced. A record
    kept in a cache holds only those rows' columns and slots.
    """

    def __init__(
        self,
        factory: DesignFactory,
        grid: ParameterGrid,
        index: "_GridIndex | None" = None,
    ) -> None:
        self.factory = factory
        self.grid = grid
        self.index = _GridIndex(grid) if index is None else index
        total = self.index.total
        self.covered = 0
        self.owned: np.ndarray | None = None
        self.area = np.zeros(total)
        self.perf = np.zeros(total)
        self.power = np.zeros(total)
        self.valid: np.ndarray | None = np.zeros(total, dtype=bool)
        self.qmask: np.ndarray | None = np.zeros(total, dtype=bool)
        #: Set by :meth:`seal`; ``None`` while the record is open.
        self.rows: np.ndarray | None = None
        self.quarantined = np.zeros(0, dtype=np.int64)
        self.held: np.ndarray | None = None
        self.at: np.ndarray | None = None
        #: Whole durable records whose rows ``held``/``at`` do not name
        #: yet: ``(first grid row, records back to back)``.
        self._spans: list[tuple[int, list[OutcomeRecord]]] = []
        self._params: tuple[dict[str, object], ...] | None = None
        self._designs: tuple[DesignPoint, ...] | None = None

    # -- filling an open record ----------------------------------------
    def set_arrays(self, rows, arrays: DesignArrays) -> None:
        """Grid *rows* (an index array or a slice) take kernel columns."""
        valid = arrays.valid
        if valid.all():
            _check_design_columns(arrays.area, arrays.perf, arrays.power)
        else:
            _check_design_columns(
                arrays.area[valid], arrays.perf[valid], arrays.power[valid]
            )
        self.area[rows] = arrays.area
        self.perf[rows] = arrays.perf
        self.power[rows] = arrays.power
        self.valid[rows] = valid

    def set_outcomes(self, rows: np.ndarray, outcomes: Sequence) -> None:
        """Grid *rows* take outcome objects, which the record holds."""
        self._held()[rows] = _objects(outcomes)
        valid = ~_flags(outcomes, DomainError)
        designs = outcomes
        self.valid[rows] = valid
        if not valid.all():
            self.qmask[rows] = _flags(outcomes, QuarantinedPoint)
            keep = np.flatnonzero(valid)
            rows = rows[keep]
            designs = list(map(outcomes.__getitem__, keep.tolist()))
        for name in ("area", "perf", "power"):
            column = map(attrgetter(name), designs)
            getattr(self, name)[rows] = np.fromiter(column, np.float64, len(designs))

    def set_stored(
        self, rows: np.ndarray, stored: OutcomeRecord, at: np.ndarray
    ) -> None:
        """Grid *rows* take rows *at* of a durable record as columns;
        objects decode when read."""
        self._set(rows, *stored.columns(at))
        self._held()[rows] = _objects([stored])  # broadcast: one object
        self._at()[rows] = at

    def set_records(self, lo: int, records: list[OutcomeRecord]) -> None:
        """Grid rows from *lo* on take whole durable *records*, back to
        back, as columns in one pass; which record holds each row is
        laid out only when an object is first wanted (:meth:`_ready`)."""
        sizes = sum(map(len, records))
        self._set(slice(lo, lo + sizes), *OutcomeRecord.stacked(records))
        self._spans.append((lo, records))

    def _ready(self) -> None:
        """Point ``held``/``at`` at the rows of the records
        :meth:`set_records` left pending."""
        spans, self._spans = self._spans, []
        for lo, records in spans:
            sizes = list(map(len, records))
            rows = slice(lo, lo + sum(sizes))
            self._held()[rows] = np.repeat(_objects(records), sizes)
            starts = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
            self._at()[rows] = np.arange(rows.stop - lo) - starts

    def _at(self) -> np.ndarray:
        self._ready()
        if self.at is None:
            self.at = np.zeros(self.index.total, dtype=np.int64)
        return self.at

    def mark(self, rows: np.ndarray, qsession: "QuarantineSession") -> np.ndarray:
        """The sorted grid *rows* the quarantine session knows as poison
        take their markers; returns those rows. The session's keys
        resolve to grid rows (:meth:`_GridIndex.key_rows`), so only the
        rows that hit get a parameter dict."""
        poison = self.index.key_rows(qsession.known_keys())
        poison = poison[_positions(rows, poison)[0]]
        if poison.size:
            markers = list(map(qsession.marker, self.index.params(poison)))
            self.set_outcomes(poison, markers)
        return poison

    def take(self, rows: np.ndarray, other: "_SweepColumns", at: np.ndarray) -> None:
        """Grid *rows* take *other*'s grid rows *at* (*other* may be this
        record): columns and what it holds."""
        self._set(rows, *other._values(at))
        other._ready()
        slots = other._slots(at)
        if other.held is not None:
            self._held()[rows] = other.held[slots]
        if other.at is not None:
            self._at()[rows] = other.at[slots]

    def _set(self, rows, area, perf, power, valid, quarantined) -> None:
        self.area[rows] = area
        self.perf[rows] = perf
        self.power[rows] = power
        self.valid[rows] = valid
        self.qmask[rows] = quarantined

    def seal(self) -> None:
        """Keep grid rows ``[0, covered)``: the valid rows' columns and
        the quarantined rows."""
        if self.rows is not None:
            return
        covered = self.covered
        rows = np.flatnonzero(self.valid[:covered])
        cut = slice(0, covered) if len(rows) == covered else rows
        self.area, self.perf, self.power = (
            self.area[cut], self.perf[cut], self.power[cut]
        )
        self.rows = rows
        self.quarantined = np.flatnonzero(self.qmask[:covered])
        self.valid = self.qmask = None

    def encode(self, lo: int, hi: int, named: bool) -> bytes:
        """Open grid rows ``[lo, hi)`` as one durable chunk record: with
        every design's name (from the outcome objects) when *named*,
        else straight from the columns, only the invalid rows' messages
        built — a vector factory's ``design_points`` rebuild the names
        on read."""
        if named:
            return encode_outcomes(self.outcomes(np.arange(lo, hi)))
        valid = self.valid[lo:hi]
        messages = []
        if not valid.all():
            messages = list(map(str, self.outcomes(np.flatnonzero(~valid) + lo)))
        return encode_columns(
            valid, self.qmask[lo:hi],
            self.area[lo:hi], self.perf[lo:hi], self.power[lo:hi],
            messages,
        )

    # -- reading -------------------------------------------------------
    def _slots(self, rows: np.ndarray) -> np.ndarray:
        """Where grid *rows* sit in ``held`` and ``at``."""
        return rows if self.owned is None else np.searchsorted(self.owned, rows)

    def _held(self) -> np.ndarray:
        self._ready()
        if self.held is None:
            size = self.index.total if self.owned is None else len(self.owned)
            self.held = np.full(size, None, dtype=object)
        return self.held

    def _values(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Area, perf, power, valid and quarantined of grid *rows*."""
        if self.rows is None:
            return (
                self.area[rows], self.perf[rows], self.power[rows],
                self.valid[rows], self.qmask[rows],
            )
        valid, at = _positions(self.rows, rows)
        at = at[valid]
        columns = []
        for column in (self.area, self.perf, self.power):
            values = np.zeros(len(rows))
            values[valid] = column[at]
            columns.append(values)
        quarantined, _ = _positions(self.quarantined, rows)
        return (*columns, valid, quarantined)

    def outcomes(self, rows: np.ndarray) -> list[DesignPoint | DomainError]:
        """The outcome object of every grid row in *rows*, each built
        once and then held (see the class docstring for the order)."""
        held = self._held()
        where = self._slots(rows)
        slots = held[where].tolist()
        empty = []
        for slot, outcome in enumerate(slots):
            if isinstance(outcome, OutcomeRecord):
                # A nameless record's designs decode to None: the factory
                # rebuilds them below, like any other unbuilt design.
                outcome = slots[slot] = outcome.outcomes()[self.at[where[slot]]]
            if outcome is None:
                empty.append(slot)
        if empty:
            need = rows[empty]
            area, perf, power, valid, _ = self._values(need)
            chunk = self.index.params(need)
            arrays = DesignArrays(area, perf, power, valid)
            built = _fill_outcomes(
                self.factory, chunk, _design_slots(self.factory, chunk, arrays)
            )
            for slot, outcome in zip(empty, built):
                slots[slot] = outcome
        held[where] = _objects(slots)
        return slots

    def owned_points(self) -> int:
        """Cache entries this record expands to."""
        return self.covered if self.owned is None else len(self.owned)

    def kept(self, owned: np.ndarray) -> "_SweepColumns":
        """What a cache keeps of this sealed record, given the mask of
        the grid rows whose keys it *owned* (a subset of those it owns):
        the record itself when that is all of them, else a copy cut down
        to the owned rows, columns and slots alike, so a cache grows
        with the keys it holds rather than with the sweeps it saw."""
        rows = np.flatnonzero(owned[: self.covered])
        if len(rows) == self.owned_points():
            return self
        mine = owned[self.rows]
        kept = _SweepColumns(self.factory, self.grid, self.index)
        kept.covered, kept.owned = self.covered, rows
        kept.rows, kept.area, kept.perf, kept.power = (
            column[mine] for column in (self.rows, self.area, self.perf, self.power)
        )
        kept.quarantined = self.quarantined[owned[self.quarantined]]
        kept.valid = kept.qmask = None
        self._ready()
        slots = self._slots(rows)
        kept.held = None if self.held is None else self.held[slots]
        kept.at = None if self.at is None else self.at[slots]
        return kept

    def params(
        self, grid: ParameterGrid | None = None
    ) -> tuple[dict[str, object], ...]:
        """The valid rows' parameter dicts, from *grid*'s own values
        (default: the swept grid, memoized)."""
        if grid is not None and grid is not self.grid:
            return tuple(_GridIndex(grid).params(self.rows))
        if self._params is None:
            self._params = tuple(self.index.params(self.rows))
        return self._params

    def designs(self) -> tuple[DesignPoint, ...]:
        """The valid rows' DesignPoints (memoized)."""
        if self._designs is None:
            self._designs = tuple(self.outcomes(self.rows))
        return self._designs

    def entries(self) -> tuple[list[tuple], list[DesignPoint | DomainError]]:
        """The cache keys of the owned rows and their outcomes: exactly
        what an eager sweep memoizes."""
        rows = np.arange(self.covered) if self.owned is None else self.owned
        return self.index.keys(rows), self.outcomes(rows)


class _KnownRows:
    """The one way a sweep learns the rows it need not evaluate: every
    source's rows are gathered into its open *record* as columns, up
    front. The sources, in priority order: the checkpoint's chunk
    records, the ledger's poison rows (which never run), the store's
    hits, the cache's column records (found through
    :meth:`_GridIndex.lookup`), the cache's point entries (one
    ``dict.get`` per :meth:`_GridIndex.keys` key), and repeats of an
    earlier row's key, copied from that row by the chunk step.

    ``fresh`` marks the rest: the first row of every key no source
    knows. ``hit`` marks the rows counted as cache hits (cached rows no
    durable source served, and repeats); durable rows count as neither
    hits nor misses. ``owned`` marks the rows whose keys the sweep's
    record will own in the cache, and ``moved`` those of them another
    home gives up. ``stored`` holds the chunks the store served whole,
    ``keys`` the grid's store key encoder, ``tag`` its grid tag at this
    chunk size, and ``blocks`` the key columns of the other chunks it
    was asked about whole, which their store write reuses.
    """

    def __init__(
        self, record: _SweepColumns, state: _SweepState, cache: FactoryCache, size: int
    ) -> None:
        index = record.index
        total = index.total
        durable = np.zeros(total, dtype=bool)
        restored = list(map(OutcomeRecord, state.restored[: -(-total // size)]))
        for chunk, stored in enumerate(restored):
            points = min(size, total - chunk * size)
            if len(stored) != points:
                raise CheckpointError(
                    f"checkpoint {state.ckpt.path} records {len(stored)} "
                    f"outcomes for a {points}-point chunk; the file does not "
                    "match this grid"
                )
        if restored:
            record.set_records(0, restored)
            durable[: min(len(restored) * size, total)] = True
        if state.qsession is not None and state.qsession.known_count:
            durable[record.mark(np.flatnonzero(~durable), state.qsession)] = True
        self.stored: set[int] = set()
        self.keys: GridKeys | None = None
        self.tag: bytes | None = None
        self.blocks: dict[int, PointKeys] = {}
        if state.session is not None:
            self._ask_store(record, state, durable, size)
        first = np.ones(total, dtype=bool)
        #: Each row's first row with the same key, and the repeats the
        #: chunk step copies from it (``None`` for a grid without any).
        self.first: np.ndarray | None = None
        self.repeat: np.ndarray | None = None
        if index.repeats():
            self.first = index.lookup(index)
            first = self.first == np.arange(total)
        cached = np.zeros(total, dtype=bool)
        for kept in cache._records:
            found = kept.index.lookup(index)
            if found is None:
                continue
            ok = (found >= 0) & (found < kept.covered)
            if kept.owned is not None:
                ok[ok] = _positions(kept.owned, found[ok])[0]
            rows = np.flatnonzero(ok & ~cached)
            cached[rows] = True
            rows = rows[~durable[rows]]
            if rows.size:
                record.take(rows, kept, found[rows])
        if cache._memo:
            rows = np.flatnonzero(~cached)
            outcomes = list(map(cache._memo.get, index.keys(rows)))
            hits = list(compress(count(), map(is_not, outcomes, repeat(None))))
            if len(hits) < len(outcomes):
                rows = rows[hits]
                outcomes = list(map(outcomes.__getitem__, hits))
            cached[rows] = True
            served = ~durable[rows]
            if not served.all():
                rows = rows[served]
                outcomes = [o for o, keep in zip(outcomes, served.tolist()) if keep]
            if len(rows):
                record.set_outcomes(rows, outcomes)
        if self.first is not None:
            self.repeat = ~first & ~durable & ~cached
        self.fresh = first & ~durable & ~cached
        self.hit = cached & ~durable
        if self.repeat is not None:
            self.hit |= self.repeat
        # A durable design equals the cached outcome, whose home keeps the
        # key; a durable quarantine marker replaces it and takes the key.
        marked = durable & record.qmask
        self.moved = first & cached & marked
        self.owned = first & (~cached | marked)

    def _ask_store(
        self, record: _SweepColumns, state: _SweepState, durable: np.ndarray, size: int
    ) -> None:
        """Ask the store about every chunk's rows no checkpoint or ledger
        claimed (no *durable* row is asked), and tally its answer
        chunk by chunk. A chunk asked whole is looked up by position
        when this grid at this chunk size wrote it, else by the digest
        of its key columns; every other asked row is matched in one
        sort-join over the grid. No key is built per row."""
        index = record.index
        session, use = state.session, state.use
        keys = self.keys = GridKeys(index)
        tag = self.tag = keys.tag(size)
        total = index.total
        asked = ~durable
        tiers = {"memory": 0, "disk": 0}
        runs: list[tuple[int, list[OutcomeRecord]]] = []  # whole hits, by run
        for chunk in range(-(-total // size)):
            lo = chunk * size
            hi = min(lo + size, total)
            if not asked[lo:hi].all():
                continue
            served = session.at(tag, chunk, hi - lo)
            if served is None:
                block = keys.block(lo, hi)
                found = session.find(block)
                if found is None:
                    self.blocks[chunk] = block
                    continue
                served = session.load(found)
            stored, tier = served
            if chunk - 1 in self.stored:
                runs[-1][1].append(stored)
            else:
                runs.append((lo, [stored]))
            asked[lo:hi] = False
            durable[lo:hi] = True
            self.stored.add(chunk)
            use.full_chunks += 1
            tiers[tier] += hi - lo
        for lo, records in runs:
            record.set_records(lo, records)
        rows = np.flatnonzero(asked)
        found, at = session.join(keys, rows)
        hit = found >= 0
        chunks = rows // size
        hits = np.bincount(chunks[hit], minlength=-(-total // size))
        for chunk in np.flatnonzero(np.bincount(chunks)).tolist():
            if hits[chunk] == min(size, total - chunk * size):
                # Asked whole (no ledger row) and served whole.
                self.stored.add(chunk)
                use.full_chunks += 1
            elif hits[chunk]:
                use.delta_chunks += 1
        misses = len(rows) - int(np.count_nonzero(hit))
        rows, found, at, chunks = rows[hit], found[hit], at[hit], chunks[hit]
        order = np.lexsort((found, chunks))
        starts = np.flatnonzero(
            np.diff(chunks[order], prepend=-1) | np.diff(found[order], prepend=-1)
        ).tolist()
        for start, stop in zip(starts, starts[1:] + [len(order)]):
            # One chunk's rows from one record: loaded in chunk order, so
            # each tier tallies what per-chunk probes would.
            part = order[start:stop]
            stored, tier = session.load(int(found[part[0]]))
            record.set_stored(rows[part], stored, at[part])
            tiers[tier] += len(part)
        durable[rows] = True
        use.memory_points += tiers["memory"]
        use.disk_points += tiers["disk"]
        session.count(tiers["memory"], tiers["disk"], misses)


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
    per-point calls in row-span shards over a worker pool) or
    ``"scalar"`` (per-point calls in-process). ``vector_points`` counts
    the rows evaluated through ``batch_arrays`` — the cache misses of a
    columnar sweep; rows the cache, a checkpoint or the store already
    knew are not among them.
    The ``shards``/``shard_points``/``shm_bytes``/
    ``worker_utilization`` fields are populated by parallel-columnar
    sweeps only and feed the ``focal_parallel_*`` gauges;
    ``worker_utilization`` is the workers' kernel CPU seconds over
    kernel wall × workers, so it cannot exceed the CPUs they shared.
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
    #: grid points (within one chunk of ``shard_points`` when the
    #: pending rows form one run).
    tail_shard_points: int = 0
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
    the result. A sweep keeps its points as columns and builds
    ``params`` (the grid's own value objects) and ``designs`` on first
    read, then memoizes them; they equal what an eager sweep holds.
    ``quarantined`` lists the grid points failure containment
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
        quarantined: tuple[Mapping[str, object], ...] = (),
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
            quarantined=quarantined,
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
        pool sweep plans ``workers * STEAL_FACTOR`` near-equal,
        chunk-aligned shards (about two ``batch_arrays`` calls per
        worker, each paying the kernel's fixed per-call cost once) and
        submits one executor future each, so idle workers pull the next
        shard off the shared call queue the moment they finish one
        (work stealing). A scalar factory's pool
        sweep ships each chunk's missing rows as about one shard per
        worker, on the same queue. A vector factory's results travel
        back in one shared-memory block; on a host that refuses the
        segment the sweep logs ``block.fallback`` and runs the
        ``columnar`` path in-process instead (same bytes, no pool).
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
    #: Calibration leftovers of an auto sweep: ``(points, arrays)`` of
    #: the first chunk, reused so calibration costs no extra kernels.
    _cal: "tuple[int, DesignArrays] | None" = field(
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
            object.__setattr__(self, "_cal", (first, arrays))
        object.__setattr__(self, "_active_workers", resolved)
        return resolved

    def _take_cal_arrays(self, chunk_len: int) -> "DesignArrays | None":
        """The calibration chunk's arrays, if they cover exactly this
        first chunk (consumed — reuse is single-shot)."""
        cal = self._cal
        object.__setattr__(self, "_cal", None)
        if cal is not None and cal[0] == chunk_len:
            return cal[1]
        return None

    @staticmethod
    def _check_rows(arrays: DesignArrays, points: int) -> None:
        if len(arrays) != points:
            raise ConfigurationError(
                f"batch_arrays returned {len(arrays)} rows for a "
                f"{points}-point chunk"
            )

    def _kernel_rows(
        self,
        index: _GridIndex,
        chunk: int,
        rows: "np.ndarray | None" = None,
        plan: "_ParallelPlan | None" = None,
    ) -> DesignArrays:
        """Kernel columns of chunk *chunk*'s *rows* (chunk-relative; the
        whole chunk when ``None``): read back from the parallel plan's
        block when the pool evaluated them, taken from the
        ``workers="auto"`` calibration for the first chunk, else
        ``batch_arrays`` over stride-built axis columns — bit-exact for
        any subset of rows, because the kernels are elementwise."""
        if plan is not None and chunk in plan.planned:
            return plan.chunk_arrays(chunk, rows)
        lo = chunk * self.chunk_size
        hi = min(lo + self.chunk_size, index.total)
        arrays = self._take_cal_arrays(hi) if chunk == 0 else None
        if arrays is None:
            grid_rows = np.arange(lo, hi) if rows is None else rows + lo
            arrays = self.factory.batch_arrays(index.columns_at(grid_rows))
            self._check_rows(arrays, len(grid_rows))
        elif rows is not None:
            arrays = DesignArrays(
                arrays.area[rows], arrays.perf[rows], arrays.power[rows],
                arrays.valid[rows],
            )
        return arrays

    # ------------------------------------------------------------------
    # The chunk step: one evaluator, one record
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

    def _evaluate_rows(
        self,
        record: _SweepColumns,
        index: int,
        missing: "np.ndarray | None",
        state: _SweepState,
        plan: "_ParallelPlan | None",
        pool: "_parallel.WorkerPool | None",
    ) -> None:
        """Evaluate the *missing* rows of chunk *index* (chunk-relative;
        default: all of them) into *record* — the one place that
        chooses how fresh rows run.

        A vector factory runs its columnar kernel over the rows
        (:meth:`_kernel_rows`) and the record keeps the columns; a row
        the supervisor bisected out of the block takes its quarantine
        marker. Any other factory takes one scalar call per point, or,
        on a pool, the rows go out as ``(lo, hi, seq)`` shards (roughly
        one per worker) whose workers reply with the outcomes; a row
        the supervisor quarantined takes its marker the same way.
        """
        factory = self.factory
        grid = record.index
        lo = index * self.chunk_size
        hi = min(lo + self.chunk_size, grid.total)
        rows = np.arange(lo, hi) if missing is None else missing + lo
        qsession = state.qsession
        if state.columnar:
            arrays = self._kernel_rows(grid, index, missing, plan)
            record.set_arrays(slice(lo, hi) if missing is None else rows, arrays)
            if plan is not None and qsession is not None and qsession.count:
                record.mark(rows[~arrays.valid], qsession)
            return
        chunk = grid.params(rows)
        if pool is None:
            outcomes = _fill_outcomes(factory, chunk, [None] * len(chunk))
            record.set_outcomes(rows, outcomes)
            return
        wanted = np.zeros(hi - lo, dtype=bool)
        wanted[slice(None) if missing is None else missing] = True
        runs = [(lo + start, lo + stop) for start, stop in _runs(wanted)]
        workers = self._pool_workers
        spans = _parallel.plan_steal_runs(runs, -(-len(rows) // workers), workers)
        jobs = [(start, stop, seq) for seq, (start, stop) in enumerate(spans)]
        slot_of = {row: slot for slot, row in enumerate(rows.tolist())}
        slots: list = [None] * len(rows)
        with _trace.get_tracer().span("kernels", shards=len(jobs), workers=workers):
            for replies in self._run_shards(pool, jobs):
                if replies is None:
                    # Salvaged: never cache a sentinel; the chunk as a
                    # whole is unfinished and aborts the sweep.
                    raise _SalvageAbort(
                        "the worker pool never completed a shard of this chunk"
                    )
                for start, _, _, _, outcomes, _ in replies:
                    for row, outcome in enumerate(outcomes, start):
                        slots[slot_of[row]] = outcome
        marker = qsession.marker if qsession is not None else None
        record.set_outcomes(rows, _fill_outcomes(factory, chunk, slots, marker))

    def _chunk_step(
        self,
        index: int,
        record: _SweepColumns,
        known: _KnownRows,
        state: _SweepState,
        plan: "_ParallelPlan | None",
        pool,
    ) -> int:
        """Resolve chunk *index* into *record*; returns its point count.

        Evaluates the chunk's fresh rows once through
        :meth:`_evaluate_rows`, copies its repeats from their first
        rows, and counts the chunk (cached rows and repeats as cache
        hits, fresh rows as misses, durable rows as neither). It then
        writes the chunk as one record (:meth:`_SweepColumns.encode`):
        to the store (unless the store served it whole or it holds a
        quarantined row) and to the checkpoint (unless restored from
        it). A vector factory's record comes straight from the columns;
        any other factory's from the outcome objects, built here only
        for the rows the sweep holds none for.
        """
        lo = index * self.chunk_size
        hi = min(lo + self.chunk_size, record.index.total)
        fresh = int(np.count_nonzero(known.fresh[lo:hi]))
        if fresh:
            missing = None if fresh == hi - lo else np.flatnonzero(known.fresh[lo:hi])
            self._evaluate_rows(record, index, missing, state, plan, pool)
        if known.repeat is not None:
            repeats = np.flatnonzero(known.repeat[lo:hi]) + lo
            if repeats.size:
                record.take(repeats, record, known.first[repeats])
        self.cache.record(hits=int(np.count_nonzero(known.hit[lo:hi])), misses=fresh)
        record.covered = hi
        checkpointed = state.ckpt is not None and index >= len(state.restored)
        # A quarantine marker is containment state, not a factory
        # outcome: no later sweep without the ledger may be served it.
        stored = (
            state.session is not None
            and index not in known.stored
            and not record.qmask[lo:hi].any()
        )
        if checkpointed or stored:
            data = record.encode(lo, hi, named=not state.columnar)
            if stored:
                # Resumed work is stored too: the next process should
                # not recompute it.
                keys = known.blocks.pop(index, None)
                if keys is None:
                    keys = known.keys.block(lo, hi)
                state.session.put_record(keys, data, known.tag, index)
            if checkpointed and not state.ckpt.commit(
                kind="sweep", fingerprint=state.fingerprint, record=data
            ):
                state.ckpt = None
        return hi - lo

    # ------------------------------------------------------------------
    # Parallel-columnar dispatch
    # ------------------------------------------------------------------
    def _open_pool(
        self,
        index: _GridIndex,
        block: "_parallel.ColumnarBlock | None" = None,
        quarantine: "QuarantineSession | None" = None,
    ) -> "_parallel.WorkerPool":
        """The sweep's worker pool: the factory, the grid *index* and
        (vector factories) the result *block* ship once per worker.

        This process mirrors the worker state first (its own factory,
        block and index, never a second attachment), so supervised
        in-process degradation — and thread-pool executors injected by
        tests — evaluate exactly what the worker processes would.
        """
        _parallel.set_worker_state(self.factory, block, index)
        return _parallel.WorkerPool(
            self._pool_workers,
            _parallel.init_columnar_worker,
            (self.factory, index, block.name if block is not None else None),
            resilience=self.resilience,
            quarantine=quarantine,
            # Resolved in this module, so a test can swap in threads.
            executor_factory=ProcessPoolExecutor,
        )

    def _parallel_setup(
        self,
        index: _GridIndex,
        fresh: np.ndarray,
        quarantine: "QuarantineSession | None" = None,
    ) -> "_ParallelPlan | None":
        """Allocate the sweep's shared block, plan the shard spans over
        the *fresh* rows (a mask over the grid) and spawn the pool
        (which receives the grid *index* once, so a shard job is ``(lo,
        hi, seq)``).

        Only the rows no source knows are dispatched — restored,
        ledger-poison, stored, cached or repeated rows never reach a
        worker and their block rows are never written or read. That
        keeps resume, store and cache reuse bit-exact and free of
        redundant kernel work, and a known poison point never crashes a
        worker again; every fresh row still runs on the pool, under its
        supervisor, which bisects fresh crashes into *quarantine*. A
        sweep with nothing to evaluate gets no pool at all.

        When ``workers="auto"`` calibrated on the first chunk and all of
        that chunk is fresh, its arrays are written into the block up
        front and the chunk is dropped from the dispatch spans —
        calibration cost no extra kernel work.

        A host that refuses the shared-memory segment gets ``None``
        (the cause logged as ``block.fallback``), and the caller sweeps
        in-process.
        """
        total = index.total
        size = self.chunk_size
        try:
            block = _parallel.ColumnarBlock.allocate(total)
        except OSError as exc:
            get_logger().warning(
                kv(
                    "block.fallback",
                    mode="columnar",
                    cause=f"{type(exc).__name__}: {exc}",
                )
            )
            return None
        fresh = fresh.copy()
        starts = np.arange(0, total, size)
        planned = set(np.flatnonzero(np.logical_or.reduceat(fresh, starts)).tolist())
        first = min(size, total)
        if fresh[:first].all():
            cal = self._take_cal_arrays(first)
            if cal is not None:
                # Prefill the calibration chunk: its rows read back via
                # chunk_arrays like dispatched rows would.
                block.write(0, first, cal.area, cal.perf, cal.power, cal.valid)
                fresh[:first] = False
        spans = _parallel.plan_steal_runs(_runs(fresh), size, self._pool_workers)
        pool = self._open_pool(index, block, quarantine) if spans else None
        return _ParallelPlan(index, size, block, pool, spans, planned)

    def _parallel_kernels(
        self, plan: _ParallelPlan, tracer: _trace.Tracer
    ) -> None:
        """The kernel phase: run ``batch_arrays`` over every pending
        shard span on the pool and land the result columns in the block.

        One job per span — ``(lo, hi, seq)`` out (workers derive their
        columns from the pool-shipped grid index and write their rows
        into the block), the kernel's CPU seconds back. Shard writes
        are idempotent, so supervised retry/respawn/degradation re-runs
        are safe. CPU seconds accumulate for the
        worker-utilization gauge and, per worker, into the
        ``focal_worker_busy_seconds`` histogram; worker events riding
        the replies merge into the global event log.
        """
        if not plan.spans:
            return
        jobs = [(lo, hi, seq) for seq, (lo, hi) in enumerate(plan.spans)]
        with tracer.span(
            "kernels",
            shards=len(jobs),
            shard_points=plan.shard_points,
            workers=self._pool_workers,
            shm_bytes=plan.shm_bytes,
        ):
            begin = time.perf_counter()
            for job, replies in zip(jobs, self._run_shards(plan.pool, jobs)):
                if replies is None:
                    # Salvaged shard: its block rows were never written;
                    # the chunk loop stops when it reaches them.
                    first = job[0] // self.chunk_size
                    last = -(-job[1] // self.chunk_size)
                    plan.failed.update(range(first, last))
                    continue
                plan.busy += sum(reply[2] for reply in replies)
            plan.kernel_wall = time.perf_counter() - begin

    @staticmethod
    def _run_shards(
        pool: "_parallel.WorkerPool", jobs: list[tuple[int, int, int]]
    ) -> list[tuple | None]:
        """Shard *jobs* through :func:`~repro.dse.parallel.eval_shard`
        on *pool*; per job, its ``eval_shard`` replies — several for a
        bisected shard, none for a quarantined single row (whose slot
        then takes the quarantine session's marker) — or ``None`` for a
        salvaged one. Worker events merge into the event log and busy
        seconds feed the ``focal_worker_busy_seconds`` histogram.
        """
        registry = _metrics.get_registry()
        log = _events.get_log()
        unpacked: list[tuple | None] = []
        for reply in pool.run(
            _parallel.eval_shard,
            jobs,
            splitter=_parallel.split_shard_job,
            describe=_parallel.shard_job_point,
        ):
            if reply is INCOMPLETE:
                unpacked.append(None)
                continue
            if isinstance(reply, QuarantinedPoint):
                unpacked.append(())
                continue
            replies = reply.replies if isinstance(reply, BisectOutcome) else (reply,)
            for _, _, busy, pid, _, events in replies:
                if events:
                    log.extend(events)
                if registry.enabled:
                    registry.histogram(
                        "focal_worker_busy_seconds",
                        "kernel CPU seconds per shard, by worker process",
                        labels={"worker": str(pid)},
                    ).observe(busy)
            unpacked.append(replies)
        return unpacked

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

        Every sweep first gathers, as columns, the rows a checkpoint,
        the quarantine ledger, the store or the cache already knows,
        and evaluates only the rest — for a :class:`VectorFactory`
        through ``batch_arrays``. The result keeps its valid rows as
        columns and builds ``params``/``designs`` on first read; its
        record stays in the cache, and a sweep of this very grid with no
        durable layer adopts it whole (n hits, nothing evaluated).
        Output (ordering, skips, values, cache contents) is
        byte-identical on every path.

        With *checkpoint* set, every completed chunk is appended to that
        log as one checksummed record; with *resume*, completed chunks
        found there are restored as columns without re-evaluating the
        factory (their objects decode when read), and the sweep
        continues from the first unfinished chunk. Resume is bit-exact:
        result arrays and cache entries match an uninterrupted run. A
        checkpoint written by a different run configuration raises
        :class:`~repro.core.errors.CheckpointError`; a torn or corrupt
        record is dropped with every later one and recomputed.

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
        index = _GridIndex(grid)
        state = _SweepState(
            ckpt=CheckpointStore.coerce(checkpoint), columnar=mode in COLUMNAR_MODES
        )
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
        record: _SweepColumns | None = None
        if state.ckpt is None and state.session is None and state.qsession is None:
            # Without a durable layer to read or write, a record of this
            # very grid is the whole answer.
            for kept in self.cache._records:
                if (
                    kept.owned is None
                    and kept.covered == index.total
                    and kept.index.same_grid(index)
                ):
                    record = kept
                    break
        adopted = record is not None
        if record is None:
            record = _SweepColumns(self.factory, grid, index)
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
                    state.restored = loaded["chunks"]
        pool: "_parallel.WorkerPool | None" = None
        plan: "_ParallelPlan | None" = None
        known: _KnownRows | None = None
        size = self.chunk_size
        with tracer.span(
            "sweep",
            grid_points=len(grid),
            chunk_size=size,
            workers=workers,
            mode=mode,
        ) as sweep_span:
            start_s = time.perf_counter()
            cache_before = self.cache.stats()
            failure: FailureReport | None = None
            chunks_done = 0
            points_done = 0
            try:
                chunks: Iterable = range(-(-len(grid) // size))
                if adopted:
                    # Served whole from the cache: no kernel, no pool.
                    chunks = ()
                    self.cache.record(hits=len(grid))
                    if registry.enabled:
                        registry.counter(
                            "focal_cache_hits_total", "factory cache hits"
                        ).inc(len(grid))
                else:
                    known = _KnownRows(record, state, self.cache, size)
                    if mode == "parallel-columnar":
                        # Only the rows no source knows reach the pool.
                        plan = self._parallel_setup(index, known.fresh, state.qsession)
                        if plan is None:
                            # No shared block on this host: run the
                            # in-process path, as a declined auto does.
                            mode = "columnar"
                            object.__setattr__(self, "_active_workers", 0)
                            sweep_span.set(mode=mode, workers=0)
                        else:
                            pool = plan.pool
                            self._parallel_kernels(plan, tracer)
                    elif workers:
                        pool = self._open_pool(index, quarantine=state.qsession)
                for k in chunks:
                    if plan is not None and k in plan.failed:
                        raise _SalvageAbort(
                            f"the shard covering chunk {k} was never "
                            "completed by the worker pool"
                        )
                    with tracer.span(
                        "chunk", index=k, mode=mode, restored=k < len(state.restored)
                    ) as chunk_span:
                        if observing:
                            chunk_start = time.perf_counter()
                            before = self.cache.stats()
                        points = self._chunk_step(k, record, known, state, plan, pool)
                        chunks_done += 1
                        points_done += points
                        if observing:
                            lo = k * size
                            self._observe_chunk(
                                registry,
                                chunk_span,
                                points=points,
                                valid=int(record.valid[lo : lo + size].sum()),
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
                    total_chunks=-(-len(grid) // size),
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
                if pool is not None:
                    pool.close()
                if plan is not None:
                    plan.release()
                object.__setattr__(self, "_cal", None)
                if known is not None:
                    record.seal()
                    kept = record.kept(known.owned)
                    moved = np.flatnonzero(known.moved[: record.covered])
                    if moved.size:
                        self.cache.disown(index, moved)
                    if kept.owned_points():
                        # Even an aborted sweep leaves its completed
                        # chunks memoized.
                        self.cache.defer(kept)
                state.sync()
            self._record_supervision(pool, sweep_span)
            valid_points = len(record.rows)
            quarantined = tuple(index.params(record.quarantined))
            if not valid_points and failure is None:
                raise ConfigurationError(
                    "exploration produced no valid design points"
                )
            with tracer.span("classify", points=valid_points):
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
                quarantined_points=len(quarantined),
                salvaged=failure is not None,
            )
            if observing:
                self._observe_sweep(registry, sweep_span, stats)
        return BatchSweepResult._from_columns(
            record, grid, perf, ncf_fw, ncf_ft, codes, quarantined, failure
        )

    def _record_supervision(
        self, pool: "_parallel.WorkerPool | None", sweep_span
    ) -> None:
        """Publish the sweep's supervision counters (supervised runs
        only): :attr:`last_supervision` always, span attributes when a
        recovery action actually happened."""
        stats = pool.stats if pool is not None else None
        if stats is None:
            return
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
                    "sweep",
                ).set(engine.shm_bytes)
                registry.gauge(
                    "focal_parallel_worker_utilization",
                    "worker kernel CPU seconds / (kernel wall x workers), "
                    "last parallel-columnar sweep",
                ).set(engine.worker_utilization)
                registry.gauge(
                    "focal_steal_tail_shard_points",
                    "smallest (tail) shard of the last work-stealing "
                    "sweep, in grid points",
                ).set(engine.tail_shard_points)
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

    def _ncf_from_columns(
        self, area: np.ndarray, perf: np.ndarray, power: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perf ratios and both NCF arrays vs the baseline: the same
        IEEE-754 operations, in the same order, as the scalar ratio
        properties on DesignPoint, so the values are bit-exact."""
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
        """Sweep *grid* and histogram the verdicts: :meth:`explore_arrays`
        plus :meth:`BatchSweepResult.category_counts`, so identical
        counts to ``Explorer.count_categories(Explorer.explore(grid))``
        and the same cache reuse as any sweep."""
        return self.explore_arrays(grid).category_counts()
