"""Shard dispatch and the worker-pool lifecycle for parallel sweeps.

FOCAL's first-order model turns each design into four numbers, so a
parallel sweep only has to move a span of grid rows into a kernel and
three float columns plus a validity flag back. This module carries
exactly that, one way:

* :class:`ColumnarBlock` — one flat buffer holding a vector
  factory's area/perf/power/valid columns for *every* grid point,
  backed by a ``multiprocessing.shared_memory`` segment (a scalar
  factory's shards reply with their outcomes instead). A host that
  refuses the segment sweeps in-process: see
  :meth:`ColumnarBlock.allocate`;
* :func:`plan_steal_runs` — contiguous ``[lo, hi)`` spans, whole
  chunks from each run's start, ``STEAL_FACTOR`` near-equal spans per
  worker, so one future per shard on the executor's shared call queue
  behaves like a work-stealing scheduler: idle workers pull the next
  shard, and each worker pays the kernel's fixed per-call cost only a
  few times;
* worker-side state and entry points — the factory, the sweep's grid
  index (the grid's own axis values plus strides) and, for a vector
  factory, the block attachment ship **once per pool** through
  :func:`init_columnar_worker`. A shard job is ``(lo, hi, seq)`` on
  every pool path: for a vector factory the worker derives the rows'
  columns with the same stride arithmetic the serial path uses and
  writes them into the block (no ``DesignPoint`` crosses the process
  boundary); a scalar factory's worker builds the rows' parameter
  dicts from the grid's own values and replies with the outcomes;
* :class:`WorkerPool` — the one pool lifecycle sweeps and the
  Monte-Carlo samplers share: open (supervised or bare, worker event
  capture and its event-spill directory armed), dispatch, wind down.

Everything here is byte-neutral: the kernels run unchanged on the same
columns, the parent re-reads the same float64/bool columns the
single-process path would have produced, and invalid rows are still
re-evaluated scalar in the parent to capture genuine ``DomainError``
objects.

The parent process mirrors the worker initialization via
:func:`set_worker_state` so :class:`~repro.resilience.supervisor.
SupervisedPool` degradation (jobs re-run in-process) evaluates the same
module-level functions the workers do.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable

import numpy as np

from ..core.errors import ConfigurationError, DomainError
from ..obs import events as _events
from ..resilience import containment as _containment
from ..resilience.policy import RetryPolicy, SupervisionStats
from ..resilience.supervisor import SupervisedPool

__all__ = [
    "ColumnarBlock",
    "plan_steal_runs",
    "live_blocks",
    "set_worker_state",
    "clear_worker_state",
    "init_columnar_worker",
    "eval_shard",
    "split_shard_job",
    "shard_job_point",
    "WorkerPool",
]

#: Bytes per grid point in a :class:`ColumnarBlock`:
#: three float64 result columns plus one bool validity flag.
BYTES_PER_POINT = 3 * 8 + 1

#: Shards per worker in :func:`plan_steal_runs`: a sweep is cut into
#: ``workers * STEAL_FACTOR`` near-equal, chunk-aligned spans, so each
#: worker pays the kernel's fixed per-call cost about this many times,
#: and a worker that finishes early can still take a whole shard off a
#: slower one.
STEAL_FACTOR = 2

#: Shared-memory segment names this process created and has not yet
#: unlinked — the leak detector the interrupt-hygiene tests assert on.
_LIVE_NAMES: set[str] = set()

#: Per-process worker state, installed once per pool by the initializers
#: (and mirrored in the parent for in-process degradation).
_STATE: dict = {}


def live_blocks() -> frozenset[str]:
    """Shared-memory segment names created here and not yet unlinked."""
    return frozenset(_LIVE_NAMES)


class ColumnarBlock:
    """The sweep's result columns over one flat shared buffer.

    Layout over ``total`` points: ``area``/``perf``/``power`` as
    consecutive float64 columns, then ``valid`` as a bool column.
    Workers write their shard rows directly into the buffer, a
    shared-memory segment.
    """

    def __init__(self, total: int, shm, owner: bool) -> None:
        self.total = total
        self._shm = shm
        self._owner = owner
        buf = shm.buf
        self.area = np.frombuffer(buf, dtype=np.float64, count=total, offset=0)
        self.perf = np.frombuffer(
            buf, dtype=np.float64, count=total, offset=8 * total
        )
        self.power = np.frombuffer(
            buf, dtype=np.float64, count=total, offset=16 * total
        )
        self.valid = np.frombuffer(
            buf, dtype=np.bool_, count=total, offset=24 * total
        )

    @classmethod
    def allocate(cls, total: int) -> "ColumnarBlock":
        """A new block in a fresh shared-memory segment.

        Raises whatever the segment creation raises (``OSError`` on a
        host whose ``/dev/shm`` is full, size-limited or sandboxed);
        the sweep catches it and runs in-process instead.
        """
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=max(1, total * BYTES_PER_POINT)
        )
        _LIVE_NAMES.add(segment.name)
        return cls(total, segment, owner=True)

    @classmethod
    def attach(cls, name: str, total: int) -> "ColumnarBlock":
        """Attach to the parent's segment (worker-side).

        On Python < 3.13 shm attachment re-registers the segment with
        the ``resource_tracker`` (python/cpython#82300). Pool workers
        are children of the sweep's parent and share its tracker
        process, where registrations collapse into one set entry — so
        the re-register is harmless, and explicitly unregistering here
        would be wrong: it would strip the *parent's* registration and
        make its ``unlink`` complain about an unknown name.
        """
        from multiprocessing import shared_memory

        return cls(total, shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        """The shared-memory segment's name."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Shared-memory bytes backing the block."""
        return self._shm.size

    def write(
        self,
        start: int,
        stop: int,
        area: np.ndarray,
        perf: np.ndarray,
        power: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Fill rows ``[start, stop)`` — idempotent, so re-dispatched
        shards (retry, respawn, degradation) may write twice."""
        self.area[start:stop] = area
        self.perf[start:stop] = perf
        self.power[start:stop] = power
        self.valid[start:stop] = valid

    def rows(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of rows ``[start, stop)`` — copies, not views, so the
        segment can be unlinked while results are still referenced."""
        return (
            np.array(self.area[start:stop]),
            np.array(self.perf[start:stop]),
            np.array(self.power[start:stop]),
            np.array(self.valid[start:stop]),
        )

    def release(self) -> None:
        """Drop the buffer views, close the mapping and (as the owner)
        unlink the segment. Safe to call more than once."""
        shm, self._shm = self._shm, None
        self.area = self.perf = self.power = self.valid = None  # type: ignore[assignment]
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_NAMES.discard(shm.name)


def plan_steal_runs(
    runs: list[tuple[int, int]], chunk_size: int, workers: int
) -> list[tuple[int, int]]:
    """Near-equal shard spans over the pending point *runs*.

    Checkpoint resume skips a prefix, and a persistent result store or
    the cache can know *any* subset of rows, so what remains to
    evaluate is a list of contiguous ``[lo, hi)`` point runs. Spans
    advance in whole chunks from a run's start (chunk-aligned when the
    run is) and never straddle two runs (the gap between them is
    already-known work whose block rows must stay untouched).

    The sweep gets ``workers * STEAL_FACTOR`` spans (fewer only when
    it has fewer chunks), split across the runs by chunk count with
    largest remainders: every run gets at least one span and at most
    one per chunk, and the spans of one run differ by at most one
    chunk, the longer ones last (so a run ending in the grid's short
    final chunk splits more evenly by rows). A kernel call costs a
    fixed setup plus a per-row term, so a few equal shards per worker
    pay the fixed part a few times instead of once per chunk, and a
    shard count that is a multiple of the worker count leaves no
    worker alone with a last whole shard. One executor future per
    span turns the pool's shared call queue into the steal queue:
    whichever worker goes idle first pulls the next span.
    """
    pending = [(lo, hi, -(-(hi - lo) // chunk_size)) for lo, hi in runs if hi > lo]
    total = sum(chunks for _, _, chunks in pending)
    if not total:
        return []
    seats = min(total, max(1, workers) * STEAL_FACTOR)
    shares = [seats * chunks for _, _, chunks in pending]
    counts = [share // total for share in shares]
    by_remainder = sorted(range(len(pending)), key=lambda i: -(shares[i] % total))
    for i in by_remainder[: seats - sum(counts)]:
        counts[i] += 1
    spans: list[tuple[int, int]] = []
    for (lo, hi, chunks), count in zip(pending, counts):
        count = max(1, count)
        base, extra = divmod(chunks, count)
        cursor = lo
        for k in range(count):
            span_hi = min(cursor + (base + (k >= count - extra)) * chunk_size, hi)
            spans.append((cursor, span_hi))
            cursor = span_hi
    return spans


# ----------------------------------------------------------------------
# Worker-side state and entry points
# ----------------------------------------------------------------------
def set_worker_state(
    factory: Callable,
    block: ColumnarBlock | None,
    index=None,
) -> None:
    """Install this process's sweep state: the factory, the grid index
    whose ``columns(lo, hi)`` and ``params(rows)`` describe a shard's
    rows, and the result block (``None`` for a scalar factory, whose
    shards reply with their outcomes instead).

    Called by the pool initializers in each worker and by the parent
    before dispatch, so in-process degradation and thread-pool
    executors evaluate exactly what worker processes would.
    """
    _STATE["factory"] = factory
    _STATE["block"] = block
    _STATE["index"] = index


def clear_worker_state() -> None:
    """Drop the sweep state (parent-side, after the pool is gone)."""
    _STATE.clear()
    _events.get_buffer().disable()


def init_columnar_worker(
    factory: Callable,
    index,
    block_name: str | None,
    capture: bool = False,
    spill_dir: str | None = None,
) -> None:
    """Pool initializer: the factory, the sweep's grid index (axis
    values and strides — small, shipped once per worker) and, for a
    vector factory, one attachment to the parent's result block
    (*block_name* ``None``: a scalar factory, no block).

    With *capture* the worker's event buffer is armed first (its
    write-through events file under *spill_dir*), so the block attach
    itself lands on the timeline (``worker.init``).
    """
    _events.init_worker(capture, spill_dir)
    block = None
    if block_name is not None:
        buf = _events.get_buffer()
        t0 = buf.now()
        block = ColumnarBlock.attach(block_name, index.total)
        buf.add(
            "worker.init",
            start=t0,
            dur_s=buf.now() - t0,
            attach_s=buf.now() - t0,
        )
    set_worker_state(factory, block, index)


def eval_shard(job):
    """Evaluate grid rows ``[start, stop)`` of ``job = (start, stop,
    seq)`` on the pool-resident factory.

    With a result block (a vector factory) the worker runs
    ``batch_arrays`` over the rows' axis columns from the resident grid
    index and writes the result columns into the block; without one (a
    scalar factory) it calls the factory on each row's parameter dict,
    built from the grid's own values, a ``DomainError`` travelling back
    as a value. The reply is ``(start, stop, busy_seconds, worker_pid,
    outcomes, events)``: ``outcomes`` is ``None`` for a block shard.
    ``busy_seconds`` (``compute_s`` on the ``shard`` event) is the
    factory's CPU time on this thread (``time.thread_time``), not wall
    time, so a worker waiting for a CPU on an oversubscribed host does
    not count as computing.

    When this worker's event buffer is armed (pool initializer with
    ``capture=True``) the shard leaves a ``heartbeat`` instant plus
    ``shard``/``factory.compute`` (block shards: ``shm.write``)
    duration events, drained into the reply's ``events`` so the parent
    can merge them without extra IPC (else ``events`` is ``None``).
    """
    _containment.beat()
    start, stop, seq = job
    buf = _events.get_buffer()
    capture = buf.enabled
    if capture:
        t0 = buf.now()
        buf.add("heartbeat", start=t0, lo=start, hi=stop)
    factory = _STATE["factory"]
    block = _STATE["block"]
    shm_s = 0.0
    outcomes = None
    if block is None:
        rows = _STATE["index"].params(np.arange(start, stop))
        begin = time.thread_time()
        outcomes = []
        for params in rows:
            _containment.beat()
            try:
                outcomes.append(factory(params))
            except DomainError as exc:
                outcomes.append(exc)
        busy = time.thread_time() - begin
    else:
        columns = _STATE["index"].columns(start, stop)
        begin = time.thread_time()
        arrays = factory.batch_arrays(columns)
        busy = time.thread_time() - begin
        if len(arrays) != stop - start:
            raise ConfigurationError(
                f"batch_arrays returned {len(arrays)} rows for a "
                f"{stop - start}-point shard"
            )
        shm_begin = time.perf_counter()
        block.write(
            start, stop, arrays.area, arrays.perf, arrays.power, arrays.valid
        )
        shm_s = time.perf_counter() - shm_begin
    if capture:
        end = buf.now()
        buf.add("factory.compute", start=end - shm_s - busy, dur_s=busy)
        if block is not None:
            buf.add("shm.write", start=end - shm_s, dur_s=shm_s)
        buf.add(
            "shard",
            start=t0,
            dur_s=end - t0,
            lo=start,
            hi=stop,
            seq=seq,
            points=stop - start,
            compute_s=busy,
            shm_s=shm_s,
        )
    events = buf.drain() if capture else None
    return (start, stop, busy, os.getpid(), outcomes, events)


def split_shard_job(job):
    """Halve one shard job for quarantine bisection, or ``None``.

    ``job`` is the ``(start, stop, seq)`` triple :func:`eval_shard`
    takes; halves are index arithmetic alone, so bisection probes
    evaluate exactly the rows the original shard would have. A
    single-row shard is atomic (returns ``None``) — that row *is* the
    candidate poison point.
    """
    start, stop, seq = job
    if stop - start <= 1:
        return None
    mid = start + (stop - start) // 2
    return ((start, mid, seq), (mid, stop, seq))


def shard_job_point(job):
    """The grid-point parameters of a single-row shard job (for the
    quarantine ledger), or ``None`` for a multi-row shard.

    Built from the grid's own values, not its NumPy columns: on a mixed
    ``[1, 2.5, 3]`` axis the column holds ``3.0``, whose point key
    differs from the grid's ``3`` — the ledger would then never match
    the point it quarantined.
    """
    start, stop, _ = job
    if stop - start != 1:
        return None
    return _STATE["index"].params(np.arange(start, stop))[0]


# ----------------------------------------------------------------------
# The pool lifecycle
# ----------------------------------------------------------------------
class WorkerPool:
    """One worker pool from spawn to teardown, for sweeps and samplers.

    When the global event log collects, each worker runs
    ``initializer(*initargs, True, spill_dir)`` — event capture armed,
    with a fresh event-spill directory for the events a dead worker
    never replied with — and this process's buffer is armed
    too, so jobs re-run here leave the same events. With a *resilience*
    policy the pool is a :class:`~repro.resilience.supervisor.
    SupervisedPool` (and :attr:`stats` its counters), else the bare
    executor; tests inject thread pools through *executor_factory*.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable,
        initargs: tuple = (),
        *,
        resilience: RetryPolicy | None = None,
        quarantine: "_containment.QuarantineSession | None" = None,
        executor_factory: Callable[..., Executor] = ProcessPoolExecutor,
    ) -> None:
        capture = _events.get_log().enabled
        self.spill_dir = _events.make_spill_dir() if capture else None
        _events.init_worker(capture, None)
        initargs = (*initargs, capture, self.spill_dir)
        self.stats: SupervisionStats | None = None
        if resilience is None:
            self._pool: SupervisedPool | Executor = executor_factory(
                max_workers=workers, initializer=initializer, initargs=initargs
            )
            return
        self._pool = SupervisedPool(
            workers,
            resilience,
            executor_factory,
            initializer=initializer,
            initargs=initargs,
            quarantine=quarantine,
        )
        self.stats = self._pool.stats

    def run(
        self,
        fn: Callable,
        jobs: list,
        *,
        splitter: Callable | None = None,
        describe: Callable | None = None,
    ) -> list:
        """One reply per job, in job order; *splitter*/*describe* feed a
        supervised pool's quarantine bisection."""
        if isinstance(self._pool, SupervisedPool):
            return self._pool.run(fn, jobs, splitter=splitter, describe=describe)
        return list(self._pool.map(fn, jobs))

    def close(self) -> None:
        """Reap the workers, harvest and remove the event-spill
        directory and clear this process's worker state."""
        self._pool.shutdown(cancel_futures=True)
        if self.spill_dir is not None:
            _events.get_log().collect_spill(self.spill_dir)
            _events.cleanup_spill_dir(self.spill_dir)
        clear_worker_state()
