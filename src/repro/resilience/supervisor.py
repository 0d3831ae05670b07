"""A supervised worker pool: ``ProcessPoolExecutor`` that survives its
workers.

A plain ``ProcessPoolExecutor`` turns one OOM-killed or segfaulted
worker into a ``BrokenProcessPool`` that aborts the entire sweep, and a
hung worker into an unbounded stall. :class:`SupervisedPool` submits
every job as its own future on the executor's shared call queue (idle
workers pull the next job, so the queue doubles as a work-stealing
scheduler) and wraps the executor with the recovery ladder long
design-space sweeps need:

1. **bounded retry with exponential backoff** — a job whose dispatch
   fails (worker crash, transient factory exception, timeout) is
   re-dispatched up to :attr:`~repro.resilience.policy.RetryPolicy.
   max_retries` times; with ``heartbeat_timeout_s`` set, a parent-side
   watchdog reaps a pool whose worker heartbeats have *all* gone stale
   instead of waiting out the blunt ``chunk_timeout_s``;
2. **pool respawn** — a ``BrokenProcessPool``, a chunk timeout or a
   watchdog reap kills and recreates the executor (terminating any
   hung worker processes), re-dispatching only the failed jobs, never
   the ones that already completed;
3. **poison-point quarantine** — when the retry budget is exhausted
   and a :class:`~repro.resilience.containment.QuarantineSession` is
   attached, each failing job is bisected — its splitter halves it, so
   the probes needed grow with the log of its size — to isolate the
   minimal crashing point set; those points are recorded in the quarantine
   ledger and their slots filled with :class:`~repro.core.errors.
   QuarantinedPoint` markers so the sweep continues without them;
4. **graceful degradation** — when the pool is irrecoverable (respawn
   budget exhausted, or the OS refuses new processes), remaining work
   runs in-process, so the sweep finishes correctly, just slower. A
   genuine, repeatable factory bug is *not* retried away: the final
   in-process attempt re-raises it;
5. **salvage** — under ``RetryPolicy(salvage=True,
   degrade_in_process=False)`` an irrecoverable pool fills the failed
   slots with :data:`~repro.resilience.containment.INCOMPLETE`
   sentinels instead of raising, letting the caller keep the completed
   prefix and report a structured failure.

Every recovery action is counted in :class:`~repro.resilience.policy.
SupervisionStats` and surfaced through the ``focal_retry_*`` /
``focal_degraded_*`` / ``focal_quarantine_*`` / ``focal_watchdog_*``
metrics when :mod:`repro.obs.metrics` is enabled.

Results are returned in job order and are byte-identical to an
unsupervised run for every non-quarantined point: supervision only
re-executes pure factory calls, it never reorders them, and removal by
quarantine is always reported, never silent.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Mapping, Sequence

from ..core.errors import ValidationError, WorkerPoolError
from ..obs import events as _events
from ..obs import metrics as _metrics
from . import containment as _containment
from .containment import (
    INCOMPLETE,
    BisectOutcome,
    HeartbeatMonitor,
    QuarantineSession,
)
from .policy import DEFAULT_POLICY, RetryPolicy, SupervisionStats

__all__ = ["SupervisedPool"]

#: Internal signal: bisection gave up (budget, unspawnable pool, or an
#: indescribable job) — fall through to the next recovery rung.
_ABORT = object()

#: Seconds :meth:`SupervisedPool.shutdown` lets the idle workers of a
#: settled pool exit on their own before terminating the rest.
WIND_DOWN_S = 2.0


def _run_job(fn: Callable, job: object) -> object:
    """Worker-side job evaluation (module-level, hence picklable).

    Beats the heartbeat first so the parent watchdog sees a pool that
    is slow-but-alive as alive (no-op without a monitor).
    """
    _containment.beat()
    return fn(job)


def _init_with_heartbeat(
    hb_dir: str, initializer: Callable | None, initargs: tuple
) -> None:
    """Pool initializer wrapper: arm the heartbeat, then chain through."""
    _containment.arm_heartbeat(hb_dir)
    if initializer is not None:
        initializer(*initargs)


class SupervisedPool:
    """A crash-tolerant, timeout-bounded worker pool (see module docs).

    Parameters
    ----------
    workers:
        Maximum worker processes (>= 1).
    policy:
        The :class:`~repro.resilience.policy.RetryPolicy` governing
        timeouts, retries, respawns, quarantine, salvage and
        degradation.
    executor_factory:
        The executor constructor, ``ProcessPoolExecutor`` by default.
        Tests inject thread pools or deliberately failing factories
        here; anything with the ``Executor`` interface works.
    initializer, initargs:
        Ran once in every worker the executor spawns (and re-ran in the
        replacement workers after a pool respawn) — how per-pool state
        such as a design factory or a shared-memory attachment ships
        once per pool instead of once per job. The caller is
        responsible for mirroring the state in its own process when
        jobs must also run in-process (degradation).
    quarantine:
        A :class:`~repro.resilience.containment.QuarantineSession`
        enabling the poison-point bisection rung; ``None`` (the
        default) skips that rung.
    """

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy = DEFAULT_POLICY,
        executor_factory: Callable[..., Executor] = ProcessPoolExecutor,
        initializer: Callable | None = None,
        initargs: tuple = (),
        quarantine: QuarantineSession | None = None,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy
        self.stats = SupervisionStats()
        self._executor_factory = executor_factory
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Executor | None = None
        self._degraded = False
        # Respawns already explained by a successful quarantine: once a
        # poison point is excised, the crashes it caused say nothing
        # about the pool's health, so they stop counting against the
        # respawn budget.
        self._respawns_forgiven = 0
        # The parent-side watchdog over worker heartbeat files, armed
        # only when the policy sets ``heartbeat_timeout_s``.
        self._monitor = (
            HeartbeatMonitor() if policy.heartbeat_timeout_s is not None else None
        )
        self._quarantine = quarantine
        # True while a run() is dispatching: a shutdown then cannot
        # wait for the workers, which may still be busy or hung.
        self._in_flight = False

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the pool is irrecoverable (all work runs in-process)."""
        return self._degraded

    @property
    def quarantine(self) -> QuarantineSession | None:
        """The attached quarantine session, if any."""
        return self._quarantine

    def run(
        self,
        fn: Callable,
        jobs: Sequence,
        *,
        splitter: Callable | None = None,
        describe: Callable[[object], Mapping | None] | None = None,
    ) -> list:
        """Evaluate ``fn`` over *jobs* on the pool, in job order.

        Every job is its own future on the executor's shared call
        queue, so idle workers pull the next job the moment they finish
        one (work stealing), and a failed job walks the recovery ladder
        described in the module docs on its own. Exceptions that
        survive every recovery path propagate unchanged.

        *splitter* and *describe* feed the quarantine-bisection rung:
        ``splitter(job)`` returns a pair of half-sized sub-jobs (or
        ``None`` for an atomic, single-point job) and ``describe(job)``
        returns an atomic job's grid-point parameters for the ledger.
        Halving keeps bisection logarithmic in a job's size. Without a
        quarantine session both are ignored. The returned list holds
        one reply per job; a bisected multi-point job's slot is a
        :class:`~repro.resilience.containment.BisectOutcome` wrapping
        its recovered sub-replies, a quarantined point's slot a
        :class:`~repro.core.errors.QuarantinedPoint`, and a salvaged
        (never completed) job's slot :data:`~repro.resilience.
        containment.INCOMPLETE`.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self._in_flight = True
        results: list = [None] * len(jobs)
        pending = list(range(len(jobs)))
        attempt = 0
        while pending:
            if self._degraded or self._ensure_executor() is None:
                # attempt > 0 means the pending jobs already failed
                # this run; on a fresh call they are merely unevaluated
                # and bisection must probe before splitting them.
                self._last_resort(
                    fn,
                    jobs,
                    results,
                    pending,
                    splitter,
                    describe,
                    known_failing=attempt > 0,
                )
                break
            # submit() raises BrokenProcessPool *synchronously* when a
            # worker dies between two submits of the same round (a
            # poison job grabbed off the queue can kill the pool before
            # the loop finishes) — the unsubmitted jobs walk the
            # ladder as crashes like everything else.
            futures: dict[int, object] = {}
            dispatch_broken = False
            for index in pending:
                try:
                    futures[index] = self._executor.submit(
                        _run_job, fn, jobs[index]
                    )
                except BrokenProcessPool:
                    dispatch_broken = True
                    break
            not_done = self._wait_for(list(futures.values()))
            failed: list[int] = []
            pool_hurt = dispatch_broken
            for index in pending:
                if index not in futures:
                    failed.append(index)
                    self.stats.crashes += 1
                    self._count_fault("crash")
            for index, future in futures.items():
                if future in not_done:
                    failed.append(index)
                    self.stats.timeouts += 1
                    self._count_fault("timeout")
                    pool_hurt = True
                    continue
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    failed.append(index)
                    self.stats.crashes += 1
                    self._count_fault("crash")
                    pool_hurt = True
                except Exception:
                    failed.append(index)
                    self.stats.transient_errors += 1
                    self._count_fault("error")
            if not failed:
                break
            if pool_hurt:
                # The executor (or a worker in it) is gone or hung —
                # replace it before re-dispatching anything.
                self._respawn()
            if attempt >= self.policy.max_retries:
                self._last_resort(fn, jobs, results, failed, splitter, describe)
                break
            self.stats.retries += len(failed)
            self._event("pool.retry", jobs=len(failed), attempt=attempt)
            self._inc("focal_retry_total", "re-dispatched jobs", len(failed))
            self.policy.sleep(self.policy.backoff_s(attempt))
            attempt += 1
            pending = failed
        self._in_flight = False
        return results

    def shutdown(self, *, cancel_futures: bool = True) -> None:
        """Tear the pool down, reaping every worker process.

        Queued work is cancelled (``cancel_futures``). When the last
        :meth:`run` finished, the workers are idle and get up to
        :data:`WIND_DOWN_S` to exit on the executor's own stop
        sentinels: a worker the others outran to every job still runs
        its initializer first, so its ``worker.init`` event reaches its
        spill file. Workers still alive then — all of them at once when
        a run was cut short — are terminated and joined, so an aborted
        sweep, ``KeyboardInterrupt`` included, leaves no orphans behind.
        """
        self._kill_executor(
            cancel_futures=cancel_futures,
            grace_s=0.0 if self._in_flight else WIND_DOWN_S,
        )
        if self._monitor is not None:
            self._monitor.cleanup()

    # Context-manager sugar so call sites mirror ProcessPoolExecutor.
    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # Waiting: chunk timeout + heartbeat watchdog
    # ------------------------------------------------------------------
    def _wait_for(self, futures: list) -> set:
        """The futures still pending when the pool must be declared hurt.

        Without a watchdog this is one blocking :func:`wait` bounded by
        ``chunk_timeout_s``. With ``heartbeat_timeout_s`` set, the wait
        polls and reaps as soon as every worker heartbeat is stale —
        a slow-but-alive pool (fresh beats) keeps running right up to
        ``chunk_timeout_s``, a hung one is replaced after one heartbeat
        deadline.
        """
        heartbeat = self.policy.heartbeat_timeout_s
        if heartbeat is None or self._monitor is None:
            _, not_done = wait(futures, timeout=self.policy.chunk_timeout_s)
            return not_done
        deadline = (
            time.monotonic() + self.policy.chunk_timeout_s
            if self.policy.chunk_timeout_s is not None
            else None
        )
        poll = max(0.01, min(heartbeat / 4.0, 0.25))
        while True:
            _, not_done = wait(futures, timeout=poll)
            if not not_done:
                return not_done
            if self._monitor.stale(heartbeat):
                self.stats.watchdog_reaps += 1
                self._event("pool.reap", reason="stale-heartbeat")
                self._inc(
                    "focal_watchdog_reaps_total",
                    "worker pools reaped on stale heartbeats",
                )
                return not_done
            if deadline is not None and time.monotonic() >= deadline:
                return not_done

    # ------------------------------------------------------------------
    # Recovery ladder internals
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> Executor | None:
        """The live executor, spawning lazily; ``None`` degrades."""
        if self._executor is None:
            # initializer/initargs are forwarded only when set, so
            # test-injected executor factories with a bare
            # ``max_workers`` signature keep working.
            kwargs: dict = {"max_workers": self.workers}
            if self._monitor is not None:
                kwargs["initializer"] = _init_with_heartbeat
                kwargs["initargs"] = (
                    self._monitor.arm(),
                    self._initializer,
                    self._initargs,
                )
            elif self._initializer is not None:
                kwargs["initializer"] = self._initializer
                kwargs["initargs"] = self._initargs
            try:
                self._executor = self._executor_factory(**kwargs)
            except Exception:
                self._declare_degraded()
        return self._executor

    def _respawn(self) -> None:
        """Replace a broken/hung executor, within the respawn budget."""
        self._kill_executor(cancel_futures=True)
        if self._monitor is not None:
            self._monitor.clear()
        self.stats.respawns += 1
        self._event("pool.respawn", respawns=self.stats.respawns)
        self._inc("focal_pool_respawn_total", "worker pool respawns")
        if (
            self.stats.respawns - self._respawns_forgiven
            > self.policy.max_respawns
        ):
            self._declare_degraded()

    def _declare_degraded(self) -> None:
        self._degraded = True
        self.stats.pool_degraded = True
        self._kill_executor(cancel_futures=True)
        self._event("pool.degraded")
        self._inc(
            "focal_degraded_pool_total", "worker pools declared irrecoverable"
        )

    def _last_resort(
        self,
        fn: Callable,
        jobs: list,
        results: list,
        indices: Sequence[int],
        splitter: Callable | None,
        describe: Callable | None,
        *,
        known_failing: bool = True,
    ) -> None:
        """Retry budget gone: quarantine-bisect, degrade, salvage or raise.

        Quarantine outranks degradation: bisection runs even on a pool
        already declared degraded — a poison point's own crashes are
        often what burned the respawn budget, and degrading would replay
        the killer in this process. An unspawnable executor makes every
        probe abort, falling through to degrade/salvage as before.
        """
        indices = list(indices)
        if self._quarantine is not None and describe is not None:
            remaining: list[int] = []
            for index in indices:
                reply = self._bisect(
                    fn,
                    jobs[index],
                    splitter,
                    describe,
                    probe_first=not known_failing,
                )
                if reply is _ABORT:
                    remaining.append(index)
                else:
                    results[index] = reply
            indices = remaining
            if not indices:
                # Every failing job is explained by quarantined
                # points, so the respawns their crashes burned no
                # longer indict the pool — refund the budget and
                # retract any degradation verdict those crashes caused.
                self._respawns_forgiven = self.stats.respawns
                if self._degraded:
                    self._degraded = False
                    self.stats.pool_degraded = False
                return
        if self.policy.degrade_in_process:
            self._run_in_process(fn, jobs, results, indices)
            return
        if self.policy.salvage:
            self._salvage(results, indices)
            return
        raise WorkerPoolError(
            f"worker pool failed {len(indices)} job(s) after "
            f"{self.policy.max_retries} retries and in-process "
            "degradation is disabled by policy"
        )

    # -- poison-point bisection ----------------------------------------
    def _bisect(
        self,
        fn: Callable,
        job: object,
        splitter: Callable | None,
        describe: Callable,
        *,
        probe_first: bool = True,
    ) -> object:
        """The reply for a failing *job*, or :data:`_ABORT`.

        Classic halving: a job that probes clean returns its reply; a
        failing job that *splitter* can halve (a shard of rows) is
        bisected half by half and its recovered sub-replies wrapped in
        a :class:`BisectOutcome`, so a single poison row in an n-row
        shard costs about 2·log2(n) probes; a failing atomic job is
        quarantined as the isolated poison point. An atomic job is
        quarantined only after a probe of its own fails (a pool crash
        fails every job in flight with the culprit). Probe crashes
        replace the executor without consuming the respawn budget —
        bisection deliberately crashes workers.
        """
        subjobs = splitter(job) if splitter is not None else None
        if probe_first or not subjobs:
            status, payload = self._probe(fn, job)
            if status == "ok":
                return payload
            if status == "abort":
                return _ABORT
            kind = payload
        if subjobs:
            # Sub-replies inline (a nested outcome is already flat);
            # quarantine markers drop out — the quarantined rows are in
            # the ledger, and the engine re-derives them from the session.
            replies: list = []
            for subjob in subjobs:
                reply = self._bisect(fn, subjob, splitter, describe)
                if reply is _ABORT:
                    return _ABORT
                if isinstance(reply, BisectOutcome):
                    replies.extend(reply.replies)
                elif not isinstance(reply, Exception):
                    replies.append(reply)
            return BisectOutcome(tuple(replies))
        if self.stats.quarantined >= self.policy.max_quarantine:
            self._event("pool.quarantine_budget", budget=self.policy.max_quarantine)
            return _ABORT
        params = describe(job)
        if params is None:
            return _ABORT
        marker = self._quarantine.quarantine(
            params,
            kind=kind,
            reason=f"isolated by bisection after retry budget ({kind})",
        )
        self.stats.quarantined += 1
        self._event("pool.quarantine", kind=kind)
        return marker

    def _probe(self, fn: Callable, job: object) -> tuple[str, object]:
        """One bisection probe: ``("ok", reply)``, ``("fail", kind)``
        or ``("abort", None)`` when no executor can be spawned."""
        executor = self._ensure_executor()
        if executor is None:
            return "abort", None
        self.stats.bisect_probes += 1
        future = executor.submit(_run_job, fn, job)
        timeout = self.policy.chunk_timeout_s
        if timeout is None and self.policy.heartbeat_timeout_s is not None:
            timeout = self.policy.heartbeat_timeout_s * 4.0
        try:
            return "ok", future.result(timeout=timeout)
        except BrokenProcessPool:
            self.stats.crashes += 1
            self._count_fault("crash")
            self._respawn_for_bisect()
            return "fail", "crash"
        except FuturesTimeoutError:
            self.stats.timeouts += 1
            self._count_fault("timeout")
            self._respawn_for_bisect()
            return "fail", "hang"
        except Exception:
            self.stats.transient_errors += 1
            self._count_fault("error")
            return "fail", "error"

    def _respawn_for_bisect(self) -> None:
        """Replace the executor after a probe crash/hang.

        Deliberately outside the respawn budget: bisection *expects* to
        crash workers while narrowing in on the poison point, and must
        not burn the budget that guards against genuinely flaky pools.
        """
        self._kill_executor(cancel_futures=True)
        if self._monitor is not None:
            self._monitor.clear()

    # -- degrade / salvage ---------------------------------------------
    def _run_in_process(
        self,
        fn: Callable,
        jobs: list,
        results: list,
        indices: Sequence[int],
    ) -> None:
        """The degradation rung: evaluate *indices* in this process."""
        for index in indices:
            results[index] = fn(jobs[index])
            self.stats.degraded_batches += 1
            self._inc(
                "focal_degraded_batches_total",
                "jobs evaluated in-process after pool failure",
            )

    def _salvage(self, results: list, indices: Sequence[int]) -> None:
        """Fill never-completed slots with :data:`INCOMPLETE` sentinels."""
        for index in indices:
            results[index] = INCOMPLETE
            self.stats.salvaged += 1
        self._event("pool.salvage", jobs=len(indices))
        self._inc(
            "focal_salvage_runs_total",
            "irrecoverable runs salvaged as partial results",
        )

    def _kill_executor(self, *, cancel_futures: bool, grace_s: float = 0.0) -> None:
        """Shut the executor down without waiting on hung workers.

        ``shutdown(wait=True)`` would block forever behind a hung
        worker, so the order is: non-blocking shutdown, up to *grace_s*
        for the workers to exit on their own, terminate the rest, then
        a bounded join to reap them.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        # Snapshot the worker processes FIRST: shutdown(wait=False)
        # empties the executor's _processes dict, so a later snapshot
        # would silently skip the terminate loop and orphan hung workers.
        registry = getattr(executor, "_processes", None)
        processes = list(registry.values()) if registry else []
        try:
            executor.shutdown(wait=False, cancel_futures=cancel_futures)
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass
        deadline = time.monotonic() + grace_s
        for process in processes:
            try:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:  # pragma: no cover
                pass
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _count_fault(self, reason: str) -> None:
        self._event("pool.fault", reason=reason)
        self._inc(
            "focal_retry_faults_total",
            "dispatch faults seen by the supervisor",
            labels={"reason": reason},
        )

    @staticmethod
    def _event(name: str, **attrs: object) -> None:
        """A recovery action on the sweep timeline's supervisor track."""
        _events.record(name, track="supervisor", **attrs)

    def _inc(
        self,
        name: str,
        help: str,
        amount: int = 1,
        labels: dict[str, str] | None = None,
    ) -> None:
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(name, help, labels or {}).inc(amount)
