"""SupervisedPool recovery ladder, tested rung by rung.

These tests drive the supervisor through injected executors (threads,
deliberately failing constructors) so every branch runs fast and
deterministically; the chaos suite (``test_chaos.py``) exercises the
same ladder against real crashed/hung worker processes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.errors import ValidationError, WorkerPoolError
from repro.resilience import RetryPolicy, SupervisedPool

NO_SLEEP = dict(backoff_base_s=0.0, sleep=lambda s: None)


def double(job):
    return job * 2


class Flaky:
    """Raises *failures* times for marked jobs, then succeeds."""

    def __init__(self, failures: int, exception=RuntimeError):
        self.failures = failures
        self.exception = exception
        self.calls = 0

    def __call__(self, job):
        if job == "bad" and self.calls < self.failures:
            self.calls += 1
            raise self.exception("flaky")
        return job


class TestHappyPath:
    def test_results_in_job_order(self):
        with SupervisedPool(2, RetryPolicy(**NO_SLEEP), ThreadPoolExecutor) as pool:
            assert pool.run(double, list(range(10))) == [
                2 * n for n in range(10)
            ]

    def test_empty_jobs(self):
        with SupervisedPool(2, RetryPolicy(**NO_SLEEP), ThreadPoolExecutor) as pool:
            assert pool.run(double, []) == []

    def test_more_workers_than_jobs(self):
        with SupervisedPool(8, RetryPolicy(**NO_SLEEP), ThreadPoolExecutor) as pool:
            assert pool.run(double, [1]) == [2]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValidationError):
            SupervisedPool(0)


class TestRetryLadder:
    def test_transient_error_retried_to_success(self):
        # Thread pools share memory, so the Flaky counter is visible to
        # the "workers" and the second dispatch succeeds.
        flaky = Flaky(failures=1)
        with SupervisedPool(2, RetryPolicy(max_retries=2, **NO_SLEEP), ThreadPoolExecutor) as pool:
            assert pool.run(flaky, ["ok", "bad"]) == ["ok", "bad"]
            assert pool.stats.transient_errors == 1
            assert pool.stats.retries == 1
            assert pool.stats.degraded_batches == 0

    def test_backoff_schedule_followed(self):
        sleeps: list[float] = []
        policy = RetryPolicy(
            max_retries=3,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_jitter=0.0,
            sleep=sleeps.append,
        )
        flaky = Flaky(failures=2)
        with SupervisedPool(1, policy, ThreadPoolExecutor) as pool:
            pool.run(flaky, ["bad"])
        assert sleeps == pytest.approx([0.1, 0.2])

    def test_persistent_bug_reraises_after_degradation(self):
        """A genuine factory bug is not retried away: the in-process
        rung re-raises it unchanged."""
        policy = RetryPolicy(max_retries=1, **NO_SLEEP)
        with SupervisedPool(1, policy, ThreadPoolExecutor) as pool:
            with pytest.raises(RuntimeError, match="flaky"):
                pool.run(Flaky(failures=99), ["bad"])

    def test_degradation_disabled_raises_worker_pool_error(self):
        policy = RetryPolicy(
            max_retries=0, degrade_in_process=False, **NO_SLEEP
        )
        with SupervisedPool(1, policy, ThreadPoolExecutor) as pool:
            with pytest.raises(WorkerPoolError, match="degradation is disabled"):
                pool.run(Flaky(failures=99), ["bad"])

    def test_broken_pool_counts_as_crash_and_respawns(self):
        flaky = Flaky(failures=1, exception=BrokenProcessPool)
        policy = RetryPolicy(max_retries=2, **NO_SLEEP)
        with SupervisedPool(2, policy, ThreadPoolExecutor) as pool:
            assert pool.run(flaky, ["ok", "bad"]) == ["ok", "bad"]
            assert pool.stats.crashes == 1
            assert pool.stats.respawns == 1

    def test_only_failed_batches_redispatch(self):
        calls: list[object] = []

        class Recorder:
            def __call__(self, job):
                calls.append(job)
                if job == "bad" and calls.count("bad") == 1:
                    raise RuntimeError("flaky")
                return job

        with SupervisedPool(2, RetryPolicy(max_retries=2, **NO_SLEEP), ThreadPoolExecutor) as pool:
            # Two workers, two batches: ["ok0"], ["bad"]. Only the
            # failing batch may be dispatched twice.
            assert pool.run(Recorder(), ["ok0", "bad"]) == ["ok0", "bad"]
        assert calls.count("ok0") == 1
        assert calls.count("bad") == 2


class TestDegradedPool:
    def test_unspawnable_executor_degrades_to_in_process(self):
        def refuse(max_workers):
            raise OSError("no more processes")

        with SupervisedPool(2, RetryPolicy(**NO_SLEEP), refuse) as pool:
            assert pool.run(double, [1, 2, 3]) == [2, 4, 6]
            assert pool.degraded
            assert pool.stats.pool_degraded
            assert pool.stats.degraded_batches == 3  # one per job

    def test_respawn_budget_exhaustion_degrades(self):
        policy = RetryPolicy(max_retries=10, max_respawns=1, **NO_SLEEP)
        flaky = Flaky(failures=2, exception=BrokenProcessPool)
        with SupervisedPool(1, policy, ThreadPoolExecutor) as pool:
            assert pool.run(flaky, ["bad"]) == ["bad"]
            assert pool.degraded
            assert pool.stats.respawns == 2  # budget 1, second trips it

    def test_degraded_pool_stays_degraded(self):
        def refuse(max_workers):
            raise OSError("no")

        with SupervisedPool(2, RetryPolicy(**NO_SLEEP), refuse) as pool:
            pool.run(double, [1])
            before = pool.stats.pool_degraded
            assert pool.run(double, [2]) == [4]
            assert before and pool.degraded


def _slow_unless_first(marks: str) -> None:
    """Pool initializer: the first worker to start up marks itself at
    once; every later one is still starting when the only job is done."""
    try:
        (Path(marks) / "first").touch(exist_ok=False)
    except FileExistsError:
        time.sleep(0.5)
    (Path(marks) / f"init-{os.getpid()}").touch()


class TestShutdown:
    def test_settled_pool_lets_starting_workers_initialize(self, tmp_path):
        # A worker the others outran to every job still finishes its
        # initializer (where sweeps record ``worker.init``) before the
        # pool goes: shutdown after a finished run waits for idle
        # workers instead of terminating them.
        pool = SupervisedPool(
            3,
            RetryPolicy(**NO_SLEEP),
            initializer=_slow_unless_first,
            initargs=(str(tmp_path),),
        )
        assert pool.run(double, [1]) == [2]
        pool.shutdown()
        assert len(list(tmp_path.glob("init-*"))) == 3

    def test_shutdown_without_use_is_safe(self):
        pool = SupervisedPool(2, RetryPolicy(**NO_SLEEP), ThreadPoolExecutor)
        pool.shutdown()
        pool.shutdown()  # idempotent

    def test_context_manager_shuts_down(self):
        with SupervisedPool(2, RetryPolicy(**NO_SLEEP), ThreadPoolExecutor) as pool:
            pool.run(double, [1])
        assert pool._executor is None


def _poisoned_span(job):
    """A span job ``(lo, hi, seq)`` whose row 700 always raises."""
    lo, hi, seq = job
    if lo <= 700 < hi:
        raise RuntimeError("poison row")
    return (lo, hi, seq)


class TestBisection:
    def test_one_poison_row_in_a_1024_row_span_stays_logarithmic(self, tmp_path):
        """One future per job: the failing span is halved by its
        splitter, never probed row by row, while the jobs around it
        come back untouched and in order."""
        from repro.core.errors import QuarantinedPoint
        from repro.dse.parallel import split_shard_job
        from repro.resilience import BisectOutcome, QuarantineLedger

        session = QuarantineLedger(tmp_path / "q.log").session("fac")
        policy = RetryPolicy(max_retries=0, **NO_SLEEP)
        jobs = [(-8, 0, 0), (0, 1024, 1), (1024, 1032, 2)]
        with SupervisedPool(
            2, policy, ThreadPoolExecutor, quarantine=session
        ) as pool:
            replies = pool.run(
                _poisoned_span,
                jobs,
                splitter=split_shard_job,
                describe=lambda job: (
                    {"row": job[0]} if job[1] - job[0] == 1 else None
                ),
            )
        assert replies[0] == jobs[0] and replies[2] == jobs[2]
        assert isinstance(replies[1], BisectOutcome)
        rows = [row for lo, hi, _ in replies[1].replies for row in range(lo, hi)]
        assert rows == [row for row in range(1024) if row != 700]
        assert pool.stats.quarantined == 1
        assert [entry["params"] for entry in session.new_points] == [{"row": 700}]
        assert not any(isinstance(r, QuarantinedPoint) for r in replies)
        # At most 3 probes per halving of the 1024-row span, ~3 *
        # log2(1024); probing it row by row would take ~1024.
        assert pool.stats.bisect_probes <= 30
