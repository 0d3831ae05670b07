"""Chaos suite for failure containment: quarantine, watchdog, salvage.

Like ``test_chaos.py``, nothing here is mocked: poison points really
kill worker processes with ``os._exit``, stale faults really wedge a
worker past the heartbeat deadline, and irrecoverable pools are really
irrecoverable. The invariant under test is the containment contract —
every *surviving* point is byte-identical to the fault-free sweep, and
every excluded point is reported, never silently dropped.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.resilience import FaultPlan, QuarantineLedger, RetryPolicy
from repro.resilience.containment import point_key

pytestmark = pytest.mark.chaos


@pytest.fixture
def reference(make_explorer, grid):
    return make_explorer().explore_arrays(grid)


@pytest.fixture
def quarantine_policy() -> RetryPolicy:
    """Small retry budget so bisection engages quickly."""
    return RetryPolicy(
        max_retries=1, backoff_base_s=0.001, chunk_timeout_s=15.0
    )


def assert_survivors_identical(result, reference, quarantined):
    """The non-quarantined subset matches the fault-free sweep exactly."""
    excluded = {point_key(params) for params in quarantined}
    keep = [
        index
        for index, params in enumerate(reference.params)
        if point_key(params) not in excluded
    ]
    assert len(keep) == len(reference.params) - len(excluded)
    assert tuple(result.params) == tuple(reference.params[i] for i in keep)
    assert tuple(result.designs) == tuple(reference.designs[i] for i in keep)
    for field in ("perf", "ncf_fixed_work", "ncf_fixed_time", "codes"):
        assert np.array_equal(
            getattr(result, field), getattr(reference, field)[keep]
        )


def wrapped(plan, factory, mode):
    """Scalar-pool hides ``batch_arrays``; parallel-columnar keeps it."""
    return plan.wrap(factory) if mode == "scalar-pool" else plan.wrap_vector(factory)


class TestPoisonQuarantine:
    @pytest.mark.parametrize("mode", ["scalar-pool", "parallel-columnar"])
    def test_poison_points_are_isolated_and_survivors_match(
        self, make_explorer, grid, factory, tmp_path, quarantine_policy,
        reference, mode,
    ):
        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=2)
        ledger = QuarantineLedger(tmp_path / "poison.json")
        explorer = make_explorer(
            factory=wrapped(plan, factory, mode),
            workers=2,
            resilience=quarantine_policy,
        )
        result = explorer.explore_arrays(grid, quarantine=ledger)

        assert len(result.quarantined) == 2
        assert result.failure is None and result.complete
        poisoned = {point_key(params) for params in plan.poison_points}
        assert {point_key(params) for params in result.quarantined} == poisoned
        assert_survivors_identical(result, reference, result.quarantined)

        stats = explorer.last_supervision
        assert stats is not None
        assert stats.quarantined == 2
        assert stats.bisect_probes > 0
        assert explorer.last_sweep.quarantined_points == 2
        assert explorer.last_sweep.mode == mode

    @pytest.mark.parametrize("mode", ["scalar-pool", "parallel-columnar"])
    def test_ledger_prefilter_skips_known_poison_without_crashing(
        self, make_explorer, grid, factory, tmp_path, quarantine_policy,
        reference, mode,
    ):
        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=2)
        ledger = QuarantineLedger(tmp_path / "poison.json")
        first = make_explorer(
            factory=wrapped(plan, factory, mode),
            workers=2,
            resilience=quarantine_policy,
        )
        first.explore_arrays(grid, quarantine=ledger)
        assert first.last_supervision.crashes > 0

        # Second run, same ledger path, fresh explorer: the poison
        # points are excluded up front — zero crashes, zero bisections.
        rerun = make_explorer(
            factory=wrapped(plan, factory, mode),
            workers=2,
            resilience=quarantine_policy,
        )
        result = rerun.explore_arrays(
            grid, quarantine=QuarantineLedger(tmp_path / "poison.json")
        )
        assert len(result.quarantined) == 2
        stats = rerun.last_supervision
        assert stats is None or (stats.crashes == 0 and stats.quarantined == 0)
        assert_survivors_identical(result, reference, result.quarantined)

    def test_warm_cache_keeps_fresh_rows_on_the_supervised_pool(
        self, make_explorer, grid, factory, tmp_path, quarantine_policy,
        reference,
    ):
        """A subgrid-warmed cache leaves every chunk partly cached; the
        fresh rows — the poison point among them — still run on the
        supervised pool, so the poison is quarantined, never evaluated
        in the sweep's own process."""
        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=1)
        (poison,) = plan.poison_points
        (other_f,) = [f for f in grid.axes["f"] if f != poison["f"]]
        subgrid = grid.subgrid(f=other_f)
        wrapped_factory = plan.wrap_vector(factory)
        warm = make_explorer(factory=wrapped_factory)
        warm.explore_arrays(subgrid)
        explorer = make_explorer(
            factory=wrapped_factory,
            workers=2,
            resilience=quarantine_policy,
            cache=warm.cache,
        )
        hits = explorer.cache.hits
        result = explorer.explore_arrays(
            grid, quarantine=QuarantineLedger(tmp_path / "poison.json")
        )

        assert explorer.last_sweep.mode == "parallel-columnar"
        assert explorer.last_sweep.shards > 0
        assert [point_key(params) for params in result.quarantined] == [
            point_key(poison)
        ]
        assert explorer.last_supervision.quarantined == 1
        assert explorer.cache.hits - hits == len(subgrid)
        assert_survivors_identical(result, reference, result.quarantined)

    def test_poison_without_ledger_fails_loudly(
        self, make_explorer, grid, factory, tmp_path
    ):
        """No ledger attached: bisection never engages and the sweep
        must fail rather than quarantine silently in memory.

        ``degrade_in_process=False`` keeps the poison point out of the
        test process itself (in-process degradation would replay the
        ``os._exit`` in the pytest parent).
        """
        from repro.core.errors import WorkerPoolError

        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=1)
        policy = RetryPolicy(
            max_retries=1,
            backoff_base_s=0.001,
            chunk_timeout_s=15.0,
            max_respawns=1,
            degrade_in_process=False,
        )
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=policy
        )
        with pytest.raises(WorkerPoolError):
            explorer.explore_arrays(grid)


class TestHeartbeatWatchdog:
    def test_stale_pool_is_reaped_before_chunk_timeout(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        plan = FaultPlan.plan(
            grid, seed=37, state_dir=tmp_path, stales=1, stale_s=60.0
        )
        policy = RetryPolicy(
            max_retries=2,
            backoff_base_s=0.001,
            chunk_timeout_s=None,
            heartbeat_timeout_s=0.5,
        )
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=policy
        )
        start = time.monotonic()
        result = explorer.explore_arrays(grid)
        wall = time.monotonic() - start

        stats = explorer.last_supervision
        assert stats is not None
        assert stats.watchdog_reaps >= 1
        assert stats.respawns >= 1
        # The fault sleeps 60s; the watchdog deadline is 0.5s. Recovery
        # well under the fault duration proves the reap, not the sleep,
        # ended the hang (generous bound for loaded CI machines).
        assert wall < 30.0
        # The stale fault is single-fire, so the retry completes the
        # chunk and the sweep loses nothing.
        assert result.complete and not result.quarantined
        assert tuple(result.params) == tuple(reference.params)
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
        assert np.array_equal(result.codes, reference.codes)


class TestSalvage:
    def test_irrecoverable_pool_salvages_completed_prefix(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        plan = FaultPlan.plan(grid, seed=31, state_dir=tmp_path, poisons=1)
        policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.001,
            chunk_timeout_s=15.0,
            max_respawns=0,
            degrade_in_process=False,
            salvage=True,
        )
        ckpt = tmp_path / "salvage.ckpt"
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=policy
        )
        result = explorer.explore_arrays(grid, checkpoint=ckpt)

        assert not result.complete
        report = result.failure
        assert report is not None
        assert report.completed_chunks < report.total_chunks
        assert report.pending_points > 0
        assert report.checkpoint == str(ckpt)
        assert ckpt.exists()
        assert "salvaged:" in report.summary()
        assert explorer.last_supervision.salvaged >= 1
        assert explorer.last_sweep.salvaged

        # Whatever was salvaged is byte-identical to the reference
        # prefix — a partial result is still a correct result.
        kept = len(result.params)
        assert tuple(result.params) == tuple(reference.params[:kept])
        assert np.array_equal(
            result.ncf_fixed_work, reference.ncf_fixed_work[:kept]
        )

    def test_salvaged_checkpoint_resumes_to_completion(
        self, make_explorer, grid, factory, tmp_path, quarantine_policy,
        reference,
    ):
        plan = FaultPlan.plan(grid, seed=31, state_dir=tmp_path, poisons=1)
        salvage_policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.001,
            chunk_timeout_s=15.0,
            max_respawns=0,
            degrade_in_process=False,
            salvage=True,
        )
        ckpt = tmp_path / "salvage.ckpt"
        poisoned_factory = plan.wrap(factory)
        partial = make_explorer(
            factory=poisoned_factory, workers=2, resilience=salvage_policy
        ).explore_arrays(grid, checkpoint=ckpt)
        assert not partial.complete

        # Resume the same run with a quarantine ledger and a normal
        # retry budget: the poison point is bisected out and everything
        # else completes byte-identically.
        resumed = make_explorer(
            factory=poisoned_factory, workers=2, resilience=quarantine_policy
        ).explore_arrays(
            grid,
            checkpoint=ckpt,
            resume=True,
            quarantine=QuarantineLedger(tmp_path / "poison.json"),
        )
        assert resumed.complete
        assert len(resumed.quarantined) == 1
        assert_survivors_identical(resumed, reference, resumed.quarantined)


class TestMonteCarloResilience:
    def test_supervised_sampling_matches_unsupervised(self, fast_policy):
        from repro.core.design import DesignPoint
        from repro.core.scenario import BALANCED
        from repro.dse.montecarlo import (
            sample_measurement_noise,
            sample_verdicts,
        )

        design = DesignPoint(name="d", area=4.0, perf=2.0, power=3.0)
        base = DesignPoint.baseline("b")
        plain_v = sample_verdicts(
            design, base, BALANCED, samples=2000, seed=3, workers=2
        )
        supervised_v = sample_verdicts(
            design, base, BALANCED, samples=2000, seed=3, workers=2,
            resilience=fast_policy,
        )
        assert plain_v == supervised_v

        plain_n = sample_measurement_noise(
            design, base, 0.5, samples=2000, seed=3, workers=2
        )
        supervised_n = sample_measurement_noise(
            design, base, 0.5, samples=2000, seed=3, workers=2,
            resilience=fast_policy,
        )
        assert plain_n == supervised_n


class TestNoOrphans:
    def test_quarantine_run_leaves_no_workers_behind(
        self, make_explorer, grid, factory, tmp_path, quarantine_policy
    ):
        import multiprocessing.process as mp_process

        plan = FaultPlan.plan(grid, seed=23, state_dir=tmp_path, poisons=2)
        explorer = make_explorer(
            factory=plan.wrap(factory), workers=2, resilience=quarantine_policy
        )
        explorer.explore_arrays(
            grid, quarantine=QuarantineLedger(tmp_path / "poison.json")
        )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [
                p for p in mp_process.active_children() if p.is_alive()
            ]
            if not alive:
                break
            time.sleep(0.05)
        assert not [p for p in mp_process.active_children() if p.is_alive()]
