"""Benchmark gate: resilience must be free when off, exact when on.

Two properties of the resilient execution layer are enforced here,
mirroring how ``bench_obs_overhead`` gates observability:

* **zero-cost when disabled** — the shipped ``explore_arrays`` with no
  checkpoint and no supervision is timed against a faithful copy of the
  pre-resilience sweep loop (same chunking, same kernels, none of the
  checkpoint/supervision plumbing). The cold 10k-point sweep must come
  in under 5% overhead on min-of-rounds timings;
* **byte-identical when recovering** — real injected faults (a worker
  killed via ``os._exit``, a worker oversleeping its chunk timeout, a
  mid-sweep crash followed by ``resume=True``) must each produce a
  sweep identical to the fault-free reference, down to the NCF bit
  patterns. The containment scenarios extend the same gate: poison
  points are quarantined with every *survivor* byte-identical, a
  wedged pool is watchdog-reaped well inside its hang, and a salvaged
  partial run resumes to byte-identical completion.

The module writes ``BENCH_resilience.json`` at the repo root and
**gates** both properties at teardown: every chaos scenario that ran
must have recorded ``byte-identical``, and the disabled-resilience
overhead must stay under :data:`OVERHEAD_GATE`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import classify_arrays
from repro.core.design import DesignPoint
from repro.core.errors import DomainError
from repro.core.scenario import BALANCED
from repro.dse.batch import (
    BatchExplorer,
    BatchSweepResult,
    FactoryCache,
    _chunked,
    params_keys,
)
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.obs import trace as obs_trace
from repro.resilience import FaultPlan, QuarantineLedger, RetryPolicy
from repro.resilience.containment import point_key

FACTORY = SymmetricMulticoreFactory()
BASELINE = DesignPoint.baseline("1-BCE single core")
GRID = ParameterGrid(
    {
        "cores": list(range(1, 101)),
        "f": linear_range(0.50, 0.99, 100),
    }
)  # 10,000 points — the PR 1 sweep, cold every round
CHAOS_GRID = ParameterGrid({"cores": list(range(1, 33)), "f": [0.5, 0.9]})
CHAOS_CHUNK = 16  # 64 points / 4 chunks: small, the guarantees scale
OVERHEAD_GATE = 0.05  # disabled resilience must cost < 5%
PARITY_KEYS = (
    "crash_parity",
    "timeout_parity",
    "resume_parity",
    "quarantine_parity",
    "watchdog_parity",
    "salvage_parity",
)

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

_RESULTS: dict[str, object] = {
    "grid_points": len(GRID),
    "chaos_grid_points": len(CHAOS_GRID),
    "overhead_gate": OVERHEAD_GATE,
    "note": (
        "cold 10k-point sweep; 'unguarded' replicates the "
        "pre-resilience explore_arrays loop, 'disabled' is the shipped "
        "path with no checkpoint and no supervision, 'checkpointed' "
        "persists every chunk; chaos scenarios inject real faults and "
        "must recover byte-identically; gates apply at module teardown"
    ),
}


def _cold_explorer(**overrides) -> BatchExplorer:
    """A fresh explorer with an empty private cache (a cold sweep)."""
    overrides.setdefault("factory", FACTORY)
    overrides.setdefault("cache", FactoryCache(overrides["factory"]))
    return BatchExplorer(baseline=BASELINE, weight=BALANCED, **overrides)


def unguarded_explore_arrays(
    explorer: BatchExplorer, grid: ParameterGrid
) -> BatchSweepResult:
    """``BatchExplorer.explore_arrays`` exactly as shipped before the
    resilience layer existed: same chunk stream, same evaluation and
    classification kernels, no checkpoint plumbing, no supervision."""
    tracer = obs_trace.get_tracer()
    mode = explorer._resolve_mode()
    params_list = []
    designs = []
    with tracer.span(
        "sweep",
        grid_points=len(grid),
        chunk_size=explorer.chunk_size,
        workers=explorer.workers,
        mode=mode,
    ):
        start_s = time.perf_counter()
        for index, chunk in enumerate(_chunked(iter(grid), explorer.chunk_size)):
            with tracer.span("chunk", index=index, mode=mode):
                outcomes = explorer._evaluate_rows(chunk)
                explorer.cache.store_many(
                    params_keys(chunk), outcomes, misses=len(chunk)
                )
                for params, outcome in zip(chunk, outcomes):
                    if isinstance(outcome, DomainError):
                        continue
                    params_list.append(params)
                    designs.append(outcome)
        with tracer.span("classify", points=len(designs)):
            perf, ncf_fw, ncf_ft = explorer._ncf_arrays(designs)
            codes = classify_arrays(ncf_fw, ncf_ft)
        explorer._engine_stats(
            mode=mode,
            grid_points=len(grid),
            valid_points=len(params_list),
            seconds=time.perf_counter() - start_s,
        )
    return BatchSweepResult(
        params=tuple(params_list),
        designs=tuple(designs),
        perf=perf,
        ncf_fixed_work=ncf_fw,
        ncf_fixed_time=ncf_ft,
        codes=codes,
    )


def assert_identical(result: BatchSweepResult, reference: BatchSweepResult) -> None:
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


def assert_survivors_identical(
    result: BatchSweepResult, reference: BatchSweepResult, quarantined
) -> None:
    """Every non-quarantined point is byte-identical to the reference."""
    excluded = {point_key(params) for params in quarantined}
    keep = [
        index
        for index, params in enumerate(reference.params)
        if point_key(params) not in excluded
    ]
    assert len(keep) == len(reference.params) - len(excluded)
    assert tuple(result.params) == tuple(reference.params[i] for i in keep)
    assert tuple(result.designs) == tuple(reference.designs[i] for i in keep)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work[keep])
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time[keep])
    assert np.array_equal(result.codes, reference.codes[keep])


def _best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(key: str, benchmark, fallback) -> None:
    """Store mean + min runtimes; time by hand on --benchmark-disable."""
    try:
        _RESULTS[f"{key}_mean_s"] = float(benchmark.stats.stats.mean)
        _RESULTS[f"{key}_min_s"] = float(benchmark.stats.stats.min)
    except (AttributeError, TypeError):
        best = _best_of(fallback)
        _RESULTS[f"{key}_mean_s"] = best
        _RESULTS[f"{key}_min_s"] = best


@pytest.fixture(scope="module", autouse=True)
def write_trajectory():
    """Emit BENCH_resilience.json and enforce both gates at the end."""
    yield
    for key, slow, fast in (
        ("overhead_disabled", "disabled_min_s", "unguarded_min_s"),
        ("overhead_checkpointed", "checkpointed_min_s", "unguarded_min_s"),
    ):
        if slow in _RESULTS and fast in _RESULTS:
            _RESULTS[key] = float(_RESULTS[slow]) / float(_RESULTS[fast]) - 1.0
    ran = [key for key in PARITY_KEYS if key in _RESULTS]
    _RESULTS["parity_gate"] = f"{len(ran)}/{len(PARITY_KEYS)} chaos scenarios ran"
    TRAJECTORY_PATH.write_text(json.dumps(_RESULTS, indent=2, default=str) + "\n")
    for key in ran:
        assert _RESULTS[key] == "byte-identical", (
            f"chaos scenario {key} did not recover byte-identically "
            f"(see {TRAJECTORY_PATH.name})"
        )
    overhead = _RESULTS.get("overhead_disabled")
    if overhead is not None:
        assert overhead < OVERHEAD_GATE, (
            f"disabled-resilience overhead {overhead:.2%} exceeds the "
            f"{OVERHEAD_GATE:.0%} gate (see {TRAJECTORY_PATH.name})"
        )


@pytest.fixture(scope="module")
def reference() -> BatchSweepResult:
    """The fault-free chaos-grid sweep every recovery must reproduce."""
    return _cold_explorer(chunk_size=CHAOS_CHUNK).explore_arrays(CHAOS_GRID)


@pytest.fixture
def fast_policy() -> RetryPolicy:
    return RetryPolicy(max_retries=2, backoff_base_s=0.001, chunk_timeout_s=15.0)


# ----------------------------------------------------------------------
# Parity: the guarded path never changes numbers
# ----------------------------------------------------------------------


def test_parity_guarded_vs_unguarded(emit):
    """The shipped sweep is bit-identical to the pre-resilience loop."""
    plain = unguarded_explore_arrays(_cold_explorer(), GRID)
    guarded = _cold_explorer().explore_arrays(GRID)
    assert_identical(guarded, plain)
    _RESULTS["parity"] = "bit-exact (guarded == unguarded)"
    emit(f"parity: {len(GRID)} points, guarded == unguarded bit-exact")


# ----------------------------------------------------------------------
# Overhead: a cold sweep pays nothing for disabled resilience
# ----------------------------------------------------------------------


def test_cold_sweep_unguarded(benchmark, emit):
    run = lambda: unguarded_explore_arrays(_cold_explorer(), GRID)
    result = benchmark(run)
    _record("unguarded", benchmark, run)
    assert len(result) == len(GRID)
    emit(f"unguarded cold sweep: {_RESULTS['unguarded_min_s'] * 1e3:.2f} ms (min)")


def test_cold_sweep_resilience_disabled(benchmark, emit):
    run = lambda: _cold_explorer().explore_arrays(GRID)
    result = benchmark(run)
    _record("disabled", benchmark, run)
    assert len(result) == len(GRID)
    emit(f"resilience-disabled cold sweep: {_RESULTS['disabled_min_s'] * 1e3:.2f} ms (min)")


def test_cold_sweep_checkpointed(benchmark, tmp_path, emit):
    """Informational: what chunk-granular persistence actually costs."""
    ckpt = tmp_path / "sweep.ckpt"
    run = lambda: _cold_explorer().explore_arrays(GRID, checkpoint=ckpt)
    result = benchmark(run)
    _record("checkpointed", benchmark, run)
    assert len(result) == len(GRID)
    emit(f"checkpointed cold sweep: {_RESULTS['checkpointed_min_s'] * 1e3:.2f} ms (min)")


# ----------------------------------------------------------------------
# Chaos parity: every recovery path reproduces the reference bit-exactly
# ----------------------------------------------------------------------


def test_chaos_injected_crash(tmp_path, fast_policy, reference, emit):
    plan = FaultPlan.plan(CHAOS_GRID, seed=11, state_dir=tmp_path, crashes=1)
    explorer = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=fast_policy,
    )
    result = explorer.explore_arrays(CHAOS_GRID)
    assert_identical(result, reference)
    stats = explorer.last_supervision
    assert stats.crashes >= 1 and stats.respawns >= 1
    _RESULTS["crash_parity"] = "byte-identical"
    _RESULTS["crash_stats"] = stats.as_dict()
    emit(f"chaos crash: recovered byte-identical ({stats.summary()})")


def test_chaos_injected_timeout(tmp_path, reference, emit):
    plan = FaultPlan.plan(
        CHAOS_GRID, seed=13, state_dir=tmp_path, hangs=1, hang_s=30.0
    )
    policy = RetryPolicy(max_retries=2, backoff_base_s=0.001, chunk_timeout_s=2.0)
    explorer = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=policy,
    )
    result = explorer.explore_arrays(CHAOS_GRID)
    assert_identical(result, reference)
    stats = explorer.last_supervision
    assert stats.timeouts >= 1
    _RESULTS["timeout_parity"] = "byte-identical"
    _RESULTS["timeout_stats"] = stats.as_dict()
    emit(f"chaos timeout: recovered byte-identical ({stats.summary()})")


def test_chaos_kill_then_resume(tmp_path, reference, emit):
    """A sweep killed mid-flight resumes from its checkpoint and ends
    byte-identical to never having crashed."""
    from concurrent.futures.process import BrokenProcessPool

    ckpt = tmp_path / "sweep.ckpt"
    plan = FaultPlan.plan(CHAOS_GRID, seed=19, state_dir=tmp_path, crashes=1)
    doomed = _cold_explorer(
        factory=plan.wrap(FACTORY), chunk_size=CHAOS_CHUNK, workers=2
    )
    with pytest.raises(BrokenProcessPool):
        doomed.explore_arrays(CHAOS_GRID, checkpoint=ckpt)
    resumed = _cold_explorer(
        factory=plan.wrap(FACTORY), chunk_size=CHAOS_CHUNK, workers=2
    )
    result = resumed.explore_arrays(CHAOS_GRID, checkpoint=ckpt, resume=True)
    assert_identical(result, reference)
    _RESULTS["resume_parity"] = "byte-identical"
    emit("chaos kill-then-resume: recovered byte-identical")


# ----------------------------------------------------------------------
# Containment parity: quarantine, watchdog, salvage-resume
# ----------------------------------------------------------------------


def test_chaos_poison_quarantine(tmp_path, fast_policy, reference, emit):
    """Deterministic killers are bisected out; survivors stay bit-exact."""
    plan = FaultPlan.plan(CHAOS_GRID, seed=23, state_dir=tmp_path, poisons=2)
    policy = RetryPolicy(max_retries=1, backoff_base_s=0.001, chunk_timeout_s=15.0)
    explorer = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=policy,
    )
    result = explorer.explore_arrays(
        CHAOS_GRID, quarantine=QuarantineLedger(tmp_path / "poison.json")
    )
    assert len(result.quarantined) == 2
    assert {point_key(p) for p in result.quarantined} == {
        point_key(p) for p in plan.poison_points
    }
    assert_survivors_identical(result, reference, result.quarantined)
    stats = explorer.last_supervision
    assert stats.quarantined == 2
    _RESULTS["quarantine_parity"] = "byte-identical"
    _RESULTS["quarantine_stats"] = stats.as_dict()
    emit(f"chaos poison: 2 quarantined, survivors byte-identical ({stats.summary()})")


def test_chaos_watchdog_reap(tmp_path, reference, emit):
    """A wedged pool is reaped on stale heartbeats, far inside the hang."""
    plan = FaultPlan.plan(
        CHAOS_GRID, seed=37, state_dir=tmp_path, stales=1, stale_s=60.0
    )
    policy = RetryPolicy(
        max_retries=2,
        backoff_base_s=0.001,
        chunk_timeout_s=None,
        heartbeat_timeout_s=0.5,
    )
    explorer = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=policy,
    )
    start = time.perf_counter()
    result = explorer.explore_arrays(CHAOS_GRID)
    wall = time.perf_counter() - start
    assert_identical(result, reference)
    stats = explorer.last_supervision
    assert stats.watchdog_reaps >= 1
    # The fault sleeps 60s; recovery well inside it proves the reap.
    assert wall < 30.0
    _RESULTS["watchdog_parity"] = "byte-identical"
    _RESULTS["watchdog_wall_s"] = wall
    _RESULTS["watchdog_stats"] = stats.as_dict()
    emit(f"chaos watchdog: reaped in {wall:.2f}s against a 60s hang, byte-identical")


def test_chaos_salvage_then_resume(tmp_path, fast_policy, reference, emit):
    """An irrecoverable pool salvages its prefix; the checkpoint + a
    quarantine ledger then finish the sweep byte-identically."""
    ckpt = tmp_path / "salvage.ckpt"
    plan = FaultPlan.plan(CHAOS_GRID, seed=31, state_dir=tmp_path, poisons=1)
    salvage_policy = RetryPolicy(
        max_retries=0,
        backoff_base_s=0.001,
        chunk_timeout_s=15.0,
        max_respawns=0,
        degrade_in_process=False,
        salvage=True,
    )
    doomed = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=salvage_policy,
    )
    partial = doomed.explore_arrays(CHAOS_GRID, checkpoint=ckpt)
    assert not partial.complete and partial.failure is not None
    assert partial.failure.checkpoint == str(ckpt)

    resumed = _cold_explorer(
        factory=plan.wrap(FACTORY),
        chunk_size=CHAOS_CHUNK,
        workers=2,
        resilience=fast_policy,
    )
    result = resumed.explore_arrays(
        CHAOS_GRID,
        checkpoint=ckpt,
        resume=True,
        quarantine=QuarantineLedger(tmp_path / "poison.json"),
    )
    assert result.complete and len(result.quarantined) == 1
    assert_survivors_identical(result, reference, result.quarantined)
    _RESULTS["salvage_parity"] = "byte-identical"
    _RESULTS["salvage_report"] = partial.failure.as_dict()
    emit(
        f"chaos salvage: kept {partial.failure.completed_chunks}/"
        f"{partial.failure.total_chunks} chunks, resume byte-identical"
    )
