"""Store-backed sweeps: warm reuse, delta stitching, composition with
checkpoints/workers, and the Monte-Carlo segment tier — all bit-exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.errors import DomainError, QuarantinedPoint
from repro.core.scenario import BALANCED, EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer, params_key
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    DVFSOperatingPointFactory,
    SymmetricMulticoreFactory,
)
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.montecarlo import sample_measurement_noise, sample_verdicts
from repro.dse.store import ResultStore
from repro.resilience import QuarantineLedger
from repro.resilience.checkpoint import describe_factory
from repro.resilience.faults import CountingFactory

from ..resilience.test_interrupts import interrupt_at_commit
from .test_parallel_columnar import assert_same_entries

BASELINE = DesignPoint.baseline("1-BCE single core")
GRID = ParameterGrid(
    {"cores": [float(c) for c in range(1, 17)], "f": linear_range(0.5, 0.99, 8)}
)  # 128 points
#: Corners with m >= n are invalid (DomainErrors).
ASYM_GRID = ParameterGrid({"n": [2, 3, 4, 8], "m": [1, 2, 4], "f": [0.5, 0.9]})


def scalar_factory(params):
    from repro.amdahl.symmetric import SymmetricMulticore

    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


def _explorer(chunk_size: int = 32, workers: int = 0, factory=None):
    return BatchExplorer(
        factory=factory if factory is not None else SymmetricMulticoreFactory(),
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
        workers=workers,
    )


def _assert_bit_exact(a, b):
    assert a.designs == b.designs
    assert a.perf.tobytes() == b.perf.tobytes()
    assert a.ncf_fixed_work.tobytes() == b.ncf_fixed_work.tobytes()
    assert a.ncf_fixed_time.tobytes() == b.ncf_fixed_time.tobytes()
    assert a.category_counts() == b.category_counts()


class TestWarmResweep:
    def test_vector_warm_zero_fresh_bit_exact(self, tmp_path):
        cold_explorer = _explorer()
        cold = cold_explorer.explore_arrays(GRID, store=ResultStore(tmp_path))
        assert cold_explorer.last_sweep.fresh_points == len(GRID)
        assert cold_explorer.last_sweep.store_points == 0

        warm_explorer = _explorer()
        warm = warm_explorer.explore_arrays(GRID, store=ResultStore(tmp_path))
        engine = warm_explorer.last_sweep
        assert engine.store_used
        assert engine.fresh_points == 0
        assert engine.memo_points == 0
        assert engine.store_points == len(GRID)
        assert engine.store_disk_points == len(GRID)  # fresh process: disk
        assert engine.store_reuse_ratio == 1.0
        _assert_bit_exact(warm, cold)

    def test_scalar_factory_path(self, tmp_path):
        cold = _explorer(factory=scalar_factory).explore_arrays(
            GRID, store=ResultStore(tmp_path)
        )
        warm_explorer = _explorer(factory=scalar_factory)
        warm = warm_explorer.explore_arrays(GRID, store=ResultStore(tmp_path))
        assert warm_explorer.last_sweep.fresh_points == 0
        _assert_bit_exact(warm, cold)

    def test_cross_chunk_size_readers(self, tmp_path):
        cold = _explorer(chunk_size=100).explore_arrays(
            GRID, store=ResultStore(tmp_path)
        )
        reader = _explorer(chunk_size=17)
        warm = reader.explore_arrays(GRID, store=ResultStore(tmp_path))
        assert reader.last_sweep.fresh_points == 0
        assert reader.last_sweep.store_points == len(GRID)
        _assert_bit_exact(warm, cold)

    def test_parallel_workers_warm(self, tmp_path):
        cold = _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        par = _explorer(workers=2)
        warm = par.explore_arrays(GRID, store=ResultStore(tmp_path))
        assert par.last_sweep.fresh_points == 0
        _assert_bit_exact(warm, cold)

    def test_store_path_accepted_directly(self, tmp_path):
        cold = _explorer().explore_arrays(GRID, store=tmp_path / "s")
        warm_explorer = _explorer()
        warm = warm_explorer.explore_arrays(GRID, store=tmp_path / "s")
        assert warm_explorer.last_sweep.fresh_points == 0
        _assert_bit_exact(warm, cold)

    def test_no_store_means_no_store_stats(self):
        explorer = _explorer()
        explorer.explore_arrays(GRID)
        engine = explorer.last_sweep
        assert not engine.store_used
        assert "store reuse" not in engine.summary()
        assert "store_points" not in engine.as_dict()


#: One swept design across frequency multipliers (paper §5.8).
DVFS_GRID = ParameterGrid({"s": linear_range(0.5, 1.5, 11)})
NAMELESS_CASES = [
    pytest.param(SymmetricMulticoreFactory(), GRID, id="symmetric"),
    pytest.param(AsymmetricMulticoreFactory(), ASYM_GRID, id="asymmetric"),
    pytest.param(
        DVFSOperatingPointFactory(design=DesignPoint.baseline("edge core")),
        DVFS_GRID,
        id="dvfs",
    ),
]


class TestNamelessRecords:
    """A vector factory's durable records hold tags and columns, and
    texts only for invalid rows: a resumed or warm sweep rebuilds the
    names through the factory's ``design_points`` and equals a cold
    sweep — designs, params, cache entries (invalid corners keep their
    messages) and result bytes — without one scalar call."""

    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    @pytest.mark.parametrize("inner, grid", NAMELESS_CASES)
    def test_read_back_equals_a_cold_sweep(self, tmp_path, inner, grid, target):
        counting = CountingFactory(inner)
        if target == "checkpoint":
            written = dict(checkpoint=tmp_path / "sweep.ckpt")
            read = dict(checkpoint=tmp_path / "sweep.ckpt", resume=True)
        else:
            written, read = dict(store=ResultStore(tmp_path)), dict(store=tmp_path)
        _explorer(chunk_size=7, factory=counting).explore_arrays(grid, **written)
        counting.kernel_points = counting.scalar_calls = 0
        explorer = _explorer(chunk_size=7, factory=counting)
        result = explorer.explore_arrays(grid, **read)
        assert explorer.last_sweep.fresh_points == 0
        assert (counting.kernel_points, counting.scalar_calls) == (0, 0)
        cold_explorer = _explorer(chunk_size=7, factory=inner)
        cold = cold_explorer.explore_arrays(grid)
        assert result.designs == cold.designs
        assert result.params == cold.params
        assert_same_entries(explorer.cache, cold_explorer.cache)
        _assert_bit_exact(result, cold)
        assert (counting.kernel_points, counting.scalar_calls) == (0, 0)

    def test_probe_rebuilds_a_nameless_design(self, tmp_path):
        """The parameter-dict API serves a vector sweep's rows as the
        factory's own outcomes, names included."""
        factory = AsymmetricMulticoreFactory()
        _explorer(chunk_size=5, factory=factory).explore_arrays(
            ASYM_GRID, store=ResultStore(tmp_path)
        )
        chunk = list(ASYM_GRID)[3:9]
        probe = ResultStore(tmp_path).sweep_session(factory).probe(chunk)
        assert probe.complete
        for params, outcome in zip(chunk, probe.outcomes):
            if params["m"] < params["n"]:
                assert outcome == factory(params)
            else:
                assert isinstance(outcome, DomainError)

    def test_vector_records_carry_no_names(self, tmp_path):
        """Each record holds a text for every invalid row — its scalar
        DomainError message — and none for the designs."""
        from repro.resilience.checkpoint import CheckpointStore, OutcomeRecord

        factory = AsymmetricMulticoreFactory()
        path = tmp_path / "sweep.ckpt"
        explorer = _explorer(chunk_size=5, factory=factory)
        explorer.explore_arrays(ASYM_GRID, checkpoint=path)
        fingerprint = _fingerprint(factory)
        state = CheckpointStore(path).load(kind="sweep", fingerprint=fingerprint)
        outcomes = []
        for data in state["chunks"]:
            record = OutcomeRecord(data)
            assert not record.named
            outcomes += record.outcomes()
        for params, outcome in zip(ASYM_GRID, outcomes):
            if params["m"] < params["n"]:
                assert outcome is None
                continue
            with pytest.raises(DomainError) as scalar:
                factory(params)
            assert type(outcome) is DomainError
            assert str(outcome) == str(scalar.value)


def _fingerprint(factory):
    from repro.resilience.checkpoint import sweep_fingerprint

    return sweep_fingerprint(
        axes=ASYM_GRID.axes,
        chunk_size=5,
        baseline=BASELINE,
        alpha=EMBODIED_DOMINATED.alpha,
        factory=factory,
    )


class TestDeltaSweep:
    def _overlapping_grid(self):
        fractions = linear_range(0.5, 0.99, 8)[4:] + linear_range(0.1, 0.4, 4)
        return ParameterGrid(
            {"cores": [float(c) for c in range(1, 17)], "f": fractions}
        )

    def test_delta_evaluates_only_new_points(self, tmp_path):
        _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        delta_grid = self._overlapping_grid()
        delta_explorer = _explorer()
        delta = delta_explorer.explore_arrays(
            delta_grid, store=ResultStore(tmp_path)
        )
        engine = delta_explorer.last_sweep
        expected_fresh = 16 * 4  # only the new fractions
        assert engine.fresh_points == expected_fresh
        assert engine.store_points == len(delta_grid) - expected_fresh
        assert engine.delta_chunks > 0
        cold = _explorer().explore_arrays(delta_grid)
        _assert_bit_exact(delta, cold)

    def test_delta_with_workers(self, tmp_path):
        _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        delta_grid = self._overlapping_grid()
        par = _explorer(workers=2)
        delta = par.explore_arrays(delta_grid, store=ResultStore(tmp_path))
        assert par.last_sweep.fresh_points == 16 * 4
        cold = _explorer().explore_arrays(delta_grid)
        _assert_bit_exact(delta, cold)

    def test_second_delta_is_fully_warm(self, tmp_path):
        """The stitched chunks were written back: re-running the delta
        grid is a 100% store hit."""
        _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        delta_grid = self._overlapping_grid()
        _explorer().explore_arrays(delta_grid, store=ResultStore(tmp_path))
        rerun = _explorer()
        rerun.explore_arrays(delta_grid, store=ResultStore(tmp_path))
        assert rerun.last_sweep.fresh_points == 0
        assert rerun.last_sweep.store_points == len(delta_grid)


class TestComposition:
    def test_checkpoint_bytes_identical_cold_vs_warm(self, tmp_path):
        cold_ck = tmp_path / "cold.ckpt"
        warm_ck = tmp_path / "warm.ckpt"
        store_dir = tmp_path / "store"
        _explorer().explore_arrays(
            GRID, checkpoint=cold_ck, store=ResultStore(store_dir)
        )
        warm_explorer = _explorer()
        warm_explorer.explore_arrays(
            GRID, checkpoint=warm_ck, store=ResultStore(store_dir)
        )
        assert warm_explorer.last_sweep.fresh_points == 0
        assert cold_ck.read_bytes() == warm_ck.read_bytes()

    def test_resume_and_store_compose(self, tmp_path):
        """Chunks restored from a checkpoint are not double-counted as
        store hits, and the resumed run stays bit-exact."""
        ck = tmp_path / "sweep.ckpt"
        store_dir = tmp_path / "store"
        cold = _explorer().explore_arrays(
            GRID, checkpoint=ck, store=ResultStore(store_dir)
        )
        resumed_explorer = _explorer()
        resumed = resumed_explorer.explore_arrays(
            GRID, checkpoint=ck, resume=True, store=ResultStore(store_dir)
        )
        engine = resumed_explorer.last_sweep
        assert engine.fresh_points == 0
        assert engine.store_points == 0  # the checkpoint got there first
        _assert_bit_exact(resumed, cold)

    def test_corrupt_object_recomputes_bit_exact(self, tmp_path):
        cold = _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        (run,) = tmp_path.glob("sweeps/*.log")
        data = bytearray(run.read_bytes())
        data[len(data) // 2] ^= 0xFF  # inside a middle chunk record
        run.write_bytes(bytes(data))
        store = ResultStore(tmp_path)
        warm_explorer = _explorer()
        warm = warm_explorer.explore_arrays(GRID, store=store)
        assert store.stats().corrupt >= 1
        assert warm_explorer.last_sweep.fresh_points > 0  # recomputed
        _assert_bit_exact(warm, cold)
        # The rewrite healed the store: next sweep is fully warm again.
        healed = _explorer()
        healed.explore_arrays(GRID, store=ResultStore(tmp_path))
        assert healed.last_sweep.fresh_points == 0


class TestDurableRowsStayColumns:
    """A resumed or store-served vector sweep restores its rows as
    columns: no DesignPoint is built until ``.designs`` is read or the
    cache is expanded, and those reads make no factory call yet equal
    the writing sweep's objects — names, DomainError messages and
    QuarantinedPoint rows."""

    @pytest.mark.parametrize("read", ["designs", "cache"])
    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    def test_objects_decode_on_read(self, tmp_path, monkeypatch, target, read):
        factory = CountingFactory(AsymmetricMulticoreFactory())
        if target == "checkpoint":
            ledger = QuarantineLedger(tmp_path / "ledger.log")
            ledger.record(
                describe_factory(factory),
                {"n": 4, "m": 1, "f": 0.9},
                kind="crash",
                reason="poison",
            )
            durable = dict(checkpoint=tmp_path / "sweep.ckpt", quarantine=ledger)
        else:
            durable = dict(store=ResultStore(tmp_path))
        cold_explorer = _explorer(chunk_size=5, factory=factory)
        cold = cold_explorer.explore_arrays(ASYM_GRID, **durable)
        cold.designs, cold_explorer.cache._entries  # built before counting
        if target == "checkpoint":
            durable["resume"] = True
        else:
            durable["store"] = ResultStore(tmp_path)
        built: list = []
        post_init = DesignPoint.__post_init__

        def counting(point):
            built.append(point)
            post_init(point)

        monkeypatch.setattr(DesignPoint, "__post_init__", counting)
        factory.kernel_points = factory.scalar_calls = 0
        explorer = _explorer(chunk_size=5, factory=factory)
        result = explorer.explore_arrays(ASYM_GRID, **durable)
        assert explorer.last_sweep.fresh_points == 0
        assert built == []
        if read == "designs":
            assert result.designs == cold.designs
            assert built
        else:
            assert_same_entries(explorer.cache, cold_explorer.cache)
        assert (factory.kernel_points, factory.scalar_calls) == (0, 0)
        assert result.quarantined == cold.quarantined
        assert len(cold.quarantined) == (target == "checkpoint")
        _assert_bit_exact(result, cold)


def asym_scalar(params):
    """The asymmetric factory as a plain function: a point-level cache."""
    return AsymmetricMulticoreFactory()(params)


#: Overlaps ASYM_GRID; (4, 1, 0.9) is first held by its record.
WARM_GRID = ParameterGrid({"n": [3, 4, 16], "m": [1, 2], "f": [0.5, 0.9]})


class TestSameExplorerDurableRows:
    """Durable rows whose keys the explorer's cache already holds leave
    those keys where they are, unless a quarantine marker replaces the
    cached design; either way no record is expanded into points."""

    @pytest.mark.parametrize("target", ["checkpoint", "store"])
    def test_resume_builds_no_point_for_cached_rows(
        self, tmp_path, monkeypatch, target
    ):
        """An interrupted sweep leaves its completed chunks in the cache;
        resuming it on the same explorer (or re-running a store sweep
        there) restores rows the cache holds, and builds no point: the
        chunks it writes are encoded from their columns."""
        factory = AsymmetricMulticoreFactory()
        explorer = _explorer(chunk_size=5, factory=factory)
        explorer.explore_arrays(WARM_GRID)
        if target == "checkpoint":
            ckpt = tmp_path / "sweep.ckpt"
            with pytest.raises(KeyboardInterrupt), interrupt_at_commit(2):
                explorer.explore_arrays(ASYM_GRID, checkpoint=ckpt)
            durable = dict(checkpoint=ckpt, resume=True)
        else:
            explorer.explore_arrays(ASYM_GRID, store=ResultStore(tmp_path))
            durable = dict(store=ResultStore(tmp_path))
        built: list = []
        post_init = DesignPoint.__post_init__

        def counting(point):
            built.append(point)
            post_init(point)

        monkeypatch.setattr(DesignPoint, "__post_init__", counting)
        result = explorer.explore_arrays(ASYM_GRID, **durable)
        assert built == []
        assert not explorer.cache._memo
        monkeypatch.undo()

        reference = _explorer(chunk_size=5, factory=asym_scalar)
        reference.explore_arrays(WARM_GRID)
        cold = reference.explore_arrays(ASYM_GRID)
        _assert_bit_exact(result, cold)
        assert_same_entries(explorer.cache, reference.cache)

    def test_ledger_marker_replaces_a_cached_design(self, tmp_path):
        """Poison the ledger records after the cache learned the designs:
        the markers replace them, whichever record held the key."""
        factory = AsymmetricMulticoreFactory()
        poison = [{"n": 4, "m": 1, "f": 0.9}, {"n": 8, "m": 1, "f": 0.5}]
        ledger = QuarantineLedger(tmp_path / "ledger.log")
        for described in (factory, asym_scalar):
            for params in poison:
                ledger.record(
                    describe_factory(described), params, kind="crash", reason="poison"
                )
        explorer = _explorer(chunk_size=5, factory=factory)
        reference = _explorer(chunk_size=5, factory=asym_scalar)
        for sweeper in (explorer, reference):
            sweeper.explore_arrays(WARM_GRID)
            sweeper.explore_arrays(ASYM_GRID)
        result = explorer.explore_arrays(ASYM_GRID, quarantine=ledger)
        expected = reference.explore_arrays(ASYM_GRID, quarantine=ledger)
        assert sorted(map(str, result.quarantined)) == sorted(map(str, poison))
        assert result.quarantined == expected.quarantined
        assert not explorer.cache._memo
        keys = {params_key(params) for params in [*WARM_GRID, *ASYM_GRID]}
        assert len(explorer.cache) == len(keys)
        for params in poison:
            marker = explorer.cache.lookup(params_key(params))
            assert isinstance(marker, QuarantinedPoint)
        assert_same_entries(explorer.cache, reference.cache)


class TestStatsAndObservability:
    def test_summary_and_as_dict_report_provenance(self, tmp_path):
        _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
        warm_explorer = _explorer()
        warm_explorer.explore_arrays(GRID, store=ResultStore(tmp_path))
        engine = warm_explorer.last_sweep
        summary = engine.summary()
        assert "store reuse: 100.0%" in summary
        assert f"{len(GRID)} pts disk" in summary
        payload = engine.as_dict()
        assert payload["memo_points"] == 0
        assert payload["fresh_points"] == 0
        assert payload["store_points"] == len(GRID)
        assert payload["store_reuse_ratio"] == 1.0

    def test_store_metrics_counters(self, tmp_path):
        from repro.obs import metrics

        metrics.reset()
        metrics.enable()
        try:
            registry = metrics.get_registry()
            _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
            assert (
                registry.counter("focal_store_misses_total").value == len(GRID)
            )
            _explorer().explore_arrays(GRID, store=ResultStore(tmp_path))
            assert (
                registry.counter(
                    "focal_store_hits_total", labels={"tier": "disk"}
                ).value
                == len(GRID)
            )
            assert (
                registry.counter("focal_store_sweep_points_total").value
                == len(GRID)
            )
            assert registry.counter("focal_store_bytes_written_total").value > 0
        finally:
            metrics.reset()


EDGE_DESIGN = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)


class TestMonteCarloStore:
    def test_verdict_segments_reused_bit_exact(self, tmp_path):
        reference = sample_verdicts(
            EDGE_DESIGN, BASELINE, BALANCED, samples=5000, seed=3
        )
        cold = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=5000,
            seed=3,
            store=ResultStore(tmp_path),
        )
        warm_store = ResultStore(tmp_path)
        warm = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=5000,
            seed=3,
            store=warm_store,
        )
        assert cold == reference
        assert warm == reference
        stats = warm_store.stats()
        assert stats.disk_hits == 5000
        assert stats.misses == 0

    def test_prefix_reuse_with_more_samples(self, tmp_path):
        sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=8192,
            seed=3,
            checkpoint_every=2048,
            store=ResultStore(tmp_path),
        )
        bigger_store = ResultStore(tmp_path)
        bigger = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=12000,
            seed=3,
            checkpoint_every=2048,
            store=bigger_store,
        )
        reference = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=12000,
            seed=3,
            checkpoint_every=2048,
        )
        assert bigger == reference
        stats = bigger_store.stats()
        assert stats.hits == 8192  # the shared prefix
        assert stats.misses == 12000 - 8192

    def test_different_checkpoint_every_recomputes(self, tmp_path):
        first = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=4096,
            seed=3,
            checkpoint_every=2048,
            store=ResultStore(tmp_path),
        )
        other_store = ResultStore(tmp_path)
        second = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=4096,
            seed=3,
            checkpoint_every=1024,
            store=other_store,
        )
        assert second == first  # conservative: recompute, same answer
        assert other_store.stats().hits == 0

    def test_different_seed_never_aliases(self, tmp_path):
        sample_verdicts(
            EDGE_DESIGN, BASELINE, BALANCED, samples=4000, seed=3,
            store=ResultStore(tmp_path),
        )
        other_store = ResultStore(tmp_path)
        sample_verdicts(
            EDGE_DESIGN, BASELINE, BALANCED, samples=4000, seed=4,
            store=other_store,
        )
        assert other_store.stats().hits == 0

    def test_noise_sampler_reuse(self, tmp_path):
        reference = sample_measurement_noise(
            EDGE_DESIGN, BASELINE, 0.5, samples=4000, seed=9
        )
        sample_measurement_noise(
            EDGE_DESIGN, BASELINE, 0.5, samples=4000, seed=9,
            store=ResultStore(tmp_path),
        )
        warm_store = ResultStore(tmp_path)
        warm = sample_measurement_noise(
            EDGE_DESIGN, BASELINE, 0.5, samples=4000, seed=9, store=warm_store,
        )
        assert warm == reference
        assert warm_store.stats().misses == 0
        assert warm_store.stats().disk_hits == 4000

    def test_checkpoint_and_store_compose(self, tmp_path):
        ck = tmp_path / "mc.ckpt"
        store_dir = tmp_path / "store"
        first = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=6000,
            seed=5,
            checkpoint=ck,
            checkpoint_every=2048,
            store=ResultStore(store_dir),
        )
        resumed = sample_verdicts(
            EDGE_DESIGN,
            BASELINE,
            BALANCED,
            samples=6000,
            seed=5,
            checkpoint=ck,
            resume=True,
            checkpoint_every=2048,
            store=ResultStore(store_dir),
        )
        assert resumed == first
