"""Per-layer measurement: harness-side spans and the layer probe.

Nothing here reaches inside ``src/``. Layers are timed from outside, by
calling their public functions directly (:func:`probe_layers`) or by
wrapping those public functions for the length of a traced round
(:func:`instrument`). Spans are kept in memory as ``(name, start, end,
parent)`` and written out once, with each span's self time: its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import (
    ROOT,
    ComputePoolWorkload,
    SweepDurableWorkload,
    SweepStockWorkload,
    child_env,
)

#: Processes timed for the ``import.*`` metrics: wall time of a fresh
#: interpreter running each snippet.
IMPORT_SNIPPETS = {
    "python": "pass",
    "numpy": "import numpy",
    "repro": "import repro",
    "repro_cli": "import repro.cli",
}


class SpanRecorder:
    """In-memory spans; ``start``/``end`` are seconds since creation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter() - self._origin, "parent": parent}
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self._origin

    def with_self_time(self) -> list[dict]:
        """Every span with ``self``: its duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [
            {**span, "self": span["end"] - span["start"] - child_time[i]}
            for i, span in enumerate(self.spans)
        ]

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.with_self_time():
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def export(self) -> dict:
        """The spans with self times, and self time totalled by name."""
        return {"self_time_s": self.self_time_by_name(), "spans": self.with_self_time()}


def _wrapped(recorder: SpanRecorder, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)

    return wrapper


def instrument(recorder: SpanRecorder):
    """Wrap each layer's public entry points in spans; returns a
    function that restores the originals.

    Module-level functions are wrapped in the namespace of the module
    that calls them (``repro.dse.batch`` imports ``classify_arrays`` by
    name), class methods on the class itself.
    """
    from repro.dse import batch, factories, montecarlo, store
    from repro.resilience import checkpoint

    targets = [
        (batch.BatchExplorer, "explore_arrays", "dse.explore_arrays"),
        (batch.BatchExplorer, "count_categories", "dse.count_categories"),
        (batch, "params_keys", "batch.params_keys"),
        (batch.FactoryCache, "store_many", "batch.store_many"),
        (batch, "ncf_values", "core.ncf_values"),
        (batch, "classify_arrays", "core.classify_arrays"),
        (montecarlo, "classify_arrays", "core.classify_arrays"),
        (batch, "encode_outcomes", "checkpoint.encode_outcomes"),
        (store, "encode_outcomes", "checkpoint.encode_outcomes"),
        (checkpoint.CheckpointStore, "save", "checkpoint.save"),
        (checkpoint.CheckpointStore, "load", "checkpoint.load"),
        (store.SweepStoreSession, "probe", "store.probe"),
        (store.SweepStoreSession, "put", "store.put"),
        (store.SweepStoreSession, "flush", "store.flush"),
        (montecarlo, "sample_verdicts", "mc.sample_verdicts"),
        (montecarlo, "sample_measurement_noise", "mc.sample_measurement_noise"),
    ]
    for factory in (
        factories.SymmetricMulticoreFactory,
        factories.AsymmetricMulticoreFactory,
        factories.IterativeFixedPointFactory,
    ):
        targets.append((factory, "batch_arrays", "factories.batch_arrays"))
        targets.append((factory, "design_points", "factories.design_points"))
    originals = []
    for owner, attribute, name in targets:
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrapped(recorder, name, original))

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore


# ----------------------------------------------------------------------
# The layer probe
# ----------------------------------------------------------------------
class _Probe:
    """Times public calls into each layer, median of ``reps`` calls,
    each call inside a span named after the layer."""

    def __init__(self, recorder: SpanRecorder, reps: int) -> None:
        self.recorder = recorder
        self.reps = reps
        self.metrics: dict[str, float] = {}
        self.checks: dict[str, bool] = {}

    def time(self, name: str, function, reps: int | None = None):
        """``(median seconds, last result)`` over the repetitions."""
        times = []
        for _ in range(reps or self.reps):
            result = None  # drop the previous result before collecting
            gc.collect()
            with self.recorder.span(name):
                begin = time.perf_counter()
                result = function()
                times.append(time.perf_counter() - begin)
        return statistics.median(times), result


def _chunks(points: list, size: int) -> list[list]:
    return [points[start : start + size] for start in range(0, len(points), size)]


def _columns(chunk: list[dict]) -> dict:
    import numpy as np

    return {name: np.asarray([params[name] for params in chunk]) for name in chunk[0]}


def _probe_cli(probe: _Probe, workdir: Path) -> None:
    from repro.report.export import figure_to_json
    from repro.studies.findings import all_findings
    from repro.studies.registry import run_study, study_names

    env = child_env(workdir)
    for label, snippet in IMPORT_SNIPPETS.items():
        seconds, _ = probe.time(
            f"import.{label}",
            lambda s=snippet: subprocess.run(
                [sys.executable, "-c", s], env=env, cwd=ROOT, check=True, timeout=60
            ),
        )
        probe.metrics[f"import.{label}_ms"] = seconds * 1e3
    names = study_names()
    seconds, figures = probe.time(
        "studies.run_study", lambda: [run_study(name) for name in names]
    )
    probe.metrics["studies.figures_ms"] = seconds * 1e3
    seconds, checks = probe.time("studies.all_findings", all_findings)
    probe.metrics["studies.findings_ms"] = seconds * 1e3
    probe.checks["findings_pass"] = all(check.passed for check in checks)
    seconds, _ = probe.time(
        "report.figure_to_json", lambda: [figure_to_json(f) for f in figures]
    )
    probe.metrics["report.json_ms"] = seconds * 1e3


def _materialize_with_fallback(factory, chunk, arrays):
    """``design_points`` over the valid rows plus one scalar call per
    invalid row (which raises ``DomainError``), the work a cold sweep
    does to materialize a chunk with invalid corners."""
    import numpy as np

    from repro.core.errors import DomainError
    from repro.dse.batch import DesignArrays

    rows = np.flatnonzero(arrays.valid)
    valid = DesignArrays(
        area=arrays.area[rows],
        perf=arrays.perf[rows],
        power=arrays.power[rows],
        valid=arrays.valid[rows],
    )
    points = factory.design_points([chunk[r] for r in rows], valid)
    for r in np.flatnonzero(~arrays.valid):
        try:
            factory(chunk[r])
        except DomainError:
            pass
    return points


def _probe_sweep(probe: _Probe, sw: SweepStockWorkload) -> None:
    import numpy as np

    from repro.core.batch import classify_arrays, ncf_values
    from repro.dse.batch import FactoryCache, params_keys

    factory, grid = sw.factory, sw.grid
    n = len(grid)
    seconds, points = probe.time("grid.iter", lambda: list(grid))
    probe.metrics["grid.iter_ns_pt"] = seconds / n * 1e9
    chunks = _chunks(points, sw.chunk_size)
    columns = [_columns(chunk) for chunk in chunks]
    seconds, arrays = probe.time(
        "factories.batch_arrays", lambda: [factory.batch_arrays(c) for c in columns]
    )
    probe.metrics["factories.kernel_ns_pt"] = seconds / n * 1e9

    area = np.concatenate([a.area for a in arrays])
    perf = np.concatenate([a.perf for a in arrays])
    power = np.concatenate([a.power for a in arrays])
    base, alpha = sw.baseline, sw.weight.alpha

    def classify():
        area_ratio = area / base.area
        fw = ncf_values(area_ratio, (power / perf) / base.energy, alpha)
        ft = ncf_values(area_ratio, power / base.power, alpha)
        return classify_arrays(fw, ft)

    seconds, _ = probe.time("core.classify_arrays", classify)
    probe.metrics["core.classify_ns_pt"] = seconds / n * 1e9
    seconds, designs = probe.time(
        "factories.design_points",
        lambda: [factory.design_points(c, a) for c, a in zip(chunks, arrays)],
    )
    probe.metrics["factories.materialize_ns_pt"] = seconds / n * 1e9
    seconds, keys = probe.time(
        "batch.params_keys", lambda: [params_keys(chunk) for chunk in chunks]
    )
    probe.metrics["batch.keys_ns_pt"] = seconds / n * 1e9

    def fill():
        cache = FactoryCache(factory)
        for chunk_keys, outcomes in zip(keys, designs):
            cache.store_many(chunk_keys, outcomes, misses=len(outcomes))
        return cache

    seconds, _ = probe.time("batch.store_many", fill)
    probe.metrics["batch.cache_fill_ns_pt"] = seconds / n * 1e9

    asym_points = list(sw.asym_grid)
    asym_chunks = _chunks(asym_points, sw.chunk_size)
    asym_arrays = [sw.asym_factory.batch_arrays(_columns(c)) for c in asym_chunks]
    seconds, _ = probe.time(
        "factories.design_points[asym]",
        lambda: [
            _materialize_with_fallback(sw.asym_factory, c, a)
            for c, a in zip(asym_chunks, asym_arrays)
        ],
    )
    probe.metrics["factories.asym_materialize_ns_pt"] = (
        seconds / len(asym_points) * 1e9
    )
    probe.metrics["factories.asym_invalid_pts"] = sum(
        int((~a.valid).sum()) for a in asym_arrays
    )

    explorer = sw.explorer()
    with probe.recorder.span("dse.explore_arrays[cold+warm]"):
        explorer.explore_arrays(grid)
        explorer.explore_arrays(grid)
    stats = explorer.cache.stats()
    probe.metrics["batch.cache_hits"] = stats.hits
    probe.metrics["batch.cache_misses"] = stats.misses
    probe.checks["cache_counts"] = stats.hits == n and stats.misses == n


def _probe_durable(probe: _Probe, dw: SweepDurableWorkload) -> None:
    from repro.dse.store import ResultStore
    from repro.resilience.checkpoint import (
        CheckpointStore,
        encode_outcomes,
        sweep_fingerprint,
    )

    factory, grid = dw.factory, dw.grid
    n = len(grid)
    chunks = _chunks(list(grid), dw.chunk_size)
    outcomes = [
        factory.design_points(chunk, factory.batch_arrays(_columns(chunk)))
        for chunk in chunks
    ]
    seconds, encoded = probe.time(
        "checkpoint.encode_outcomes", lambda: [encode_outcomes(o) for o in outcomes]
    )
    probe.metrics["checkpoint.encode_ns_pt"] = seconds / n * 1e9

    fingerprint = sweep_fingerprint(
        axes=grid.axes,
        chunk_size=dw.chunk_size,
        baseline=dw.baseline,
        alpha=dw.weight.alpha,
        factory=factory,
    )
    ckpt = CheckpointStore(dw.state_dir / "probe.ckpt.json")
    for label, state in (("first", encoded[:1]), ("last", encoded)):
        seconds, _ = probe.time(
            f"checkpoint.save[{label}]",
            lambda s=state: ckpt.save(
                kind="sweep", fingerprint=fingerprint, state={"chunks": s}
            ),
        )
        probe.metrics[f"checkpoint.save_{label}_ms"] = seconds * 1e3
    probe.metrics["checkpoint.bytes"] = ckpt.path.stat().st_size
    seconds, state = probe.time(
        "checkpoint.load", lambda: ckpt.load(kind="sweep", fingerprint=fingerprint)
    )
    probe.metrics["checkpoint.load_ms"] = seconds * 1e3
    probe.checks["checkpoint_roundtrip"] = state["chunks"] == encoded

    # Write side: every repetition puts every chunk into an empty store.
    root = dw.state_dir / "probe-store"
    put_times, flush_times = [], []
    for _ in range(probe.reps):
        shutil.rmtree(root, ignore_errors=True)
        written = ResultStore(root)
        session = written.sweep_session(factory)
        gc.collect()
        with probe.recorder.span("store.put"):
            begin = time.perf_counter()
            for chunk, chunk_outcomes in zip(chunks, outcomes):
                session.put(chunk, chunk_outcomes)
            put_times.append(time.perf_counter() - begin)
        with probe.recorder.span("store.flush"):
            begin = time.perf_counter()
            session.flush()
            flush_times.append(time.perf_counter() - begin)
    stats = written.stats()
    probe.metrics["store.put_ns_pt"] = statistics.median(put_times) / n * 1e9
    probe.metrics["store.flush_ms"] = statistics.median(flush_times) * 1e3
    probe.metrics["store.bytes_pt"] = stats.bytes_written / n
    probe.metrics["store.objects"] = stats.objects_written

    # Read side: a newly opened store serves every chunk from disk,
    # then the same session serves them again from its memory tier.
    def probe_all(session, chunk_list):
        return [session.probe(chunk) for chunk in chunk_list]

    seconds, _ = probe.time(
        "store.probe[disk]",
        lambda: probe_all(ResultStore(root).sweep_session(factory), chunks),
    )
    probe.metrics["store.probe_hit_ns_pt"] = seconds / n * 1e9
    reader = ResultStore(root)
    session = reader.sweep_session(factory)
    probe_all(session, chunks)
    probe_all(session, chunks)
    probe.metrics["store.disk_hits"] = reader.stats().disk_hits
    probe.metrics["store.memory_hits"] = reader.stats().memory_hits

    delta_chunks = _chunks(list(dw.delta_grid), dw.chunk_size)
    seconds, _ = probe.time(
        "store.probe[partial]",
        lambda: probe_all(ResultStore(root).sweep_session(factory), delta_chunks),
    )
    probe.metrics["store.probe_partial_ns_pt"] = (
        seconds / len(dw.delta_grid) * 1e9
    )
    delta_root = dw.state_dir / "probe-store-delta"
    shutil.rmtree(delta_root, ignore_errors=True)
    shutil.copytree(root, delta_root)
    explorer = dw.explorer()
    with probe.recorder.span("dse.explore_arrays[delta]"):
        explorer.explore_arrays(dw.delta_grid, store=ResultStore(delta_root))
    fresh = explorer.last_sweep.fresh_points
    probe.metrics["store.delta_fresh_pts"] = fresh
    new_cores = set(dw.delta_cores) - set(dw.cores)
    probe.checks["delta_fresh_exact"] = fresh == len(new_cores) * len(dw.fractions)


def _probe_pool(probe: _Probe, pw: ComputePoolWorkload) -> None:
    import numpy as np

    from repro.core.batch import classify_arrays

    chunk = list(pw.grid)[:1024]
    columns = _columns(chunk)
    seconds, _ = probe.time(
        "factories.batch_arrays[heavy]", lambda: pw.factory.batch_arrays(columns)
    )
    probe.metrics["factories.heavy_kernel_ns_pt"] = seconds / len(chunk) * 1e9

    # Whole sweeps are the expensive part of the probe: three each.
    reps = min(3, probe.reps)
    serial, _ = probe.time(
        "dse.explore_arrays[workers=0]",
        lambda: pw.explorer().explore_arrays(pw.grid),
        reps,
    )

    def auto():
        explorer = pw.explorer(workers="auto")
        explorer.explore_arrays(pw.grid)
        return explorer.last_sweep

    pooled, stats = probe.time("dse.explore_arrays[workers=auto]", auto, reps)
    probe.metrics["parallel.auto_workers"] = stats.workers
    probe.metrics["parallel.speedup"] = serial / pooled
    probe.metrics["parallel.worker_utilization"] = stats.worker_utilization

    samples, seed = pw.samples, pw.mc_seed
    lo, hi = pw.weight.band

    def draw():
        alphas = np.random.default_rng(seed).uniform(lo, hi, size=samples)
        noise = np.random.default_rng(seed).lognormal(
            mean=0.0, sigma=np.log1p(0.1), size=(samples, 3)
        )
        return alphas, noise

    seconds, (alphas, _) = probe.time("mc.draw", draw)
    probe.metrics["mc.draw_ns_sample"] = seconds / samples * 1e9
    design, base = pw.design, pw.baseline
    area, energy = design.area_ratio(base), design.energy_ratio(base)
    power = design.power_ratio(base)
    fw = alphas * area + (1.0 - alphas) * energy
    ft = alphas * area + (1.0 - alphas) * power
    seconds, _ = probe.time("core.classify_arrays[mc]", lambda: classify_arrays(fw, ft))
    probe.metrics["core.classify_ns_sample"] = seconds / samples * 1e9


def probe_layers(
    seed: int, scale: float, workdir: Path, recorder: SpanRecorder
) -> tuple[dict[str, float], dict[str, bool]]:
    """Every per-layer metric except ``obs.trace_overhead_pct``, plus
    checks the probe makes on the way (a failed one makes the traced
    run incorrect). The probe is the same whichever workload is traced,
    so every traced run reports every layer."""
    probe = _Probe(recorder, reps=5 if scale >= 1 else 1)
    with recorder.span("layers.cli"):
        _probe_cli(probe, workdir)
    with recorder.span("layers.sweep_stock"):
        _probe_sweep(probe, SweepStockWorkload(seed, scale, workdir))
    durable = SweepDurableWorkload(seed, scale, workdir)
    try:
        with recorder.span("layers.sweep_durable"):
            _probe_durable(probe, durable)
    finally:
        durable.close()
    with recorder.span("layers.compute_pool"):
        _probe_pool(probe, ComputePoolWorkload(seed, scale, workdir))
    return probe.metrics, probe.checks
