"""Monte-Carlo robustness of sustainability verdicts.

Samples the embodied-to-operational weight (and optionally any other
uncertain ratio) from simple distributions and reports the probability
of each sustainability category — a stochastic complement to the exact
interval analysis in :mod:`repro.core.uncertainty`.

Both samplers accept ``checkpoint``/``resume``: samples are then drawn
in chunks of ``checkpoint_every``, each completed chunk persisting the
classified codes plus the RNG state to an atomic
:class:`~repro.resilience.checkpoint.CheckpointStore` file. Resume
restores the codes and the generator state and continues drawing —
NumPy ``Generator`` streams are split-invariant, so the chunked,
killed-and-resumed run produces byte-identical probabilities to an
uninterrupted one.

Both samplers also accept ``store``: a persistent
:class:`~repro.dse.store.ResultStore` that keeps classified rng-stream
*segments* keyed by the sampler fingerprint (minus the sample total)
plus the segment's ``(start, count)`` position. A re-run of the same
configuration — even asking for *more* samples — replays the stored
prefix byte-identically (each segment carries the post-segment
generator state, which is the only way to continue a data-dependent
draw like the lognormal ziggurat) and only draws what the store has
never seen. Segments are cut at ``checkpoint_every`` boundaries, so a
reader with a different ``checkpoint_every`` conservatively recomputes
rather than risking a misaligned splice.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.batch import category_counts, classify_arrays
from ..core.classify import Sustainability
from ..core.design import DesignPoint
from ..core.errors import CheckpointError, ConfigurationError, ValidationError
from ..core.scenario import E2OWeight
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.log import get_logger, kv
from ..resilience.checkpoint import CheckpointStore
from ..resilience.policy import RetryPolicy
from ..resilience.supervisor import SupervisedPool
from . import parallel as _parallel
from .store import ResultStore

__all__ = [
    "CategoryProbabilities",
    "sample_verdicts",
    "sample_measurement_noise",
    "CONVERGENCE_CHECKPOINTS",
]

#: How many running-mix checkpoints a traced sampler records (the
#: sample range is split into this many equal prefixes).
CONVERGENCE_CHECKPOINTS = 10


@dataclass(frozen=True, slots=True)
class CategoryProbabilities:
    """Empirical probability of each sustainability category."""

    samples: int
    strong: float
    weak: float
    less: float
    neutral: float

    @property
    def most_likely(self) -> Sustainability:
        best = max(
            (
                (self.strong, Sustainability.STRONG),
                (self.weak, Sustainability.WEAK),
                (self.less, Sustainability.LESS),
                (self.neutral, Sustainability.NEUTRAL),
            ),
            key=lambda pair: pair[0],
        )
        return best[1]


def _probabilities_from_codes(
    codes: np.ndarray, samples: int
) -> CategoryProbabilities:
    counts = category_counts(codes)
    return CategoryProbabilities(
        samples=samples,
        strong=counts[Sustainability.STRONG] / samples,
        weak=counts[Sustainability.WEAK] / samples,
        less=counts[Sustainability.LESS] / samples,
        neutral=counts[Sustainability.NEUTRAL] / samples,
    )


def _running_mix(
    codes: np.ndarray, checkpoints: int = CONVERGENCE_CHECKPOINTS
) -> list[dict[str, object]]:
    """The running category mix at evenly spaced sample prefixes.

    Convergence telemetry for traced runs: each row holds the empirical
    category probabilities over the first *k* samples, so a trace shows
    whether 100k samples were 10x too many or not nearly enough. Pure
    observation — the final verdict probabilities are untouched.
    """
    samples = int(codes.size)
    checkpoints = max(1, min(checkpoints, samples))
    marks = sorted({round(samples * (i + 1) / checkpoints) for i in range(checkpoints)})
    rows: list[dict[str, object]] = []
    for k in marks:
        prefix = _probabilities_from_codes(codes[:k], k)
        rows.append(
            {
                "samples": k,
                "strong": prefix.strong,
                "weak": prefix.weak,
                "less": prefix.less,
                "neutral": prefix.neutral,
            }
        )
    return rows


def _observed_from_codes(
    codes: np.ndarray,
    samples: int,
    sampler: str,
    start_s: float,
    span_,
    registry: _metrics.MetricsRegistry,
) -> CategoryProbabilities:
    """Histogram pre-classified codes; record throughput + convergence."""
    result = _probabilities_from_codes(codes, samples)
    seconds = time.perf_counter() - start_s
    if span_ is not _trace.NULL_SPAN:
        span_.set(
            seconds=seconds,
            samples_per_s=samples / seconds if seconds > 0 else float("inf"),
            most_likely=result.most_likely.value,
            convergence=_running_mix(codes),
        )
    if registry.enabled:
        labels = {"sampler": sampler}
        registry.counter(
            "focal_mc_samples_total", "Monte-Carlo samples classified", labels
        ).inc(samples)
        registry.gauge(
            "focal_mc_samples_per_s", "samples per second, last sampler call", labels
        ).set(samples / seconds if seconds > 0 else 0.0)
    return result


def _point_fields(point: DesignPoint) -> dict:
    """A design point as bit-exact JSON-able fields (for fingerprints)."""
    return {
        "name": point.name,
        "area": point.area.hex(),
        "perf": point.perf.hex(),
        "power": point.power.hex(),
    }


#: Smallest sample span the guided scheduler will dispatch — the
#: planner's "chunk", so the shrinking tail never degenerates into
#: single-sample futures. Any span geometry is safe for both samplers:
#: verdict shards position their generators per span with ``advance``
#: and noise shards receive parent-drawn noise slices, so the
#: concatenated codes are byte-identical to the serial draw.
_MC_MIN_SPAN = 64


def _verdict_shard(job: tuple) -> np.ndarray:
    """Worker-side draw+classify for one ``sample_verdicts`` shard.

    The shard's generator is positioned on the run's single logical
    stream with ``bit_generator.advance`` — each uniform double
    consumes exactly one PCG64 state step, so a shard starting at
    sample *start* advances by *start* and then draws its own span.
    The concatenated shard codes are byte-identical to one sequential
    draw. (A degenerate band, ``hi == lo``, consumes no states at all.)
    """
    seed, start, count, lo, hi, area, energy, power = job
    buf = _events.get_buffer()
    t0 = buf.now() if buf.enabled else 0.0
    if hi > lo:
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(start)
        alphas = rng.uniform(lo, hi, size=count)
    else:
        alphas = np.full(count, lo)
    ncf_fw = alphas * area + (1.0 - alphas) * energy
    ncf_ft = alphas * area + (1.0 - alphas) * power
    codes = classify_arrays(ncf_fw, ncf_ft)
    if buf.enabled:
        # Spill-only transport: the reply stays a bare codes array so
        # checkpointed streams remain bit-exact at any worker count.
        buf.add(
            "mc.shard",
            start=t0,
            dur_s=buf.now() - t0,
            sampler="sample_verdicts",
            samples=count,
        )
        buf.drain()
    return codes


def _noise_shard(job: tuple) -> np.ndarray:
    """Worker-side classify for one ``sample_measurement_noise`` shard.

    Lognormal draws go through the ziggurat algorithm, whose state
    consumption is data-dependent — ``advance`` cannot position a
    shard on the stream. The parent therefore draws the noise
    sequentially (bit-identical to the serial path by construction)
    and ships each shard's noise columns here for the NCF + classify
    arithmetic.
    """
    noise, alpha, area_ratio, energy_ratio, power_ratio = job
    buf = _events.get_buffer()
    t0 = buf.now() if buf.enabled else 0.0
    area = area_ratio * noise[:, 0]
    energy = energy_ratio * noise[:, 1]
    power = power_ratio * noise[:, 2]
    ncf_fw = alpha * area + (1.0 - alpha) * energy
    ncf_ft = alpha * area + (1.0 - alpha) * power
    codes = classify_arrays(ncf_fw, ncf_ft)
    if buf.enabled:
        buf.add(
            "mc.shard",
            start=t0,
            dur_s=buf.now() - t0,
            sampler="sample_measurement_noise",
            samples=int(noise.shape[0]),
        )
        buf.drain()
    return codes


def _mc_pool(
    workers: int, resilience: RetryPolicy | None = None
) -> tuple["ProcessPoolExecutor | SupervisedPool | None", str | None]:
    """A sampler worker pool plus its event spill directory.

    ``(None, None)`` for serial runs. When the global event log is
    collecting, workers are armed through the pool initializer and
    their ``mc.shard`` events travel exclusively via the spill files —
    the reply arrays are untouched, keeping checkpoint streams
    bit-exact at any worker count.

    With a *resilience* policy the pool is a
    :class:`~repro.resilience.supervisor.SupervisedPool`: crashed or
    hung shard draws walk the same retry/respawn/degrade ladder sweeps
    use, and because shard jobs carry their own stream positions the
    recovered codes are byte-identical to the unfaulted run.
    """
    if not workers:
        return None, None
    capture = _events.get_log().enabled
    spill = _events.make_spill_dir() if capture else None
    if resilience is not None:
        return (
            SupervisedPool(
                workers,
                resilience,
                initializer=_events.init_worker,
                initargs=(capture, spill),
            ),
            spill,
        )
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_events.init_worker,
        initargs=(capture, spill),
    )
    return pool, spill


def _mc_map(pool, fn: Callable, jobs: list) -> list:
    """Shard fan-out on either pool flavour, preserving job order.

    Supervised pools dispatch one shard per future (``schedule="queue"``)
    so the executor's shared call queue doubles as the steal queue: an
    idle worker picks up the next pending shard the moment it finishes
    its own, matching the sweep engine's work-stealing scheduler.
    """
    if isinstance(pool, SupervisedPool):
        return pool.run(fn, jobs, schedule="queue")
    return list(pool.map(fn, jobs))


def _mc_wind_down(
    pool: "ProcessPoolExecutor | SupervisedPool | None", spill: str | None
) -> None:
    """Reap the sampler pool, then harvest and remove its spill files."""
    if pool is not None:
        pool.shutdown(cancel_futures=True)
    if spill is not None:
        _events.get_log().collect_spill(spill)
        _events.cleanup_spill_dir(spill)


def _checkpointed_codes(
    draw: Callable[[np.random.Generator, int, int], np.ndarray],
    *,
    samples: int,
    seed: int,
    checkpoint: "CheckpointStore | str | os.PathLike | None",
    resume: bool,
    checkpoint_every: int,
    fingerprint: dict,
    store: "ResultStore | str | os.PathLike | None" = None,
) -> tuple[np.ndarray, int]:
    """Draw+classify *samples* codes, chunk-checkpointing the stream.

    ``draw(rng, start, n)`` consumes exactly the generator variates an
    uninterrupted run would for samples ``[start, start + n)`` and
    returns their classification codes (*start* lets parallel draws
    position independent generators on the stream). Without a
    checkpoint or store the whole range is one draw; otherwise the
    stream advances ``checkpoint_every`` samples at a time, persisting
    codes + RNG state after each chunk. Either way the concatenated
    codes are identical — NumPy ``Generator`` streams do not depend on
    how the draw is split.

    With a persistent *store*, each segment is first looked up by
    ``(fingerprint minus samples, start, count)``: a hit adopts the
    stored codes and jumps the generator to the stored post-segment
    state instead of drawing; a miss draws and persists the segment.
    Returns ``(codes, store_samples)`` — the second element counts
    samples replayed from the store.
    """
    if checkpoint_every < 1:
        raise ValidationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    ckpt = CheckpointStore.coerce(checkpoint)
    if resume and ckpt is None:
        raise ConfigurationError(
            "resume=True requires a checkpoint path to resume from"
        )
    result_store = ResultStore.coerce(store)
    segment_fp: dict | None = None
    if result_store is not None:
        # The sample total is deliberately dropped: segments of a
        # 10k-sample run are a bit-exact prefix of a 100k-sample run of
        # the same configuration, so the longer run reuses them.
        segment_fp = {
            key: value for key, value in fingerprint.items() if key != "samples"
        }
        segment_fp["checkpoint_every"] = checkpoint_every
    rng = np.random.default_rng(seed)
    done: list[np.ndarray] = []
    drawn = 0
    reused = 0
    if ckpt is not None and resume:
        state = ckpt.load_or_restart(kind="montecarlo", fingerprint=fingerprint)
        if state is not None:
            codes = state.get("codes")
            rng_state = state.get("rng_state")
            if not isinstance(codes, list) or len(codes) > samples:
                raise CheckpointError(
                    f"checkpoint {ckpt.path} records "
                    f"{len(codes) if isinstance(codes, list) else '?'} codes "
                    f"for a {samples}-sample run"
                )
            if codes:
                done.append(np.asarray(codes, dtype=np.int8))
                drawn = len(codes)
                rng.bit_generator.state = rng_state
    step = (
        samples if ckpt is None and result_store is None else checkpoint_every
    )
    while drawn < samples:
        count = min(step, samples - drawn)
        segment = (
            result_store.load_segment(segment_fp, drawn, count)
            if result_store is not None
            else None
        )
        if segment is not None:
            codes_arr, rng_state = segment
            rng.bit_generator.state = rng_state
            reused += count
        else:
            codes_arr = draw(rng, drawn, count)
            if result_store is not None:
                result_store.save_segment(
                    segment_fp, drawn, count, codes_arr,
                    rng.bit_generator.state,
                )
        done.append(codes_arr)
        drawn += count
        if ckpt is not None:
            try:
                ckpt.save(
                    kind="montecarlo",
                    fingerprint=fingerprint,
                    state={
                        "codes": np.concatenate(done).tolist(),
                        "rng_state": rng.bit_generator.state,
                    },
                )
            except CheckpointError as exc:
                # A dead checkpoint must not kill a live draw: keep
                # sampling without persistence.
                get_logger().warning(
                    kv(
                        "checkpoint.disabled",
                        path=str(ckpt.path),
                        error=str(exc),
                    )
                )
                ckpt = None
    return (done[0] if len(done) == 1 else np.concatenate(done)), reused


def sample_verdicts(
    design: DesignPoint,
    baseline: DesignPoint,
    weight: E2OWeight,
    *,
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 0,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    resume: bool = False,
    checkpoint_every: int = 4096,
    store: "ResultStore | str | os.PathLike | None" = None,
    resilience: RetryPolicy | None = None,
) -> CategoryProbabilities:
    """Sample alpha uniformly over the weight band and classify.

    For a fixed design pair the verdict only depends on alpha through
    the two NCF values, so this directly measures how often the
    conclusion would flip within the uncertainty band.

    With ``workers > 0`` the draw fans out over a process pool in
    contiguous sample spans: each shard positions an independent
    generator on the run's single logical stream via
    ``bit_generator.advance`` (uniform doubles consume one PCG64 state
    each), so the concatenated codes — and hence the probabilities —
    are byte-identical to the serial run. ``workers`` is deliberately
    absent from the checkpoint fingerprint: a checkpoint written at any
    worker count resumes at any other.

    ``checkpoint``/``resume``/``checkpoint_every`` enable crash-safe
    chunked sampling, and ``store`` persistent cross-run segment reuse
    (see the module docs); results are bit-identical with or without
    them. A ``resilience`` policy supervises the shard pool (crash
    retry, heartbeat watchdog, respawn) — recovered draws stay
    byte-identical because every shard job carries its own stream
    position.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if workers < 0:
        raise ValidationError(f"workers must be >= 0, got {workers}")
    registry = _metrics.get_registry()
    with _trace.span(
        "mc.sample_verdicts",
        samples=samples,
        seed=seed,
        workers=workers,
        design=design.name,
        baseline=baseline.name,
        weight=weight.name,
    ) as sp:
        start_s = time.perf_counter()
        lo, hi = weight.band
        area = design.area_ratio(baseline)
        energy = design.energy_ratio(baseline)
        power = design.power_ratio(baseline)
        pool, spill = _mc_pool(workers, resilience)

        def draw(rng: np.random.Generator, start: int, count: int) -> np.ndarray:
            if pool is not None and count > 1:
                jobs = [
                    (seed, start + span_lo, span_hi - span_lo,
                     lo, hi, area, energy, power)
                    for span_lo, span_hi in _parallel.plan_steal_runs(
                        [(0, count)], _MC_MIN_SPAN, workers
                    )
                ]
                parts = _mc_map(pool, _verdict_shard, jobs)
                # Keep the parent's generator exactly where a serial
                # draw would have left it (checkpoint states match).
                if hi > lo:
                    rng.bit_generator.advance(count)
                return np.concatenate(parts)
            alphas = (
                rng.uniform(lo, hi, size=count)
                if hi > lo
                else np.full(count, lo)
            )
            ncf_fw = alphas * area + (1.0 - alphas) * energy
            ncf_ft = alphas * area + (1.0 - alphas) * power
            return classify_arrays(ncf_fw, ncf_ft)

        try:
            codes, store_samples = _checkpointed_codes(
                draw,
                samples=samples,
                seed=seed,
                checkpoint=checkpoint,
                resume=resume,
                checkpoint_every=checkpoint_every,
                fingerprint={
                    "sampler": "sample_verdicts",
                    "design": _point_fields(design),
                    "baseline": _point_fields(baseline),
                    "band": [float(lo).hex(), float(hi).hex()],
                    "samples": samples,
                    "seed": seed,
                },
                store=store,
            )
        finally:
            _mc_wind_down(pool, spill)
        if store is not None and sp is not _trace.NULL_SPAN:
            sp.set(store_samples=store_samples)
        return _observed_from_codes(
            codes, samples, "sample_verdicts", start_s, sp, registry
        )


def sample_measurement_noise(
    design: DesignPoint,
    baseline: DesignPoint,
    alpha: float,
    *,
    relative_sigma: float = 0.1,
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 0,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    resume: bool = False,
    checkpoint_every: int = 4096,
    store: "ResultStore | str | os.PathLike | None" = None,
    resilience: RetryPolicy | None = None,
) -> CategoryProbabilities:
    """Verdict robustness to *measurement* uncertainty (paper §2).

    The paper's whole premise is that inputs are uncertain: area,
    energy and power figures come from McPAT runs, vendor claims and
    annotated die shots. This samples lognormal multiplicative noise of
    the given relative sigma on each of the design's three ratios
    (independently) at a fixed alpha, and reports how often the
    sustainability verdict survives.

    With ``workers > 0`` the NCF + classification arithmetic fans out
    over a process pool in contiguous sample spans. The lognormal draw
    itself stays sequential in the parent — ziggurat sampling consumes
    a data-dependent number of generator states, so shards cannot be
    positioned on the stream with ``advance`` the way
    :func:`sample_verdicts` shards are. Results and checkpoint states
    are byte-identical at any worker count, and ``workers`` is absent
    from the checkpoint fingerprint.

    ``checkpoint``/``resume``/``checkpoint_every`` enable crash-safe
    chunked sampling, and ``store`` persistent cross-run segment reuse
    (the stored post-segment generator state is what makes this work
    for the ziggurat's data-dependent stream consumption — see the
    module docs); results are bit-identical with or without them. A
    ``resilience`` policy supervises the shard pool exactly as in
    :func:`sample_verdicts`.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if relative_sigma < 0.0:
        raise ValidationError(f"relative_sigma must be >= 0, got {relative_sigma}")
    if workers < 0:
        raise ValidationError(f"workers must be >= 0, got {workers}")
    registry = _metrics.get_registry()
    with _trace.span(
        "mc.sample_measurement_noise",
        samples=samples,
        seed=seed,
        workers=workers,
        design=design.name,
        baseline=baseline.name,
        alpha=alpha,
        relative_sigma=relative_sigma,
    ) as sp:
        start_s = time.perf_counter()
        # Lognormal with median 1: exp(N(0, sigma_log)). For small sigma the
        # log-sigma approximates the relative sigma.
        sigma_log = np.log1p(relative_sigma)
        area_ratio = design.area_ratio(baseline)
        energy_ratio = design.energy_ratio(baseline)
        power_ratio = design.power_ratio(baseline)
        pool, spill = _mc_pool(workers, resilience)

        def draw(rng: np.random.Generator, start: int, count: int) -> np.ndarray:
            noise = rng.lognormal(mean=0.0, sigma=sigma_log, size=(count, 3))
            if pool is not None and count > 1:
                jobs = [
                    (noise[span_lo:span_hi], alpha,
                     area_ratio, energy_ratio, power_ratio)
                    for span_lo, span_hi in _parallel.plan_steal_runs(
                        [(0, count)], _MC_MIN_SPAN, workers
                    )
                ]
                return np.concatenate(_mc_map(pool, _noise_shard, jobs))
            area = area_ratio * noise[:, 0]
            energy = energy_ratio * noise[:, 1]
            power = power_ratio * noise[:, 2]
            ncf_fw = alpha * area + (1.0 - alpha) * energy
            ncf_ft = alpha * area + (1.0 - alpha) * power
            return classify_arrays(ncf_fw, ncf_ft)

        try:
            codes, store_samples = _checkpointed_codes(
                draw,
                samples=samples,
                seed=seed,
                checkpoint=checkpoint,
                resume=resume,
                checkpoint_every=checkpoint_every,
                fingerprint={
                    "sampler": "sample_measurement_noise",
                    "design": _point_fields(design),
                    "baseline": _point_fields(baseline),
                    "alpha": float(alpha).hex(),
                    "relative_sigma": float(relative_sigma).hex(),
                    "samples": samples,
                    "seed": seed,
                },
                store=store,
            )
        finally:
            _mc_wind_down(pool, spill)
        if store is not None and sp is not _trace.NULL_SPAN:
            sp.set(store_samples=store_samples)
        return _observed_from_codes(
            codes, samples, "sample_measurement_noise", start_s, sp, registry
        )
