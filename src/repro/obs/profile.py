"""Bottleneck attribution for parallel sweeps: ``focal profile``.

Answers the question the parallel-columnar benchmark raised: the pool
landed well short of ``workers``-fold speedup — *where did the rest
go?* Given a trace report with worker events (a run captured with
``focal --trace`` or :func:`repro.obs.enable`), the profiler
decomposes the sweep's wall-clock into five mutually exclusive,
collectively exhaustive categories:

``compute``
    Worker CPU seconds inside ``factory.batch_arrays`` (per-thread CPU
    time, so a worker waiting for a CPU on an oversubscribed host does
    not count), divided by the worker count — the part that scales.
``shm``
    Worker seconds writing result columns into the shared block.
``dispatch``
    Pool overhead attributed to workers: shard time that is neither
    compute nor shm (pickling columns in/out, queue handoff, and the
    time a runnable worker waited for a CPU when the pool has more
    workers than the host has CPUs) plus the idle gaps between one
    shard ending and the next starting inside a worker's busy window.
``straggler``
    Kernel-phase time where a worker had no shard at all — the lead-in
    before its first shard, the tail after its last (waiting for the
    slowest sibling), and the whole kernel phase for planned workers
    that never reported an event.
``serial``
    The parent-serial residue outside the kernel phase: grid chunking,
    shared-memory setup, point materialization, cache fills,
    classification, checkpoint writes.

The identity that makes the report trustworthy: *serial* is
``wall − kernel`` and the four worker categories tile ``kernel`` ×
``workers`` worker-seconds exactly, so after dividing by ``workers``
the five categories sum to the sweep wall-clock (shares sum to 100%).

On top of the decomposition the report derives per-worker utilization
(compute CPU seconds / kernel wall) and an Amdahl-style attainable
speedup: with serial time ``s`` and total compute ``c``, a perfect
``N``-worker run takes ``s + c/N`` against a serial ``s + c`` — the
ceiling the current pool should be measured against. ``N`` is the
number of workers that can compute at once: ``min(workers, CPUs)``,
the CPU count taken from the trace manifest's node roster, since
workers beyond the host's CPUs only take turns.

Sweeps recorded with reuse telemetry (any store-backed run) also carry
a point-provenance section: how many grid points the store served from
memory and from disk, the in-process factory memo, and fresh
evaluation — so a "suspiciously fast" sweep is explained rather than
mis-attributed to compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ValidationError
from ..report.table import format_mapping_rows, format_table

__all__ = ["WorkerProfile", "ProfileReport", "profile_report", "render_profile"]

#: Category keys, display order.
CATEGORIES = ("compute", "shm", "dispatch", "straggler", "serial")


@dataclass(frozen=True)
class WorkerProfile:
    """One worker's share of the kernel phase."""

    worker: int
    shards: int
    compute_s: float
    shm_s: float
    active_s: float
    window_s: float
    utilization: float


@dataclass(frozen=True)
class ProfileReport:
    """The full attribution of one sweep's wall-clock."""

    wall_s: float
    kernel_s: float
    workers: int
    observed_workers: int
    seconds: dict[str, float]
    shares: dict[str, float]
    per_worker: tuple[WorkerProfile, ...]
    serial_s: float
    compute_total_s: float
    amdahl_attainable: float
    achieved_speedup_estimate: float
    #: Point-provenance split when the sweep ran with reuse telemetry
    #: (memo/store/fresh counts from the sweep span attributes); None
    #: for traces recorded before the result store existed.
    reuse: dict | None = None
    #: The recording host's CPU count (manifest node roster), when known.
    cpus: int | None = None
    top_cost: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "top_cost", max(self.seconds, key=self.seconds.__getitem__)
        )


def _find_span(spans: list[dict], name: str) -> dict | None:
    """Depth-first search of the span forest for the first *name*."""
    for span in spans:
        if span.get("name") == name:
            return span
        found = _find_span(list(span.get("children", ())), name)
        if found is not None:
            return found
    return None


def profile_report(report: dict) -> ProfileReport:
    """Attribute a traced parallel sweep's wall-clock (see module docs).

    *report* is the parsed trace-report document. Raises
    :class:`~repro.core.errors.ValidationError` when the report has no
    parallel sweep or no worker events to attribute from.
    """
    trace = report.get("trace") if isinstance(report, dict) else None
    if not isinstance(trace, list):
        raise ValidationError("not a trace report: no span tree to profile")
    sweep = _find_span(trace, "sweep")
    if sweep is None or sweep.get("duration_s") is None:
        raise ValidationError(
            "no completed 'sweep' span in this report — profile a run of "
            "focal sweep --workers N --trace FILE"
        )
    attrs = sweep.get("attributes", {}) or {}
    reuse = _reuse_split(attrs)
    kernels = _find_span(list(sweep.get("children", ())), "kernels")
    workers = int(attrs.get("workers", 0) or 0)
    if kernels is None or kernels.get("duration_s") is None or workers < 1:
        detail = (
            "this sweep has no kernel phase to attribute — the profiler "
            "needs a parallel-columnar run (workers > 0, a vector factory)"
        )
        if reuse is not None and not reuse["fresh"]:
            detail += (
                f"; this run was served entirely from reuse "
                f"({reuse['store_memory'] + reuse['store_disk']} store pts, "
                f"{reuse['memo']} memoized) — nothing was evaluated"
            )
        raise ValidationError(detail)
    shards = [
        row
        for row in report.get("events", []) or []
        if row.get("name") == "shard" and isinstance(row.get("t_rel"), (int, float))
    ]
    if not shards:
        raise ValidationError(
            "no worker shard events in this report — capture one with "
            "worker-event telemetry enabled (focal --trace does)"
        )

    wall = float(sweep["duration_s"])
    k_start = float(kernels.get("start_s") or 0.0)
    k_dur = float(kernels["duration_s"])
    k_end = k_start + k_dur

    by_worker: dict[int, list[dict]] = {}
    for row in shards:
        by_worker.setdefault(int(row.get("worker", 0)), []).append(row)

    per_worker: list[WorkerProfile] = []
    sum_compute = sum_shm = sum_active = sum_window = 0.0
    for worker, rows in sorted(by_worker.items()):
        compute = sum(float(r.get("attrs", {}).get("compute_s", 0.0)) for r in rows)
        shm = sum(float(r.get("attrs", {}).get("shm_s", 0.0)) for r in rows)
        active = sum(float(r.get("dur_s") or 0.0) for r in rows)
        # Clamp the busy window to the kernel phase: worker clocks are
        # wall-aligned but independent, so a few ms of skew must not
        # manufacture negative straggler time.
        lo = max(k_start, min(float(r["t_rel"]) for r in rows))
        hi = min(k_end, max(float(r["t_rel"]) + float(r.get("dur_s") or 0.0) for r in rows))
        window = max(0.0, hi - lo)
        active = min(active, window) if window else active
        compute = min(compute, active)
        shm = min(shm, max(0.0, active - compute))
        per_worker.append(
            WorkerProfile(
                worker=worker,
                shards=len(rows),
                compute_s=compute,
                shm_s=shm,
                active_s=active,
                window_s=window,
                utilization=compute / k_dur if k_dur > 0 else 0.0,
            )
        )
        sum_compute += compute
        sum_shm += shm
        sum_active += active
        sum_window += window

    observed = len(per_worker)
    n = max(workers, 1)
    serial = max(0.0, wall - k_dur)
    # Worker-seconds tiling of the kernel phase, then /N to wall units:
    # compute + shm + (active - compute - shm) + (window - active)
    # + (K - window) per observed worker, plus K per missing worker.
    dispatch_ws = (sum_active - sum_compute - sum_shm) + (sum_window - sum_active)
    straggler_ws = (observed * k_dur - sum_window) + (n - observed) * k_dur
    seconds = {
        "compute": sum_compute / n,
        "shm": sum_shm / n,
        "dispatch": max(0.0, dispatch_ws) / n,
        "straggler": max(0.0, straggler_ws) / n,
        "serial": serial,
    }
    # Clock skew can clamp a few worker-seconds away; fold the rounding
    # remainder into straggler so the categories tile the wall exactly.
    remainder = wall - sum(seconds.values())
    seconds["straggler"] = max(0.0, seconds["straggler"] + remainder)
    total = sum(seconds.values()) or 1.0
    shares = {key: value / total for key, value in seconds.items()}

    cpus = ((report.get("manifest") or {}).get("node") or {}).get("cpu_count")
    cpus = cpus if isinstance(cpus, int) and cpus >= 1 else None
    serial_ideal = serial + sum_shm / n  # shm does not parallel-scale away
    t1 = serial + sum_compute
    t_n_ideal = serial_ideal + sum_compute / min(n, cpus or n)
    return ProfileReport(
        wall_s=wall,
        kernel_s=k_dur,
        workers=workers,
        observed_workers=observed,
        seconds=seconds,
        shares=shares,
        per_worker=tuple(per_worker),
        serial_s=serial,
        compute_total_s=sum_compute,
        amdahl_attainable=t1 / t_n_ideal if t_n_ideal > 0 else 0.0,
        achieved_speedup_estimate=t1 / wall if wall > 0 else 0.0,
        reuse=reuse,
        cpus=cpus,
    )


def _reuse_split(attrs: dict) -> dict | None:
    """The sweep's point-provenance split, when its span recorded one.

    ``store_points`` only lands on the span for store-backed sweeps, so
    its presence is the signal that the reuse telemetry exists at all.
    """
    if "store_points" not in attrs:
        return None
    return {
        "store_memory": int(attrs.get("store_memory_points", 0) or 0),
        "store_disk": int(attrs.get("store_disk_points", 0) or 0),
        "memo": int(attrs.get("memo_points", 0) or 0),
        "fresh": int(attrs.get("fresh_points", 0) or 0),
        "store_chunks": int(attrs.get("store_chunks", 0) or 0),
        "delta_chunks": int(attrs.get("delta_chunks", 0) or 0),
        "reuse_ratio": float(attrs.get("store_reuse_ratio", 0.0) or 0.0),
    }


def render_profile(profile: ProfileReport) -> str:
    """The ``focal profile`` page: attribution, per-worker rows, verdict."""
    attribution = format_mapping_rows(
        [
            {
                "category": key,
                "seconds": f"{profile.seconds[key]:.4f}",
                "share": f"{100.0 * profile.shares[key]:.1f}%",
            }
            for key in CATEGORIES
        ],
        title=(
            f"wall-clock attribution ({profile.wall_s:.3f} s over "
            f"{profile.workers} workers)"
        ),
    )
    worker_rows = format_table(
        ["worker", "shards", "compute_s", "shm_s", "active_s", "util"],
        [
            [
                w.worker,
                w.shards,
                f"{w.compute_s:.4f}",
                f"{w.shm_s:.4f}",
                f"{w.active_s:.4f}",
                f"{w.utilization:.0%}",
            ]
            for w in profile.per_worker
        ],
        title="per-worker kernel phase",
    )
    share = profile.shares[profile.top_cost]
    on = f"{profile.workers} workers"
    if profile.cpus is not None and profile.cpus < profile.workers:
        on += f" on {profile.cpus} CPUs"
    lines = [
        f"top cost center: {profile.top_cost} "
        f"({100.0 * share:.1f}% of wall-clock)",
        (
            f"speedup: ~{profile.achieved_speedup_estimate:.2f}x achieved vs "
            f"~{profile.amdahl_attainable:.2f}x attainable with {on} "
            "(Amdahl bound over the serial residue)"
        ),
    ]
    if profile.observed_workers < profile.workers:
        lines.append(
            f"note: only {profile.observed_workers} of {profile.workers} "
            "planned workers reported shard events"
        )
    sections = [attribution, worker_rows]
    if profile.reuse is not None:
        reuse = profile.reuse
        total = (
            reuse["store_memory"]
            + reuse["store_disk"]
            + reuse["memo"]
            + reuse["fresh"]
        ) or 1
        reuse_rows = format_mapping_rows(
            [
                {
                    "source": label,
                    "points": reuse[key],
                    "share": f"{100.0 * reuse[key] / total:.1f}%",
                }
                for label, key in (
                    ("store (memory)", "store_memory"),
                    ("store (disk)", "store_disk"),
                    ("memoized", "memo"),
                    ("fresh", "fresh"),
                )
            ],
            title=(
                f"point provenance ({reuse['store_chunks']} whole chunks "
                f"from the store, {reuse['delta_chunks']} stitched delta "
                "chunks)"
            ),
        )
        sections.append(reuse_rows)
    sections.append("\n".join(lines))
    return "\n\n".join(sections)
