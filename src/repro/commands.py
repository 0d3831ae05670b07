"""The ``focal`` commands beyond the paper's figures and findings.

:mod:`repro.cli` parses every command but runs only ``list``,
``figure`` and ``findings`` itself; it imports this module for the
others and for writing ``--trace``/``--metrics`` output, so the paper
path never compiles the engine commands' code.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .obs import events as obs_events
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .report.table import format_mapping_rows

__all__ = ["run", "write_observability"]


def run(args: argparse.Namespace) -> int:
    """Run the parsed command *args* names; returns its exit code."""
    if args.command == "version":
        return _cmd_version()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "compare":
        return _cmd_compare(args.x, args.y, args.alpha)
    if args.command == "roadmap":
        return _cmd_roadmap(args.generations, args.cores, args.parallel_fraction)
    if args.command == "sweep":
        return _cmd_sweep(
            args.max_cores,
            args.fractions,
            args.regime,
            args.workers,
            args.chunk_size,
            args.pareto,
            args.checkpoint,
            args.resume,
            args.store,
            args.quarantine,
            args.salvage,
        )
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "advise":
        return _cmd_advise(args.workload, args.regime)
    if args.command == "mechanisms":
        return _cmd_mechanisms()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _cmd_version() -> int:
    import os
    import platform

    import numpy

    from . import __version__

    print(
        f"focal {__version__} "
        f"(python {platform.python_version()}, numpy {numpy.__version__})"
    )
    print(
        f"platform: {platform.platform()} "
        f"[{platform.machine() or 'unknown'}, {os.cpu_count() or 1} cpus]"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "show":
        from .obs.show import render_report_file

        print(render_report_file(args.file))
        return 0
    if args.trace_command == "export":
        from pathlib import Path

        from .obs.chrome import report_to_chrome
        from .obs.show import load_report

        report = load_report(args.file)
        source = Path(args.file)
        out = Path(args.out) if args.out else source.with_suffix(".chrome.json")
        out.write_text(report_to_chrome(report) + "\n")
        print(f"wrote {out}")
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}"
    )  # pragma: no cover


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core.errors import ConfigurationError
    from .obs.profile import profile_report, render_profile

    if args.bench:
        report = _profile_bench_report(args)
    elif args.file:
        from .obs.show import load_report

        report = load_report(args.file)
    else:
        raise ConfigurationError(
            "focal profile needs a trace report FILE (from a run with "
            "--trace and --workers N) or --bench to record one now"
        )
    print(render_profile(profile_report(report)))
    return 0


def _profile_bench_report(args: argparse.Namespace) -> dict:
    """Run one traced parallel-columnar sweep and return its report.

    The workload is the engine benchmark's iterative fixed-point
    factory at the benchmark's default operating point (overridable via
    ``--cores/--fractions/--iters/--workers/--chunk-size``), so
    ``focal profile --bench`` explains the same run the recorded
    ``BENCH_dse.json`` speedups come from.

    When the command already runs under ``--trace``, the sweep lands in
    that session (and in its report file); otherwise a private
    observability session is armed for the sweep and reset afterwards.
    """
    from .core.design import DesignPoint
    from .core.scenario import EMBODIED_DOMINATED
    from .dse.batch import BatchExplorer
    from .dse.factories import IterativeFixedPointFactory
    from .dse.grid import ParameterGrid, linear_range
    from .obs.manifest import build_manifest, build_report
    from .resilience import DEFAULT_POLICY

    tracer = obs_trace.get_tracer()
    private_session = not tracer.enabled
    if private_session:
        obs_trace.reset()
        obs_metrics.reset()
        obs_events.reset()
        obs_trace.enable()
        obs_metrics.enable()
        obs_events.enable()
        tracer = obs_trace.get_tracer()
    try:
        grid = ParameterGrid(
            {
                "cores": [float(c) for c in range(1, args.cores + 1)],
                "f": linear_range(0.50, 0.99, args.fractions),
            }
        )
        explorer = BatchExplorer(
            factory=IterativeFixedPointFactory(iters=args.iters),
            baseline=DesignPoint.baseline("1-BCE single core"),
            weight=EMBODIED_DOMINATED,
            chunk_size=args.chunk_size,
            workers=args.workers,
            resilience=DEFAULT_POLICY if args.workers else None,
        )
        start_s = time.perf_counter()
        sweep = explorer.explore_arrays(grid)
        duration_s = time.perf_counter() - start_s
        print(
            f"benchmark sweep: {len(sweep)} designs in {duration_s:.3f} s "
            f"({args.workers} workers, chunk {args.chunk_size})\n",
            file=sys.stderr,
        )
        manifest = build_manifest(
            ["profile", "--bench"],
            command="profile",
            tracer=tracer,
            duration_s=duration_s,
        )
        return build_report(
            manifest,
            tracer=tracer,
            registry=obs_metrics.get_registry(),
            events=obs_events.get_log(),
        )
    finally:
        if private_session:
            obs_trace.reset()
            obs_metrics.reset()
            obs_events.reset()


def _cmd_compare(x: list[float], y: list[float], alpha: float | None) -> int:
    from .core.classify import classify
    from .core.design import DesignPoint
    from .core.scenario import STANDARD_WEIGHTS

    design_x = DesignPoint("X", area=x[0], perf=x[1], power=x[2])
    design_y = DesignPoint("Y", area=y[0], perf=y[1], power=y[2])
    alphas = (
        [(f"alpha={alpha:g}", alpha)]
        if alpha is not None
        else [(w.name, w.alpha) for w in STANDARD_WEIGHTS]
    )
    rows = []
    for label, value in alphas:
        verdict = classify(design_x, design_y, value)
        rows.append(
            {
                "regime": label,
                "alpha": value,
                "NCF_fw": verdict.ncf_fixed_work,
                "NCF_ft": verdict.ncf_fixed_time,
                "verdict": verdict.category.value,
            }
        )
    print(
        format_mapping_rows(
            rows,
            title=(
                f"X(area={x[0]:g}, perf={x[1]:g}, power={x[2]:g}) vs "
                f"Y(area={y[0]:g}, perf={y[1]:g}, power={y[2]:g})"
            ),
        )
    )
    return 0


def _cmd_roadmap(generations: int, cores: int, parallel_fraction: float) -> int:
    from .core.scenario import UseScenario
    from .technode.roadmap import RoadmapPolicy, roadmap

    for policy in RoadmapPolicy:
        points = roadmap(
            policy,
            generations,
            start_cores=cores,
            parallel_fraction=parallel_fraction,
        )
        rows = [
            {
                "gen": p.generation,
                "cores": p.cores,
                "embodied": p.embodied,
                "perf": p.perf,
                "power": p.power,
                "NCF_fw(0.5)": p.ncf(UseScenario.FIXED_WORK, 0.5),
                "NCF_ft(0.5)": p.ncf(UseScenario.FIXED_TIME, 0.5),
            }
            for p in points
        ]
        print(format_mapping_rows(rows, title=f"policy: {policy.value}"))
        print()
    return 0


def _cmd_mechanisms() -> int:
    from .studies.mechanisms import mechanism_catalogue

    entries = mechanism_catalogue()
    rows = [entry.as_dict() for entry in entries]
    print(
        format_mapping_rows(
            rows,
            columns=["mechanism", "section", "regime", "ncf_fw", "ncf_ft", "computed", "match"],
            title="Archetypal mechanisms: strong/weak/less categorization (paper §5-§6)",
        )
    )
    mismatches = [e for e in entries if not e.matches_paper]
    print(f"\n{len(entries) - len(mismatches)}/{len(entries)} categories match the paper")
    return 1 if mismatches else 0


def _cmd_sweep(
    max_cores: int,
    fractions: list[float],
    regime: str,
    workers: "int | str",
    chunk_size: int,
    pareto: bool,
    checkpoint: str | None = None,
    resume: bool = False,
    store: str | None = None,
    quarantine: str | None = None,
    salvage: bool = False,
) -> int:
    import dataclasses

    from .core.design import DesignPoint
    from .core.scenario import BALANCED, EMBODIED_DOMINATED, OPERATIONAL_DOMINATED
    from .dse.batch import BatchExplorer
    from .dse.factories import SymmetricMulticoreFactory
    from .dse.grid import ParameterGrid, geometric_range
    from .dse.store import ResultStore
    from .resilience import DEFAULT_POLICY

    weight = {
        "embodied": EMBODIED_DOMINATED,
        "operational": OPERATIONAL_DOMINATED,
        "balanced": BALANCED,
    }[regime]
    grid = ParameterGrid(
        {"cores": geometric_range(1, max_cores), "f": list(fractions)}
    )
    # A vector factory (frozen dataclass, picklable for --workers):
    # cold sweeps run columnar (parallel-columnar with --workers, grid
    # shards dispatched as row spans), warm re-sweeps hit the cache.
    # Worker runs are supervised: crashed or hung workers are retried,
    # the pool is respawned, and as a last resort evaluation degrades
    # in-process — the sweep finishes either way.
    policy = None
    if workers:
        policy = DEFAULT_POLICY
        if salvage:
            # Salvage replaces degradation: an irrecoverable pool hands
            # back the completed prefix instead of finishing in-process.
            policy = dataclasses.replace(
                DEFAULT_POLICY, salvage=True, degrade_in_process=False
            )
    explorer = BatchExplorer(
        factory=SymmetricMulticoreFactory(),
        baseline=DesignPoint.baseline("1-BCE single core"),
        weight=weight,
        chunk_size=chunk_size,
        workers=workers,
        resilience=policy,
    )
    result_store = ResultStore(store) if store else None
    sweep = explorer.explore_arrays(
        grid,
        checkpoint=checkpoint,
        resume=resume,
        store=result_store,
        quarantine=quarantine,
    )
    rows = [
        {"category": category.value, "points": count}
        for category, count in sweep.category_counts().items()
    ]
    print(
        format_mapping_rows(
            rows,
            title=(
                f"{len(sweep)} designs (cores <= {max_cores}, "
                f"f in {{{', '.join(f'{f:g}' for f in fractions)}}}) "
                f"vs 1-BCE single core under {weight.name}"
            ),
        )
    )
    stats = explorer.cache.stats()
    print(
        f"\ncache: {stats.size} entries, {stats.hits} hits / "
        f"{stats.misses} misses (hit ratio {stats.hit_ratio:.1%})"
    )
    if explorer.last_sweep is not None:
        print(explorer.last_sweep.summary())
    if result_store is not None:
        s = result_store.stats()
        print(
            f"store: {s.memory_hits} memory hits / {s.disk_hits} disk hits "
            f"/ {s.misses} misses, {s.objects_written} objects written "
            f"({s.bytes_written} bytes) in {store}"
        )
    supervision = explorer.last_supervision
    if supervision is not None and supervision.summary():
        print(supervision.summary())
    if sweep.quarantined:
        print(
            f"quarantine: {len(sweep.quarantined)} poison point(s) "
            f"excluded"
            + (f", ledger at {quarantine}" if quarantine else "")
        )
    if sweep.failure is not None:
        print(sweep.failure.summary())
    if pareto:
        from .core.pareto import ParetoPoint, pareto_frontier

        frontier = pareto_frontier(
            [
                ParetoPoint(name=design.name, perf=float(perf), footprint=float(fw))
                for design, perf, fw in zip(
                    sweep.designs, sweep.perf, sweep.ncf_fixed_work
                )
            ]
        )
        print()
        print(
            format_mapping_rows(
                [
                    {"design": p.name, "perf": p.perf, "NCF_fw": p.footprint}
                    for p in frontier
                ],
                title="Pareto frontier (max perf, min fixed-work NCF)",
            )
        )
    # Exit-code contract (see ``main``): a salvaged partial result
    # outranks quarantined points — the caller must know the sweep is
    # incomplete before caring which points were excluded.
    if sweep.failure is not None:
        return 3
    if sweep.quarantined:
        return 4
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import datetime

    from .dse.store import ResultStore

    store = ResultStore(args.dir)
    if args.store_command == "ls":
        rows = store.ls()
        if not rows:
            print(f"empty store: {args.dir}")
            return 0
        print(
            format_mapping_rows(
                [
                    {
                        "kind": row["kind"],
                        "fingerprint": row["fingerprint"],
                        "what": row["what"],
                        "entries": row["entries"],
                        "files": row["files"],
                        "bytes": row["bytes"],
                        "last_used": datetime.datetime.fromtimestamp(
                            row["last_used"]
                        ).strftime("%Y-%m-%d %H:%M:%S"),
                    }
                    for row in rows
                ],
                title=f"result store {args.dir} (oldest first)",
            )
        )
        return 0
    if args.store_command == "stat":
        info = store.stat()
        for key in (
            "root",
            "fingerprints",
            "sweep_fingerprints",
            "mc_fingerprints",
            "entries",
            "files",
            "bytes",
        ):
            print(f"{key}: {info[key]}")
        return 0
    if args.store_command == "gc":
        report = store.gc(max_bytes=args.max_bytes)
        print(
            f"gc {args.dir}: removed {report['removed_tmp']} temp files, "
            f"{report['removed_orphans']} orphaned files, "
            f"{report['removed_corrupt']} corrupt entries"
        )
        if report["evicted_fingerprints"]:
            print(
                "evicted (oldest first): "
                + ", ".join(report["evicted_fingerprints"])
            )
        print(f"freed {report['freed_bytes']} bytes, {report['bytes']} remain")
        return 0
    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _cmd_advise(workload_name: str, regime: str) -> int:
    from .core.scenario import EMBODIED_DOMINATED, OPERATIONAL_DOMINATED
    from .workloads.advisor import advise
    from .workloads.profiles import workload_by_name

    workload = workload_by_name(workload_name)
    weight = EMBODIED_DOMINATED if regime == "embodied" else OPERATIONAL_DOMINATED
    rows = [
        {
            "mechanism": rec.mechanism,
            "verdict": rec.category.value,
            "NCF_fw": rec.verdict.ncf_fixed_work,
            "NCF_ft": rec.verdict.ncf_fixed_time,
            "perf": rec.perf_ratio,
        }
        for rec in advise(workload, weight)
    ]
    print(
        format_mapping_rows(
            rows,
            title=(
                f"{workload.name} (f={workload.parallel_fraction:g}, "
                f"mem={workload.memory_time_share:g}, "
                f"accel={workload.accelerator_utilization:g}) under "
                f"{weight.name}"
            ),
        )
    )
    return 0


def write_observability(
    args: argparse.Namespace,
    argv: Sequence[str] | None,
    tracer: obs_trace.Tracer,
    trace_out: str | None,
    metrics_out: str | None,
    duration_s: float,
) -> None:
    """Write the run manifest + trace report and/or the metrics export
    of a ``--trace``/``--metrics`` run."""
    from .obs.manifest import build_manifest
    from .report.export import write_metrics, write_trace

    registry = obs_metrics.get_registry()
    if trace_out:
        manifest = build_manifest(
            list(argv) if argv is not None else sys.argv[1:],
            command=args.command,
            seed=getattr(args, "seed", None),
            tracer=tracer,
            duration_s=duration_s,
        )
        path = write_trace(
            trace_out,
            manifest=manifest,
            tracer=tracer,
            registry=registry,
            events=obs_events.get_log(),
        )
        print(f"wrote trace {path}", file=sys.stderr)
    if metrics_out:
        path = write_metrics(registry, metrics_out)
        print(f"wrote metrics {path}", file=sys.stderr)
