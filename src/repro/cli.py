"""Command-line interface: regenerate any paper figure or the findings
table from a terminal.

Examples
--------
::

    focal list
    focal figure figure3                  # ASCII charts for all panels
    focal figure figure6 --format csv
    focal figure figure9 --out fig9.json
    focal findings                        # the Findings #1-#17 table
    focal findings --failed-only
    focal sweep --max-cores 256 --trace trace.json --metrics run.prom
    focal sweep --max-cores 256 --store runs/store   # persistent reuse
    focal store ls runs/store             # stored fingerprints
    focal store gc runs/store --max-bytes 10000000
    focal trace show trace.json           # replay a traced run
    focal trace export trace.json --format chrome --out timeline.json
    focal profile trace.json              # bottleneck attribution
    focal profile --bench --workers 4     # trace + profile one sweep
    focal --log-level debug figure figure3

Every subcommand accepts the observability flags: ``--trace FILE``
records a run manifest + span tree, ``--metrics FILE`` exports the
metrics registry (``.prom``/``.txt`` → Prometheus text, otherwise
JSON-lines), and ``-v``/``--log-level`` raises the structured stderr
logging level. The flags are accepted both before and after the
subcommand name.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .obs import events as obs_events
from .obs import log as obs_log
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .obs.log import get_logger, kv
from .report.table import format_mapping_rows
from .studies.registry import run_study, study_names

__all__ = ["main", "build_parser"]


def _workers_arg(value: str) -> "int | str":
    """``--workers`` accepts a pool size or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError(f"workers must be >= 0, got {workers}")
    return workers


def _add_global_options(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    """The observability options every subcommand accepts.

    Added twice — on the root parser with real defaults and on each
    subparser with ``SUPPRESS`` defaults — so ``focal -v sweep`` and
    ``focal sweep -v`` both work: the subparser only overrides the
    root's value when the flag actually appears after the subcommand.
    """
    d = argparse.SUPPRESS if suppress else None
    group = parser.add_argument_group("observability")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS if suppress else 0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    group.add_argument(
        "--log-level",
        choices=obs_log.LEVELS,
        default=d,
        help="structured stderr log level (overrides -v)",
    )
    group.add_argument(
        "--trace",
        dest="trace_out",
        metavar="FILE",
        default=d,
        help="record a run manifest + span trace to FILE (JSON)",
    )
    group.add_argument(
        "--metrics",
        dest="metrics_out",
        metavar="FILE",
        default=d,
        help="export metrics to FILE (.prom/.txt Prometheus, else JSON-lines)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="focal",
        description="FOCAL (ASPLOS'24) reproduction: figures and findings.",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    sub.add_parser("version", help="print package and toolchain versions")

    trace_cmd = sub.add_parser("trace", help="inspect recorded trace files")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    show = trace_sub.add_parser(
        "show", help="pretty-print a trace report written by --trace"
    )
    show.add_argument("file", help="trace report JSON file")
    export = trace_sub.add_parser(
        "export",
        help="convert a trace report into a timeline viewers can open "
        "(chrome://tracing, https://ui.perfetto.dev)",
    )
    export.add_argument("file", help="trace report JSON file")
    export.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="timeline format (chrome = Chrome Trace Event JSON)",
    )
    export.add_argument(
        "--out",
        help="output file (default: FILE with a .chrome.json suffix)",
    )

    profile = sub.add_parser(
        "profile",
        help="attribute a parallel sweep's wall-clock to compute / shm / "
        "dispatch / stragglers / parent-serial time",
    )
    profile.add_argument(
        "file",
        nargs="?",
        help="trace report JSON from a traced parallel sweep "
        "(omit with --bench)",
    )
    profile.add_argument(
        "--bench",
        action="store_true",
        help="trace and profile one parallel-columnar benchmark sweep "
        "(the engine benchmark's fixed-point workload) in-process",
    )
    profile.add_argument(
        "--workers", type=int, default=4, help="pool size for --bench"
    )
    profile.add_argument(
        "--iters",
        type=int,
        default=2500,
        help="fixed-point iterations per chunk for --bench",
    )
    profile.add_argument(
        "--cores", type=int, default=400, help="core-count axis top for --bench"
    )
    profile.add_argument(
        "--fractions",
        type=int,
        default=250,
        help="parallel-fraction axis resolution for --bench",
    )
    profile.add_argument(
        "--chunk-size", type=int, default=4096, help="chunk size for --bench"
    )

    fig = sub.add_parser("figure", help="regenerate one figure")
    fig.add_argument("name", help=f"one of: {', '.join(study_names())}")
    fig.add_argument(
        "--format",
        choices=("ascii", "csv", "json", "md", "html"),
        default="ascii",
        help="output format (default: ascii charts)",
    )
    fig.add_argument("--out", help="write to this file (suffix picks the format)")

    findings = sub.add_parser("findings", help="verify Findings #1-#17")
    findings.add_argument(
        "--failed-only", action="store_true", help="only print failing checks"
    )

    compare = sub.add_parser(
        "compare", help="classify an ad-hoc design pair (X vs Y)"
    )
    for side in ("x", "y"):
        compare.add_argument(
            f"--{side}",
            nargs=3,
            type=float,
            metavar=("AREA", "PERF", "POWER"),
            required=True,
            help=f"design {side.upper()}: area perf power",
        )
    compare.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="single embodied-to-operational weight (default: both paper regimes)",
    )

    road = sub.add_parser(
        "roadmap", help="Moore's-Law roadmap: shrink vs constant-area policies"
    )
    road.add_argument("--generations", type=int, default=6)
    road.add_argument("--cores", type=int, default=4)
    road.add_argument("--parallel-fraction", type=float, default=0.75)

    sub.add_parser(
        "mechanisms",
        help="the paper's strong/weak/less categorization table (§5-§6)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="batch-sweep the symmetric-multicore design space "
        "(vectorized engine; Figure 3's axes at any resolution)",
    )
    sweep.add_argument(
        "--max-cores", type=int, default=64, help="top of the BCE ladder (default 64)"
    )
    sweep.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.5, 0.9, 0.95, 0.99],
        help="parallel fractions to sweep",
    )
    sweep.add_argument(
        "--regime",
        choices=("embodied", "operational", "balanced"),
        default="embodied",
        help="embodied-to-operational weight regime (default: embodied)",
    )
    sweep.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        metavar="N|auto",
        help=(
            "process-pool workers (0 = in-process, 'auto' = calibrate: "
            "time the first chunk and engage a pool only when the "
            "dispatch math wins); a cold sweep of a vector factory runs "
            "parallel-columnar: the rows to evaluate are cut into "
            "N x 2 near-equal, chunk-aligned spans, idle workers take "
            "the next span, and all write their results into one "
            "shared block"
        ),
    )
    sweep.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        help="grid points evaluated per streamed chunk",
    )
    sweep.add_argument(
        "--pareto", action="store_true", help="also print the Pareto frontier"
    )
    sweep.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="append completed chunks to this log (checksummed records) "
        "so a killed sweep can be resumed",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint: completed chunks are replayed "
        "without re-evaluation; results are bit-identical to an "
        "uninterrupted run",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent result store: chunks whose fingerprint matches "
        "a previous run load from DIR instead of re-evaluating "
        "(bit-identical); new chunks are written back for next time",
    )
    sweep.add_argument(
        "--quarantine",
        metavar="PATH",
        default=None,
        help="poison-point ledger: grid points that deterministically "
        "crash workers are bisect-isolated, recorded here and skipped "
        "(exit code 4 reports a completed sweep with quarantined "
        "points); a later run consults the ledger and never re-crashes",
    )
    sweep.add_argument(
        "--salvage",
        action="store_true",
        help="when the worker pool is irrecoverable, keep the completed "
        "chunks and exit 3 with a failure report (and a resumable "
        "--checkpoint when one is given) instead of failing the sweep",
    )

    store_cmd = sub.add_parser(
        "store", help="inspect and maintain a persistent result store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="one row per stored fingerprint, oldest first"
    )
    store_stat = store_sub.add_parser(
        "stat", help="aggregate store totals (fingerprints, files, bytes)"
    )
    store_gc = store_sub.add_parser(
        "gc",
        help="collect garbage: temp litter, orphaned files, damaged "
        "records; with --max-bytes also evict oldest fingerprints",
    )
    for store_parser in (store_ls, store_stat, store_gc):
        store_parser.add_argument("dir", help="store directory")
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict whole fingerprints oldest-first until the store "
        "fits N bytes",
    )

    advise = sub.add_parser(
        "advise", help="rank the paper's mechanisms for a workload class"
    )
    advise.add_argument(
        "workload",
        help="a roster workload (desktop, mobile, datacenter, "
        "hpc-strong-scaling, memory-intensive)",
    )
    advise.add_argument(
        "--regime",
        choices=("embodied", "operational"),
        default="embodied",
        help="which footprint dominates the device (default: embodied)",
    )

    # Observability flags ride on every subcommand (SUPPRESS defaults,
    # so they only override the root's values when actually given).
    for command_parser in sub.choices.values():
        _add_global_options(command_parser, suppress=True)
    _add_global_options(show, suppress=True)
    _add_global_options(export, suppress=True)
    for store_parser in (store_ls, store_stat, store_gc):
        _add_global_options(store_parser, suppress=True)
    return parser


def _cmd_list() -> int:
    for name in study_names():
        print(name)
    return 0


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


def _cmd_figure(name: str, fmt: str, out: str | None) -> int:
    figure = run_study(name)
    if out:
        from .report.export import write_figure

        path = write_figure(figure, out)
        print(f"wrote {path}")
        return 0
    if fmt == "csv":
        from .report.export import figure_to_csv

        print(figure_to_csv(figure), end="")
    elif fmt == "json":
        from .report.export import figure_to_json

        print(figure_to_json(figure))
    elif fmt == "md":
        from .report.export import figure_to_markdown

        print(figure_to_markdown(figure))
    elif fmt == "html":
        from .report.svg import figure_to_html

        print(figure_to_html(figure))
    else:
        from .report.ascii_plot import render_panel

        print(f"== {figure.figure_id}: {figure.caption}")
        for note in figure.notes:
            print(f"   note: {note}")
        for panel in figure.panels:
            print()
            print(render_panel(panel))
    return 0


def _cmd_findings(failed_only: bool) -> int:
    from .studies.findings import all_findings

    checks = all_findings()
    shown = [c for c in checks if not (failed_only and c.passed)]
    failed = [c for c in checks if not c.passed]
    if shown:
        rows = [check.as_dict() for check in shown]
        print(
            format_mapping_rows(
                rows,
                columns=["finding", "claim", "paper", "computed", "passed"],
                title="FOCAL findings verification",
            )
        )
    print(f"\n{len(checks) - len(failed)}/{len(checks)} checks pass")
    return 1 if failed else 0


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


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "version":
        return _cmd_version()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "figure":
        return _cmd_figure(args.name, args.format, args.out)
    if args.command == "findings":
        return _cmd_findings(args.failed_only)
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


def _resolve_log_level(args: argparse.Namespace) -> str:
    explicit = getattr(args, "log_level", None)
    if explicit:
        return explicit
    verbose = getattr(args, "verbose", 0) or 0
    if verbose >= 2:
        return "debug"
    if verbose == 1:
        return "info"
    return "warning"


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--trace``/``--metrics`` are given, the whole command runs
    under a ``cli:<command>`` root span with the global tracer and
    metrics registry enabled; on the way out (success or failure) the
    run manifest + trace report and/or the metrics export are written
    and the global observability state is reset, so in-process callers
    (tests, notebooks) never leak spans between runs.

    Exit-code contract:

    * ``0`` — the command completed cleanly.
    * ``2`` — a model/configuration failure (any :class:`~repro.core.
      errors.ReproError`): one-line ``error: ...`` on stderr, full
      traceback only at ``--log-level debug``.
    * ``3`` — ``focal sweep --salvage`` returned a *partial* result:
      the completed chunks were kept and a failure report printed; a
      ``--checkpoint`` written by such a run resumes bit-exactly.
    * ``4`` — ``focal sweep`` completed, but the quarantine ledger
      excluded poison points; all surviving results are byte-identical
      to a clean run over the surviving grid.
    * ``130`` — ``Ctrl-C``, the shell convention for SIGINT.

    A salvaged run (3) outranks quarantined points (4): incompleteness
    matters more than which points were excluded.
    """
    from .core.errors import ReproError

    args = build_parser().parse_args(argv)
    level = _resolve_log_level(args)
    obs_log.configure(level)
    log = get_logger()
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    observing = bool(trace_out or metrics_out)
    if observing:
        obs_trace.reset()
        obs_metrics.reset()
        obs_events.reset()
        if trace_out:
            obs_trace.enable()
            obs_events.enable()
        obs_metrics.enable()
    tracer = obs_trace.get_tracer()
    log.debug(kv("cli.start", command=args.command))
    start_s = time.perf_counter()
    try:
        with tracer.span(f"cli:{args.command}", command=args.command):
            code = _dispatch(args)
    except ReproError as exc:
        if level == "debug":
            import traceback

            traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        log.debug(kv("cli.error", command=args.command, error=str(exc)))
        code = 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    finally:
        if observing:
            duration_s = time.perf_counter() - start_s
            _write_observability(args, argv, tracer, trace_out, metrics_out, duration_s)
            obs_trace.reset()
            obs_metrics.reset()
            obs_events.reset()
    log.debug(kv("cli.done", command=args.command, exit_code=code))
    return code


def _write_observability(
    args: argparse.Namespace,
    argv: Sequence[str] | None,
    tracer: obs_trace.Tracer,
    trace_out: str | None,
    metrics_out: str | None,
    duration_s: float,
) -> None:
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
