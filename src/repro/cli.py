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

This module parses every command but runs only ``list``, ``figure``
and ``findings``; the other commands live in :mod:`repro.commands`,
which loads only when one of them runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .obs import log as obs_log
from .obs import trace as obs_trace
from .obs.log import get_logger, is_enabled_for, kv
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
    from .report.table import format_mapping_rows
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


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _cmd_figure(args.name, args.format, args.out)
    if args.command == "findings":
        return _cmd_findings(args.failed_only)
    from . import commands

    return commands.run(args)


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
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    observing = bool(trace_out or metrics_out)
    if observing:
        from .obs import events as obs_events
        from .obs import metrics as obs_metrics

        obs_trace.reset()
        obs_metrics.reset()
        obs_events.reset()
        if trace_out:
            obs_trace.enable()
            obs_events.enable()
        obs_metrics.enable()
    tracer = obs_trace.get_tracer()
    if is_enabled_for("debug"):
        get_logger().debug(kv("cli.start", command=args.command))
    start_s = time.perf_counter()
    try:
        with tracer.span(f"cli:{args.command}", command=args.command):
            code = _dispatch(args)
    except ReproError as exc:
        if level == "debug":
            import traceback

            traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        if is_enabled_for("debug"):
            get_logger().debug(kv("cli.error", command=args.command, error=str(exc)))
        code = 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    finally:
        if observing:
            from .commands import write_observability

            duration_s = time.perf_counter() - start_s
            write_observability(args, argv, tracer, trace_out, metrics_out, duration_s)
            obs_trace.reset()
            obs_metrics.reset()
            obs_events.reset()
    if is_enabled_for("debug"):
        get_logger().debug(kv("cli.done", command=args.command, exit_code=code))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
