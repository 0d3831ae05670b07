"""Observability for the FOCAL engine: tracing, metrics, logging,
and run provenance.

Four small, dependency-free pieces:

* :mod:`repro.obs.trace` — nestable spans with wall-time, counters and
  attributes; **off by default** with near-zero disabled overhead;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  JSON-lines and Prometheus text exporters
  (:mod:`repro.obs.exporters`, re-exported by
  :mod:`repro.report.export`);
* :mod:`repro.obs.events` — cross-process worker events (shard/compute/
  shm timings, supervisor actions) merged with the span tree into one
  sweep timeline, exported to Chrome Trace / Perfetto JSON by
  :mod:`repro.obs.chrome` and decomposed into a bottleneck-attribution
  report by :mod:`repro.obs.profile`;
* :mod:`repro.obs.log` — the single structured ``"repro"`` stderr
  logger every module shares;
* :mod:`repro.obs.manifest` — run manifests (argv, seed, version,
  node roster, per-phase timing) bundled with the span tree and a
  metrics snapshot into a replayable JSON report, pretty-printed by
  ``focal trace show`` (:mod:`repro.obs.show`).

The hot paths (:class:`~repro.dse.batch.BatchExplorer`, the
Monte-Carlo samplers, :func:`~repro.studies.registry.run_study`) are
pre-instrumented; flip everything on with :func:`enable` or the CLI's
``--trace``/``--metrics`` flags::

    from repro import obs

    obs.enable()
    ...  # run a sweep
    print(obs.exporters.metrics_to_prometheus(obs.get_registry()))
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "trace",
    "metrics",
    "events",
    "log",
    "manifest",
    "exporters",
    "span",
    "Span",
    "NULL_SPAN",
    "Tracer",
    "get_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "get_logger",
    "configure_logging",
    "kv",
    "RunManifest",
    "build_manifest",
    "build_report",
    "enable",
    "disable",
    "reset",
    "is_active",
]

# Every piece loads on first access, so ``import repro.obs`` costs
# nothing and a command pays only for the pieces it runs; the engine
# imports the submodules it instruments directly.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        **{name: f".{name}" for name in ("trace", "metrics", "events", "log")},
        **dict.fromkeys(
            ("span", "Span", "NULL_SPAN", "Tracer", "get_tracer"), ".trace"
        ),
        **dict.fromkeys(
            ("Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry"),
            ".metrics",
        ),
        **dict.fromkeys(("get_logger", "configure_logging", "kv"), ".log"),
        "exporters": ".exporters",
        "manifest": ".manifest",
        **dict.fromkeys(("RunManifest", "build_manifest", "build_report"), ".manifest"),
    },
)


def enable(
    *, tracing: bool = True, metrics_: bool = True, events_: bool = True
) -> None:
    """Enable tracing, metrics and/or worker-event capture on the
    global instances."""
    from . import events, metrics, trace

    if tracing:
        trace.enable()
    if metrics_:
        metrics.enable()
    if events_:
        events.enable()


def disable() -> None:
    """Disable tracing, metrics and events (collected data is kept)."""
    from . import events, metrics, trace

    trace.disable()
    metrics.disable()
    events.disable()


def reset() -> None:
    """Disable and clear tracer, registry and event log (test/CLI
    isolation)."""
    from . import events, metrics, trace

    trace.reset()
    metrics.reset()
    events.reset()


def is_active() -> bool:
    """True when any of tracing, metrics or event collection is on —
    the single check hot paths use to skip instrumentation entirely."""
    from . import events, metrics, trace

    return (
        trace.is_enabled()
        or metrics.get_registry().enabled
        or events.is_enabled()
    )
