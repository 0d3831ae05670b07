"""Export figure results — and observability data — to text formats.

Figures go to CSV, JSON, and Markdown; metrics registries go to
JSON-lines or Prometheus text format and traces to JSON-lines or the
full manifest report (the formatters themselves live in
:mod:`repro.obs.exporters` and are re-exported here). Exports go
through plain strings so callers decide where bytes land (stdout,
files); :func:`write_figure`, :func:`write_metrics` and
:func:`write_trace` are the convenience file writers used by the CLI.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .._lazy import lazy_exports
from ..core.errors import ValidationError
from .series import FigureResult

__all__ = [
    "figure_to_csv",
    "figure_to_json",
    "figure_to_markdown",
    "figure_from_json",
    "write_figure",
    "read_figure",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "trace_to_jsonl",
    "write_metrics",
    "write_trace",
]

# The observability formatters load on first access, not with the
# figure exporters.
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        ("metrics_to_jsonl", "metrics_to_prometheus", "trace_to_jsonl"),
        "..obs.exporters",
    ),
)


def figure_to_csv(figure: FigureResult) -> str:
    """Long-format CSV: one row per point with panel/series columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["figure", "panel", "series", "label", "x", "y"])
    for panel in figure.panels:
        for series in panel.series:
            for point in series.points:
                writer.writerow(
                    [figure.figure_id, panel.name, series.name, point.label, point.x, point.y]
                )
    return buffer.getvalue()


def figure_to_json(figure: FigureResult, *, indent: int = 2) -> str:
    """Nested JSON mirroring the FigureResult structure."""
    payload = {
        "figure_id": figure.figure_id,
        "caption": figure.caption,
        "notes": list(figure.notes),
        "panels": [
            {
                "name": panel.name,
                "x_label": panel.x_label,
                "y_label": panel.y_label,
                "series": [
                    {
                        "name": series.name,
                        "points": [
                            {"x": p.x, "y": p.y, "label": p.label}
                            for p in series.points
                        ],
                    }
                    for series in panel.series
                ],
            }
            for panel in figure.panels
        ],
    }
    return json.dumps(payload, indent=indent)


def figure_to_markdown(figure: FigureResult, *, precision: int = 3) -> str:
    """Markdown report: caption, notes, one table per panel."""
    lines = [f"## {figure.figure_id}", "", figure.caption, ""]
    for note in figure.notes:
        lines.append(f"> {note}")
    if figure.notes:
        lines.append("")
    for panel in figure.panels:
        lines.append(f"### {panel.name}")
        lines.append("")
        lines.append(f"| series | label | {panel.x_label} | {panel.y_label} |")
        lines.append("|---|---|---|---|")
        for series in panel.series:
            for point in series.points:
                lines.append(
                    f"| {series.name} | {point.label} | "
                    f"{point.x:.{precision}f} | {point.y:.{precision}f} |"
                )
        lines.append("")
    return "\n".join(lines)


def figure_from_json(text: str) -> FigureResult:
    """Inverse of :func:`figure_to_json`: rebuild a FigureResult.

    Round-trip guarantee: ``figure_from_json(figure_to_json(f))``
    equals ``f`` for every valid figure. Raises
    :class:`~repro.core.errors.ValidationError` on malformed payloads
    (missing keys, empty panels) rather than producing a broken object.
    """
    from .series import Panel, Point, Series

    try:
        payload = json.loads(text)
        panels = tuple(
            Panel(
                name=panel["name"],
                x_label=panel["x_label"],
                y_label=panel["y_label"],
                series=tuple(
                    Series(
                        name=series["name"],
                        points=tuple(
                            Point(x=p["x"], y=p["y"], label=p.get("label", ""))
                            for p in series["points"]
                        ),
                    )
                    for series in panel["series"]
                ),
            )
            for panel in payload["panels"]
        )
        return FigureResult(
            figure_id=payload["figure_id"],
            caption=payload["caption"],
            panels=panels,
            notes=tuple(payload.get("notes", ())),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed figure JSON: {exc}") from exc


def read_figure(path: str | Path) -> FigureResult:
    """Load a figure previously written as JSON."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        raise ValidationError(
            f"read_figure only supports .json, got {path.suffix!r}"
        )
    return figure_from_json(path.read_text())


def _figure_to_html(figure: FigureResult) -> str:
    from .svg import figure_to_html

    return figure_to_html(figure)


_FORMATS = {
    "csv": figure_to_csv,
    "json": figure_to_json,
    "md": figure_to_markdown,
    "html": _figure_to_html,
}


def write_figure(figure: FigureResult, path: str | Path) -> Path:
    """Write a figure to *path*; format inferred from the suffix
    (.csv, .json, .md, .html)."""
    path = Path(path)
    suffix = path.suffix.lstrip(".").lower()
    if suffix not in _FORMATS:
        raise ValidationError(
            f"unsupported export suffix {path.suffix!r}; use one of "
            f"{sorted('.' + s for s in _FORMATS)}"
        )
    path.write_text(_FORMATS[suffix](figure))
    return path


def write_metrics(registry, path: str | Path) -> Path:
    """Write a metrics registry to *path*; the suffix picks the format
    — ``.prom``/``.txt`` for Prometheus text exposition, ``.jsonl``
    (or anything else) for JSON-lines."""
    from ..obs.exporters import metrics_to_jsonl, metrics_to_prometheus

    path = Path(path)
    if path.suffix.lower() in (".prom", ".txt"):
        path.write_text(metrics_to_prometheus(registry))
    else:
        path.write_text(metrics_to_jsonl(registry))
    return path


def write_trace(
    path: str | Path, *, manifest=None, tracer=None, registry=None, events=None
) -> Path:
    """Write trace output to *path*.

    With a *manifest* the full replayable report (manifest + span tree
    + metrics snapshot + worker events, the document ``focal trace
    show`` / ``focal trace export`` / ``focal profile`` read) is
    written; without one, just the spans as JSON-lines.
    """
    from ..obs.exporters import trace_to_jsonl
    from ..obs.manifest import build_report, report_to_json

    path = Path(path)
    if manifest is not None:
        report = build_report(
            manifest, tracer=tracer, registry=registry, events=events
        )
        path.write_text(report_to_json(report) + "\n")
    elif tracer is not None:
        path.write_text(trace_to_jsonl(tracer))
    else:
        raise ValidationError("write_trace needs a manifest or a tracer")
    return path
