"""SVG and standalone-HTML figure rendering.

With no plotting library available, the CLI's charts are ASCII — fine
for a terminal, not for a paper or a README. This module renders
:class:`~repro.report.series.Panel` objects as self-contained SVG
(pure-python string assembly, no dependencies) and whole
:class:`~repro.report.series.FigureResult` objects as a standalone HTML
page, wired into ``focal figure --format html``.

The SVG uses a small categorical palette, draws polylines with point
markers, labelled axes with min/max ticks, a legend, and an optional
NCF = 1 guide line.
"""

from __future__ import annotations

import html
import math

from ..core.errors import ValidationError
from .series import FigureResult, Panel

__all__ = ["render_panel_svg", "figure_to_html"]


def _escape(text: str) -> str:
    """*text* with ``&``, ``<`` and ``>`` escaped; quotes stay as they are."""
    return html.escape(text, quote=False)


#: Categorical palette (colorblind-safe Okabe-Ito subset).
PALETTE = (
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#F0E442",
    "#000000",
)

_WIDTH = 460
_HEIGHT = 300
_MARGIN_LEFT = 58
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 44


def _extent(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.06
    return lo - pad, hi + pad


def render_panel_svg(
    panel: Panel,
    *,
    width: int = _WIDTH,
    height: int = _HEIGHT,
    reference_y: float | None = 1.0,
) -> str:
    """One panel as a self-contained ``<svg>`` element."""
    if width < 120 or height < 100:
        raise ValidationError("svg panel must be at least 120x100")
    xs = [p.x for s in panel.series for p in s.points if math.isfinite(p.x)]
    ys = [p.y for s in panel.series for p in s.points if math.isfinite(p.y)]
    if not xs or not ys:
        raise ValidationError(f"panel {panel.name!r} has no finite points")
    # Include the reference line in the axis range only when it is near
    # the data (within one data-span); a far-away guide should neither
    # stretch the axis nor be drawn.
    if reference_y is not None:
        span = (max(ys) - min(ys)) or abs(max(ys)) or 1.0
        if min(ys) - span <= reference_y <= max(ys) + span:
            ys = ys + [reference_y]
    x_min, x_max = _extent(xs)
    y_min, y_max = _extent(ys)

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
        f'font-size="12" font-weight="bold">{_escape(panel.name)}</text>',
        # plot frame
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999"/>',
        # axis labels and min/max ticks
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle">{_escape(panel.x_label)}</text>',
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(panel.y_label)}</text>",
        f'<text x="{_MARGIN_LEFT}" y="{height - 26}" text-anchor="middle">'
        f"{x_min:.3g}</text>",
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{height - 26}" '
        f'text-anchor="middle">{x_max:.3g}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{sy(y_min) + 4:.1f}" '
        f'text-anchor="end">{y_min:.3g}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{sy(y_max) + 4:.1f}" '
        f'text-anchor="end">{y_max:.3g}</text>',
    ]
    if reference_y is not None and y_min <= reference_y <= y_max:
        ry = sy(reference_y)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{ry:.1f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{ry:.1f}" '
            f'stroke="#bbb" stroke-dasharray="4 3"/>'
        )
    for index, series in enumerate(panel.series):
        color = PALETTE[index % len(PALETTE)]
        coords = [
            (sx(p.x), sy(p.y))
            for p in series.points
            if math.isfinite(p.x) and math.isfinite(p.y)
        ]
        if len(coords) > 1:
            points_attr = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points_attr}"/>'
            )
        for x, y in coords:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" fill="{color}"/>')
        # legend entry
        ly = _MARGIN_TOP + 6 + index * 14
        lx = _MARGIN_LEFT + plot_w - 120
        parts.append(
            f'<rect x="{lx}" y="{ly - 7}" width="9" height="9" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 13}" y="{ly + 1}">{_escape(series.name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def figure_to_html(figure: FigureResult, **svg_kwargs: object) -> str:
    """A standalone HTML page with one SVG per panel."""
    panels_html = "\n".join(
        f'<div class="panel">{render_panel_svg(panel, **svg_kwargs)}</div>'  # type: ignore[arg-type]
        for panel in figure.panels
    )
    notes_html = "\n".join(f"<li>{_escape(note)}</li>" for note in figure.notes)
    notes_block = f"<ul>{notes_html}</ul>" if figure.notes else ""
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_escape(figure.figure_id)}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
.panel {{ display: inline-block; margin: 0.5em; }}
p.caption {{ max-width: 60em; }}
</style>
</head>
<body>
<h1>{_escape(figure.figure_id)}</h1>
<p class="caption">{_escape(figure.caption)}</p>
{notes_block}
{panels_html}
</body>
</html>
"""
