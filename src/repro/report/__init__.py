"""Reporting: chart data types, tables, ASCII plots, and exporters."""

from .._lazy import lazy_exports
from .ascii_plot import PlotCanvas, render_panel, render_series
from .series import FigureResult, Panel, Point, Series
from .table import format_mapping_rows, format_table

__all__ = [
    "Point",
    "Series",
    "Panel",
    "FigureResult",
    "format_table",
    "format_mapping_rows",
    "PlotCanvas",
    "render_panel",
    "render_series",
    "figure_to_csv",
    "figure_to_json",
    "figure_to_markdown",
    "figure_from_json",
    "write_figure",
    "read_figure",
    "render_panel_svg",
    "figure_to_html",
]

# The exporters load on first access: the ASCII and table paths never
# need them.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        **dict.fromkeys(
            (
                "figure_to_csv",
                "figure_to_json",
                "figure_to_markdown",
                "figure_from_json",
                "write_figure",
                "read_figure",
            ),
            ".export",
        ),
        "render_panel_svg": ".svg",
        "figure_to_html": ".svg",
    },
)
