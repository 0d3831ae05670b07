"""Reporting: chart data types, tables, ASCII plots, and exporters."""

from .._lazy import lazy_exports

# Every name loads with its module on first access: the JSON path never
# loads the ASCII renderer, the ASCII and table paths never the
# exporters.
_EXPORTS = {
    **dict.fromkeys(("Point", "Series", "Panel", "FigureResult"), ".series"),
    **dict.fromkeys(("format_table", "format_mapping_rows"), ".table"),
    **dict.fromkeys(("PlotCanvas", "render_panel", "render_series"), ".ascii_plot"),
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
    **dict.fromkeys(("render_panel_svg", "figure_to_html"), ".svg"),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
