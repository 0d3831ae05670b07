"""Study registry: every figure driver by name.

The registry decouples consumers (CLI, benchmarks, integration tests)
from the individual driver modules; ``run_study("figure3")`` is the
single entry point for regenerating any figure. A driver's module is
imported when the driver is first looked up, so running one figure
loads no other.
"""

from __future__ import annotations

import importlib
from collections.abc import Mapping
from typing import Callable, Iterator

from ..core.errors import UnknownStudyError
from ..obs.log import get_logger, is_enabled_for, kv
from ..obs.trace import NULL_SPAN, span
from ..report.series import FigureResult

__all__ = ["STUDIES", "run_study", "study_names"]

StudyDriver = Callable[[], FigureResult]

#: Each study and the module defining its driver function of the same
#: name; Figure 2 is the paper's conceptual illustration, reproduced as
#: exact step profiles (see repro.studies.figure2).
_MODULES = {
    **{f"figure{n}": f".figure{n}" for n in range(1, 9)},
    "figure9": ".case_study",
}


class _Drivers(Mapping[str, StudyDriver]):
    """Study name → driver function, importing the driver's module on
    lookup."""

    def __getitem__(self, name: str) -> StudyDriver:
        module = importlib.import_module(_MODULES[name], __package__)
        return getattr(module, name)

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


#: All figures by name.
STUDIES: Mapping[str, StudyDriver] = _Drivers()


def study_names() -> list[str]:
    """Sorted names of all registered studies."""
    return sorted(STUDIES)


def run_study(name: str) -> FigureResult:
    """Regenerate one figure by name (e.g. ``"figure3"``).

    Runs inside a ``study:<name>`` span when tracing is on, and logs
    start/finish/failure through the shared :mod:`repro.obs.log`
    logger — a driver blowing up is reported before the exception
    propagates, never swallowed silently.
    """
    try:
        driver = STUDIES[name]
    except KeyError:
        get_logger().error(kv("study.unknown", study=name))
        raise UnknownStudyError(
            f"unknown study {name!r}; available: {', '.join(study_names())}"
        ) from None
    if is_enabled_for("debug"):
        get_logger().debug(kv("study.run", study=name))
    with span(f"study:{name}", study=name) as sp:
        try:
            figure = driver()
        except Exception as exc:
            get_logger().error(kv("study.failed", study=name, error=repr(exc)))
            raise
        if sp is not NULL_SPAN:
            sp.set(
                panels=len(figure.panels),
                points=sum(
                    len(series.points)
                    for panel in figure.panels
                    for series in panel.series
                ),
            )
    if is_enabled_for("debug"):
        get_logger().debug(kv("study.done", study=name))
    return figure
