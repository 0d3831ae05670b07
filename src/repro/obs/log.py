"""The single structured logger for the whole package.

Every module logs through the one ``"repro"`` logger this module owns
— there is no per-module logger forest to configure. Messages are
``event key=value`` structured lines on **stderr** (stdout stays clean
for tables, CSV and JSON), formatted as::

    2026-08-05T12:00:00 DEBUG repro: study.run study=figure3

Nothing is emitted until :func:`configure` attaches the stderr handler
— the CLI does that from ``--log-level``/``-v``; library users call it
directly. Before configuration the logger carries a
``logging.NullHandler``, so importing the package never prints.

``logging`` itself loads only when :func:`get_logger` first builds the
logger, so a command that logs nothing at its level never imports it:
:func:`configure` records its settings until then, and
:func:`is_enabled_for` checks a level without the logger.

Usage::

    from repro.obs.log import get_logger, is_enabled_for, kv

    if is_enabled_for("debug"):
        get_logger().debug(kv("study.run", study=name))
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:
    import logging

__all__ = ["LOGGER_NAME", "LEVELS", "get_logger", "configure", "is_enabled_for", "kv"]

#: The one logger name the package emits on.
LOGGER_NAME = "repro"

#: Accepted ``--log-level`` spellings, least to most verbose.
LEVELS = ("critical", "error", "warning", "info", "debug")

#: ``logging``'s number for each :data:`LEVELS` name.
_LEVEL_NUMBERS = dict(zip(LEVELS, (50, 40, 30, 20, 10)))

_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"
_DATE_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: Marker attribute identifying the handler :func:`configure` installs,
#: so re-configuration replaces rather than stacks handlers.
_HANDLER_MARK = "_repro_obs_handler"

#: The ``"repro"`` logger once :func:`get_logger` has built it.
_logger: logging.Logger | None = None
#: The level number and stream of the last :func:`configure` call.
_configured: tuple[int, TextIO] | None = None


def get_logger() -> logging.Logger:
    """The shared ``"repro"`` logger, built on the first call with the
    last :func:`configure` settings."""
    global _logger
    if _logger is None:
        import logging

        _logger = logging.getLogger(LOGGER_NAME)
        _logger.addHandler(logging.NullHandler())
        if _configured is not None:
            _apply(_logger, *_configured)
    return _logger


def _level_number(level: str | int) -> int:
    if not isinstance(level, str):
        return level
    try:
        return _LEVEL_NUMBERS[level.lower()]
    except KeyError:
        from ..core.errors import ValidationError

        raise ValidationError(
            f"unknown log level {level!r}; use one of {', '.join(LEVELS)}"
        ) from None


def is_enabled_for(level: str | int) -> bool:
    """``get_logger().isEnabledFor(level)``, without importing
    ``logging`` when it is not loaded yet: then nothing can have changed
    its defaults, so the level :func:`configure` set decides, or else
    the root logger's default, ``WARNING``."""
    number = _level_number(level)
    if _logger is None and "logging" not in sys.modules:
        configured = _configured[0] if _configured is not None else 0
        return number >= (configured or _LEVEL_NUMBERS["warning"])
    return get_logger().isEnabledFor(number)


def _format_value(value: object) -> str:
    text = str(value)
    if " " in text or "=" in text or not text:
        return repr(text)
    return text


def kv(event: str, **fields: object) -> str:
    """Format *event* plus key/value *fields* as one structured line
    (values with spaces are quoted): ``kv("chunk.done", points=1024)``
    → ``"chunk.done points=1024"``."""
    parts = [event]
    parts.extend(f"{key}={_format_value(value)}" for key, value in fields.items())
    return " ".join(parts)


def configure(level: str | int = "warning", stream: TextIO | None = None) -> None:
    """Set the structured stderr handler's *level* and *stream*.

    *level* is a :data:`LEVELS` name or a ``logging`` integer;
    *stream* defaults to the current ``sys.stderr``. The settings apply
    at once if the logger is already built, otherwise when
    :func:`get_logger` first builds it. Idempotent: calling again swaps
    the previous handler instead of stacking a duplicate.
    """
    global _configured
    _configured = (
        _level_number(level),
        stream if stream is not None else sys.stderr,
    )
    if _logger is not None:
        _apply(_logger, *_configured)


def _apply(logger: logging.Logger, level: int, stream: TextIO) -> None:
    """Replace *logger*'s configured handler by one on *stream*."""
    import logging

    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATE_FORMAT))
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    logger.setLevel(level)


#: The name :mod:`repro.obs` re-exports :func:`configure` under.
configure_logging = configure
