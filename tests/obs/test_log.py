"""Tests for the shared structured logger."""

from __future__ import annotations

import io
import logging

import pytest

from repro.core.errors import ValidationError
from repro.obs import log as obs_log
from repro.obs.log import LOGGER_NAME, configure, get_logger, is_enabled_for, kv

from ..test_main_module import _run_child


@pytest.fixture(autouse=True)
def restore_logger(monkeypatch):
    logger = logging.getLogger(LOGGER_NAME)
    handlers = list(logger.handlers)
    level = logger.level
    monkeypatch.setattr(obs_log, "_configured", obs_log._configured)
    yield
    logger.handlers = handlers
    logger.setLevel(level)


class TestKv:
    def test_plain_fields(self):
        assert kv("chunk.done", points=1024, valid=1000) == (
            "chunk.done points=1024 valid=1000"
        )

    def test_values_with_spaces_are_quoted(self):
        assert kv("study.failed", error="boom went off") == (
            "study.failed error='boom went off'"
        )

    def test_no_fields(self):
        assert kv("tick") == "tick"


class TestConfigure:
    def test_single_shared_logger(self):
        assert get_logger() is logging.getLogger(LOGGER_NAME)

    def test_structured_line_on_stream(self):
        stream = io.StringIO()
        configure("debug", stream=stream)
        logger = get_logger()
        logger.debug(kv("study.run", study="figure3"))
        line = stream.getvalue().strip()
        assert line.endswith("DEBUG repro: study.run study=figure3")

    def test_level_filters(self):
        stream = io.StringIO()
        configure("warning", stream=stream)
        logger = get_logger()
        logger.debug(kv("hidden"))
        logger.warning(kv("shown"))
        assert "hidden" not in stream.getvalue()
        assert "shown" in stream.getvalue()

    def test_reconfigure_replaces_handler(self):
        first = io.StringIO()
        second = io.StringIO()
        configure("info", stream=first)
        configure("info", stream=second)
        logger = get_logger()
        logger.info(kv("once"))
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_unknown_level_raises(self):
        with pytest.raises(ValidationError):
            configure("chatty")

    def test_configure_after_the_logger_is_built(self):
        logger = get_logger()
        stream = io.StringIO()
        configure(stream=stream)
        logger.info(kv("hidden"))
        logger.warning(kv("shown"))
        assert stream.getvalue().strip().endswith("WARNING repro: shown")

    def test_configure_before_the_logger_is_built(self):
        """The settings wait for the logger; ``logging`` loads only when
        a line is logged."""
        out = _run_child(
            """
            import io, sys
            from repro.obs import log
            stream = io.StringIO()
            log.configure("info", stream=stream)
            checks = [log.is_enabled_for("info"), not log.is_enabled_for("debug")]
            checks.append("logging" not in sys.modules)
            logger = log.get_logger()
            logger.debug(log.kv("hidden"))
            logger.info(log.kv("shown"))
            checks.append(stream.getvalue().strip().endswith("INFO repro: shown"))
            print(checks)
            """
        )
        assert out.strip() == "[True, True, True, True]"


class TestIsEnabledFor:
    @pytest.mark.parametrize("level", ["debug", "info", "warning", "error"])
    def test_matches_the_logger(self, level):
        configure("info", stream=io.StringIO())
        assert is_enabled_for(level) == get_logger().isEnabledFor(
            getattr(logging, level.upper())
        )

    def test_unconfigured_follows_the_root_default(self):
        out = _run_child(
            """
            import sys
            from repro.obs import log
            print([log.is_enabled_for(level) for level in log.LEVELS])
            print("logging" in sys.modules)
            """
        )
        assert out.split("\n")[:2] == ["[True, True, True, False, False]", "False"]

    def test_unknown_level_raises(self):
        with pytest.raises(ValidationError):
            is_enabled_for("chatty")
