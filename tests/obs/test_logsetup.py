"""Tests for :mod:`repro.obs.logsetup`."""

from __future__ import annotations

import io
import logging
import sys

import pytest

from repro.obs.logsetup import ROOT_LOGGER, configure_logging, resolve_level


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    logger = logging.getLogger(ROOT_LOGGER)
    handlers = list(logger.handlers)
    level = logger.level
    propagate = logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


class TestResolveLevel:
    def test_default_is_warning(self):
        assert resolve_level() == logging.WARNING

    @pytest.mark.parametrize(
        "verbosity, expected",
        [(0, logging.WARNING), (1, logging.INFO), (2, logging.DEBUG),
         (5, logging.DEBUG), (-1, logging.WARNING)],
    )
    def test_verbosity_ladder_clamps(self, verbosity, expected):
        assert resolve_level(verbosity=verbosity) == expected

    def test_explicit_level_wins_over_verbosity(self):
        assert resolve_level("ERROR", verbosity=2) == logging.ERROR
        assert resolve_level("debug") == logging.DEBUG

    def test_numeric_level_passes_through(self):
        assert resolve_level(17) == 17

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("LOUD")


class TestConfigureLogging:
    def _repro_handlers(self):
        return [
            h
            for h in logging.getLogger(ROOT_LOGGER).handlers
            if getattr(h, "_repro_handler", False)
        ]

    def test_installs_one_handler_idempotently(self):
        configure_logging("INFO")
        configure_logging("DEBUG")
        configure_logging(verbosity=1)
        assert len(self._repro_handlers()) == 1

    def test_sets_level_and_stops_propagation(self):
        logger = configure_logging("DEBUG")
        assert logger.level == logging.DEBUG
        assert logger.propagate is False

    def test_messages_reach_the_configured_stream(self):
        stream = io.StringIO()
        configure_logging("INFO", stream=stream)
        logging.getLogger("repro.obs.test_child").info("hello from a module")
        assert "hello from a module" in stream.getvalue()

    def test_reconfigure_retunes_stream(self):
        first, second = io.StringIO(), io.StringIO()
        configure_logging("INFO", stream=first)
        configure_logging("INFO", stream=second)
        logging.getLogger("repro.obs.test_child").info("retuned")
        assert "retuned" not in first.getvalue()
        assert "retuned" in second.getvalue()

    def test_reconfigure_after_the_stream_was_closed(self, tmp_path):
        # Regression: retargeting used to flush the old stream first,
        # which raised ValueError once its owner had closed it.
        second = io.StringIO()
        with open(tmp_path / "first.log", "w") as first:
            configure_logging("INFO", stream=first)
        configure_logging("INFO", stream=second)
        logging.getLogger("repro.obs.test_child").info("after close")
        assert "repro.obs.test_child: after close" in second.getvalue()
        assert len(self._repro_handlers()) == 1

    def test_default_stream_follows_sys_stderr(self, monkeypatch):
        logging.getLogger(ROOT_LOGGER).handlers[:] = []
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        configure_logging("INFO")
        first.close()
        monkeypatch.setattr(sys, "stderr", second)
        configure_logging("INFO")
        logging.getLogger("repro.obs.test_child").info("followed")
        assert "repro.obs.test_child: followed" in second.getvalue()
