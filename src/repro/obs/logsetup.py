"""Package-wide stdlib logging configuration.

Every ``repro`` module logs through ``logging.getLogger(__name__)``;
this module owns the single handler those loggers funnel into. The CLI
calls :func:`configure_logging` from its global ``--log-level`` /
``-v`` flags; library users call it directly (or attach their own
handlers to the ``"repro"`` logger — nothing here touches the root
logger, so embedding applications keep full control).
"""

from __future__ import annotations

import logging
import sys

#: Logger namespace the whole package logs under.
ROOT_LOGGER = "repro"

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: ``-v`` count to level: default WARNING, -v INFO, -vv DEBUG.
_VERBOSITY_LEVELS = (logging.WARNING, logging.INFO, logging.DEBUG)


def resolve_level(
    log_level: str | int | None = None, verbosity: int = 0
) -> int:
    """Map the CLI's ``--log-level``/``-v`` pair to a logging level.

    An explicit ``--log-level`` (name or number) wins over ``-v``
    counts; verbosity beyond ``-vv`` clamps to DEBUG.

    Raises
    ------
    ValueError
        On an unknown level name.
    """
    if log_level is not None:
        if isinstance(log_level, int):
            return log_level
        name = log_level.upper()
        level = logging.getLevelName(name)
        if not isinstance(level, int):
            raise ValueError(
                f"unknown log level {log_level!r}; use DEBUG, INFO, "
                "WARNING, ERROR, or CRITICAL"
            )
        return level
    index = min(max(verbosity, 0), len(_VERBOSITY_LEVELS) - 1)
    return _VERBOSITY_LEVELS[index]


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to ``sys.stderr`` as it is at emit time.

    Binding the stream at install time would pin whatever ``sys.stderr``
    was then, which a test harness may replace and close afterwards.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def configure_logging(
    log_level: str | int | None = None,
    verbosity: int = 0,
    stream=None,
) -> logging.Logger:
    """Install (or retune) the package handler; returns the repro logger.

    Idempotent: repeated calls adjust the level of the one package
    handler instead of stacking new ones, so tests and long-lived
    sessions can reconfigure freely. Without ``stream`` the handler
    writes to the current ``sys.stderr``. A ``stream`` replaces the
    handler with one on that stream; the old stream is left alone, so
    it may already be closed (every record was flushed as it was
    written).
    """
    level = resolve_level(log_level, verbosity)
    logger = logging.getLogger(ROOT_LOGGER)
    old = next(
        (h for h in logger.handlers if getattr(h, "_repro_handler", False)), None
    )
    if old is None or stream is not None:
        handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(_FORMAT))
        handler._repro_handler = True  # type: ignore[attr-defined]
        if old is not None:
            logger.removeHandler(old)
        logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
