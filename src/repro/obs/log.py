"""Structured logging for the ``repro`` package.

Library code must never configure the root logger or print to stderr by
default, so the package logger carries a ``NullHandler`` -- silent until an
application (or :func:`configure`) opts in.  Events are emitted as
``event_name key=value ...`` lines through :func:`event`, which keeps call
sites one-liners and the output grep-able:

    replica_failover shards=1 replica=0

The serving stack logs WARNING for things that cost availability or data
(failover, shed/reject, WAL tail repair) and INFO for expected lifecycle
transitions (respawn, replay catch-up, compaction).  The catalogue of
emitted events lives in ``docs/observability.md``.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "event", "configure", "PACKAGE_LOGGER_NAME"]

PACKAGE_LOGGER_NAME = "repro"

_package_logger = logging.getLogger(PACKAGE_LOGGER_NAME)
_package_logger.addHandler(logging.NullHandler())


def get_logger(name: "str | None" = None) -> logging.Logger:
    """The package logger, or a child (``get_logger("serving.routing")``)."""
    if not name:
        return _package_logger
    return _package_logger.getChild(name)


def _format_value(value) -> str:
    text = str(value)
    if " " in text or "=" in text or not text:
        return repr(text)
    return text


def event(logger: logging.Logger, level: int, name: str, **fields) -> None:
    """Emit one structured ``name key=value ...`` event.

    Fields are formatted lazily-ish but cheaply; call sites on hot paths
    should guard with counters, not log volume (all current sites are
    failure/lifecycle paths, far off the per-query path).
    """
    if not logger.isEnabledFor(level):
        return
    if fields:
        suffix = " ".join(f"{key}={_format_value(val)}" for key, val in fields.items())
        logger.log(level, "%s %s", name, suffix)
    else:
        logger.log(level, "%s", name)


def configure(level: int = logging.INFO, stream=None) -> logging.Handler:
    """Attach a basic stream handler to the package logger (apps/benches).

    Idempotent-ish convenience for scripts: repeated calls stack handlers,
    so call it once.  Returns the handler so callers can remove it.
    """
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    _package_logger.addHandler(handler)
    _package_logger.setLevel(level)
    return handler
