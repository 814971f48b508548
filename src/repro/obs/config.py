"""Frozen observability configuration, nested on ``ServingConfig``.

Follows the repo's frozen-policy idiom (`DurabilityPolicy`,
`AdmissionPolicy`): an immutable dataclass with ``to_dict``/``from_dict``
round-tripping and unknown-key rejection, so a serving deployment is fully
described by one config tree.  This module must stay import-light (no
``repro.serving`` imports) because ``serving.config`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """How a serving deployment exposes its metrics.

    Attributes:
        exporter: start a :class:`~repro.obs.exporter.MetricsExporter`
            alongside the engine (opt-in; off by default so embedding the
            engine never opens sockets).
        host: exporter bind host; localhost by default -- exposition is for
            the operator on the box, not the network.
        port: exporter bind port; ``0`` picks an ephemeral free port
            (read it back from ``engine.metrics_exporter.port``).
    """

    exporter: bool = False
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.port, int) or isinstance(self.port, bool) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be an int in [0, 65535], got {self.port!r}")
        if not self.host:
            raise ValueError("host must be non-empty")

    def to_dict(self) -> dict:
        return {
            "exporter": self.exporter,
            "host": self.host,
            "port": self.port,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ObservabilityConfig":
        if not isinstance(payload, dict):
            raise TypeError(f"ObservabilityConfig payload must be a dict, got {type(payload).__name__}")
        known = {"exporter", "host", "port"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ObservabilityConfig keys: {sorted(unknown)}")
        return cls(**payload)
