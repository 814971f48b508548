"""End-to-end observability: metrics registry, tracing, logging, exposition.

The serving stack's telemetry home (PR 10).  Four pieces:

* :mod:`repro.obs.metrics` -- process-local :class:`MetricsRegistry` of
  counters/gauges/histograms, snapshot-to-dict, cross-process snapshot
  merging, Prometheus text rendering.
* :mod:`repro.obs.trace` -- per-query :class:`Trace`/:class:`Span`
  records, propagated across the resident-worker IPC boundary as context
  dicts and stitched back under the coordinator's parent span.
* :mod:`repro.obs.clock` -- the single ``perf_counter``-based timing
  source (injectable for tests) every layer measures with.
* :mod:`repro.obs.exporter` + :mod:`repro.obs.log` -- live exposition
  (``/metrics``, ``/metrics.json``) and the ``repro`` package logger
  (``NullHandler`` by default).

See ``docs/observability.md`` for the metric catalogue, span hierarchy,
and logging event list.
"""

from repro.obs import clock
from repro.obs.config import ObservabilityConfig
from repro.obs.exporter import MetricsExporter
from repro.obs.log import configure as configure_logging
from repro.obs.log import event as log_event
from repro.obs.log import get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus,
    set_registry,
)
from repro.obs.trace import Span, Trace

__all__ = [
    "clock",
    "ObservabilityConfig",
    "MetricsExporter",
    "configure_logging",
    "log_event",
    "get_logger",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "render_prometheus",
    "set_registry",
    "Span",
    "Trace",
]
