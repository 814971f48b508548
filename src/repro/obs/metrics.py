"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

The serving stack accumulates operational counters in many places (RT
rays and hits, admission decisions, failover retries, WAL fsyncs); this module
gives them one home.  A :class:`MetricsRegistry` is a process-local,
thread-safe collection of named instruments:

* :class:`Counter` -- monotonically increasing float (``inc``).
* :class:`Gauge` -- point-in-time value (``set``/``inc``/``dec``).
* :class:`Histogram` -- fixed upper-bound buckets with p50/p90/p99
  summaries estimated by linear interpolation within the landing bucket.

Instruments are identified by ``(name, labels)``; ``registry.counter(name,
**labels)`` is get-or-create, so call sites never coordinate registration.
The hot path is one dict lookup plus one per-instrument lock -- cheap
enough to sit inside the query pipeline (the ``test_obs_perf`` slow test
pins the overhead).

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts so
they can ride the resident-worker IPC boundary; :func:`merge_snapshots`
folds per-process snapshots into one view (counters and histogram buckets
sum; gauges sum too, which is only meaningful for a per-process *amount*
like queue depth or resident bytes -- a ratio or a "last value" must be
exported as counters and divided by the reader), and
:func:`render_prometheus` turns a
snapshot into Prometheus text exposition for :class:`~repro.obs.exporter.
MetricsExporter`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "merge_snapshots",
    "render_prometheus",
]

#: Default histogram buckets (seconds): ~5 per decade from 10us to 10s.
#: Chosen to straddle everything this repo measures, from a single small
#: pipeline stage (tens of microseconds) to a cold shard respawn (seconds).
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; inc() amount must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value (may go up or down)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit ``+Inf`` bucket.  Percentiles are estimated
    by locating the bucket containing the target rank in the cumulative
    distribution and interpolating linearly inside it -- exact enough for
    operational p50/p90/p99 given ~5 buckets per decade.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, labels: dict, buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be non-empty, sorted, and unique")
        self.name = name
        self.labels = dict(labels)
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Interpolated value at quantile ``q`` in [0, 1]; NaN when empty."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        return _bucket_percentile(self.buckets, counts, total, q)

    def summary(self) -> dict:
        """``{count, sum, p50, p90, p99}`` for reports and snapshots."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        return {
            "count": total,
            "sum": acc,
            "p50": _bucket_percentile(self.buckets, counts, total, 0.50),
            "p90": _bucket_percentile(self.buckets, counts, total, 0.90),
            "p99": _bucket_percentile(self.buckets, counts, total, 0.99),
        }


def _bucket_percentile(bounds: tuple, counts: list, total: int, q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if total <= 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for idx, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        lower = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            hi = bounds[idx] if idx < len(bounds) else bounds[-1]
            lo = bounds[idx - 1] if 0 < idx <= len(bounds) else 0.0
            if idx >= len(bounds):
                return hi  # +Inf bucket: report the last finite bound
            fraction = (rank - lower) / bucket_count
            return lo + (hi - lo) * fraction
    return bounds[-1]


class MetricsRegistry:
    """Process-local, thread-safe collection of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -------------------------------------------------------- get-or-create
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, labels)
        return instrument

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(name, labels, buckets)
        return instrument

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """A JSON-able point-in-time dump of every instrument.

        Shape (stable; the exporter and the cross-process merge depend on
        it)::

            {"counters":   [{"name", "labels", "value"}, ...],
             "gauges":     [{"name", "labels", "value"}, ...],
             "histograms": [{"name", "labels", "buckets", "counts",
                             "sum", "count"}, ...]}
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        snap = {"counters": [], "gauges": [], "histograms": []}
        for c in counters:
            snap["counters"].append({"name": c.name, "labels": dict(c.labels), "value": c.value})
        for g in gauges:
            snap["gauges"].append({"name": g.name, "labels": dict(g.labels), "value": g.value})
        for h in histograms:
            with h._lock:
                counts = list(h._counts)
                total = h._count
                acc = h._sum
            snap["histograms"].append(
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "buckets": list(h.buckets),
                    "counts": counts,
                    "sum": acc,
                    "count": total,
                }
            )
        return snap

    def clear(self) -> None:
        """Drop every instrument (tests only; live handles go stale)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-local default registry every instrumented site uses."""
    return _default_registry


def set_registry(registry: "MetricsRegistry | None") -> MetricsRegistry:
    """Swap the default registry (tests); ``None`` installs a fresh one.

    Returns the previous registry so callers can restore it.
    """
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry if registry is not None else MetricsRegistry()
    return previous


# ---------------------------------------------------------------- merging
def _entry_key(entry: dict) -> tuple:
    return (entry["name"], _label_key(entry.get("labels", {})))


def merge_snapshots(snapshots) -> dict:
    """Fold per-process registry snapshots into one aggregate snapshot.

    Counters and histogram bucket counts sum across snapshots; gauges sum
    too, so a gauge must be a per-process amount whose fleet-wide value is
    the total (queue depth, resident bytes) -- never a ratio: two workers'
    hits-per-ray would merge to twice the truth, which is why the RT-select
    stage exports ``repro_rt_{rays,hits,slots}_total`` counters instead.
    Histograms merged under the same
    ``(name, labels)`` must share bucket bounds -- they always do, because
    the bounds are fixed in code -- otherwise the entry is kept from the
    first snapshot and the rest are dropped rather than mis-summed.

    The input order is preserved for first occurrence, so merged output is
    deterministic given deterministic input order.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for entry in snap.get("counters", ()):
            key = _entry_key(entry)
            slot = counters.get(key)
            if slot is None:
                counters[key] = dict(entry)
            else:
                slot["value"] += entry["value"]
        for entry in snap.get("gauges", ()):
            key = _entry_key(entry)
            slot = gauges.get(key)
            if slot is None:
                gauges[key] = dict(entry)
            else:
                slot["value"] += entry["value"]
        for entry in snap.get("histograms", ()):
            key = _entry_key(entry)
            slot = histograms.get(key)
            if slot is None:
                histograms[key] = {**entry, "counts": list(entry["counts"])}
            elif list(slot["buckets"]) == list(entry["buckets"]):
                slot["counts"] = [a + b for a, b in zip(slot["counts"], entry["counts"])]
                slot["sum"] += entry["sum"]
                slot["count"] += entry["count"]
    return {
        "counters": list(counters.values()),
        "gauges": list(gauges.values()),
        "histograms": list(histograms.values()),
    }


# ------------------------------------------------------------- exposition
def _escape_label_value(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_series(name: str, labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(val)}"' for key, val in sorted(merged.items())
    )
    return f"{name}{{{inner}}}"


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (v0.0.4) of one (merged) snapshot."""
    lines: list = []
    typed: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", []):
        type_line(entry["name"], "counter")
        lines.append(
            f"{_format_series(entry['name'], entry.get('labels', {}))} "
            f"{_format_number(entry['value'])}"
        )
    for entry in snapshot.get("gauges", []):
        type_line(entry["name"], "gauge")
        lines.append(
            f"{_format_series(entry['name'], entry.get('labels', {}))} "
            f"{_format_number(entry['value'])}"
        )
    for entry in snapshot.get("histograms", []):
        name = entry["name"]
        labels = entry.get("labels", {})
        type_line(name, "histogram")
        cumulative = 0
        bounds = list(entry["buckets"]) + [float("inf")]
        for bound, count in zip(bounds, entry["counts"]):
            cumulative += count
            series = _format_series(f"{name}_bucket", labels, {"le": _format_number(bound)})
            lines.append(f"{series} {cumulative}")
        lines.append(f"{_format_series(name + '_sum', labels)} {_format_number(entry['sum'])}")
        lines.append(f"{_format_series(name + '_count', labels)} {cumulative}")
    return "\n".join(lines) + "\n"
