"""Per-query distributed tracing for the sharded serving stack.

A :class:`Trace` is a lightweight collection of :class:`Span` records tied
together by one ``trace_id``.  The coordinator opens a trace per query
batch (``ShardedJunoIndex.search``), records spans for the fan-out, the
delta-merge, and the exact rerank, and propagates a picklable *context*
dict (``{"trace_id", "parent_span_id"}``) to each shard leg inside the
search params.  Resident workers rebuild a child :class:`Trace` from that
context, record their pipeline-stage spans, and ship the finished span
dicts back inside ``result.extra["trace"]`` -- the coordinator adopts them
(:meth:`Trace.adopt`), stitching every worker span under its own parent
span so one trace id covers the whole query.

Span timestamps come from :mod:`repro.obs.clock` (``perf_counter``), which
is process-relative: durations and parent/child structure are meaningful
across processes, absolute starts only within one process.  Each span
records the pid it was measured in so consumers can line up per-process
timelines.
"""

from __future__ import annotations

import itertools
import os
import secrets
from contextlib import contextmanager

from repro.obs import clock as obs_clock

__all__ = ["Span", "Trace"]


class Span:
    """One timed operation inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s", "duration_s", "pid", "attributes")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        name: str,
        parent_id: "str | None" = None,
        start_s: float = 0.0,
        duration_s: float = 0.0,
        pid: "int | None" = None,
        attributes: "dict | None" = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = float(start_s)
        self.duration_s = float(duration_s)
        self.pid = os.getpid() if pid is None else int(pid)
        self.attributes = dict(attributes) if attributes else {}

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            name=payload["name"],
            parent_id=payload.get("parent_id"),
            start_s=payload.get("start_s", 0.0),
            duration_s=payload.get("duration_s", 0.0),
            pid=payload.get("pid"),
            attributes=payload.get("attributes"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_s * 1e3:.3f}ms)"
        )


class Trace:
    """A tree of spans under one trace id; not thread-safe by design.

    One trace belongs to one query batch on one thread (the coordinator's,
    or a worker's); cross-process composition happens through context dicts
    and :meth:`adopt`, never by sharing the object.
    """

    __slots__ = ("trace_id", "spans", "_parent_stack", "_ids", "_clock")

    def __init__(
        self,
        trace_id: "str | None" = None,
        parent_span_id: "str | None" = None,
        clock=None,
    ) -> None:
        self.trace_id = trace_id if trace_id else secrets.token_hex(8)
        self.spans: list = []
        self._parent_stack: list = [parent_span_id]
        self._ids = itertools.count(1)
        self._clock = obs_clock.resolve(clock)

    # ------------------------------------------------------------- recording
    def _next_span_id(self) -> str:
        return f"{os.getpid():x}-{next(self._ids):x}"

    @property
    def current_span_id(self) -> "str | None":
        """The span id new child spans will attach under."""
        return self._parent_stack[-1]

    @contextmanager
    def span(self, name: str, **attributes):
        """Record a span around a block; nested calls become children."""
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_span_id(),
            name=name,
            parent_id=self.current_span_id,
            start_s=self._clock(),
            attributes=attributes,
        )
        self._parent_stack.append(span.span_id)
        try:
            yield span
        finally:
            span.duration_s = max(self._clock() - span.start_s, 0.0)
            self._parent_stack.pop()
            self.spans.append(span)

    # ----------------------------------------------------------- propagation
    def context(self) -> dict:
        """Picklable propagation payload for a downstream process/leg."""
        return {"trace_id": self.trace_id, "parent_span_id": self.current_span_id}

    def adopt(self, span_dicts) -> int:
        """Stitch spans recorded elsewhere (worker legs) into this trace.

        Foreign spans keep their own parent links (already rooted at this
        trace's context via :meth:`context`) but are rewritten onto this
        trace id, so a trace forwarded through several hops still coheres.
        Returns the number of spans adopted.
        """
        adopted = 0
        for payload in span_dicts or ():
            span = payload if isinstance(payload, Span) else Span.from_dict(payload)
            span.trace_id = self.trace_id
            self.spans.append(span)
            adopted += 1
        return adopted

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [span.to_dict() for span in self.spans],
        }

    @staticmethod
    def ensure(value, clock=None) -> "Trace":
        """Coerce a search-param ``trace`` value into a live :class:`Trace`.

        ``None`` opens a fresh root trace; a context dict (what rides in
        worker search params) opens a child trace under the propagated
        parent; an existing :class:`Trace` passes through.
        """
        if value is None:
            return Trace(clock=clock)
        if isinstance(value, Trace):
            return value
        if isinstance(value, dict):
            return Trace(
                trace_id=value.get("trace_id"),
                parent_span_id=value.get("parent_span_id"),
                clock=clock,
            )
        raise TypeError(f"trace must be None, a Trace, or a context dict, got {type(value).__name__}")
