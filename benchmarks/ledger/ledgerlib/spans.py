"""The benchmark's own stopwatch: in-memory spans around calls into each layer.

A span is ``(id, name, start, end, parent, request)``.  Spans opened while
another span of the same recorder is open become its children, and inherit
its request id, so one request's spans form a tree.  The recorder keeps
everything in memory; :func:`dump` writes the spans out when the run ends.

:func:`timed_calls` is how a layer is timed *from outside*: for the length of
a ``with`` block it replaces a public callable of the program (a stage's
``run``, ``RayTracer.trace_vertical_batch``, ``WriteAheadLog.append``, ...)
with a wrapper that records a span around the original and returns what the
original returned.  No file of the program changes and the untraced run never
sees a wrapper.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()

#: Slack when comparing span boundaries.  Spans adopted from worker processes
#: were timed by another process; ``perf_counter`` is CLOCK_MONOTONIC on Linux,
#: which all processes of one machine share, so boundaries line up to well
#: under this.
NESTING_TOLERANCE_S = 2e-4


class Span:
    """One timed call.  ``end`` is ``None`` while the span is open."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "pid")

    def __init__(self, id, name, start, end, parent, request, pid):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "pid": self.pid,
        }


class SpanRecorder:
    """Collects spans of one process; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._pid = os.getpid()

    def open(self, name: str, request=None) -> Span:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            len(self.spans),
            name,
            perf_counter(),
            None,
            parent.id if parent is not None else None,
            request,
            self._pid,
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed while {popped.name!r} was innermost")

    @contextmanager
    def span(self, name: str, request=None):
        span = self.open(name, request)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, name: str, start: float, end: float, parent=None, request=None, pid=None) -> Span:
        """Record a span that was measured elsewhere (another task or process)."""
        span = Span(
            len(self.spans),
            name,
            float(start),
            float(end),
            parent,
            request,
            self._pid if pid is None else int(pid),
        )
        self.spans.append(span)
        return span


@contextmanager
def timed_calls(recorder: SpanRecorder, targets, on_result=None):
    """Record a span around every call of the given callables.

    ``targets`` is a list of ``(owner, attribute, span name)``; the owner is a
    class, a module or an instance.  ``on_result(span, result)`` (optional)
    runs after each wrapped call, outside the span, with what it returned.
    The originals are restored when the block exits.
    """
    installed = []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            previous = vars(owner).get(attribute, _MISSING)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                span = recorder.open(_name)
                try:
                    result = _original(*args, **kwargs)
                finally:
                    recorder.close(span)
                if on_result is not None:
                    on_result(span, result)
                return result

            setattr(owner, attribute, wrapper)
            installed.append((owner, attribute, previous))
        yield
    finally:
        for owner, attribute, previous in reversed(installed):
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)


# --------------------------------------------------------------------- analysis
def children_of(spans) -> dict:
    """``parent id -> [child spans]`` for a list of closed spans."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def covered(span: Span, children) -> float:
    """Length of the part of ``span`` that its children's intervals cover.

    A union, not a sum: children of a fan-out run in parallel, and two that
    overlap must not be counted twice.
    """
    total = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """A layer's own time: its span minus the interval its children cover."""
    return span.duration - covered(span, children)


def nesting_violations(spans) -> list[str]:
    """Every way the span tree contradicts itself (empty when sound).

    A child must lie inside its parent, and the children a process ran one
    after another cannot add up to more than the parent lasted.  (Children
    from other processes ran in parallel; for them only the bounds hold.)
    """
    by_id = {span.id: span for span in spans}
    problems = []
    for span in spans:
        if span.end is None:
            problems.append(f"span {span.id} {span.name!r} was never closed")
        elif span.end < span.start:
            problems.append(f"span {span.id} {span.name!r} ends before it starts")
    for parent_id, children in children_of(spans).items():
        parent = by_id[parent_id]
        for child in children:
            if (
                child.start < parent.start - NESTING_TOLERANCE_S
                or child.end > parent.end + NESTING_TOLERANCE_S
            ):
                problems.append(
                    f"span {child.id} {child.name!r} leaves its parent {parent.id} {parent.name!r}"
                )
        sequential = sum(child.duration for child in children if child.pid == parent.pid)
        if sequential > parent.duration + NESTING_TOLERANCE_S:
            problems.append(f"children of span {parent.id} {parent.name!r} outlast it")
    return problems


def per_request_s(spans, name: str, scale=None) -> dict:
    """``request -> seconds`` summed over that request's spans called ``name``.

    ``scale(span)`` (optional) multiplies each span's duration: the machine's
    speed factor at the time the span ran.
    """
    sums: dict = {}
    for span in spans:
        if span.name == name:
            seconds = span.duration if scale is None else span.duration * scale(span)
            sums[span.request] = sums.get(span.request, 0.0) + seconds
    return sums


def median_ms(spans, name: str, scale=None) -> float:
    """Median over requests of :func:`per_request_s`, in ms; 0 when no such span."""
    values = list(per_request_s(spans, name, scale).values())
    return statistics.median(values) * 1e3 if values else 0.0


def dump(path, spans) -> None:
    """Write the spans as JSON lines, one span per line, in recording order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
