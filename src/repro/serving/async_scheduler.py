"""Asyncio batching front-end for the serving stack.

The synchronous :class:`~repro.serving.scheduler.BatchingScheduler` models a
single caller feeding queries; real serving traffic is many concurrent
clients, each awaiting its own answer.  :class:`AsyncBatchingScheduler`
keeps the exact batching policy of the synchronous scheduler (flush when the
batch is full, or when the oldest queued query has waited ``max_wait_s``,
both against the same injectable clock) but exposes it as
``await submit(query)``: the coroutine resolves with the query's
``(ids, scores)`` rows when its batch flushes.  The wait-based flush is
driven by a background task; :meth:`poll` applies one wait-policy check
synchronously so deterministic-clock tests can step the policy without real
sleeping.

Layering: this is the front-end of the three-layer serving stack
(front-end -> replica routing -> worker runtime); it only ever sees an
engine-shaped ``search(queries, k, **params)`` callable, so it runs
unchanged over a single index, a sharded router, or the worker-resident
runtime.
"""

from __future__ import annotations

import asyncio
import logging

import numpy as np

from repro.errors import OverloadError
from repro.obs.clock import resolve as resolve_clock
from repro.obs.log import event as log_event
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.serving.config import AdmissionPolicy
from repro.serving.scheduler import (
    BatchRecord,
    SchedulerStats,
    aggregate_batch_records,
    freeze_result_rows,
)

_log = get_logger("serving.async_scheduler")


class _AsyncPending:
    __slots__ = ("queries", "futures", "opened_at")

    def __init__(self) -> None:
        self.queries: list[np.ndarray] = []
        self.futures: list[asyncio.Future] = []
        self.opened_at: float = 0.0


class AsyncBatchingScheduler:
    """Accumulate concurrently awaited single queries into batched searches.

    Args:
        engine: any object with ``search(queries, k, **params)`` returning
            an ``ids``/``scores`` carrier or an ``(ids, scores, ...)``
            tuple -- the same contract as the synchronous scheduler.
        k: neighbours returned per query.
        max_batch_size: flush as soon as this many queries are queued.
        max_wait_s: flush when the oldest queued query has waited at least
            this long (enforced by the background flush task and by every
            submit).
        clock: monotonic time source (injectable for deterministic tests);
            ``None`` uses the shared :func:`repro.obs.clock.now`
            (``perf_counter``) source.
        poll_interval_s: how often the background task re-checks the wait
            policy; defaults to a quarter of ``max_wait_s``.  Only the
            *check cadence* -- the policy itself reads ``clock``.
        admission: optional
            :class:`~repro.serving.config.AdmissionPolicy` bounding the
            pending queue.  The flush-on-size policy already caps pending
            queries at ``max_batch_size``; an admission policy bounds it
            *tighter* and decides who pays for the overflow -- the
            submitting client (``"reject"``: :meth:`submit` raises
            :class:`~repro.errors.OverloadError`) or the oldest queued one
            (``"shed_oldest"``: its future fails with the same typed error
            and the fresh query is admitted).  Load-shedding counters are
            reported by :meth:`admission_stats`.
        **search_params: extra keyword arguments forwarded to every batched
            search call.

    The batched search itself runs synchronously on the event loop: the
    NumPy work below releases the GIL or runs in resident worker
    processes, and serialising flushes keeps result distribution trivially
    correct.  Clients therefore observe queueing latency + their batch's
    search latency, exactly like the closed-loop harness measures.
    """

    def __init__(
        self,
        engine,
        k: int = 10,
        max_batch_size: int = 32,
        max_wait_s: float = 0.01,
        clock=None,
        poll_interval_s: float | None = None,
        admission: AdmissionPolicy | None = None,
        **search_params,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if poll_interval_s is not None and poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.engine = engine
        self.k = int(k)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.clock = resolve_clock(clock)
        self.poll_interval_s = (
            float(poll_interval_s)
            if poll_interval_s is not None
            else max(self.max_wait_s / 4.0, 1e-4)
        )
        if admission is not None and not isinstance(admission, AdmissionPolicy):
            raise TypeError("admission must be an AdmissionPolicy (or None)")
        self.admission = admission
        self.search_params = dict(search_params)
        self.records: list[BatchRecord] = []
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.peak_queue_depth = 0
        self._pending = _AsyncPending()
        self._flusher: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------ submission
    @property
    def num_pending(self) -> int:
        """Queries queued but not yet executed."""
        return len(self._pending.queries)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; submits are rejected afterwards."""
        return self._closed

    async def submit(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Queue one query and wait for its batch to flush.

        Returns the query's read-only ``(ids, scores)`` rows.  Raises
        :class:`asyncio.CancelledError` if the scheduler is closed while the
        query is still pending, :class:`~repro.errors.OverloadError` if the
        admission policy rejected this query (or, for a *queued* client,
        when a later submit shed it), and whatever the engine raised if its
        batch search failed.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed AsyncBatchingScheduler")
        self._admit()
        loop = asyncio.get_running_loop()
        query = np.asarray(query, dtype=np.float64).ravel()
        if not self._pending.queries:
            self._pending.opened_at = self.clock()
        future: asyncio.Future = loop.create_future()
        self._pending.queries.append(query)
        self._pending.futures.append(future)
        self.admitted += 1
        self.peak_queue_depth = max(self.peak_queue_depth, self.num_pending)
        registry = get_registry()
        registry.counter("repro_admission_admitted_total").inc()
        registry.gauge("repro_queue_depth").set(self.num_pending)
        if self.num_pending >= self.max_batch_size:
            self._flush_pending()
        elif self.clock() - self._pending.opened_at >= self.max_wait_s:
            self._flush_pending()
        else:
            self._ensure_flusher(loop)
        return await future

    def poll(self) -> int:
        """Apply one wait-policy check; returns the flushed batch size.

        The background task calls this every ``poll_interval_s``; tests with
        a fake clock call it directly after advancing time, which makes the
        max-wait flush fully deterministic.
        """
        if (
            self._pending.queries
            and self.clock() - self._pending.opened_at >= self.max_wait_s
        ):
            return self._flush_pending()
        return 0

    async def flush(self) -> int:
        """Unconditionally execute the pending batch; returns its size."""
        return self._flush_pending()

    # ------------------------------------------------------------- admission
    def _admit(self) -> None:
        """Apply the admission policy to one incoming submit.

        Runs *before* the query is queued.  ``"reject"`` pushes the cost of
        overload back onto the submitting client; ``"shed_oldest"`` fails
        the head-of-line client instead (its answer is the stalest and so
        the least likely to still matter) and lets the fresh query in.
        """
        if self.admission is None or not self.admission.bounded:
            return
        if self.num_pending < self.admission.max_queue_depth:
            return
        if self.admission.overload == "reject":
            self.rejected += 1
            get_registry().counter("repro_admission_rejected_total").inc()
            log_event(
                _log,
                logging.WARNING,
                "query_rejected",
                pending=self.num_pending,
                max_queue_depth=self.admission.max_queue_depth,
            )
            raise OverloadError(
                f"admission queue is full ({self.num_pending} pending >= "
                f"max_queue_depth={self.admission.max_queue_depth})"
            )
        # shed_oldest: drop head-of-line entries until the fresh query fits.
        while self.num_pending >= self.admission.max_queue_depth:
            self._pending.queries.pop(0)
            future = self._pending.futures.pop(0)
            self.shed += 1
            get_registry().counter("repro_admission_shed_total").inc()
            log_event(
                _log,
                logging.WARNING,
                "query_shed",
                pending=self.num_pending,
                max_queue_depth=self.admission.max_queue_depth,
            )
            if not future.done():
                future.set_exception(
                    OverloadError(
                        "query shed from an overloaded admission queue "
                        f"(max_queue_depth={self.admission.max_queue_depth})"
                    )
                )

    def admission_stats(self) -> dict:
        """Counters of the admission policy (all zero when disabled).

        Keys: ``admitted`` (queries that entered the queue), ``rejected``
        (submits refused with :class:`~repro.errors.OverloadError`),
        ``shed`` (queued clients failed to admit fresher traffic),
        ``peak_queue_depth``, plus the policy's ``max_queue_depth`` /
        ``overload`` (``None`` when no policy is installed).
        """
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "peak_queue_depth": self.peak_queue_depth,
            "max_queue_depth": self.admission.max_queue_depth if self.admission else None,
            "overload": self.admission.overload if self.admission else None,
        }

    # ------------------------------------------------------------- internals
    def _ensure_flusher(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._run_flusher())

    async def _run_flusher(self) -> None:
        """Background wait-policy driver; exits when nothing is pending."""
        while not self._closed and self._pending.queries:
            await asyncio.sleep(self.poll_interval_s)
            self.poll()

    def _flush_pending(self) -> int:
        pending, self._pending = self._pending, _AsyncPending()
        if not pending.queries:
            return 0
        batch = np.stack(pending.queries)
        started = self.clock()
        try:
            result = self.engine.search(batch, k=self.k, **self.search_params)
        except Exception as exc:
            # Deliver the failure through the waiting futures (every queued
            # query has one), not by crashing the background flush task.
            for future in pending.futures:
                if not future.done():
                    future.set_exception(exc)
            return len(pending.futures)
        finished = self.clock()
        if hasattr(result, "ids"):
            ids, scores = result.ids, result.scores
        else:
            ids, scores = result[0], result[1]
        for row, future in enumerate(pending.futures):
            if not future.done():
                future.set_result(freeze_result_rows(ids[row], scores[row]))
        record = BatchRecord(
            batch_size=len(pending.futures),
            latency_s=max(finished - started, 0.0),
            queue_wait_s=max(started - pending.opened_at, 0.0),
        )
        self.records.append(record)
        registry = get_registry()
        registry.histogram("repro_batch_latency_seconds").observe(record.latency_s)
        registry.histogram("repro_queue_wait_seconds").observe(record.queue_wait_s)
        registry.gauge("repro_queue_depth").set(self.num_pending)
        return len(pending.futures)

    # ------------------------------------------------------------- lifecycle
    async def close(self) -> None:
        """Stop the background task and cancel still-pending submissions.

        Idempotent.  Clients awaiting a cancelled query observe
        :class:`asyncio.CancelledError`; already-delivered results are
        unaffected.
        """
        if self._closed:
            return
        self._closed = True
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        pending, self._pending = self._pending, _AsyncPending()
        for future in pending.futures:
            if not future.done():
                future.cancel()

    async def __aenter__(self) -> "AsyncBatchingScheduler":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------ statistics
    def stats(self) -> SchedulerStats:
        """Aggregate the per-batch records collected so far."""
        return aggregate_batch_records(self.records)
