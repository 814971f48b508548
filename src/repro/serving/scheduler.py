"""Batched query scheduling for the serving layer.

Every index in this repository is batch-oriented: the GPU cost model and the
RT pipeline both amortise fixed costs over a query batch (Sec. 5.3 of the
paper pipelines RT and Tensor-core stages across batches).  Online traffic,
however, arrives one query at a time.  The :class:`BatchingScheduler`
bridges the two: callers submit single queries and receive tickets, the
scheduler accumulates queries until the batch is full (``max_batch_size``)
or the oldest submission has waited long enough (``max_wait_s``), executes
one batched search, and distributes the result rows back to the tickets.

Latency accounting uses an injectable monotonic clock so tests can drive
the wait-based flush deterministically, and throughput is computed by
:func:`~repro.metrics.qps.queries_per_second`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.qps import queries_per_second
from repro.obs.clock import resolve as resolve_clock


class QueryTicket:
    """Handle for one submitted query; completed when its batch flushes."""

    __slots__ = ("_ids", "_scores")

    def __init__(self) -> None:
        self._ids: np.ndarray | None = None
        self._scores: np.ndarray | None = None

    @property
    def done(self) -> bool:
        """Whether the owning batch has been executed."""
        return self._ids is not None

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(ids, scores)`` row for this query, as *read-only* views.

        The rows of every ticket in a batch share the batched result's
        memory, so a client mutating its row in place would silently corrupt
        its batch-mates' results; the views are frozen so that bug raises
        immediately instead.  Callers that need a mutable array should copy
        (``ids.copy()``).

        Raises:
            RuntimeError: if the batch has not been flushed yet; call
                :meth:`BatchingScheduler.flush` (or submit more queries)
                first.
        """
        if not self.done:
            raise RuntimeError("query ticket is still pending; flush the scheduler first")
        return self._ids, self._scores

    def _complete(self, ids: np.ndarray, scores: np.ndarray) -> None:
        self._ids, self._scores = freeze_result_rows(ids, scores)


def freeze_result_rows(ids: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of one query's result rows (shared batch memory)."""
    ids = ids[...]
    scores = scores[...]
    ids.flags.writeable = False
    scores.flags.writeable = False
    return ids, scores


@dataclass(frozen=True)
class BatchRecord:
    """Accounting for one executed batch.

    Attributes:
        batch_size: number of queries in the batch.
        latency_s: wall-clock duration of the batched search call.
        queue_wait_s: age of the oldest queued query when the batch started.
    """

    batch_size: int
    latency_s: float
    queue_wait_s: float


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregate scheduler statistics across all flushed batches.

    Attributes:
        num_batches: batches executed so far.
        num_queries: queries answered so far.
        mean_batch_size: average queries per batch (0 when idle).
        total_latency_s: summed search latency across batches.
        mean_queue_wait_s: average queue wait of the oldest query per batch.
        qps: measured queries per second over the summed search latency
            (0 when nothing has been measured yet).
    """

    num_batches: int
    num_queries: int
    mean_batch_size: float
    total_latency_s: float
    mean_queue_wait_s: float
    qps: float


def aggregate_batch_records(records: "list[BatchRecord]") -> SchedulerStats:
    """Fold per-batch records into :class:`SchedulerStats`.

    Shared by the synchronous :class:`BatchingScheduler` and the asyncio
    front-end (:class:`repro.serving.async_scheduler.AsyncBatchingScheduler`)
    so both report identical statistics for identical batch histories.
    """
    num_batches = len(records)
    num_queries = sum(record.batch_size for record in records)
    total_latency = sum(record.latency_s for record in records)
    if num_batches == 0:
        return SchedulerStats(0, 0, 0.0, 0.0, 0.0, 0.0)
    mean_wait = sum(record.queue_wait_s for record in records) / num_batches
    if total_latency > 0 and num_queries > 0:
        qps = queries_per_second(num_queries, total_latency)
    else:
        qps = 0.0
    return SchedulerStats(
        num_batches=num_batches,
        num_queries=num_queries,
        mean_batch_size=num_queries / num_batches,
        total_latency_s=total_latency,
        mean_queue_wait_s=mean_wait,
        qps=qps,
    )


@dataclass
class _PendingBatch:
    queries: list[np.ndarray] = field(default_factory=list)
    tickets: list[QueryTicket] = field(default_factory=list)
    opened_at: float = 0.0


class BatchingScheduler:
    """Accumulate single queries into batched searches.

    Args:
        engine: any object with ``search(queries, k, **params)`` returning
            either an object with ``ids``/``scores`` attributes (a
            :class:`~repro.serving.engine.EngineResult` or
            :class:`~repro.core.index.JunoSearchResult`) or an
            ``(ids, scores, ...)`` tuple -- so raw indexes work too.
        k: neighbours returned per query.
        max_batch_size: flush as soon as this many queries are queued.
        max_wait_s: flush on submit when the oldest queued query has waited
            at least this long.
        clock: monotonic time source (injectable for deterministic tests);
            ``None`` uses the shared :func:`repro.obs.clock.now` source.
        **search_params: extra keyword arguments forwarded to every batched
            search call (``nprobs``, ``quality_mode``, ...).
    """

    def __init__(
        self,
        engine,
        k: int = 10,
        max_batch_size: int = 32,
        max_wait_s: float = 0.01,
        clock=None,
        **search_params,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.engine = engine
        self.k = int(k)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.clock = resolve_clock(clock)
        self.search_params = dict(search_params)
        self.records: list[BatchRecord] = []
        self._pending = _PendingBatch()

    # ------------------------------------------------------------ submission
    @property
    def num_pending(self) -> int:
        """Queries queued but not yet executed."""
        return len(self._pending.queries)

    def submit(self, query: np.ndarray) -> QueryTicket:
        """Queue one query; may trigger a flush (size or wait policy)."""
        query = np.asarray(query, dtype=np.float64).ravel()
        if not self._pending.queries:
            self._pending.opened_at = self.clock()
        ticket = QueryTicket()
        self._pending.queries.append(query)
        self._pending.tickets.append(ticket)
        if self.num_pending >= self.max_batch_size:
            self.flush()
        elif self.clock() - self._pending.opened_at >= self.max_wait_s:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Execute the pending batch (if any); returns the batch size."""
        pending, self._pending = self._pending, _PendingBatch()
        if not pending.queries:
            return 0
        batch = np.stack(pending.queries)
        started = self.clock()
        result = self.engine.search(batch, k=self.k, **self.search_params)
        finished = self.clock()
        if hasattr(result, "ids"):
            ids, scores = result.ids, result.scores
        else:
            ids, scores = result[0], result[1]
        for row, ticket in enumerate(pending.tickets):
            ticket._complete(ids[row], scores[row])
        self.records.append(
            BatchRecord(
                batch_size=len(pending.tickets),
                latency_s=max(finished - started, 0.0),
                queue_wait_s=max(started - pending.opened_at, 0.0),
            )
        )
        return len(pending.tickets)

    # ------------------------------------------------------------ statistics
    def stats(self) -> SchedulerStats:
        """Aggregate the per-batch records collected so far."""
        return aggregate_batch_records(self.records)
