"""A uniform serving facade over every index family in the repository.

The paper compares JUNO against brute-force, FAISS-style IVFPQ and
HNSW-accelerated baselines (Sec. 6.1); each has grown its own search
signature and result type.  :class:`ServingEngine` normalises them behind
one interface so the serving stack -- the batching scheduler, the benchmark
harness, an RPC layer someday -- is written once:

* every backend returns an :class:`EngineResult` with ``(Q, k)`` ids padded
  with ``-1``, aligned scores and a :class:`~repro.gpu.work.SearchWork`
  record for the GPU cost model;
* backend-specific knobs (``nprobs``, ``quality_mode``, ``threshold_scale``,
  ``ef``, and for the JUNO backends a custom ``pipeline``) are declared per
  adapter, and passing a knob the backend does not understand raises instead
  of being silently dropped;
* JUNO backends surface the staged pipeline's per-stage wall-clock and
  :class:`SearchWork` breakdowns (``extra["stage_seconds"]`` /
  ``extra["stage_work"]``), which :meth:`ServingEngine.modelled_stage_latencies`
  feeds to the cost model stage by stage instead of per batch.

The engine is a context manager; exiting (or calling the idempotent
:meth:`ServingEngine.close`) releases backend resources such as a sharded
index's fan-out executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.serving.async_scheduler import AsyncBatchingScheduler

from repro.baselines.exact import ExactSearch
from repro.baselines.hnsw import HNSWIndex
from repro.baselines.ivfpq import IVFPQIndex
from repro.core.index import JunoIndex
from repro.gpu.cost_model import CostModel
from repro.gpu.work import SearchWork
from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import get_registry, merge_snapshots
from repro.serving.config import ServingConfig
from repro.serving.scheduler import BatchingScheduler
from repro.serving.shard import ShardedJunoIndex
from repro.updates.mutable import MutableJunoIndex


@dataclass
class EngineResult:
    """Backend-independent search output.

    Attributes:
        ids: ``(Q, k)`` neighbour ids, best-first, padded with ``-1``.
        scores: ``(Q, k)`` scores aligned with ``ids``.
        work: operation counters for the batch (feeds the cost model).
        backend: name of the backend that produced the result.
        extra: backend-specific diagnostics (quality mode, sparsity, ...).
    """

    ids: np.ndarray
    scores: np.ndarray
    work: SearchWork
    backend: str
    extra: dict = field(default_factory=dict)


_JUNO_PARAMS = frozenset({"nprobs", "quality_mode", "threshold_scale", "pipeline", "trace"})
_IVFPQ_PARAMS = frozenset({"nprobs"})
_HNSW_PARAMS = frozenset({"ef"})
_EXACT_PARAMS: frozenset = frozenset()


def _search_juno(index, queries: np.ndarray, k: int, params: dict) -> EngineResult:
    result = index.search(queries, k, **params)
    extra = dict(result.extra)
    extra["quality_mode"] = result.quality_mode.value
    extra["threshold_scale"] = result.threshold_scale
    extra["selected_entry_fraction"] = result.selected_entry_fraction
    return EngineResult(
        ids=result.ids,
        scores=result.scores,
        work=result.work,
        backend="juno",
        extra=extra,
    )


def _search_ivfpq(index: IVFPQIndex, queries: np.ndarray, k: int, params: dict) -> EngineResult:
    result = index.search(queries, k, **params)
    return EngineResult(
        ids=result.ids,
        scores=result.scores,
        work=result.work,
        backend="ivfpq",
        extra={},
    )


def _search_exact(index: ExactSearch, queries: np.ndarray, k: int, params: dict) -> EngineResult:
    ids, scores, work = index.search(queries, k)
    return EngineResult(ids=ids, scores=scores, work=work, backend="exact", extra={})


def _search_hnsw(index: HNSWIndex, queries: np.ndarray, k: int, params: dict) -> EngineResult:
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    index.reset_counters()
    ids, scores = index.search_batch(queries, k, **params)
    padded = ids < 0
    scores = np.where(padded, index.metric.worst_value(), scores)
    work = SearchWork(
        num_queries=queries.shape[0],
        filter_flops=2.0 * queries.shape[1] * index.distance_evaluations,
        sorted_candidates=float(index.distance_evaluations),
    )
    return EngineResult(ids=ids, scores=scores, work=work, backend="hnsw", extra={})


_ADAPTERS = (
    (ShardedJunoIndex, "sharded-juno", _search_juno, _JUNO_PARAMS),
    (MutableJunoIndex, "mutable-juno", _search_juno, _JUNO_PARAMS),
    (JunoIndex, "juno", _search_juno, _JUNO_PARAMS),
    (IVFPQIndex, "ivfpq", _search_ivfpq, _IVFPQ_PARAMS),
    (ExactSearch, "exact", _search_exact, _EXACT_PARAMS),
    (HNSWIndex, "hnsw", _search_hnsw, _HNSW_PARAMS),
)

#: JUNO-family backends whose latencies default to the pipelined cost model.
_JUNO_BACKENDS = ("juno", "sharded-juno", "mutable-juno")


class ServingEngine:
    """One search interface for JUNO, sharded JUNO and all baselines.

    Args:
        index: a trained index of any supported family
            (:class:`JunoIndex`, :class:`ShardedJunoIndex`,
            :class:`IVFPQIndex`, :class:`ExactSearch`, :class:`HNSWIndex`).
        label: display name; defaults to ``config.label`` and then to the
            backend family name.
        cost_model: optional :class:`CostModel` enabling
            :meth:`modelled_qps`.
        config: optional :class:`~repro.serving.config.ServingConfig`.  The
            engine reads ``config.label`` (default display name),
            ``config.admission`` (default
            :class:`~repro.serving.config.AdmissionPolicy` for schedulers
            built by :meth:`serve_async`) and ``config.observability``
            (when its ``exporter`` flag is set the engine starts a
            :class:`~repro.obs.exporter.MetricsExporter` over
            :meth:`metrics_snapshot` and stops it on :meth:`close`); the
            deployment-shaped fields (``executor``, ``replicas``, ...)
            belong to :meth:`ShardedJunoIndex.load` and are ignored here.
    """

    def __init__(
        self,
        index,
        label: str | None = None,
        cost_model: CostModel | None = None,
        config: ServingConfig | None = None,
    ):
        if config is not None and not isinstance(config, ServingConfig):
            raise TypeError(f"config must be a ServingConfig, got {type(config).__name__}")
        for index_type, backend, adapter, accepted in _ADAPTERS:
            if isinstance(index, index_type):
                self.index = index
                self.backend = backend
                self._adapter = adapter
                self._accepted = accepted
                break
        else:
            raise TypeError(f"no serving adapter for index type {type(index).__name__}")
        self.config = config
        if label is None and config is not None:
            label = config.label
        self.label = label if label is not None else self.backend
        self.cost_model = cost_model
        self.metrics_exporter: MetricsExporter | None = None
        if config is not None and config.observability.exporter:
            self.metrics_exporter = MetricsExporter(
                self.metrics_snapshot,
                host=config.observability.host,
                port=config.observability.port,
            ).start()

    def accepts(self, param: str) -> bool:
        """Whether this backend understands the given search parameter."""
        return param in self._accepted

    # ------------------------------------------------------------- mutations
    @property
    def supports_updates(self) -> bool:
        """Whether the backend accepts :meth:`upsert` / :meth:`delete`.

        True for the mutable-index backends (:mod:`repro.updates`): a
        :class:`~repro.updates.mutable.MutableJunoIndex` or a
        :class:`~repro.serving.shard.ShardedJunoIndex` with updates enabled.
        """
        return (
            callable(getattr(self.index, "upsert", None))
            and callable(getattr(self.index, "delete", None))
            and getattr(self.index, "mutable", True)
        )

    def upsert(self, ids, vectors):
        """Insert or replace vectors by global id (mutable backends only).

        Visible to the next search: read-your-writes.
        """
        if not self.supports_updates:
            raise TypeError(f"backend {self.backend!r} does not support streaming updates")
        return self.index.upsert(ids, vectors)

    def delete(self, ids):
        """Delete live points by global id (mutable backends only)."""
        if not self.supports_updates:
            raise TypeError(f"backend {self.backend!r} does not support streaming updates")
        return self.index.delete(ids)

    def maybe_compact(self):
        """Run the backend's explicit, schedulable compaction step.

        Mutations never compact inline (see
        :meth:`repro.updates.mutable.MutableJunoIndex.maybe_compact`); a
        maintenance loop -- typically a
        :class:`~repro.serving.recovery.ReplicaSupervisor` -- calls this
        between batches instead.  Returns whatever the backend reports
        (``bool`` for a single mutable index, compacted shard ids for the
        sharded router).
        """
        if not self.supports_updates:
            raise TypeError(f"backend {self.backend!r} does not support streaming updates")
        return self.index.maybe_compact()

    def search(self, queries: np.ndarray, k: int, **params) -> EngineResult:
        """Batched search through the backend adapter.

        Args:
            queries: ``(Q, D)`` query batch.
            k: neighbours per query.
            **params: backend knobs; must all be accepted by the backend
                (see :meth:`accepts`), otherwise a :class:`ValueError` is
                raised.

        Returns:
            An :class:`EngineResult` with ``-1``-padded global ids.
        """
        self._validate_params(params)
        result = self._adapter(self.index, queries, k, params)
        result.backend = self.backend
        result.extra.setdefault("label", self.label)
        return result

    def _validate_params(self, params: dict) -> None:
        unsupported = sorted(set(params) - self._accepted)
        if unsupported:
            raise ValueError(f"backend {self.backend!r} does not accept parameters {unsupported}")

    def make_scheduler(self, k: int = 10, **scheduler_params) -> BatchingScheduler:
        """A :class:`BatchingScheduler` that feeds batches into this engine.

        Keyword arguments accepted by the scheduler (``max_batch_size``,
        ``max_wait_s``, ``clock``) are passed through; everything else is
        treated as a search parameter and validated against the backend.
        """
        scheduler_kwargs, search_params = self._split_scheduler_params(
            scheduler_params, ("max_batch_size", "max_wait_s", "clock")
        )
        return BatchingScheduler(self, k=k, **scheduler_kwargs, **search_params)

    def serve_async(self, k: int = 10, **scheduler_params) -> "AsyncBatchingScheduler":
        """An :class:`AsyncBatchingScheduler` front-end over this engine.

        The asyncio counterpart of :meth:`make_scheduler`: concurrent
        clients ``await scheduler.submit(query)`` and resolve when their
        batch flushes.  Scheduler knobs (``max_batch_size``, ``max_wait_s``,
        ``clock``, ``poll_interval_s``, ``admission``) pass through;
        everything else is a search parameter validated against the backend.
        When the engine was built with a :class:`ServingConfig` whose
        :class:`~repro.serving.config.AdmissionPolicy` is bounded, that
        policy is the scheduler's default admission control.  Use the
        scheduler as an async context manager so pending clients are
        cancelled on exit.
        """
        from repro.serving.async_scheduler import AsyncBatchingScheduler

        scheduler_kwargs, search_params = self._split_scheduler_params(
            scheduler_params,
            ("max_batch_size", "max_wait_s", "clock", "poll_interval_s", "admission"),
        )
        if "admission" not in scheduler_kwargs and self.config is not None:
            if self.config.admission.bounded:
                scheduler_kwargs["admission"] = self.config.admission
        return AsyncBatchingScheduler(self, k=k, **scheduler_kwargs, **search_params)

    def _split_scheduler_params(
        self, params: dict, scheduler_keys: tuple[str, ...]
    ) -> tuple[dict, dict]:
        scheduler_kwargs = {}
        search_params = {}
        for key, value in params.items():
            if key in scheduler_keys:
                scheduler_kwargs[key] = value
            else:
                search_params[key] = value
        self._validate_params(search_params)
        return scheduler_kwargs, search_params

    # --------------------------------------------------------- observability
    def metrics_snapshot(self) -> dict:
        """One merged metrics snapshot for the whole deployment.

        Merges this process's default-registry snapshot with the latest
        per-worker snapshots a resident fan-out executor has collected
        (piggybacked on task replies), so counters and per-stage latency
        histograms cover coordinator *and* worker processes.  This is the
        collect callable behind the engine's :class:`MetricsExporter` when
        ``config.observability.exporter`` is set; it is also callable
        directly (e.g. by the bench harness at the end of a run).
        """
        snapshots = [get_registry().snapshot()]
        accessor = getattr(self.index, "resident_executor", None)
        if callable(accessor):
            try:
                executor = accessor()
            except TypeError:
                executor = None  # router exists but is not worker-resident
            if executor is not None:
                snapshots.append(executor.worker_metrics())
        return merge_snapshots(snapshots)

    def modelled_qps(self, result: EngineResult, pipelined: bool | None = None) -> float:
        """Modelled throughput of a result under the engine's cost model.

        ``pipelined`` defaults to ``True`` for the JUNO backends (the
        RT/Tensor pipeline of Sec. 5.3) and ``False`` for the baselines.
        """
        if self.cost_model is None:
            raise RuntimeError("ServingEngine was constructed without a cost model")
        if pipelined is None:
            pipelined = self.backend in _JUNO_BACKENDS
        return self.cost_model.qps(result.work, pipelined=pipelined)

    def stage_seconds(self, result: EngineResult) -> dict[str, float]:
        """Measured per-stage seconds of a staged-pipeline result.

        For the single-index backend these are wall-clock stage timings.
        For the sharded backend they are *summed over shards*, so under a
        parallel fan-out executor they are aggregate per-shard work time and
        can exceed the batch's elapsed wall-clock by up to the shard count
        -- compare stages against each other, not against end-to-end
        latency.  Empty for backends that do not run the staged pipeline.
        """
        return dict(result.extra.get("stage_seconds", {}))

    def modelled_stage_latencies(self, result: EngineResult) -> dict[str, float]:
        """Modelled per-stage GPU seconds from the result's work breakdown.

        Routes every stage's :class:`SearchWork` slice through the cost
        model (:meth:`repro.gpu.cost_model.CostModel.stage_latencies`), so
        the model is fed per stage instead of per batch.  Empty for backends
        without a stage breakdown.
        """
        if self.cost_model is None:
            raise RuntimeError("ServingEngine was constructed without a cost model")
        stage_work = result.extra.get("stage_work", {})
        return self.cost_model.stage_latencies(stage_work)

    def close(self) -> None:
        """Release backend resources (idempotent).

        Only the sharded backend holds resources today (its fan-out
        executor), plus the metrics exporter when one was started; other
        backends are no-ops.
        """
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
            self.metrics_exporter = None
        index_close = getattr(self.index, "close", None)
        if callable(index_close):
            index_close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
