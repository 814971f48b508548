"""The mutable state threaded through a staged query execution.

A :class:`QueryContext` is created once per search call and handed to every
stage of a :class:`~repro.pipeline.pipeline.QueryPipeline` in order.  Each
stage reads the artefacts produced by its predecessors (selected clusters,
ray origins, thresholds, the selective LUT, candidate lists) and writes its
own, so the context doubles as the contract between stages: a custom stage
can be inserted anywhere as long as the fields it needs are populated by an
earlier stage.

All operation counters are accumulated into one shared
:class:`~repro.gpu.work.SearchWork` record -- the same accounting the
monolithic search performed -- while the pipeline additionally snapshots the
record around every stage to attribute per-stage deltas (``stage_work``) and
wall-clock timings (``stage_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.config import QualityMode
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.index import JunoIndex, JunoSearchResult
    from repro.core.selective_lut import SelectiveLUT


@dataclass
class QueryContext:
    """Everything a stage may read or write while executing one batch.

    Attributes:
        index: the trained :class:`~repro.core.index.JunoIndex` the stages
            operate on (``None`` for index-free fragments such as a
            stand-alone exact rerank over merged shard results).
        queries: ``(Q, D)`` query batch.
        k: neighbours to return per query.
        nprobs: coarse clusters probed per query (clamped by the coarse
            filter stage to the number of available clusters).
        quality_mode: resolved JUNO-L/M/H operating point.
        threshold_scale: resolved threshold scaling factor.
        metric: ranking metric of the search.
        work: shared operation counters for the whole batch.
        selected: ``(Q, nprobs)`` probed cluster ids (coarse filter stage).
        origins: ``(Q * nprobs, S, 2)`` ray origins (threshold stage).
        query_cluster_ip: ``(Q, nprobs)`` per-cluster IP(q, c) constants for
            MIPS, ``None`` for L2 (threshold stage).
        thresholds: ``(Q * nprobs, S)`` dynamic thresholds (threshold stage).
        t_max: ``(Q * nprobs, S)`` ray travel budgets (threshold stage).
        lut: the selective LUT built by the RT stage: its table of score
            contributions (the ray's miss value where it selected nothing)
            and the hit grid beside it.
        candidates: per-query ``(ids, scores)`` candidate arrays produced by
            the score stage; ``None`` entries mark queries with no candidates.
        candidate_total: total candidates that entered top-k selection.
        ids: final ``(Q, k)`` neighbour ids (top-k / rerank stages).
        scores: final ``(Q, k)`` scores aligned with ``ids``.
        selected_entry_fraction: average fraction of codebook entries
            selected per (ray, subspace).
        extra: diagnostics accumulated by stages.
        stage_seconds: wall-clock seconds per stage name, in execution order.
        stage_work: per-stage :class:`SearchWork` deltas, keyed like
            ``stage_seconds``.
        trace: optional :class:`~repro.obs.trace.Trace` the pipeline records
            per-stage spans into; exported as ``extra["trace"]`` by
            :meth:`to_result` so worker-side spans ride back across the
            resident IPC boundary for coordinator stitching.
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` stages
            publish their own gauges to.  Set by the pipeline for the length
            of a run; ``None`` under ``instrument=False`` (and outside a
            pipeline), which is how a stage knows to stay silent.
    """

    queries: np.ndarray
    k: int
    nprobs: int
    quality_mode: QualityMode
    threshold_scale: float
    metric: Metric
    work: SearchWork
    index: "JunoIndex | None" = None
    selected: np.ndarray | None = None
    origins: np.ndarray | None = None
    query_cluster_ip: np.ndarray | None = None
    thresholds: np.ndarray | None = None
    t_max: np.ndarray | None = None
    lut: "SelectiveLUT | None" = None
    candidates: list[tuple[np.ndarray, np.ndarray] | None] | None = None
    candidate_total: float = 0.0
    ids: np.ndarray | None = None
    scores: np.ndarray | None = None
    selected_entry_fraction: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_work: dict[str, SearchWork] = field(default_factory=dict)
    trace: Any = None
    registry: Any = None

    @property
    def num_queries(self) -> int:
        """Number of queries in the batch."""
        return int(self.queries.shape[0])

    @property
    def higher_is_better(self) -> bool:
        """Sort direction of the scores the configured mode produces."""
        return self.quality_mode.higher_is_better(self.metric)

    def require(self, field_name: str, needed_by: str) -> Any:
        """Fetch a context field, raising a clear error when it is missing.

        Stages use this to express their dependencies: a pipeline missing the
        producing stage fails with a message naming both stages instead of an
        ``AttributeError`` deep inside numpy code.
        """
        value = getattr(self, field_name)
        if value is None:
            raise RuntimeError(
                f"stage {needed_by!r} needs context field {field_name!r}, which no "
                "earlier stage produced; check the pipeline's stage order"
            )
        return value

    def to_result(self) -> "JunoSearchResult":
        """Package the finished context as a :class:`JunoSearchResult`.

        The per-stage timing and work breakdowns are exported under the
        ``stage_seconds`` / ``stage_work`` keys of ``extra`` so serving and
        benchmarking layers can feed the cost model per stage.
        """
        from repro.core.index import JunoSearchResult

        if self.ids is None or self.scores is None:
            raise RuntimeError(
                "pipeline finished without producing final ids/scores; "
                "every search pipeline must end in a TopKStage (or a stage "
                "that fills ctx.ids and ctx.scores)"
            )
        extra = dict(self.extra)
        extra["stage_seconds"] = dict(self.stage_seconds)
        extra["stage_work"] = dict(self.stage_work)
        if self.trace is not None:
            extra["trace"] = self.trace.to_dict()
        return JunoSearchResult(
            ids=self.ids,
            scores=self.scores,
            work=self.work,
            quality_mode=self.quality_mode,
            threshold_scale=self.threshold_scale,
            selected_entry_fraction=self.selected_entry_fraction,
            extra=extra,
        )
