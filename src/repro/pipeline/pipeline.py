"""Composition and execution of query stages with per-stage accounting."""

from __future__ import annotations

from typing import Iterable

from repro.obs.clock import now as _now
from repro.obs.metrics import get_registry
from repro.pipeline.context import QueryContext
from repro.pipeline.stages import (
    CoarseFilterStage,
    QueryStage,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
)


class QueryPipeline:
    """An ordered composition of :class:`QueryStage` objects.

    Running the pipeline executes every stage against one shared
    :class:`~repro.pipeline.context.QueryContext` and attributes wall-clock
    time and :class:`~repro.gpu.work.SearchWork` deltas to each stage by
    name.  Pipelines are immutable: the insertion helpers return new
    pipelines, so a customised pipeline can be built once and reused across
    search calls (and shipped to process-pool shard workers -- the built-in
    stages are stateless and picklable).

    With ``instrument=True`` (the default) every stage execution also
    publishes to the process-local metrics registry
    (:func:`repro.obs.metrics.get_registry`): a ``repro_stage_seconds``
    latency histogram per stage plus batch and query totals.
    ``instrument=False`` gives the bare pipeline -- the
    ``tests/test_obs_perf.py`` slow test pins the instrumented/bare
    throughput gap.
    """

    def __init__(self, stages: Iterable[QueryStage], instrument: bool = True) -> None:
        self.instrument = bool(instrument)
        self.stages: tuple[QueryStage, ...] = tuple(stages)
        if not self.stages:
            raise ValueError("a QueryPipeline needs at least one stage")
        for stage in self.stages:
            if not callable(getattr(stage, "run", None)) or not getattr(stage, "name", ""):
                raise TypeError(
                    f"{stage!r} does not implement the QueryStage protocol "
                    "(a 'name' attribute and a 'run(ctx)' method)"
                )

    # ------------------------------------------------------------ composition
    @property
    def stage_names(self) -> tuple[str, ...]:
        """Names of the stages in execution order."""
        return tuple(stage.name for stage in self.stages)

    def _position(self, anchor: str) -> int:
        names = self.stage_names
        if anchor not in names:
            raise ValueError(f"no stage named {anchor!r} in pipeline {names}")
        return names.index(anchor)

    def with_stage_after(self, anchor: str, stage: QueryStage) -> "QueryPipeline":
        """A new pipeline with ``stage`` inserted right after ``anchor``."""
        pos = self._position(anchor) + 1
        return QueryPipeline(
            self.stages[:pos] + (stage,) + self.stages[pos:], instrument=self.instrument
        )

    def with_stage_before(self, anchor: str, stage: QueryStage) -> "QueryPipeline":
        """A new pipeline with ``stage`` inserted right before ``anchor``."""
        pos = self._position(anchor)
        return QueryPipeline(
            self.stages[:pos] + (stage,) + self.stages[pos:], instrument=self.instrument
        )

    def appended(self, stage: QueryStage) -> "QueryPipeline":
        """A new pipeline with ``stage`` appended at the end."""
        return QueryPipeline(self.stages + (stage,), instrument=self.instrument)

    def without_stage(self, name: str) -> "QueryPipeline":
        """A new pipeline with the named stage removed."""
        self._position(name)
        return QueryPipeline(
            (s for s in self.stages if s.name != name), instrument=self.instrument
        )

    # -------------------------------------------------------------- execution
    def run(self, ctx: QueryContext) -> QueryContext:
        """Execute every stage in order, recording per-stage time and work.

        The per-stage :class:`SearchWork` is the delta of the shared counters
        across the stage, so summing the breakdown over all stages recovers
        the batch totals exactly; a stage name that occurs twice accumulates.
        With ``ctx.trace`` set, every stage runs inside its own
        ``stage:<name>`` span.
        """
        registry = ctx.registry = get_registry() if self.instrument else None
        trace = ctx.trace
        for stage in self.stages:
            before = ctx.work.copy()
            if trace is None:
                started = _now()
                stage.run(ctx)
                elapsed = _now() - started
            else:
                # The stage's span is open while it runs, so spans a stage
                # records itself (``rt_trace``) land as its children; its
                # duration is the stage time every consumer reads.
                with trace.span(f"stage:{stage.name}", queries=ctx.num_queries) as span:
                    stage.run(ctx)
                elapsed = span.duration_s
            delta = ctx.work.delta(before)
            ctx.stage_seconds[stage.name] = ctx.stage_seconds.get(stage.name, 0.0) + elapsed
            if stage.name in ctx.stage_work:
                ctx.stage_work[stage.name].merge(delta)
                ctx.stage_work[stage.name].num_queries = delta.num_queries
            else:
                ctx.stage_work[stage.name] = delta
            if registry is not None:
                registry.histogram("repro_stage_seconds", stage=stage.name).observe(elapsed)
        if registry is not None:
            registry.counter("repro_pipeline_batches_total").inc()
            registry.counter("repro_pipeline_queries_total").inc(ctx.num_queries)
        return ctx


def default_search_pipeline() -> QueryPipeline:
    """The staged equivalent of the monolithic JUNO online path (Alg. 2).

    ``CoarseFilterStage -> ThresholdStage -> RTSelectStage -> ScoreStage ->
    TopKStage``; bit-identical to the pre-pipeline ``JunoIndex.search``
    (the score stage's gather kernel is pinned to the
    historical per-ray loop by the parity tests).
    """
    return QueryPipeline(
        (CoarseFilterStage(), ThresholdStage(), RTSelectStage(), ScoreStage(), TopKStage())
    )


def rerank_pipeline(points, metric=None) -> QueryPipeline:
    """A default pipeline with an exact rerank appended after top-k."""
    from repro.pipeline.stages import ExactRerankStage

    return default_search_pipeline().appended(ExactRerankStage(points, metric=metric))
