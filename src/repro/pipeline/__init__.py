"""Staged query execution: the online path as a composition of stages.

The paper's online algorithm (Alg. 2) is a fixed sequence of stages; this
package makes that sequence an explicit, recomposable object shared by the
single-process index, the sharded serving router and the GPU cost model.

Stage graph
-----------

The default pipeline (``default_search_pipeline()``) is a linear graph::

    CoarseFilterStage      queries -> selected clusters          (Alg. 2, l.1)
          |
    ThresholdStage         ray origins, dynamic thresholds, t_max (Alg. 2, l.2-4)
          |
    RTSelectStage          selective L2-LUT on the RT engine      (Alg. 2, l.5-7)
          |
    ScoreStage             batched ADC / hit-count scoring        (Sec. 5.4)
          |
    TopKStage              per-query top-k selection

with each edge carried by fields of a shared
:class:`~repro.pipeline.context.QueryContext` (``selected`` -> ``origins`` /
``thresholds`` / ``t_max`` -> ``lut`` -> ``candidates`` -> ``ids`` /
``scores``).  :class:`~repro.pipeline.stages.ExactRerankStage` is an optional
sixth stage that rescores final candidates against the raw corpus; the
sharded router appends it after its k-way merge so scores from independently
trained shards become comparable.
:class:`~repro.pipeline.stages.DeltaMergeStage` is the tail stage of a
*mutable* index search (:mod:`repro.updates`): it remaps base-local ids to
global ids, filters tombstoned (deleted) ids and k-way merges the
exact-scored delta buffer of freshly upserted vectors into the final top-k.

Batched scoring
---------------

:class:`~repro.pipeline.stages.ScoreStage` is one vectorised kernel
(:mod:`repro.pipeline.fused`): RT-select hands over the selective LUT as one
dense ray-major ``(rays, S, E')`` table of score contributions -- decoded
values where a ray selected the slot, its miss penalty where it did not --
beside its hit grid, and per ray the members of its probed cluster read
their PQ codes' cells out of the ray's ``(S, E')`` blocks through cell
indices fixed when the index was built, one gather per table, summed over
the subspace axis -- for the exact-distance (JUNO-H) and the hit-count
(JUNO-L) mode.
:class:`~repro.pipeline.stages.TopKStage` then ranks each query, sorting
only the candidates up to its k-th best score.  The historical per-ray
Python loop is the oracle of the parity and property tests and lives with
them (``tests/score_reference.py``): results and
:class:`~repro.gpu.work.SearchWork` deltas are bit-identical, only the batch
shape of the arithmetic differs.

Inserting a custom stage
------------------------

A stage is any object with a ``name`` string and a ``run(ctx)`` method
(:class:`~repro.pipeline.stages.QueryStage`).  Pipelines are immutable;
the insertion helpers return new pipelines::

    from repro.pipeline import default_search_pipeline

    class CandidateCap:
        name = "candidate_cap"
        def __init__(self, cap): self.cap = cap
        def run(self, ctx):
            ctx.candidates = [
                None if pair is None else (pair[0][: self.cap], pair[1][: self.cap])
                for pair in ctx.candidates
            ]

    pipeline = default_search_pipeline().with_stage_after("score", CandidateCap(64))
    result = index.search(queries, k=10, pipeline=pipeline)

Per-stage wall-clock seconds and :class:`~repro.gpu.work.SearchWork` deltas
are recorded under ``result.extra["stage_seconds"]`` /
``result.extra["stage_work"]``; feed the latter to
:meth:`repro.gpu.cost_model.CostModel.stage_latencies` for modelled
per-stage GPU latencies.
"""

from repro.pipeline.context import QueryContext
from repro.pipeline.pipeline import (
    QueryPipeline,
    default_search_pipeline,
    rerank_pipeline,
)
from repro.pipeline.stages import (
    CoarseFilterStage,
    DeltaMergeStage,
    ExactRerankStage,
    QueryStage,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
)

__all__ = [
    "CoarseFilterStage",
    "DeltaMergeStage",
    "ExactRerankStage",
    "QueryContext",
    "QueryPipeline",
    "QueryStage",
    "RTSelectStage",
    "ScoreStage",
    "ThresholdStage",
    "TopKStage",
    "default_search_pipeline",
    "rerank_pipeline",
]
