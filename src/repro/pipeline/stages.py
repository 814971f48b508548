"""The built-in stages of the staged query-execution pipeline.

Each stage implements the :class:`QueryStage` protocol: a ``name`` used for
per-stage timing/work attribution and a ``run(ctx)`` method that mutates the
shared :class:`~repro.pipeline.context.QueryContext`.  The default JUNO
search is the composition

``CoarseFilterStage -> ThresholdStage -> RTSelectStage -> ScoreStage ->
TopKStage``

which computes the same results as the monolithic ``JunoIndex.search`` of
earlier revisions (Alg. 2 plus the distance-calculation stage) bit for bit.
:class:`RTSelectStage` produces the selective LUT as one dense table of
score contributions -- the tracer's hit grid, decoded in place, with each
ray's miss value where it selected nothing -- plus that hit grid, and
:class:`ScoreStage`, the *batched* distance-calculation kernel
(:mod:`repro.pipeline.fused`), scores the members of every probed cluster
with one gather from them through their PQ codes; the historical per-ray
Python loop the parity tests pin it against lives with them in
``tests/score_reference.py``.
:class:`ExactRerankStage` is the first stage with no monolithic counterpart:
it rescores already-selected candidates against the raw corpus, which the
sharded router appends after its k-way merge to restore cross-shard score
comparability.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.inner_product import inner_product_threshold_to_tmax
from repro.core.selective_lut import SelectiveLUTConstructor
from repro.core.threshold import ThresholdModel
from repro.metrics.distances import Metric, padded_top_k
from repro.pipeline import fused
from repro.pipeline.context import QueryContext


@runtime_checkable
class QueryStage(Protocol):
    """One step of a staged query execution.

    Attributes:
        name: stable identifier used as the key of the per-stage timing and
            :class:`~repro.gpu.work.SearchWork` breakdowns (and by the cost
            model's stage routing).
    """

    name: str

    def run(self, ctx: QueryContext) -> None:
        """Execute the stage, reading and writing fields of ``ctx``."""
        ...  # pragma: no cover - protocol stub


class CoarseFilterStage:
    """Stage A: brute-force coarse filtering over the IVF centroids."""

    name = "coarse_filter"

    def run(self, ctx: QueryContext) -> None:
        index = ctx.require("index", self.name)
        selected = index.ivf.select_clusters(ctx.queries, ctx.nprobs)
        ctx.nprobs = selected.shape[1]
        ctx.selected = selected
        ctx.work.filter_flops += 2.0 * ctx.num_queries * index.dim * index.ivf.num_clusters


class ThresholdStage:
    """Stage B1: ray origins plus dynamic per-ray thresholds and ``t_max``."""

    name = "threshold"

    def run(self, ctx: QueryContext) -> None:
        index = ctx.require("index", self.name)
        selected = ctx.require("selected", self.name)
        ctx.origins, ctx.query_cluster_ip = index._ray_origins(ctx.queries, selected)
        ctx.thresholds, ctx.t_max = self._thresholds_and_tmax(ctx, ctx.origins)

    def _thresholds_and_tmax(
        self, ctx: QueryContext, origins: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dynamic thresholds per (ray, subspace) and their ``t_max`` encoding.

        Density lookup, regressor and ``t_max`` conversion run as one
        broadcast over all ``(ray, subspace)`` pairs; the per-subspace
        origin offsets broadcast along the last axis.
        """
        index = ctx.index
        scale = ctx.threshold_scale
        offsets = index.origin_offsets
        density = index.density_map.lookup_all(origins)
        predicted = index.threshold_model.predict_from_density(density)
        if ctx.metric is Metric.L2:
            thresholds = predicted * scale
            t_max = ThresholdModel.threshold_to_tmax(thresholds, index.sphere_radius, offsets)
        else:
            query_norm_sq = np.sum(origins**2, axis=2)
            base_tmax = inner_product_threshold_to_tmax(
                predicted, query_norm_sq, index.sphere_radius, offsets
            )
            # Scaling < 1 must make the selection *more* selective; for
            # MIPS that means shrinking the travel budget towards zero.
            t_max = np.clip(offsets - (offsets - base_tmax) / scale, 0.0, offsets)
            thresholds = (query_norm_sq - index.sphere_radius**2 + (offsets - t_max) ** 2) / 2.0
        ctx.work.threshold_inferences += float(thresholds.size)
        return thresholds, t_max


def _miss_penalties(ctx: QueryContext, row_thresholds: np.ndarray) -> np.ndarray:
    """Per-subspace score contribution of unselected entries.

    For L2 the true per-subspace distance of a miss is at least the
    threshold, so the squared threshold (scaled by ``miss_penalty_factor``)
    is a conservative stand-in.  For MIPS the true contribution is at most
    the threshold, which is used directly.  Operates on ``(S,)`` rows and
    ``(R, S)`` batches alike (pure elementwise arithmetic).
    """
    factor = ctx.index.config.miss_penalty_factor
    if ctx.metric is Metric.L2:
        return (row_thresholds**2) * factor
    return row_thresholds * factor


class RTSelectStage:
    """Stage B2: selective L2-LUT construction on the RT engine.

    Traces every (query, cluster, subspace) ray through the scene a block of
    rays at a time, over every subspace, and decodes the tracer's dense hit
    grid, cell by cell, into the
    :class:`~repro.core.selective_lut.SelectiveLUT` -- one ray-major
    ``(rays, S, E')`` table of score contributions and the hit grid beside
    it (plus the inner-sphere table for JUNO-M) that :class:`ScoreStage`
    gathers from as they are.  A cell the ray did not select holds the ray's
    miss value: its dynamic-threshold miss penalty, or ``NaN`` for JUNO-M,
    whose inner-sphere test must fail on a miss.  JUNO-L reads only the hit
    grid, so it builds JUNO-H's LUT.  The hits are never compressed to lists
    in between.
    """

    name = "rt_select"

    def run(self, ctx: QueryContext) -> None:
        index = ctx.require("index", self.name)
        origins = ctx.require("origins", self.name)
        t_max = ctx.require("t_max", self.name)
        constructor = SelectiveLUTConstructor(
            tracer=index.tracer,
            base_radius=index.sphere_radius,
            origin_offsets=index.origin_offsets,
            metric=ctx.metric,
            inner_sphere_ratio=(
                index.config.inner_sphere_ratio
                if ctx.quality_mode.uses_inner_sphere
                else None
            ),
        )
        miss = None
        if not ctx.quality_mode.uses_inner_sphere:
            miss = _miss_penalties(ctx, ctx.require("thresholds", self.name))
        lut = constructor.construct(
            origins, t_max, thresholds=ctx.thresholds, trace=ctx.trace, miss=miss
        )
        ctx.lut = lut
        ctx.work.rt_rays += lut.stats.rays
        ctx.work.rt_node_visits += lut.stats.node_visits
        ctx.work.rt_aabb_tests += lut.stats.aabb_tests
        ctx.work.rt_prim_tests += lut.stats.prim_tests
        ctx.work.rt_hits += lut.stats.hits
        ctx.selected_entry_fraction = lut.selected_fraction()
        ctx.extra["rt_hits"] = lut.stats.hits
        if ctx.registry is not None:
            # Index health (Figs. 4-7 argue from these): spheres hit per ray
            # is hits / rays, the share of codebook entries that survive
            # selection is hits / slots.  Exported as their sums, because
            # merged worker snapshots add up and a sum of ratios is no ratio.
            ctx.registry.counter("repro_rt_rays_total").inc(lut.stats.rays)
            ctx.registry.counter("repro_rt_hits_total").inc(lut.stats.hits)
            ctx.registry.counter("repro_rt_slots_total").inc(lut.stats.rays * lut.num_entries)


class ScoreStage:
    """Stage C1: batched distance calculation over the selected points only.

    One kernel, :func:`repro.pipeline.fused.fused_score_candidates`: per
    ray the members of its probed cluster look their PQ codes up in the
    ray's ``(S, E')`` block of the selective LUT with one gather per table
    -- the codes were translated to the block's cells when the index was
    built -- and the ``(subspace, member)`` cells are summed over the
    subspace axis: the contributions RT-select wrote, exact distances with
    the miss penalties already standing in for unselected entries (JUNO-H),
    or hit / inner-sphere counts (JUNO-L/M).  Match counts are hit counts in every
    mode.

    The kernel runs in the float32 of the selective LUT.  Scores,
    candidate ordering and :class:`SearchWork` deltas are bit-identical to
    the per-ray loop the parity and property tests keep as their oracle
    (``tests/score_reference.py``) run on the same LUT: the per-element
    arithmetic and the per-(ray, member) accumulation over the subspace axis,
    subspace by subspace, are the loop's.
    Against the float64 path, the precision oracle
    (``tests/test_precision_oracle.py``) bounds the scores.

    The kernel is plain NumPy; the GPU it stands for is modelled by the
    work counters it fills and :mod:`repro.gpu`'s cost model.

    Produces one concatenated ``(ids, scores)`` candidate pair per query
    (``None`` for queries whose probed clusters yielded no candidate); the
    ranking itself is left to :class:`TopKStage`.
    """

    name = "score"

    def run(self, ctx: QueryContext) -> None:
        fused.fused_score_candidates(ctx)


class TopKStage:
    """Stage C2: per-query top-k selection over the scored candidates.

    Each query keeps exactly what ``argsort(kind="stable")[:k]`` of its keys
    (the scores, negated when higher is better) keeps, without sorting them
    all: ``np.partition`` finds the k-th key, and only the keys up to it --
    every tie with it included, in candidate order -- are sorted stably.
    When the k-th key is ``NaN`` (fewer than k keys are numbers) the whole
    list is sorted, which puts ``NaN`` last as the full sort does.
    """

    name = "top_k"

    def run(self, ctx: QueryContext) -> None:
        candidates = ctx.require("candidates", self.name)
        higher_is_better = ctx.higher_is_better
        fill_value = -np.inf if higher_is_better else np.inf
        k = ctx.k
        all_ids = np.full((ctx.num_queries, k), -1, dtype=np.int64)
        all_scores = np.full((ctx.num_queries, k), fill_value, dtype=np.float64)
        for qi, pair in enumerate(candidates):
            if pair is None:
                continue
            ids, scores = pair
            order = self._stable_top(-scores if higher_is_better else scores, k)
            count = order.size
            all_ids[qi, :count] = ids[order]
            all_scores[qi, :count] = scores[order]
        ctx.work.sorted_candidates += ctx.candidate_total
        ctx.ids = all_ids
        ctx.scores = all_scores

    @staticmethod
    def _stable_top(keys: np.ndarray, k: int) -> np.ndarray:
        """``np.argsort(keys, kind="stable")[:k]``, sorting only a shortlist."""
        if keys.size > k:
            kth = np.partition(keys, k - 1)[k - 1]
            if not np.isnan(kth):
                shortlist = np.flatnonzero(keys <= kth)
                return shortlist[np.argsort(keys[shortlist], kind="stable")[:k]]
        return np.argsort(keys, kind="stable")[:k]


class ExactRerankStage:
    """Rescore already-selected candidates exactly against the raw corpus.

    The sharded router appends this stage after its k-way merge: per-shard
    scores live in shard-local PQ frames (JUNO-H) or are plain hit counts
    (JUNO-L/M), so at aggressive ``threshold_scale`` the merged ranking mixes
    incomparable score scales.  Reranking by the true metric restores a
    globally consistent order.  After this stage, ``ctx.scores`` are exact
    squared L2 distances (ascending) or inner products (descending)
    regardless of the quality mode that produced the candidates -- the same
    convention as :class:`repro.baselines.exact.ExactSearch`.

    ``-1``-padded candidate slots are never scored: they keep the metric's
    worst value and always sort behind every valid candidate, so fully padded
    rows pass through unchanged.

    Args:
        points: ``(N, D)`` corpus in the candidates' (global) id space.
        metric: ranking metric; defaults to the context's metric at run time.
    """

    name = "exact_rerank"

    def __init__(self, points: np.ndarray, metric: Metric | None = None) -> None:
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.metric = Metric(metric) if metric is not None else None

    def run(self, ctx: QueryContext) -> None:
        ids = ctx.require("ids", self.name)
        metric = self.metric if self.metric is not None else ctx.metric
        from repro.baselines.exact import exact_candidate_scores

        exact = exact_candidate_scores(self.points, ctx.queries, ids, metric)
        ctx.work.rerank_flops += 2.0 * float((ids >= 0).sum()) * self.points.shape[1]
        ctx.ids, ctx.scores = padded_top_k(
            ids,
            exact,
            ctx.k,
            higher_is_better=not metric.lower_is_better,
            worst=metric.worst_value(),
        )
        ctx.extra["reranked"] = True
        ctx.extra["rerank_candidates"] = float((ids >= 0).sum())


class DeltaMergeStage:
    """Merge the exact-scored delta buffer into the base top-k, minus tombstones.

    The final stage of a mutable-index search
    (:class:`~repro.updates.mutable.MutableJunoIndex`): the trained base
    index produced an over-fetched top-k in its *local* id space; this stage

    1. remaps base-local ids to global ids,
    2. masks tombstoned rows (a deleted -- or upsert-superseded -- point can
       never surface, no matter how well the stale trained copy scored),
    3. when the delta buffer holds fresh vectors (or ``always_exact`` is
       set), rescoring the surviving base candidates *and* the buffered
       vectors exactly under the metric and re-selecting the top ``k`` --
       exact scores are the only scale the trained index's quality modes
       (hit counts, PQ-frame distances) and the buffer can be merged on,
       the same convention as :class:`ExactRerankStage` (and the stage sets
       ``extra["reranked"]`` accordingly, so the shard merge ranks in the
       metric direction),
    4. cuts the over-fetched list back to the caller's ``k``.

    With no tombstones, an empty buffer and an identity id map the stage is
    an exact pass-through: an unmutated mutable index reproduces its base
    index's results bit for bit.

    Args:
        k: final neighbours per query (``ctx.k`` is the over-fetched width).
        base_global_ids: ``(N_base,)`` map from base-local row to global id.
        base_vectors: ``(N_base, D)`` raw vectors aligned with the base rows
            (exact rescoring of surviving base candidates).
        delta_ids: ``(N_delta,)`` buffered global ids.
        delta_vectors: ``(N_delta, D)`` buffered vectors.
        dead_rows: ``(N_base,)`` bool, true for base rows whose id is
            tombstoned (kept current by the mutable index, not copied).
        always_exact: exact-rescore even when the buffer is empty.  The
            sharded router enables this on every mutable shard so per-shard
            scores stay on one (exact) scale regardless of which shards
            happen to hold buffered vectors.
    """

    name = "delta_merge"

    def __init__(
        self,
        k: int,
        base_global_ids: np.ndarray,
        base_vectors: np.ndarray,
        delta_ids: np.ndarray,
        delta_vectors: np.ndarray,
        dead_rows: np.ndarray,
        always_exact: bool = False,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self.base_global_ids = np.asarray(base_global_ids, dtype=np.int64)
        self.base_vectors = np.atleast_2d(np.asarray(base_vectors, dtype=np.float64))
        self.delta_ids = np.asarray(delta_ids, dtype=np.int64).ravel()
        self.delta_vectors = np.atleast_2d(np.asarray(delta_vectors, dtype=np.float64))
        self.dead_rows = np.asarray(dead_rows, dtype=bool)
        self.always_exact = bool(always_exact)

    def run(self, ctx: QueryContext) -> None:
        ids = ctx.require("ids", self.name)
        scores = ctx.require("scores", self.name)
        valid = ids >= 0
        local = np.where(valid, ids, 0)
        base_valid = valid & ~self.dead_rows[local]
        global_ids = np.where(base_valid, self.base_global_ids[local], -1)
        ctx.extra["delta_merged"] = True
        ctx.extra["tombstones_filtered"] = float((valid & ~base_valid).sum())

        if self.delta_ids.size == 0 and not self.always_exact:
            # No fresh vectors to merge: keep the mode's native scores, just
            # drop tombstoned slots and cut the over-fetch back to k.
            worst = -np.inf if ctx.higher_is_better else np.inf
            masked = np.where(base_valid, scores, worst)
            ctx.ids, ctx.scores = padded_top_k(
                global_ids, masked, self.k, ctx.higher_is_better, worst
            )
            return

        from repro.baselines.exact import exact_candidate_scores

        metric = ctx.metric
        dim = self.base_vectors.shape[1]
        worst = metric.worst_value()
        base_scores = exact_candidate_scores(
            self.base_vectors, ctx.queries, np.where(base_valid, local, -1), metric
        )
        num_queries = ctx.queries.shape[0]
        if self.delta_ids.size:
            delta_rows = np.broadcast_to(
                np.arange(self.delta_ids.size), (num_queries, self.delta_ids.size)
            )
            delta_scores = exact_candidate_scores(
                self.delta_vectors, ctx.queries, delta_rows, metric
            )
            cat_ids = np.concatenate(
                [global_ids, np.broadcast_to(self.delta_ids, (num_queries, self.delta_ids.size))],
                axis=1,
            )
            cat_scores = np.concatenate([base_scores, delta_scores], axis=1)
        else:
            cat_ids, cat_scores = global_ids, base_scores
        scored = float(base_valid.sum() + num_queries * self.delta_ids.size)
        ctx.work.rerank_flops += 2.0 * scored * dim
        ctx.ids, ctx.scores = padded_top_k(
            cat_ids,
            cat_scores,
            self.k,
            higher_is_better=not metric.lower_is_better,
            worst=worst,
        )
        ctx.extra["reranked"] = True
        ctx.extra["delta_candidates"] = float(num_queries * self.delta_ids.size)
