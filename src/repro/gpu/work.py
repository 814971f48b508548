"""Work accounting for the three search stages.

Every index in this repository (the FAISS-like baseline and JUNO) returns a
:class:`SearchWork` record alongside its results.  The record counts the
primitive operations each stage performed -- floating point operations for
filtering, pairwise distance computations or ray-tracing traversal steps for
L2-LUT construction, LUT lookups/accumulations for distance calculation --
and the GPU cost model turns those counts into modelled latencies.

Counting work instead of measuring Python wall-clock is what makes the
reproduction's throughput comparisons meaningful: Python overheads would
otherwise dominate and hide the algorithmic effects the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class SearchWork:
    """Operation counts for one batch of queries.

    Attributes:
        num_queries: number of queries in the batch.
        filter_flops: multiply-accumulate operations in the coarse filtering
            stage (``Q * D * C`` for brute-force centroid scoring).
        lut_pairwise: pairwise (query projection, codebook entry) distance
            computations performed on CUDA/Tensor cores (the baseline path).
        lut_pairwise_dims: subspace dimensionality used for each pairwise
            computation (FLOPs = ``lut_pairwise * lut_pairwise_dims``).
        rt_rays: rays cast into the RT scene (JUNO path).
        rt_node_visits: BVH interior/leaf nodes visited across all rays.
        rt_aabb_tests: ray/AABB slab tests performed.
        rt_prim_tests: ray/sphere primitive intersection tests performed.
        rt_hits: hit-shader invocations (accepted intersections).
        adc_lookups: LUT lookups + accumulations in the distance
            calculation stage.
        adc_candidates: candidate points whose total distance was produced.
        sorted_candidates: candidates that entered the final top-k selection.
        threshold_inferences: polynomial-regressor evaluations for dynamic
            thresholds (JUNO only).
        rerank_flops: multiply-accumulate operations spent recomputing exact
            candidate scores in an exact-rerank stage (dense matmul-style
            work, like filtering).
    """

    num_queries: int = 0
    filter_flops: float = 0.0
    lut_pairwise: float = 0.0
    lut_pairwise_dims: float = 2.0
    rt_rays: float = 0.0
    rt_node_visits: float = 0.0
    rt_aabb_tests: float = 0.0
    rt_prim_tests: float = 0.0
    rt_hits: float = 0.0
    adc_lookups: float = 0.0
    adc_candidates: float = 0.0
    sorted_candidates: float = 0.0
    threshold_inferences: float = 0.0
    rerank_flops: float = 0.0

    def copy(self) -> "SearchWork":
        """An independent copy of this record."""
        duplicate = SearchWork()
        for name in _BATCH_FIELDS + _COUNTERS:
            setattr(duplicate, name, getattr(self, name))
        return duplicate

    def delta(self, baseline: "SearchWork") -> "SearchWork":
        """Counter-wise difference ``self - baseline`` (a per-stage slice).

        ``num_queries`` and ``lut_pairwise_dims`` describe the batch rather
        than accumulate, so the delta keeps this record's values for both.
        The staged query pipeline snapshots the shared work record around
        every stage and calls this to attribute work to the stage.
        """
        out = SearchWork(num_queries=self.num_queries, lut_pairwise_dims=self.lut_pairwise_dims)
        for name in _COUNTERS:
            setattr(out, name, getattr(self, name) - getattr(baseline, name))
        return out

    def merge(self, other: "SearchWork") -> "SearchWork":
        """Accumulate another batch's work into this record (in place)."""
        for name in ("num_queries",) + _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.lut_pairwise_dims = max(self.lut_pairwise_dims, other.lut_pairwise_dims)
        return self

    def per_query(self) -> "SearchWork":
        """Scale all counters down to a single-query average."""
        if self.num_queries <= 0:
            raise ValueError("cannot normalise work with num_queries <= 0")
        scaled = SearchWork(num_queries=1, lut_pairwise_dims=self.lut_pairwise_dims)
        for name in _COUNTERS:
            setattr(scaled, name, getattr(self, name) / self.num_queries)
        return scaled

    def lut_flops(self) -> float:
        """FLOPs spent in baseline (non-RT) L2-LUT construction."""
        # Each pairwise distance in an M-dimensional subspace costs ~3*M
        # flops (subtract, square, accumulate per dimension).
        return 3.0 * self.lut_pairwise * self.lut_pairwise_dims


# ``num_queries`` and ``lut_pairwise_dims`` describe the batch; every other
# numeric field accumulates.  Computed once: the query pipeline copies and
# diffs the record around every stage of every request, and reflecting over
# ``dataclasses.fields`` each time was a measurable share of a single-query
# search.
_BATCH_FIELDS = ("num_queries", "lut_pairwise_dims")
_COUNTERS = tuple(f.name for f in fields(SearchWork) if f.name not in _BATCH_FIELDS)
