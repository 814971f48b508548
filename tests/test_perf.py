"""Perf regression tests for the batched ScoreStage and the stage cache.

These pin the PR's perf claims rather than its semantics (the parity and
property suites pin those): the vectorised score kernel must be clearly
faster than the historical per-ray loop on a mid-size batch, and a repeated
sweep scale must be served from coarse-filter cache hits.  Wall-clock
comparisons are inherently noisy on shared CI runners, so the timing
assertions use best-of-N measurements and a margin: on this narrow fixture
(8 subspaces of 16 entries, where the loop's per-ray tables are cheap and
both sides pay the same short-row reductions) the kernel takes 0.45-0.7x
the loop's time, and the test guards against a regression back to per-ray
Python costs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import SweepConfig, run_juno_sweep
from repro.core.config import QualityMode
from repro.gpu.cost_model import CostModel
from repro.pipeline import (
    CoarseFilterStage,
    QueryPipeline,
    RTSelectStage,
    ScoreStage,
    StageCache,
    ThresholdStage,
    TopKStage,
    default_search_pipeline,
)
from score_reference import LoopedScoreStage

pytestmark = pytest.mark.slow


def _pipeline_with(score_stage) -> QueryPipeline:
    return QueryPipeline(
        (
            CoarseFilterStage(),
            ThresholdStage(),
            RTSelectStage(),
            score_stage,
            TopKStage(),
        )
    )


def _mid_size_batch(dataset, rng, num_queries=96):
    """A mid-size query batch: corpus points plus jitter, like the datasets'."""
    rows = rng.integers(0, dataset.num_points, size=num_queries)
    return dataset.points[rows] + 0.2 * rng.standard_normal((num_queries, dataset.dim))


class TestScoreStagePerf:
    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    def test_vectorised_score_stage_not_slower_than_loop(
        self, juno_l2, l2_dataset, rng, mode
    ):
        queries = _mid_size_batch(l2_dataset, rng)
        looped = _pipeline_with(LoopedScoreStage())
        vectorised = _pipeline_with(ScoreStage())

        def best_score_seconds(pipeline, repeats=5):
            best = np.inf
            for _ in range(repeats):
                result = juno_l2.search(
                    queries, k=10, nprobs=8, quality_mode=mode, pipeline=pipeline
                )
                best = min(best, result.extra["stage_seconds"]["score"])
            return best

        # Warm both paths once (allocator, caches) before measuring.
        best_score_seconds(looped, repeats=1)
        best_score_seconds(vectorised, repeats=1)
        looped_s = best_score_seconds(looped)
        vectorised_s = best_score_seconds(vectorised)
        assert vectorised_s <= looped_s * 0.85, (
            f"batched ScoreStage took {vectorised_s:.6f}s vs {looped_s:.6f}s for the loop"
        )

    def test_cached_repeat_search_is_not_slower_end_to_end(self, juno_l2, l2_dataset, rng):
        """Sanity guard: cache bookkeeping must not dominate the hot path."""
        queries = _mid_size_batch(l2_dataset, rng, num_queries=48)
        cache = StageCache()
        cached_pipeline = default_search_pipeline(stage_cache=cache)
        juno_l2.search(queries, k=10, nprobs=8, pipeline=cached_pipeline)  # populate

        def best_elapsed(pipeline, repeats=3):
            best = np.inf
            for _ in range(repeats):
                started = time.perf_counter()
                juno_l2.search(queries, k=10, nprobs=8, pipeline=pipeline)
                best = min(best, time.perf_counter() - started)
            return best

        plain_s = best_elapsed(None)
        cached_s = best_elapsed(cached_pipeline)
        assert cached_s <= plain_s * 1.25, (
            f"cached repeat search took {cached_s:.6f}s vs {plain_s:.6f}s uncached"
        )
        assert cache.stats()["coarse_filter"]["hits"] >= 3


class TestSweepCachePerf:
    def test_second_sweep_scale_records_coarse_cache_hits(self, juno_l2, l2_dataset):
        sweep = SweepConfig(
            nprobs_values=(6,),
            threshold_scales=(0.7, 1.0),
            quality_modes=(QualityMode.HIGH,),
            k=20,
            recall_k=1,
            recall_n=20,
        )
        cache = StageCache()
        result = run_juno_sweep(
            juno_l2,
            l2_dataset.queries,
            l2_dataset.ground_truth,
            sweep,
            CostModel("rtx4090"),
            stage_cache=cache,
        )
        assert len(result.records) == 2
        first, second = result.records
        assert first.extra["stage_cache"]["coarse_filter"] == {"hits": 0, "misses": 1}
        # the second scale reuses the first's coarse-filter output entirely
        assert second.extra["stage_cache"]["coarse_filter"] == {"hits": 1, "misses": 0}
        assert cache.stats()["coarse_filter"]["hits"] == 1
        # a cached coarse slice is modelled as free, so the second record's
        # modelled stage breakdown drops the filter stage cost
        assert second.extra["stage_modelled_s"]["coarse_filter"] == 0.0
        assert first.extra["stage_modelled_s"]["coarse_filter"] > 0.0
