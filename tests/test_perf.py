"""Perf regression tests for the batched ScoreStage.

These pin a perf claim rather than semantics (the parity and property
suites pin those): the vectorised score kernel must be clearly faster than
the historical per-ray loop on a mid-size batch.  Wall-clock
comparisons are inherently noisy on shared CI runners, so the timing
assertions use best-of-N measurements and a margin: on this narrow fixture
(8 subspaces of 16 entries, where the loop's per-ray tables are cheap and
both sides pay the same short-row reductions) the kernel takes 0.45-0.7x
the loop's time, and the test guards against a regression back to per-ray
Python costs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import (
    CoarseFilterStage,
    QueryPipeline,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
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
