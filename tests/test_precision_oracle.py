"""The precision oracle: the float32 hot path against the float64 reference.

The hot path -- the tracer's sphere tests, the hit-time decode, the selective
LUT, the score kernel's gather, miss penalties and sum -- runs in float32.
Its float64 reference is what ``src/`` computed before it did:
``rt_reference.reference_construct`` at float64 (the layer-at-a-time tracer
and decode) scored by ``score_reference.LoopedScoreStage`` (which follows the
dtype of the table it is given).  On the L2, inner-product and ledger-shaped
fixtures, in JUNO-H/M/L, at ``threshold_scale`` 0.25 and 1.0:

* the three traversal counters are equal, and so is every count downstream
  when no cell's hit state differs;
* hit states agree except on cells within the slack of a decision boundary,
  values and inner-sphere flags within the slack
  (``rt_reference.assert_lut_within_precision``);
* the top-k ids agree at every cut of the ranking, except cuts where the
  reference's scores on either side lie within :data:`REL_GAP` of each other
  (JUNO-H: a real-valued score) and rows whose rays hold a cell whose hit
  state differs; JUNO-M/L scores are counts and agree exactly;
* where the ids agree, JUNO-H scores agree within half of :data:`REL_GAP`.

``docs/performance.md`` ("Float32 hot path") derives the tolerances.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from rt_reference import assert_lut_within_precision, reference_construct
from score_reference import LoopedScoreStage

from repro.core.config import QualityMode
from repro.gpu.work import SearchWork
from repro.pipeline import (
    CoarseFilterStage,
    QueryPipeline,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
)
from repro.pipeline.context import QueryContext

# Two scores whose relative distance is at most this may swap places in the
# float32 ranking.  A score sums S values, each within ``ULPS`` float32 ulps
# of its cell's scale (3.8e-6 of it), in float32 (S / 2 more ulps of the sum
# at worst); both scores of a pair move.
REL_GAP = 1e-4

K = 10
FIXTURES = {
    "l2": ("juno_l2", "l2_dataset", 4),
    "ip": ("juno_ip", "ip_dataset", 4),
    "wide": ("wide_index", "wide_corpus", 8),
}


def _points(dataset):
    return dataset if isinstance(dataset, np.ndarray) else dataset.points


def _queries(points, count=32):
    rng = np.random.default_rng(2026)
    rows = rng.integers(0, points.shape[0], size=count)
    return points[rows] + 0.2 * rng.standard_normal((count, points.shape[1]))


def _upstream(index, queries, mode, scale, nprobs):
    ctx = QueryContext(
        index=index,
        queries=queries,
        k=K,
        nprobs=nprobs,
        quality_mode=QualityMode(mode),
        threshold_scale=scale,
        metric=index.metric,
        work=SearchWork(num_queries=queries.shape[0]),
    )
    QueryPipeline((CoarseFilterStage(), ThresholdStage()), instrument=False).run(ctx)
    return ctx


def _float32_search(ctx):
    ctx = replace(ctx, work=SearchWork(num_queries=ctx.num_queries), extra={})
    for stage in (RTSelectStage(), ScoreStage(), TopKStage()):
        stage.run(ctx)
    return ctx


def _float64_search(ctx):
    """The reference: k + 1 results, so every cut of the top k has a right side."""
    ctx = replace(ctx, k=K + 1, work=SearchWork(num_queries=ctx.num_queries), extra={})
    index = ctx.index
    ctx.lut = reference_construct(
        index.scene,
        index.sphere_radius,
        index.origin_offsets,
        index.metric,
        index.config.inner_sphere_ratio if ctx.quality_mode.uses_inner_sphere else None,
        ctx.origins,
        ctx.t_max,
        ctx.thresholds,
    )
    LoopedScoreStage().run(ctx)
    TopKStage().run(ctx)
    return ctx


@pytest.mark.parametrize("scale", [0.25, 1.0])
@pytest.mark.parametrize("mode", ["juno-h", "juno-m", "juno-l"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_float32_hot_path_within_precision_of_float64(request, fixture, mode, scale):
    index_name, data_name, nprobs = FIXTURES[fixture]
    index = request.getfixturevalue(index_name)
    queries = _queries(_points(request.getfixturevalue(data_name)))
    upstream = _upstream(index, queries, mode, scale, nprobs)
    got, want = _float32_search(upstream), _float64_search(upstream)

    flipped = assert_lut_within_precision(
        got.lut,
        want.lut,
        index.scene,
        upstream.origins,
        upstream.t_max,
        upstream.thresholds,
        index.origin_offsets,
    )
    if not flipped.any():
        assert got.lut.stats.hits == want.lut.stats.hits
        for name in ("adc_lookups", "adc_candidates", "sorted_candidates"):
            assert getattr(got.work, name) == getattr(want.work, name), name
    excused = flipped.sum(axis=0).reshape(-1, upstream.nprobs).any(axis=1)

    exact_distance = QualityMode(mode).uses_exact_distance
    ref_scores = want.scores.astype(np.float64)
    for row in np.flatnonzero(~excused):
        ids, ref_ids, ref = got.ids[row], want.ids[row], ref_scores[row]
        with np.errstate(invalid="ignore"):  # padded tails: inf - inf
            gap = np.abs(np.diff(ref)) / np.maximum(np.abs(ref[:-1]), np.abs(ref[1:]))
            error = np.abs(got.scores[row] - ref[:K]) / np.abs(ref[:K])
        tight = exact_distance & (gap <= REL_GAP)
        for cut in range(1, K + 1):
            if not tight[cut - 1]:
                assert set(ids[:cut]) == set(ref_ids[:cut]), (row, cut)
        same = ids == ref_ids[:K]
        if exact_distance:
            assert (error[same & np.isfinite(ref[:K])] <= REL_GAP / 2).all(), row
        else:
            assert (got.scores[row][same] == ref[:K][same]).all(), row
