"""Tier-1 tripwires for the two gates a query-hot-path change can trip.

The benchmark driver rejects a PR whose results differ from the parent's
(``recall_10_at_10`` and the ``rt.*`` / ``core.*`` counts repeat exactly for
a seed) or whose ``peak_rss_mb`` grows by more than 10 %.  Both are cheap to
check here, long before a benchmark run:

* a blake2b digest over the ids, scores and every ``SearchWork`` counter of
  fixed-seed single-query and 32-query searches, recorded before the
  subspace-stacked tracer landed (76ec7d1) and re-recorded where the float32
  hot path moved it.  A hot-path change that is meant to be bit-identical
  must leave it alone; one that is not must pass the precision oracle
  (``test_precision_oracle.py``) and re-record it deliberately (print
  ``_search_digest(...)`` on the change).
* a blake2b digest over what ``JunoIndex.train`` leaves behind on a corpus of
  the ledger's shape (96 dimensions, 48 subspaces of 128 entries; L2 and
  inner product): IVF centroids and labels, every codebook, the codes, the
  threshold regressor, the sphere radius and every ``TraversableScene`` array.
  Recorded at f82457f, before k-means computed each thing once; a set-up
  change that is meant to keep the bytes must leave it alone.
* a ``tracemalloc`` bound on ``RTSelectStage.run`` for a 32-query batch on
  an index of the ledger's shape (48 layers of 128 spheres, 256 rays): the
  stage may hold the LUT it returns, at 4 bytes a cell plus a byte of hit
  grid, plus a fixed slack for one trace block's temporaries.  The block
  constant in :mod:`repro.core.selective_lut` is what decides this, so a
  constant that would breach the RSS gate fails here first -- and so does a
  table or a grid that silently went back to float64.
* the same bound on ``ScoreStage.run``: the candidates it returns plus a
  slack for the per-candidate arrays they are assembled from and one ray's
  gathered blocks, so a kernel that built a batch-wide gather index again
  fails here; ``TopKStage.run`` stays within the same slack when one query
  holds 50x the others' candidates.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from repro.core import selective_lut
from repro.core.config import JunoConfig, QualityMode
from repro.core.index import JunoIndex
from repro.datasets.synthetic import make_clustered_dataset
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric
from repro.pipeline import (
    CoarseFilterStage,
    QueryPipeline,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
    fused,
)
from repro.pipeline.context import QueryContext

MODES = ("juno-h", "juno-m", "juno-l")

# Re-recorded once when the hot path went float32: JUNO-H scores moved by at
# most 4e-6 relative (a float32 sum), and one wide-fixture cell on a sphere's
# rim changed hit state, moving ``rt_hits`` and the selected fraction of all
# three wide modes.  Every id held; tests/test_precision_oracle.py is what
# judges the float32 results against float64.  The l2 and wide JUNO-H
# digests were re-recorded once more when the score kernel began to sum
# subspace by subspace instead of pairwise: scores moved by at most 3.2e-7
# relative, every id and counter held.  The ip fixture's 6 subspaces sum in
# the same order both ways, so its digest held too.  The three JUNO-H digests
# were re-recorded once more when the LUT began to take the sphere test's d^2
# instead of decoding it from the float32 hit time: the hit grid is the same,
# and scores moved by at most 3.8e-6 relative (wide), towards the float64
# reference.  Every id and counter held; JUNO-M and JUNO-L never read the
# values, and their digests held too.
PINNED = {
    ("l2", "juno-h"): "c5d7380b2df1dad92833053e2b652a85",
    ("l2", "juno-m"): "4784a269df5182d34f5eb7721c0e77f8",
    ("l2", "juno-l"): "05781383d3946d7808728457579fe5ee",
    ("ip", "juno-h"): "1c35dcdda0f7515dcccefc8dbe2e3910",
    ("ip", "juno-m"): "1b94aba38cc84dab081be356bbc44870",
    ("ip", "juno-l"): "8147ffeceff2c0aa190a98728b991acb",
    ("wide", "juno-h"): "402dc23354b8406c9baf3745af124aca",
    ("wide", "juno-m"): "44258ac9838a1a1cde8d9c8b86569842",
    ("wide", "juno-l"): "a4f2f1f97bb37dbd7bcc00bfedf83883",
}


def _queries(points, count=32):
    rng = np.random.default_rng(2024)
    rows = rng.integers(0, points.shape[0], size=count)
    return points[rows] + 0.2 * rng.standard_normal((count, points.shape[1]))


def _search_digest(index, points, mode, nprobs) -> str:
    queries = _queries(points)
    digest = hashlib.blake2b(digest_size=16)
    for batch in [queries[i : i + 1] for i in range(8)] + [queries[:2], queries]:
        result = index.search(batch, k=10, nprobs=nprobs, quality_mode=mode)
        digest.update(np.ascontiguousarray(result.ids).tobytes())
        digest.update(np.ascontiguousarray(result.scores).tobytes())
        counters = [float(getattr(result.work, f.name)) for f in fields(SearchWork)]
        digest.update(np.asarray(counters, dtype=np.float64).tobytes())
        digest.update(np.float64(result.selected_entry_fraction).tobytes())
    return digest.hexdigest()


class TestPinnedSearchDigest:
    @pytest.mark.parametrize("mode", MODES)
    def test_l2_results_unchanged(self, juno_l2, l2_dataset, mode):
        assert _search_digest(juno_l2, l2_dataset.points, mode, 4) == PINNED[("l2", mode)]

    @pytest.mark.parametrize("mode", MODES)
    def test_inner_product_results_unchanged(self, juno_ip, ip_dataset, mode):
        assert _search_digest(juno_ip, ip_dataset.points, mode, 4) == PINNED[("ip", mode)]

    @pytest.mark.parametrize("mode", MODES)
    def test_ledger_shaped_results_unchanged(self, wide_index, wide_corpus, mode):
        assert _search_digest(wide_index, wide_corpus, mode, 8) == PINNED[("wide", mode)]


PINNED_TRAINING = {
    Metric.L2: "8204b7588a2b76b4b831ab5ec04a219b",
    Metric.INNER_PRODUCT: "4c07cbaee311561453b95525c206845d",
}


def _training_digest(metric: Metric, seed: int) -> str:
    dataset = make_clustered_dataset(
        name="train-pin",
        num_points=2400,
        num_queries=1,
        dim=96,
        num_components=32,
        metric=metric,
        anisotropy=1.4,
        cluster_spread=0.7,
        seed=seed,
    )
    points = dataset.points.astype(np.float64)
    points /= np.maximum(np.linalg.norm(points, axis=1, keepdims=True), 1e-12)
    config = JunoConfig(
        num_clusters=16,
        num_subspaces=48,
        num_entries=128,
        num_threshold_samples=16,
        kmeans_iters=4,
        metric=metric,
    )
    index = JunoIndex(config).train(points)
    stack = index.scene
    arrays = [index.ivf.centroids, index.ivf.labels, index.codes]
    arrays += [codebook.entries for codebook in index.pq.codebooks]
    arrays += [index.threshold_model.coefficients_, np.float64(index.sphere_radius)]
    arrays += [getattr(stack, f.name) for f in fields(stack)]
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
    return digest.hexdigest()


class TestPinnedTrainingDigest:
    # Clustering and encoding never look at the metric, so the two cases
    # train different corpora (seeds 5 and 6); the metric decides the
    # regressor, the radius and the scene.
    @pytest.mark.parametrize("metric, seed", [(Metric.L2, 5), (Metric.INNER_PRODUCT, 6)])
    def test_trained_state_unchanged(self, metric, seed):
        assert _training_digest(metric, seed) == PINNED_TRAINING[metric]


def _lut_bytes(lut) -> int:
    """The LUT's size with 4-byte table cells and its 1-byte hit grid: a
    float64 table overshoots it by 6 MB."""
    arrays = [lut.hits] + ([] if lut.inner is None else [lut.inner])
    return 4 * lut.table.size + sum(int(array.nbytes) for array in arrays)


def _traced_peak(stage, ctx) -> int:
    tracemalloc.start()
    try:
        stage.run(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture
def wide_batch_ctx(wide_index, wide_corpus):
    """The 32-query, 256-ray batch on ``wide_index``, run up to the threshold stage."""
    queries = _queries(wide_corpus)
    ctx = QueryContext(
        index=wide_index,
        queries=queries,
        k=10,
        nprobs=8,
        quality_mode=wide_index.config.quality_mode,
        threshold_scale=1.0,
        metric=wide_index.metric,
        work=SearchWork(num_queries=queries.shape[0]),
    )
    QueryPipeline((CoarseFilterStage(), ThresholdStage()), instrument=False).run(ctx)
    return ctx


class TestRTSelectMemory:
    # What one trace block may hold beyond the float32 LUT and its R * S * E'
    # byte hit grid, which the tracer writes d^2 and the accept mask into
    # (the slab masks borrow the d^2 rows first): one float32 scratch grid
    # (y = r^2 - d^2, then the whole-row miss bits of the miss fill) and
    # NumPy's broadcast buffers, plus JUNO-H's (R, S) miss penalties.  At
    # 3 << 15 cells (16 rays over all 48 layers) a JUNO-H block peaks at
    # ~0.61 MB, and the whole batch as one block at ~7.0 MB.  A float64
    # table would add 6 MB.
    SLACK_BYTES = 3 << 18

    @staticmethod
    def _peak_beyond_lut(ctx) -> int:
        peak = _traced_peak(RTSelectStage(), ctx)
        assert ctx.lut.num_rays == 256 and ctx.lut.total_hits > 0
        return peak - _lut_bytes(ctx.lut)

    def test_batch_peak_is_lut_plus_fixed_slack(self, wide_batch_ctx):
        assert self._peak_beyond_lut(wide_batch_ctx) <= self.SLACK_BYTES

    def test_one_block_per_batch_breaks_the_bound(self, wide_batch_ctx, monkeypatch):
        """The guard bites: all 256 rays x 48 layers as one block fails it."""
        monkeypatch.setattr(selective_lut, "_TRACE_BLOCK_CELLS", 1 << 40)
        assert self._peak_beyond_lut(wide_batch_ctx) > self.SLACK_BYTES


class TestScoreMemory:
    # What the score stage may hold beyond the candidates it returns: per
    # candidate of the batch, its id, float32 score, match count and keep
    # flag, and the int64 member index and running kept count that split
    # them by query, plus one ray's gathered (S, n_c) blocks.  The 25 600
    # candidates of this JUNO-H batch peak at ~0.78 MB (JUNO-M at ~1.1 MB).
    # A batch-wide (S, candidates) intp gather index, which the kernel built
    # per batch before the index held each cluster's cells, is 9.8 MB alone.
    SLACK_BYTES = 3 << 19

    @staticmethod
    def _peak_beyond_candidates(ctx) -> int:
        RTSelectStage().run(ctx)
        peak = _traced_peak(ScoreStage(), ctx)
        returned = [array for pair in ctx.candidates if pair is not None for array in pair]
        assert len(returned) == 2 * 32
        return peak - sum(int(array.nbytes) for array in returned)

    def test_batch_peak_is_candidates_plus_fixed_slack(self, wide_batch_ctx):
        assert self._peak_beyond_candidates(wide_batch_ctx) <= self.SLACK_BYTES

    def test_batch_wide_gather_index_breaks_the_bound(self, wide_batch_ctx, monkeypatch):
        """The guard bites: a kernel holding the batch's (S, candidates)
        gather index while it scores fails it."""
        kernel = fused.fused_score_candidates

        def with_batch_index(ctx):
            layout = ctx.index.subspace_index.flat_layout()
            gather = np.concatenate([layout.cells[c] for c in ctx.selected.ravel()], axis=1)
            kernel(ctx)
            del gather  # held until the kernel has run

        monkeypatch.setattr(fused, "fused_score_candidates", with_batch_index)
        assert self._peak_beyond_candidates(wide_batch_ctx) > self.SLACK_BYTES


class TestTopKMemory:
    """The top-k stage stays within the score's bound.

    It holds one query's keys, partition and shortlist at a time, so one
    query holding 50x the candidates of the other 31 costs it ~0.5 MB; a
    padded (32, 50 000) key matrix for the batch would take ~18 MB.
    """

    @staticmethod
    def _peak_beyond_output() -> int:
        rng = np.random.default_rng(50)
        sizes = [1000] * 32
        sizes[5] = 50 * 1000
        ctx = QueryContext(
            queries=np.zeros((32, 2)),
            k=10,
            nprobs=1,
            quality_mode=QualityMode.HIGH,
            threshold_scale=1.0,
            metric=Metric.L2,
            work=SearchWork(num_queries=32),
            candidates=[
                (rng.integers(0, 10**6, size=n), rng.standard_normal(n).astype(np.float32))
                for n in sizes
            ],
            candidate_total=float(sum(sizes)),
        )
        peak = _traced_peak(TopKStage(), ctx)
        assert (ctx.ids >= 0).all()
        return peak - ctx.ids.nbytes - ctx.scores.nbytes

    def test_one_crowded_query_stays_within_the_score_bound(self):
        assert self._peak_beyond_output() <= TestScoreMemory.SLACK_BYTES
