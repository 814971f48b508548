"""Property-based tests (hypothesis) for the core data structures and kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import JunoConfig, QualityMode
from repro.core.index import JunoIndex
from repro.core.threshold import ThresholdModel
from repro.datasets.synthetic import make_clustered_dataset
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric, l2_squared_matrix, pairwise_distance, top_k
from repro.metrics.recall import recall_k_at_n
from repro.pipeline import (
    CoarseFilterStage,
    QueryContext,
    QueryPipeline,
    RTSelectStage,
    StageCache,
    ThresholdStage,
    TopKStage,
    default_search_pipeline,
)
from repro.rt.bvh import BVH
from repro.rt.primitives import Sphere
from score_reference import LoopedScoreStage

# Property-based suites explore many random examples per test; CI pull-request
# runs deselect them with ``-m "not slow"`` (the full suite runs on main).
pytestmark = pytest.mark.slow

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def point_sets(draw, max_points=24, max_dim=6):
    num_points = draw(st.integers(min_value=1, max_value=max_points))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    points = draw(
        arrays(dtype=np.float64, shape=(num_points, dim), elements=finite_floats)
    )
    return points


class TestDistanceProperties:
    @given(points=point_sets())
    @settings(max_examples=40, deadline=None)
    def test_l2_symmetry_and_nonnegativity(self, points):
        dist = l2_squared_matrix(points, points)
        assert (dist >= 0).all()
        np.testing.assert_allclose(dist, dist.T, atol=1e-6)
        np.testing.assert_allclose(np.diag(dist), 0.0, atol=1e-6)

    @given(points=point_sets(), shift=finite_floats)
    @settings(max_examples=40, deadline=None)
    def test_l2_translation_invariance(self, points, shift):
        dist = l2_squared_matrix(points, points)
        shifted = l2_squared_matrix(points + shift, points + shift)
        np.testing.assert_allclose(dist, shifted, atol=1e-5, rtol=1e-6)

    @given(points=point_sets(), k=st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_top_k_returns_true_best(self, points, k):
        scores = pairwise_distance(points[:1], points, Metric.L2)
        idx, vals = top_k(scores, k, Metric.L2)
        k_eff = min(k, points.shape[0])
        assert idx.shape == (1, k_eff)
        best = np.sort(scores[0])[:k_eff]
        np.testing.assert_allclose(np.sort(vals[0]), best)


class TestRecallProperties:
    @given(
        truth=arrays(np.int64, shape=(3, 10), elements=st.integers(0, 50)),
        retrieved=arrays(np.int64, shape=(3, 20), elements=st.integers(0, 50)),
    )
    @settings(max_examples=40, deadline=None)
    def test_recall_bounded_and_monotone_in_n(self, truth, retrieved):
        r_small = recall_k_at_n(retrieved, truth, k=1, n=5)
        r_large = recall_k_at_n(retrieved, truth, k=1, n=20)
        assert 0.0 <= r_small <= r_large <= 1.0

    @given(
        truth_rows=st.lists(
            st.lists(st.integers(0, 1000), min_size=8, max_size=8, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_retrieving_truth_gives_perfect_recall(self, truth_rows):
        truth = np.asarray(truth_rows, dtype=np.int64)
        assert recall_k_at_n(truth, truth, k=8, n=8) == 1.0


class TestBVHProperties:
    @given(
        centres=arrays(
            np.float64,
            shape=st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-3, 3, allow_nan=False),
        ),
        origin=st.tuples(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)),
        radius=st.floats(0.05, 2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_traversal_equals_bruteforce(self, centres, origin, radius):
        spheres = [Sphere(centre=[x, y, 1.0], radius=radius) for x, y in centres]
        bvh = BVH(spheres, leaf_size=3)
        hits = {i for i, _ in bvh.traverse([origin[0], origin[1], 0.0], [0, 0, 1])}
        dist = np.sqrt((centres[:, 0] - origin[0]) ** 2 + (centres[:, 1] - origin[1]) ** 2)
        # Points exactly on the boundary may go either way with float error;
        # exclude a tiny band around the radius from the comparison.
        definitely_in = set(np.flatnonzero(dist < radius - 1e-9).tolist())
        definitely_out = set(np.flatnonzero(dist > radius + 1e-9).tolist())
        assert definitely_in <= hits
        assert not (hits & definitely_out)


class TestThresholdConversionProperties:
    @given(
        threshold=st.floats(0.0, 0.999, allow_nan=False),
        radius=st.floats(0.5, 5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_tmax_round_trip(self, threshold, radius):
        threshold = threshold * radius
        t_max = ThresholdModel.threshold_to_tmax(np.array([threshold]), radius, radius)
        back = ThresholdModel.tmax_to_threshold(t_max, radius, radius)
        # The round trip squares and un-squares the threshold, so precision is
        # bounded by sqrt(eps) * radius rather than eps.
        np.testing.assert_allclose(back, [threshold], atol=1e-6 * radius)
        assert 0.0 <= t_max[0] <= radius + 1e-12


# --------------------------------------------------- pipeline parity / cache
# Trained indexes over seeded random corpora, memoised because hypothesis
# revisits seeds while shrinking; every stream below derives from the drawn
# seed, so each (seed, metric) pair names exactly one corpus + index.
_TRAINED: dict[tuple, tuple] = {}


def _seeded_juno(seed: int, metric: Metric = Metric.L2):
    key = (seed, metric)
    if key not in _TRAINED:
        if len(_TRAINED) > 12:
            _TRAINED.clear()
        dataset = make_clustered_dataset(
            name=f"prop-{metric.value}-{seed}",
            num_points=220,
            num_queries=6,
            dim=8,
            num_components=8,
            metric=metric,
            query_jitter=0.25,
            seed=seed,
        )
        config = JunoConfig(
            num_clusters=6,
            num_subspaces=4,
            num_entries=8,
            metric=metric,
            num_threshold_samples=16,
            threshold_top_k=20,
            kmeans_iters=4,
            density_grid=10,
            seed=seed + 1,
        )
        _TRAINED[key] = (JunoIndex(config).train(dataset.points), dataset)
    return _TRAINED[key]


def _looped_pipeline() -> QueryPipeline:
    return QueryPipeline(
        (
            CoarseFilterStage(),
            ThresholdStage(),
            RTSelectStage(),
            LoopedScoreStage(),
            TopKStage(),
        )
    )


def _assert_identical_results(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.scores, b.scores)


class TestScoreStageParityProperties:
    """The batched ScoreStage equals the per-ray loop on random corpora."""

    @given(
        seed=st.integers(min_value=0, max_value=5),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
        scale=st.sampled_from([0.5, 1.0, 1.8]),
        nprobs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_vectorised_matches_looped(self, seed, mode, scale, nprobs):
        index, dataset = _seeded_juno(seed)
        kwargs = dict(k=8, nprobs=nprobs, quality_mode=mode, threshold_scale=scale)
        vectorised = index.search(dataset.queries, **kwargs)
        looped = index.search(dataset.queries, pipeline=_looped_pipeline(), **kwargs)
        _assert_identical_results(vectorised, looped)
        for field in ("adc_lookups", "adc_candidates", "sorted_candidates"):
            assert getattr(vectorised.work, field) == getattr(looped.work, field), field

    @given(seed=st.integers(min_value=0, max_value=3), mode=st.sampled_from(["juno-h", "juno-l"]))
    @settings(max_examples=6, deadline=None)
    def test_vectorised_matches_looped_mips(self, seed, mode):
        index, dataset = _seeded_juno(seed, metric=Metric.INNER_PRODUCT)
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        vectorised = index.search(dataset.queries, **kwargs)
        looped = index.search(dataset.queries, pipeline=_looped_pipeline(), **kwargs)
        _assert_identical_results(vectorised, looped)


class TestStageCacheProperties:
    """Caching never changes results; invalidation tracks the query batch."""

    @given(
        seed=st.integers(min_value=0, max_value=5),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
        scales=st.lists(
            st.sampled_from([0.5, 0.7, 1.0, 1.5]), min_size=2, max_size=5
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_cached_sweep_identical_to_uncached(self, seed, mode, scales):
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        for scale in scales:
            cached = index.search(
                dataset.queries,
                k=8,
                nprobs=4,
                quality_mode=mode,
                threshold_scale=scale,
                pipeline=pipeline,
            )
            plain = index.search(
                dataset.queries, k=8, nprobs=4, quality_mode=mode, threshold_scale=scale
            )
            _assert_identical_results(cached, plain)
        stats = cache.stats()
        # the coarse filter does not depend on the scale: one miss, then hits
        assert stats["coarse_filter"] == {"hits": len(scales) - 1, "misses": 1}
        # the threshold stage recomputes once per *distinct* scale
        assert stats["threshold"] == {
            "hits": len(scales) - len(set(scales)),
            "misses": len(set(scales)),
        }

    @given(
        seed=st.integers(min_value=0, max_value=3),
        jitter=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=8, deadline=None)
    def test_cache_invalidates_on_query_batch_change(self, seed, jitter):
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        index.search(dataset.queries, pipeline=pipeline, **kwargs)
        changed = dataset.queries + jitter
        cached = index.search(changed, pipeline=pipeline, **kwargs)
        plain = index.search(changed, **kwargs)
        _assert_identical_results(cached, plain)
        # the changed batch can never alias the first batch's entries
        assert cache.stats()["coarse_filter"] == {"hits": 0, "misses": 2}
        # ... but repeating either batch is served from cache, still identically
        repeat = index.search(dataset.queries, pipeline=pipeline, **kwargs)
        plain_repeat = index.search(dataset.queries, **kwargs)
        _assert_identical_results(repeat, plain_repeat)
        assert cache.stats()["coarse_filter"]["hits"] == 1


class TestRTSelectCacheProperties:
    """The RT-select LUT memo: hits only for exact repeats, never across
    inner-sphere settings or t_max slices; results stay bit-identical."""

    @given(
        seed=st.integers(min_value=0, max_value=4),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
        scale=st.sampled_from([0.6, 1.0, 1.5]),
    )
    @settings(max_examples=10, deadline=None)
    def test_exact_repeat_hits_and_restores_identically(self, seed, mode, scale):
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=scale)
        first = index.search(dataset.queries, pipeline=pipeline, **kwargs)
        second = index.search(dataset.queries, pipeline=pipeline, **kwargs)
        plain = index.search(dataset.queries, **kwargs)
        _assert_identical_results(first, plain)
        _assert_identical_results(second, plain)
        assert cache.stats()["rt_select"] == {"hits": 1, "misses": 1}
        # the hit honestly skipped the traversal work
        assert second.work.rt_rays == 0.0
        assert first.work.rt_rays > 0.0

    @given(seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_inner_sphere_setting_invalidates(self, seed):
        """JUNO-M evaluates the inner sphere, JUNO-H does not; at the same
        scale their threshold stages produce identical origins/t_max, so
        only the inner-sphere key component keeps JUNO-M from reusing a
        JUNO-H LUT that carries no inner flags."""
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, threshold_scale=1.0)
        index.search(dataset.queries, pipeline=pipeline, quality_mode="juno-h", **kwargs)
        cached = index.search(
            dataset.queries, pipeline=pipeline, quality_mode="juno-m", **kwargs
        )
        plain = index.search(dataset.queries, quality_mode="juno-m", **kwargs)
        _assert_identical_results(cached, plain)
        # the threshold slice was shared (mode-independent) ...
        assert cache.stats()["threshold"] == {"hits": 1, "misses": 1}
        # ... but the LUT could not be: different inner-sphere setting
        assert cache.stats()["rt_select"] == {"hits": 0, "misses": 2}
        # JUNO-L shares JUNO-H's setting (no inner sphere): exact reuse
        index.search(dataset.queries, pipeline=pipeline, quality_mode="juno-l", **kwargs)
        assert cache.stats()["rt_select"] == {"hits": 1, "misses": 2}

    @given(
        seed=st.integers(min_value=0, max_value=3),
        order=st.permutations(["juno-h", "juno-m", "juno-l"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_miss_fill_invalidates(self, seed, order):
        """JUNO-H and JUNO-L fill misses with penalties and share one LUT in
        either order; JUNO-M's NaN-filled LUT is never served to them, nor
        theirs to it.  A changed penalty factor builds a new LUT."""
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)

        def search(mode, pipeline=None):
            kwargs = dict(k=8, nprobs=4, threshold_scale=1.0, quality_mode=mode)
            return index.search(dataset.queries, pipeline=pipeline, **kwargs)

        for mode in order:
            _assert_identical_results(search(mode, pipeline), search(mode))
        assert cache.stats()["rt_select"] == {"hits": 1, "misses": 2}
        factor = index.config.miss_penalty_factor
        index.config.miss_penalty_factor = 2.0 * factor
        try:
            _assert_identical_results(search("juno-h", pipeline), search("juno-h"))
        finally:
            index.config.miss_penalty_factor = factor
        assert cache.stats()["rt_select"] == {"hits": 1, "misses": 3}

    @given(
        seed=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_hit_restores_frozen_identical_lut(self, seed, mode):
        """A cache hit hands back the table, hit grid and inner flags of the
        miss byte for byte, every one read-only."""
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        luts = []
        for _ in range(2):
            ctx = QueryContext(
                index=index,
                queries=dataset.queries,
                k=8,
                nprobs=4,
                quality_mode=QualityMode(mode),
                threshold_scale=1.0,
                metric=index.metric,
                work=SearchWork(num_queries=dataset.queries.shape[0]),
            )
            stages = (CoarseFilterStage(), ThresholdStage(), RTSelectStage(cache=cache))
            QueryPipeline(stages, instrument=False).run(ctx)
            luts.append(ctx.lut)
        assert cache.stats()["rt_select"] == {"hits": 1, "misses": 1}
        RTSelectStage().run(ctx)  # uncached: a fresh LUT to compare against
        assert (ctx.lut.inner is None) == (mode != "juno-m")
        for name in ("table", "hits", "inner"):
            want = getattr(ctx.lut, name)
            for lut in luts:
                got = getattr(lut, name)
                if want is None:
                    assert got is None
                else:
                    assert got.tobytes() == want.tobytes() and not got.flags.writeable, name

    @given(
        seed=st.integers(min_value=0, max_value=3),
        scales=st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.4]), min_size=2, max_size=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_t_max_slice_invalidates(self, seed, scales):
        """A changed threshold scale changes the t_max travel budgets, so the
        RT stage recomputes once per distinct scale (like the threshold
        stage) while the coarse filter still hits."""
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        for scale in scales:
            cached = index.search(
                dataset.queries,
                k=8,
                nprobs=4,
                quality_mode="juno-h",
                threshold_scale=scale,
                pipeline=pipeline,
            )
            plain = index.search(
                dataset.queries, k=8, nprobs=4, quality_mode="juno-h", threshold_scale=scale
            )
            _assert_identical_results(cached, plain)
        assert cache.stats()["rt_select"] == {
            "hits": len(scales) - len(set(scales)),
            "misses": len(set(scales)),
        }

    @given(
        seed=st.integers(min_value=0, max_value=2),
        jitter=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=6, deadline=None)
    def test_query_batch_change_invalidates(self, seed, jitter):
        index, dataset = _seeded_juno(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        index.search(dataset.queries, pipeline=pipeline, **kwargs)
        cached = index.search(dataset.queries + jitter, pipeline=pipeline, **kwargs)
        plain = index.search(dataset.queries + jitter, **kwargs)
        _assert_identical_results(cached, plain)
        assert cache.stats()["rt_select"] == {"hits": 0, "misses": 2}


class TestMutationInvalidationProperties:
    """Streaming updates vs. the stage caches: any upsert/delete bumps the
    index state token, so no cached coarse-filter/threshold output and no
    RT-select LUT from before the mutation can ever be served -- while an
    unmutated mutable index still hits and restores bit-identically."""

    @staticmethod
    def _fresh_mutable(seed):
        import copy

        from repro.updates import MutableJunoIndex

        index, dataset = _seeded_juno(seed)
        # deep-copy the memoised trained base: mutations must never leak
        # into the corpora shared with the other property suites
        return MutableJunoIndex(copy.deepcopy(index), dataset.points), dataset

    @given(
        seed=st.integers(min_value=0, max_value=3),
        op=st.sampled_from(["insert", "update", "delete"]),
        mode=st.sampled_from(["juno-h", "juno-m"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_mutation_invalidates_every_cached_stage(self, seed, op, mode):
        mutable, dataset = self._fresh_mutable(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        token = mutable.state_token
        if op == "insert":
            mutable.upsert([10_000], dataset.queries[:1])
        elif op == "update":
            mutable.upsert([0], dataset.points[0][None, :] * 1.05)
        else:
            mutable.delete([0])
        assert mutable.state_token != token
        cached = mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        plain = mutable.search(dataset.queries, **kwargs)
        _assert_identical_results(cached, plain)
        # the same batch, but a new state token: every stage re-misses, so a
        # pre-mutation LUT or filter slice can never shadow the mutation
        for stage in ("coarse_filter", "threshold", "rt_select"):
            assert cache.stats()[stage] == {"hits": 0, "misses": 2}, stage

    @given(
        seed=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from(["juno-h", "juno-l"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_unmutated_mutable_index_still_hits(self, seed, mode):
        mutable, dataset = self._fresh_mutable(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        first = mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        second = mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        _assert_identical_results(first, second)
        for stage in ("coarse_filter", "threshold", "rt_select"):
            assert cache.stats()[stage] == {"hits": 1, "misses": 1}, stage
        # the exact-repeat hit honestly skipped the traversal work
        assert second.work.rt_rays == 0.0

    @given(seed=st.integers(min_value=0, max_value=2))
    @settings(max_examples=6, deadline=None)
    def test_compaction_also_invalidates(self, seed):
        mutable, dataset = self._fresh_mutable(seed)
        cache = StageCache()
        pipeline = default_search_pipeline(stage_cache=cache)
        kwargs = dict(k=8, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        mutable.upsert([10_000], dataset.queries[:1])
        mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        mutable.compact()
        cached = mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        plain = mutable.search(dataset.queries, **kwargs)
        _assert_identical_results(cached, plain)
        assert cache.stats()["rt_select"] == {"hits": 0, "misses": 2}


@st.composite
def scored_candidates(draw):
    """Per-query ``(ids, scores)`` lists as the score stage leaves them, with
    ``None`` entries, empty and short lists and scores drawn from a small pool
    (so they repeat; the pool may hold -0.0, infinities and NaN)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    pool = draw(
        st.lists(
            st.one_of(
                st.floats(-3.0, 3.0, width=32),
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    candidates = []
    for query in range(draw(st.integers(1, 7))):
        if draw(st.booleans()) and draw(st.booleans()):
            candidates.append(None)
            continue
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
        ids = 1000 * query + np.arange(len(picks), dtype=np.int64)
        candidates.append((ids, np.asarray(pool, dtype=dtype)[picks]))
    return candidates


class TestTopKProperties:
    """The shortlisting top-k is the per-query stable argsort, bit for bit:
    ties at the k-th key and a ``NaN`` k-th key included."""

    @given(
        candidates=scored_candidates(),
        k=st.integers(1, 12),
        higher_is_better=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_query_stable_argsort(self, candidates, k, higher_is_better):
        num_queries = len(candidates)
        ctx = QueryContext(
            queries=np.zeros((num_queries, 2)),
            k=k,
            nprobs=1,
            quality_mode=QualityMode.LOW if higher_is_better else QualityMode.HIGH,
            threshold_scale=1.0,
            metric=Metric.L2,
            work=SearchWork(num_queries=num_queries),
            candidates=candidates,
        )
        assert ctx.higher_is_better == higher_is_better
        TopKStage().run(ctx)
        fill = -np.inf if higher_is_better else np.inf
        want_ids = np.full((num_queries, k), -1, dtype=np.int64)
        want_scores = np.full((num_queries, k), fill)
        for qi, pair in enumerate(candidates):
            if pair is None:
                continue
            ids, scores = pair
            order = np.argsort(-scores if higher_is_better else scores, kind="stable")[:k]
            want_ids[qi, : order.size] = ids[order]
            want_scores[qi, : order.size] = scores[order]
        assert ctx.ids.tobytes() == want_ids.tobytes()
        assert ctx.scores.dtype == np.float64
        assert ctx.scores.tobytes() == want_scores.tobytes()

