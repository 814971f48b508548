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
    ThresholdStage,
    TopKStage,
    default_search_pipeline,
)
from rt_reference import BVH, Sphere, bvh_traverse, tmax_to_threshold
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
        hits = {i for i, _ in bvh_traverse(bvh, [origin[0], origin[1], 0.0], [0, 0, 1])}
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
        back = tmax_to_threshold(t_max, radius, radius)
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


class TestRepeatSearchProperties:
    """A reused pipeline keeps nothing between searches: every search of a
    sweep, and every search after the batch changed, equals a fresh one."""

    @given(
        seed=st.integers(min_value=0, max_value=5),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
        scales=st.lists(
            st.sampled_from([0.5, 0.7, 1.0, 1.5]), min_size=2, max_size=5
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_reused_pipeline_sweep_identical_to_fresh(self, seed, mode, scales):
        index, dataset = _seeded_juno(seed)
        pipeline = default_search_pipeline()
        first = {}
        for scale in scales:
            kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=scale)
            reused = index.search(dataset.queries, pipeline=pipeline, **kwargs)
            _assert_identical_results(reused, index.search(dataset.queries, **kwargs))
            # a repeated scale pays its traversal again, ray for ray
            previous = first.setdefault(scale, reused)
            assert reused.work.rt_rays == previous.work.rt_rays > 0.0

    @given(
        seed=st.integers(min_value=0, max_value=3),
        jitter=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=8, deadline=None)
    def test_query_batch_change_matches_fresh(self, seed, jitter):
        index, dataset = _seeded_juno(seed)
        pipeline = default_search_pipeline()
        kwargs = dict(k=8, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        index.search(dataset.queries, pipeline=pipeline, **kwargs)
        changed = dataset.queries + jitter
        _assert_identical_results(
            index.search(changed, pipeline=pipeline, **kwargs), index.search(changed, **kwargs)
        )
        _assert_identical_results(
            index.search(dataset.queries, pipeline=pipeline, **kwargs),
            index.search(dataset.queries, **kwargs),
        )


def _selective_lut(index, queries, mode, scale=1.0):
    """The LUT RT-select builds for ``queries`` (coarse filter and
    threshold stages run first, on a fresh context)."""
    ctx = QueryContext(
        index=index,
        queries=queries,
        k=8,
        nprobs=4,
        quality_mode=QualityMode(mode),
        threshold_scale=scale,
        metric=index.metric,
        work=SearchWork(num_queries=queries.shape[0]),
    )
    stages = (CoarseFilterStage(), ThresholdStage(), RTSelectStage())
    QueryPipeline(stages, instrument=False).run(ctx)
    return ctx.lut


class TestRTSelectProperties:
    """What the RT-select stage's LUT holds in each quality mode, and how it
    follows the inner-sphere setting, the miss penalty and the ``t_max``
    travel budgets."""

    @given(
        seed=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_repeat_builds_an_identical_private_lut(self, seed, mode):
        index, dataset = _seeded_juno(seed)
        first = _selective_lut(index, dataset.queries, mode)
        second = _selective_lut(index, dataset.queries, mode)
        assert (first.inner is None) == (mode != "juno-m")
        for name in ("table", "hits", "inner"):
            want, got = getattr(first, name), getattr(second, name)
            if want is None:
                assert got is None
                continue
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.writeable and not np.shares_memory(got, want), name

    @given(
        seed=st.integers(min_value=0, max_value=3),
        metric=st.sampled_from([Metric.L2, Metric.INNER_PRODUCT]),
    )
    @settings(max_examples=8, deadline=None)
    def test_miss_fill_follows_mode(self, seed, metric):
        """JUNO-H and JUNO-L build one LUT, misses filled with penalties;
        JUNO-M selects the same cells with the same values but fills every
        miss with NaN and flags its inner-sphere cells among the hits."""
        index, dataset = _seeded_juno(seed, metric=metric)
        high = _selective_lut(index, dataset.queries, "juno-h")
        low = _selective_lut(index, dataset.queries, "juno-l")
        medium = _selective_lut(index, dataset.queries, "juno-m")
        assert high.table.tobytes() == low.table.tobytes()
        assert high.hits.tobytes() == low.hits.tobytes()
        assert high.inner is None and low.inner is None
        np.testing.assert_array_equal(medium.hits, high.hits)
        np.testing.assert_array_equal(medium.table[medium.hits], high.table[high.hits])
        assert np.isnan(medium.table[~medium.hits]).all()
        assert not np.isnan(high.table).any()
        assert not (medium.inner & ~medium.hits).any()

    @given(seed=st.integers(min_value=0, max_value=3), mode=st.sampled_from(["juno-h", "juno-l"]))
    @settings(max_examples=6, deadline=None)
    def test_penalty_factor_scales_only_miss_cells(self, seed, mode):
        index, dataset = _seeded_juno(seed)
        base = _selective_lut(index, dataset.queries, mode)
        factor = index.config.miss_penalty_factor
        index.config.miss_penalty_factor = 2.0 * factor
        try:
            doubled = _selective_lut(index, dataset.queries, mode)
        finally:
            index.config.miss_penalty_factor = factor
        np.testing.assert_array_equal(doubled.hits, base.hits)
        np.testing.assert_array_equal(doubled.table[base.hits], base.table[base.hits])
        np.testing.assert_array_equal(doubled.table[~base.hits], 2.0 * base.table[~base.hits])

    @given(
        seed=st.integers(min_value=0, max_value=3),
        metric=st.sampled_from([Metric.L2, Metric.INNER_PRODUCT]),
        scales=st.lists(
            st.sampled_from([0.5, 0.8, 1.0, 1.4]), min_size=2, max_size=4, unique=True
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_wider_threshold_scale_selects_a_superset(self, seed, metric, scales):
        """A larger scale lengthens every ray's ``t_max``, so the cells it
        selects contain those of every smaller scale."""
        index, dataset = _seeded_juno(seed, metric=metric)
        hits = [
            _selective_lut(index, dataset.queries, "juno-h", scale).hits
            for scale in sorted(scales)
        ]
        for narrow, wide in zip(hits, hits[1:]):
            assert not (narrow & ~wide).any()


class TestMutationVisibilityProperties:
    """Streaming updates: a mutation is visible to the very next search of
    the same batch, and an unmutated mutable index searches like its base."""

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
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_mutation_is_visible_to_the_next_search(self, seed, op, mode):
        mutable, dataset = self._fresh_mutable(seed)
        pipeline = default_search_pipeline()
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        if op == "insert":
            mutable.upsert([10_000], dataset.queries[:1])
        elif op == "update":
            mutable.upsert([0], dataset.queries[1:2])
        else:
            mutable.delete([0])
        after = mutable.search(dataset.queries, pipeline=pipeline, **kwargs)
        _assert_identical_results(after, mutable.search(dataset.queries, **kwargs))
        if op == "insert":
            assert after.ids[0, 0] == 10_000  # the query itself is now a point
        elif op == "update":
            assert after.ids[1, 0] == 0  # point 0 moved onto query 1
        else:
            assert not (after.ids == 0).any()

    @given(
        seed=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from(["juno-h", "juno-m", "juno-l"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_unmutated_mutable_index_matches_its_base(self, seed, mode):
        mutable, dataset = self._fresh_mutable(seed)
        base, _ = _seeded_juno(seed)
        kwargs = dict(k=8, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        expected = base.search(dataset.queries, **kwargs)
        for _ in range(2):
            observed = mutable.search(dataset.queries, **kwargs)
            _assert_identical_results(observed, expected)
            assert observed.work.rt_rays == expected.work.rt_rays

    @given(seed=st.integers(min_value=0, max_value=2))
    @settings(max_examples=6, deadline=None)
    def test_compaction_keeps_mutations_visible(self, seed):
        mutable, dataset = self._fresh_mutable(seed)
        kwargs = dict(k=8, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        mutable.upsert([10_000], dataset.queries[:1])
        mutable.delete([0])
        before = mutable.search(dataset.queries, **kwargs)
        mutable.compact()
        after = mutable.search(dataset.queries, **kwargs)
        _assert_identical_results(after, mutable.search(dataset.queries, **kwargs))
        assert not (before.ids == 0).any() and not (after.ids == 0).any()
        live = mutable.live_ids()
        assert 10_000 in live and 0 not in live
        assert len(mutable.delta) == 0 and len(mutable.tombstones) == 0


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

