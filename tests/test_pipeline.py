"""Tests for the staged query-execution pipeline (repro.pipeline).

The parity class pins the refactor's core guarantee: the default
:class:`QueryPipeline` reproduces the pre-refactor monolithic
``JunoIndex.search`` bit-identically.  ``_reference_monolithic_search`` below
is a faithful port of that monolithic implementation (as of the serving-layer
PR) operating on the index's trained state, so the snapshot travels with the
test suite instead of a binary fixture.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.exact import exact_candidate_scores
from repro.core.config import JunoConfig, QualityMode
from repro.core.index import JunoIndex
from repro.core.selective_lut import SelectiveLUTConstructor
from repro.core.threshold import ThresholdModel
from repro.core.inner_product import inner_product_threshold_to_tmax
from repro.datasets.synthetic import make_clustered_dataset
from repro.gpu.cost_model import CostModel
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric
from repro.pipeline import (
    CoarseFilterStage,
    ExactRerankStage,
    QueryContext,
    QueryPipeline,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
    default_search_pipeline,
    rerank_pipeline,
)
from rt_reference import dense_rows, hit_mask_rows
from score_reference import HitCountScorer, LoopedScoreStage, subspace_sum

WORK_COUNTER_FIELDS = (
    "filter_flops",
    "rt_rays",
    "rt_node_visits",
    "rt_aabb_tests",
    "rt_prim_tests",
    "rt_hits",
    "adc_lookups",
    "adc_candidates",
    "sorted_candidates",
    "threshold_inferences",
    "rerank_flops",
)

# The two score rules, and JUNO-H once more with its misses at another
# ``miss_penalty_factor``, which reaches the score only through JUNO-H's miss
# values (JUNO-L counts hits).  A test sets the factor on its index for the
# run with ``monkeypatch``.
SCORE_RULES = [
    pytest.param("juno-h", 1.0, id="juno-h"),
    pytest.param("juno-l", 1.0, id="juno-l"),
    pytest.param("juno-h", 2.5, id="juno-h-miss2.5"),
]


def looped_score_pipeline() -> QueryPipeline:
    """The default pipeline with the historical per-ray score loop."""
    return QueryPipeline(
        (
            CoarseFilterStage(),
            ThresholdStage(),
            RTSelectStage(),
            LoopedScoreStage(),
            TopKStage(),
        )
    )


# --------------------------------------------------------------- reference
def _reference_thresholds_and_tmax(index, origins, scale, work):
    num_rays, num_subspaces, _ = origins.shape
    thresholds = np.empty((num_rays, num_subspaces))
    t_max = np.empty((num_rays, num_subspaces))
    for s in range(num_subspaces):
        density = index.density_map.lookup(s, origins[:, s, :])
        predicted = index.threshold_model.predict_from_density(density)
        offset = float(index.origin_offsets[s])
        if index.metric is Metric.L2:
            effective = predicted * scale
            thresholds[:, s] = effective
            t_max[:, s] = ThresholdModel.threshold_to_tmax(
                effective, index.sphere_radius, offset
            )
        else:
            query_norm_sq = np.sum(origins[:, s, :] ** 2, axis=1)
            base_tmax = inner_product_threshold_to_tmax(
                predicted, query_norm_sq, index.sphere_radius, offset
            )
            scaled_tmax = np.clip(offset - (offset - base_tmax) / scale, 0.0, offset)
            t_max[:, s] = scaled_tmax
            thresholds[:, s] = (
                query_norm_sq - index.sphere_radius**2 + (offset - scaled_tmax) ** 2
            ) / 2.0
    work.threshold_inferences += float(num_rays * num_subspaces)
    return thresholds, t_max


def _reference_miss_penalties(index, row_thresholds):
    if index.metric is Metric.L2:
        return (row_thresholds**2) * index.config.miss_penalty_factor
    return row_thresholds * index.config.miss_penalty_factor


def _reference_score_batch(
    index, queries, selected, lut, thresholds, mode, k, query_cluster_ip, work
):
    num_queries, nprobs = selected.shape
    num_subspaces = index.config.num_subspaces
    subspace_range = np.arange(num_subspaces)
    scorer = HitCountScorer()
    higher_is_better = mode.higher_is_better(index.metric)
    fill_value = -np.inf if higher_is_better else np.inf
    all_ids = np.full((num_queries, k), -1, dtype=np.int64)
    all_scores = np.full((num_queries, k), fill_value, dtype=np.float64)
    candidate_total = 0.0
    for qi in range(num_queries):
        candidate_ids = []
        candidate_scores = []
        for ci in range(nprobs):
            cluster_id = int(selected[qi, ci])
            ray_id = qi * nprobs + ci
            members = index.subspace_index.cluster_members(cluster_id)
            if members.size == 0:
                continue
            codes = index.codes[members]
            if mode.uses_exact_distance:
                rows = dense_rows(lut, index.scene, ray_id)
                values = rows[subspace_range[None, :], codes]
                miss = np.isnan(values)
                matched = (~miss).sum(axis=1)
                # penalties follow the table's dtype (float32 since the hot path
                # is), and the sum runs subspace by subspace as the kernel's does
                penalties = _reference_miss_penalties(index, thresholds[ray_id]).astype(rows.dtype)
                scores = subspace_sum(np.where(miss, penalties[None, :], values))
                if query_cluster_ip is not None:
                    scores = scores + query_cluster_ip[qi, ci]
            else:
                hit_mask = hit_mask_rows(lut, index.scene, ray_id)
                scores, matched = scorer.score_members(hit_mask, codes)
            keep = matched >= 1
            work.adc_lookups += float(matched.sum())
            work.adc_candidates += float(keep.sum())
            if not keep.any():
                continue
            candidate_ids.append(members[keep])
            candidate_scores.append(scores[keep])
        if not candidate_ids:
            continue
        ids = np.concatenate(candidate_ids)
        scores = np.concatenate(candidate_scores)
        candidate_total += float(ids.size)
        order = np.argsort(-scores if higher_is_better else scores, kind="stable")[:k]
        count = order.size
        all_ids[qi, :count] = ids[order]
        all_scores[qi, :count] = scores[order]
    return all_ids, all_scores, candidate_total


def _reference_monolithic_search(
    index, queries, k, nprobs=8, quality_mode=None, threshold_scale=None
):
    """The pre-refactor ``JunoIndex.search``, verbatim, as a test oracle."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    mode = QualityMode(quality_mode) if quality_mode is not None else index.config.quality_mode
    scale = float(threshold_scale) if threshold_scale is not None else index.config.threshold_scale
    num_queries = queries.shape[0]
    work = SearchWork(num_queries=num_queries, lut_pairwise_dims=2.0)

    selected = index.ivf.select_clusters(queries, nprobs)
    nprobs = selected.shape[1]
    work.filter_flops += 2.0 * num_queries * index.dim * index.ivf.num_clusters

    origins, query_cluster_ip = index._ray_origins(queries, selected)
    thresholds, t_max = _reference_thresholds_and_tmax(index, origins, scale, work)
    constructor = SelectiveLUTConstructor(
        tracer=index.tracer,
        base_radius=index.sphere_radius,
        origin_offsets=index.origin_offsets,
        metric=index.metric,
    )
    lut = constructor.construct(origins, t_max, _reference_miss_penalties(index, thresholds))
    work.rt_rays += lut.stats.rays
    work.rt_node_visits += lut.stats.node_visits
    work.rt_aabb_tests += lut.stats.aabb_tests
    work.rt_prim_tests += lut.stats.prim_tests
    work.rt_hits += lut.stats.hits

    ids, scores, candidate_total = _reference_score_batch(
        index, queries, selected, lut, thresholds, mode, k, query_cluster_ip, work
    )
    work.sorted_candidates += candidate_total
    return ids, scores, work, lut.selected_fraction(), candidate_total


def _assert_matches_reference(index, dataset, mode, scale):
    result = index.search(dataset.queries, k=10, nprobs=6, quality_mode=mode, threshold_scale=scale)
    ref_ids, ref_scores, ref_work, ref_fraction, ref_candidates = _reference_monolithic_search(
        index, dataset.queries, k=10, nprobs=6, quality_mode=mode, threshold_scale=scale
    )
    np.testing.assert_array_equal(result.ids, ref_ids)
    np.testing.assert_array_equal(result.scores, ref_scores)
    assert result.selected_entry_fraction == ref_fraction
    assert result.extra["num_candidates"] == ref_candidates
    for field_name in WORK_COUNTER_FIELDS:
        assert getattr(result.work, field_name) == getattr(ref_work, field_name), field_name


def _assert_results_bit_identical(result, other):
    """Bit-identical ids/scores plus exact SearchWork counter equality."""
    np.testing.assert_array_equal(result.ids, other.ids)
    np.testing.assert_array_equal(result.scores, other.scores)
    assert result.selected_entry_fraction == other.selected_entry_fraction
    assert result.extra["num_candidates"] == other.extra["num_candidates"]
    for field_name in WORK_COUNTER_FIELDS:
        assert getattr(result.work, field_name) == getattr(other.work, field_name), field_name


# ------------------------------------------------------------------- parity
@pytest.fixture(scope="module")
def static_juno(juno_l2, l2_dataset, juno_ip, ip_dataset):
    """The session indexes retrained with each static threshold strategy of
    Fig. 13(b), keyed ``(metric, strategy)`` to ``(index, dataset)``: one
    threshold for every ray and subspace, the smallest or the largest the
    training saw."""
    trained = {}
    for metric, index, dataset in (("l2", juno_l2, l2_dataset), ("ip", juno_ip, ip_dataset)):
        for strategy in ("static-small", "static-large"):
            config = index.config.with_updates(threshold_strategy=strategy)
            trained[metric, strategy] = JunoIndex(config).train(dataset.points), dataset
    return trained


class TestDefaultPipelineParity:
    """Property: the staged default pipeline == the pre-refactor monolith."""

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("scale", [0.6, 1.0, 2.0])
    def test_l2_bit_identical(self, monkeypatch, juno_l2, l2_dataset, mode, miss_factor, scale):
        monkeypatch.setattr(juno_l2.config, "miss_penalty_factor", miss_factor)
        _assert_matches_reference(juno_l2, l2_dataset, mode, scale)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_ip_bit_identical(self, monkeypatch, juno_ip, ip_dataset, mode, miss_factor):
        monkeypatch.setattr(juno_ip.config, "miss_penalty_factor", miss_factor)
        _assert_matches_reference(juno_ip, ip_dataset, mode, 1.0)

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    @pytest.mark.parametrize("strategy", ["static-small", "static-large"])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_static_thresholds_bit_identical(self, static_juno, metric, strategy, mode):
        index, dataset = static_juno[metric, strategy]
        _assert_matches_reference(index, dataset, mode, 1.0)


# ------------------------------------------------- looped vs batched scoring
@pytest.fixture(scope="class")
def edge_case_juno():
    """A small trained index/dataset pair the edge-case tests can doctor."""
    dataset = make_clustered_dataset(
        name="edge-l2",
        num_points=320,
        num_queries=10,
        dim=8,
        num_components=10,
        query_jitter=0.2,
        seed=7,
    )
    config = JunoConfig(
        num_clusters=8,
        num_subspaces=4,
        num_entries=8,
        metric=Metric.L2,
        num_threshold_samples=24,
        threshold_top_k=30,
        kmeans_iters=6,
        density_grid=12,
        seed=5,
    )
    return JunoIndex(config).train(dataset.points), dataset


@contextmanager
def _largest_cluster_emptied(index):
    """Rebuild ``index.subspace_index`` with its largest posting list emptied.

    With ``nprobs == num_clusters`` every query probes the emptied cluster,
    exercising the kernels' no-members path.  Yields ``(posting, victim)``.
    """
    original = index.subspace_index, index.ivf.posting_lists
    posting = list(index.ivf.posting_lists)
    victim = int(np.argmax([ids.size for ids in posting]))
    posting[victim] = np.array([], dtype=np.int64)
    index.ivf.posting_lists = posting
    index.rebuild_layout()
    try:
        yield posting, victim
    finally:
        index.subspace_index, index.ivf.posting_lists = original


class TestScoreStageParity:
    """The batched ScoreStage is bit-identical to the per-ray loop."""

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("scale", [0.6, 1.0, 2.0])
    def test_l2_looped_vs_vectorised(
        self, monkeypatch, juno_l2, l2_dataset, mode, miss_factor, scale
    ):
        monkeypatch.setattr(juno_l2.config, "miss_penalty_factor", miss_factor)
        kwargs = dict(k=10, nprobs=6, quality_mode=mode, threshold_scale=scale)
        vectorised = juno_l2.search(l2_dataset.queries, **kwargs)
        looped = juno_l2.search(l2_dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_ip_looped_vs_vectorised(self, monkeypatch, juno_ip, ip_dataset, mode, miss_factor):
        monkeypatch.setattr(juno_ip.config, "miss_penalty_factor", miss_factor)
        kwargs = dict(k=10, nprobs=6, quality_mode=mode, threshold_scale=1.0)
        vectorised = juno_ip.search(ip_dataset.queries, **kwargs)
        looped = juno_ip.search(ip_dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_empty_cluster_parity(self, monkeypatch, edge_case_juno, mode, miss_factor):
        """Clusters whose posting list is empty are skipped identically."""
        index, dataset = edge_case_juno
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        with _largest_cluster_emptied(index) as (posting, victim):
            kwargs = dict(
                k=10, nprobs=index.config.num_clusters, quality_mode=mode, threshold_scale=1.0
            )
            vectorised = index.search(dataset.queries, **kwargs)
            looped = index.search(dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        ref_ids = np.concatenate([ids for c, ids in enumerate(posting) if c != victim])
        assert not np.isin(vectorised.ids[vectorised.ids >= 0], posting[victim]).any()
        assert np.isin(vectorised.ids[vectorised.ids >= 0], ref_ids).all()

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    def test_all_miss_parity(self, edge_case_juno, mode):
        """A threshold scale so tight that no ray hits anything: all-padded output."""
        index, dataset = edge_case_juno
        kwargs = dict(k=10, nprobs=4, quality_mode=mode, threshold_scale=1e-6)
        vectorised = index.search(dataset.queries, **kwargs)
        looped = index.search(dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        assert (vectorised.ids == -1).all()
        assert vectorised.extra["num_candidates"] == 0.0
        assert vectorised.work.adc_candidates == 0.0

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    def test_empty_query_batch(self, juno_l2, mode):
        """A (0, D) batch returns (0, k) cleanly from both scorer variants."""
        empty = np.empty((0, juno_l2.dim))
        kwargs = dict(k=5, nprobs=4, quality_mode=mode, threshold_scale=1.0)
        vectorised = juno_l2.search(empty, **kwargs)
        looped = juno_l2.search(empty, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        assert vectorised.ids.shape == (0, 5)
        assert vectorised.extra["num_candidates"] == 0.0

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_jittered_resamples(
        self, monkeypatch, juno_l2, l2_dataset, juno_ip, ip_dataset, metric, mode, miss_factor, rng
    ):
        """Off-corpus query mixes: resampled queries jittered off the data."""
        index, dataset = (juno_l2, l2_dataset) if metric == "l2" else (juno_ip, ip_dataset)
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        for _ in range(3):
            rows = rng.integers(0, dataset.queries.shape[0], size=8)
            queries = dataset.queries[rows] + rng.normal(scale=0.05, size=(8, dataset.dim))
            scale = float(rng.uniform(0.5, 2.0))
            kwargs = dict(k=10, nprobs=5, quality_mode=mode, threshold_scale=scale)
            vectorised = index.search(queries, **kwargs)
            looped = index.search(queries, pipeline=looped_score_pipeline(), **kwargs)
            _assert_results_bit_identical(vectorised, looped)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_empty_cluster_parity_mips(self, monkeypatch, juno_ip, ip_dataset, mode, miss_factor):
        """MIPS adds each ray's query-cluster product; an empty ray adds none."""
        monkeypatch.setattr(juno_ip.config, "miss_penalty_factor", miss_factor)
        with _largest_cluster_emptied(juno_ip) as (posting, victim):
            kwargs = dict(
                k=10, nprobs=juno_ip.config.num_clusters, quality_mode=mode, threshold_scale=1.0
            )
            vectorised = juno_ip.search(ip_dataset.queries, **kwargs)
            looped = juno_ip.search(ip_dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        assert not np.isin(vectorised.ids[vectorised.ids >= 0], posting[victim]).any()
        assert (vectorised.ids >= 0).any()

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    def test_all_miss_parity_mips(self, juno_ip, ip_dataset, mode):
        kwargs = dict(k=10, nprobs=4, quality_mode=mode, threshold_scale=1e-6)
        vectorised = juno_ip.search(ip_dataset.queries, **kwargs)
        looped = juno_ip.search(ip_dataset.queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        assert (vectorised.ids == -1).all()
        assert vectorised.work.adc_candidates == 0.0

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_miss_factor_reaches_only_juno_h_scores(self, request, monkeypatch, metric):
        """The ``juno-h-miss2.5`` cases score differently from ``juno-h``,
        and JUNO-L's hit counts do not move with the factor."""
        index = request.getfixturevalue(f"juno_{metric}")
        queries = request.getfixturevalue(f"{metric}_dataset").queries
        kwargs = dict(k=10, nprobs=6, threshold_scale=1.0)
        high, low = (index.search(queries, quality_mode=m, **kwargs) for m in ("juno-h", "juno-l"))
        monkeypatch.setattr(index.config, "miss_penalty_factor", 2.5)
        moved = index.search(queries, quality_mode="juno-h", **kwargs)
        assert not np.array_equal(moved.scores, high.scores)
        _assert_results_bit_identical(index.search(queries, quality_mode="juno-l", **kwargs), low)


def _full_width_juno(num_subspaces: int) -> JunoIndex:
    """A ``num_subspaces``-subspace index over 2-d subspaces, assembled without
    k-means (sampled centroids and codebooks) so it builds in well under a
    second."""
    rng = np.random.default_rng(num_subspaces)
    points = rng.standard_normal((120, 2 * num_subspaces))
    centroids = points[rng.choice(points.shape[0], size=4, replace=False)]
    labels = np.argmin(((points[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    residuals = (points - centroids[labels]).reshape(points.shape[0], num_subspaces, 2)
    codebooks = []
    codes = np.empty((points.shape[0], num_subspaces), dtype=np.int32)
    for s in range(num_subspaces):
        entries = residuals[rng.choice(points.shape[0], size=8, replace=False), s]
        codebooks.append(entries)
        codes[:, s] = np.argmin(
            ((residuals[:, s, None, :] - entries[None]) ** 2).sum(axis=2), axis=1
        )
    config = JunoConfig(
        num_clusters=4,
        num_subspaces=num_subspaces,
        num_entries=8,
        num_threshold_samples=16,
        threshold_top_k=10,
        density_grid=8,
    )
    return JunoIndex(config).assemble(points, centroids, labels, codebooks, codes)


class TestScoreCountWidth:
    """Match counts are summed in ``uint8`` up to 255 subspaces and wider past
    it: a candidate every one of 256 subspaces selects counts 256, not 0."""

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    @pytest.mark.parametrize("num_subspaces", [255, 256])
    def test_every_subspace_hit(self, num_subspaces, mode):
        index = _full_width_juno(num_subspaces)
        queries = np.random.default_rng(1).standard_normal((4, 2 * num_subspaces))
        kwargs = dict(k=5, nprobs=4, quality_mode=mode, threshold_scale=50.0)
        vectorised = index.search(queries, **kwargs)
        looped = index.search(queries, pipeline=looped_score_pipeline(), **kwargs)
        _assert_results_bit_identical(vectorised, looped)
        assert vectorised.work.adc_lookups > 0
        if mode != "juno-h":
            # the generous scale selects nearly every slot: each query's best
            # candidate matches in every subspace
            np.testing.assert_array_equal(vectorised.scores[:, 0], float(num_subspaces))


class TestSubspaceSumOrder:
    """The premise of the kernel's bit-identity: NumPy's ``sum(axis=0)`` of a
    C-contiguous ``(S, n >= 2)`` float32 table adds its rows one after the
    other, as ``subspace_sum`` does, also into an ``out=`` slice of a larger
    array, as the kernel sums each ray; a lone column (``n == 1``) is summed
    that way once it is gathered beside a copy of itself."""

    @pytest.mark.parametrize("num_subspaces", [2, 3, 7, 8, 9, 16, 48, 129])
    def test_sum_adds_rows_in_order(self, num_subspaces):
        rng = np.random.default_rng(num_subspaces)
        for n in (1, 2, 3, 17, 1000):
            magnitudes = 10.0 ** rng.uniform(-4, 4, size=(num_subspaces, n))
            table = (rng.standard_normal((num_subspaces, n)) * magnitudes).astype(np.float32)
            want = subspace_sum(table.T)
            into = np.full(n + 5, np.nan, dtype=np.float32)
            if n == 1:
                beside_a_copy = np.repeat(table, 2, axis=1)
                got = beside_a_copy.sum(axis=0)[:1]
                beside_a_copy.sum(axis=0, dtype=np.float32, out=into[3:5])
            else:
                got = table.sum(axis=0)
                table.sum(axis=0, dtype=np.float32, out=into[3 : 3 + n])
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes() == into[3 : 3 + n].tobytes()


class TestScoreMatchesLoop:
    """The per-ray score kernel reproduces the loop: every query's candidate
    ids, order and scores and the ``SearchWork`` deltas, on small batches
    and on the ledger's 32-query, 8-probe batch."""

    @staticmethod
    def _upstream(index, queries, mode, scale, nprobs):
        ctx = QueryContext(
            index=index,
            queries=queries,
            k=10,
            nprobs=nprobs,
            quality_mode=QualityMode(mode),
            threshold_scale=scale,
            metric=index.metric,
            work=SearchWork(num_queries=queries.shape[0]),
        )
        QueryPipeline(
            (CoarseFilterStage(), ThresholdStage(), RTSelectStage()), instrument=False
        ).run(ctx)
        return ctx

    @staticmethod
    def _scored(ctx, stage):
        run = replace(ctx, work=SearchWork(num_queries=ctx.num_queries), extra={})
        stage.run(run)
        return run

    @classmethod
    def _assert_matches_loop(cls, ctx):
        looped = cls._scored(ctx, LoopedScoreStage())
        batched = cls._scored(ctx, ScoreStage())
        assert len(batched.candidates) == len(looped.candidates) == ctx.num_queries
        for got, want in zip(batched.candidates, looped.candidates):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1].dtype == want[1].dtype
                assert got[1].tobytes() == want[1].tobytes()
        assert batched.candidate_total == looped.candidate_total
        assert batched.work.adc_lookups == looped.work.adc_lookups
        assert batched.work.adc_candidates == looped.work.adc_candidates
        return looped

    @staticmethod
    def _queries(dataset, count):
        rng = np.random.default_rng(count)
        rows = rng.integers(0, dataset.points.shape[0], size=count)
        return dataset.points[rows] + 0.1 * rng.standard_normal((count, dataset.dim))

    @pytest.mark.parametrize("count", [1, 2, 32])
    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_batch_sizes_match_loop(
        self,
        monkeypatch,
        juno_l2,
        l2_dataset,
        juno_ip,
        ip_dataset,
        metric,
        mode,
        miss_factor,
        count,
    ):
        index, dataset = (juno_l2, l2_dataset) if metric == "l2" else (juno_ip, ip_dataset)
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        ctx = self._upstream(index, self._queries(dataset, count), mode, 1.0, nprobs=6)
        looped = self._assert_matches_loop(ctx)
        assert looped.candidate_total > 0

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_sparse_selection_with_all_miss_rays(
        self, monkeypatch, juno_l2, l2_dataset, mode, miss_factor
    ):
        """``threshold_scale=0.1``: most entries unselected, some rays hit nothing."""
        monkeypatch.setattr(juno_l2.config, "miss_penalty_factor", miss_factor)
        nprobs = juno_l2.config.num_clusters
        ctx = self._upstream(juno_l2, self._queries(l2_dataset, 32), mode, 0.1, nprobs)
        hits_per_ray = np.count_nonzero(ctx.lut.hits, axis=(1, 2))
        assert (hits_per_ray == 0).any() and (hits_per_ray > 0).any()
        self._assert_matches_loop(ctx)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_empty_probed_cluster(self, monkeypatch, edge_case_juno, mode, miss_factor):
        index, dataset = edge_case_juno
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        with _largest_cluster_emptied(index) as (_, victim):
            ctx = self._upstream(
                index, dataset.queries, mode, 1.0, nprobs=index.config.num_clusters
            )
            assert (ctx.selected == victim).any()
            self._assert_matches_loop(ctx)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_lone_member_clusters(self, monkeypatch, wide_index, wide_corpus, mode, miss_factor):
        """A cluster of one member sums its 48 subspaces one after the other
        too, which NumPy's ``sum`` does not do for a lone column."""
        monkeypatch.setattr(wide_index.config, "miss_penalty_factor", miss_factor)
        original = wide_index.subspace_index, wide_index.ivf.posting_lists
        wide_index.ivf.posting_lists = [ids[:1] for ids in original[1]]
        wide_index.rebuild_layout()
        try:
            ctx = self._upstream(wide_index, wide_corpus[6:12] + 0.3, mode, 1.0, nprobs=1)
            looped = self._assert_matches_loop(ctx)
        finally:
            wide_index.subspace_index, wide_index.ivf.posting_lists = original
        assert looped.candidate_total > 0

    # threshold scales that select some and most cells (an inner-product
    # index selects nothing at 0.25 or 0.5)
    SCALES = {"l2": {"sparse": 0.25, "dense": 1.0}, "ip": {"sparse": 1.0, "dense": 2.0}}

    @pytest.mark.parametrize("regime", ["sparse", "dense"])
    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_ledger_shaped_batch(
        self, request, monkeypatch, wide_corpus, metric, mode, miss_factor, regime
    ):
        """48 subspaces of 128 entries, 32 queries x 8 probes: the ledger's
        scene and batch shape, sparse and dense, with one probed cluster
        emptied and one cut to a lone member."""
        index = request.getfixturevalue("wide_index" if metric == "l2" else "wide_ip_index")
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        scale = self.SCALES[metric][regime]
        rng = np.random.default_rng(32)
        queries = wide_corpus[rng.integers(0, wide_corpus.shape[0], size=32)]
        queries = queries + 0.1 * rng.standard_normal(queries.shape)
        original = index.subspace_index, index.ivf.posting_lists
        posting = list(original[1])
        posting[0], posting[1] = posting[0][:0], posting[1][:1]  # all 8 are probed
        index.ivf.posting_lists = posting
        index.rebuild_layout()
        try:
            ctx = self._upstream(index, queries, mode, scale, nprobs=8)
            assert ctx.lut.num_rays == 256 and ctx.lut.table.shape[1] == 48
            sizes = index.subspace_index.flat_layout().cluster_sizes[ctx.selected]
            assert (sizes == 0).any() and (sizes == 1).any()
            looped = self._assert_matches_loop(ctx)
        finally:
            index.subspace_index, index.ivf.posting_lists = original
        assert looped.candidate_total > 0

    @pytest.mark.parametrize("mode", ["juno-h", "juno-l"])
    @pytest.mark.parametrize("strategy", ["static-small", "static-large"])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_static_thresholds_match_loop(self, static_juno, metric, strategy, mode):
        """One threshold, and so one miss penalty, for every ray."""
        index, dataset = static_juno[metric, strategy]
        ctx = self._upstream(index, self._queries(dataset, 32), mode, 1.0, nprobs=6)
        looped = self._assert_matches_loop(ctx)
        assert looped.candidate_total > 0


class TestScoreRayRuns:
    """Each ray's sums land at its run's offset in the batch's arrays: a
    zero-length run between two others, a lone member among empty runs
    (whose copy's sum lands in the next run or the spare slot) and a query
    with no candidate between two others reproduce the loop too."""

    _upstream = staticmethod(TestScoreMatchesLoop._upstream)
    _assert_matches_loop = TestScoreMatchesLoop._assert_matches_loop

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_empty_run_between_two_others(self, monkeypatch, edge_case_juno, mode, miss_factor):
        index, dataset = edge_case_juno
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        nprobs = index.config.num_clusters
        with _largest_cluster_emptied(index) as (_, victim):
            ctx = self._upstream(index, dataset.queries, mode, 1.0, nprobs)
            probe = np.nonzero(ctx.selected == victim)[1]
            assert ((probe > 0) & (probe < nprobs - 1)).any()
            self._assert_matches_loop(ctx)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_one_candidate_among_empty_runs(self, monkeypatch, edge_case_juno, mode, miss_factor):
        """One cluster keeps one member, every other is empty: each query's
        candidates are a lone member between zero-length runs."""
        index, dataset = edge_case_juno
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        original = index.subspace_index, index.ivf.posting_lists
        kept = int(np.argmax([ids.size for ids in original[1]]))
        index.ivf.posting_lists = [ids[: int(c == kept)] for c, ids in enumerate(original[1])]
        index.rebuild_layout()
        try:
            nprobs = index.config.num_clusters
            ctx = self._upstream(index, dataset.queries[:4], mode, 1.0, nprobs)
            sizes = index.subspace_index.flat_layout().cluster_sizes[ctx.selected]
            assert sizes.sum(axis=1).tolist() == [1] * 4
            self._assert_matches_loop(ctx)
        finally:
            index.subspace_index, index.ivf.posting_lists = original

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    def test_query_without_candidates_between_others(
        self, monkeypatch, edge_case_juno, mode, miss_factor
    ):
        index, dataset = edge_case_juno
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        with _largest_cluster_emptied(index) as (_, victim):
            probed = self._upstream(index, dataset.queries, mode, 1.0, nprobs=1).selected[:, 0]
            empty, other = np.flatnonzero(probed == victim), np.flatnonzero(probed != victim)
            assert empty.size and other.size >= 2
            queries = dataset.queries[[other[0], empty[0], other[1]]]
            ctx = self._upstream(index, queries, mode, 1.0, nprobs=1)
            looped = self._assert_matches_loop(ctx)
        assert [pair is None for pair in looped.candidates] == [False, True, False]


# --------------------------------------------------------- stateless search
class TestStatelessSearch:
    """A search is a pure function of the query batch and the trained index.

    Nothing one search computes is kept for the next: a reused pipeline, a
    repeated batch and a retrained index all search exactly like a fresh
    pipeline on a fresh call, and a repeated batch pays every stage's work
    again.
    """

    STAGE_COUNTERS = (
        ("coarse_filter", "filter_flops"),
        ("threshold", "threshold_inferences"),
        ("rt_select", "rt_rays"),
        ("score", "adc_lookups"),
        ("top_k", "sorted_candidates"),
    )

    @staticmethod
    def _search(index, dataset, pipeline=None, scale=1.0, queries=None, mode="juno-h"):
        return index.search(
            dataset.queries if queries is None else queries,
            k=10,
            nprobs=6,
            quality_mode=mode,
            threshold_scale=scale,
            pipeline=pipeline,
        )

    def test_reused_pipeline_bit_identical_across_scales(self, juno_l2, l2_dataset):
        pipeline = default_search_pipeline()
        first = {}
        for scale in (1.0, 0.6, 1.0, 0.6):
            reused = self._search(juno_l2, l2_dataset, pipeline=pipeline, scale=scale)
            _assert_results_bit_identical(reused, self._search(juno_l2, l2_dataset, scale=scale))
            _assert_results_bit_identical(reused, first.setdefault(scale, reused))
        # the two scales really select differently, so no result is reused
        assert first[1.0].work.rt_hits != first[0.6].work.rt_hits

    def test_reused_pipeline_bit_identical_mips(self, juno_ip, ip_dataset):
        pipeline = default_search_pipeline()
        fresh = self._search(juno_ip, ip_dataset)
        for _ in range(2):
            _assert_results_bit_identical(
                self._search(juno_ip, ip_dataset, pipeline=pipeline), fresh
            )

    def test_quality_mode_sweep_on_one_pipeline(self, juno_l2, l2_dataset):
        pipeline = default_search_pipeline()
        for mode in ("juno-h", "juno-l", "juno-h"):
            _assert_results_bit_identical(
                self._search(juno_l2, l2_dataset, pipeline=pipeline, mode=mode),
                self._search(juno_l2, l2_dataset, mode=mode),
            )

    @pytest.mark.parametrize("stage, counter", STAGE_COUNTERS)
    def test_repeat_batch_pays_full_stage_work(self, juno_l2, l2_dataset, stage, counter):
        pipeline = default_search_pipeline()
        first = self._search(juno_l2, l2_dataset, pipeline=pipeline)
        second = self._search(juno_l2, l2_dataset, pipeline=pipeline)
        paid, repaid = first.extra["stage_work"][stage], second.extra["stage_work"][stage]
        assert getattr(paid, counter) > 0.0
        for field_name in WORK_COUNTER_FIELDS:
            assert getattr(repaid, field_name) == getattr(paid, field_name), field_name

    def test_cost_model_charges_every_stage_of_a_repeat(self, juno_l2, l2_dataset):
        model = CostModel("rtx4090")
        pipeline = default_search_pipeline()
        first = model.stage_latencies(
            self._search(juno_l2, l2_dataset, pipeline=pipeline).extra["stage_work"]
        )
        second = model.stage_latencies(
            self._search(juno_l2, l2_dataset, pipeline=pipeline).extra["stage_work"]
        )
        assert second == first
        assert tuple(second) == pipeline.stage_names
        # each stage is charged more than the bare launch of an empty slice
        empty = SearchWork(num_queries=l2_dataset.queries.shape[0])
        for name, seconds in second.items():
            assert seconds > model.stage_latency(name, empty), name

    def test_changed_batch_matches_fresh_search(self, juno_l2, l2_dataset):
        pipeline = default_search_pipeline()
        before = self._search(juno_l2, l2_dataset, pipeline=pipeline)
        moved = l2_dataset.queries + 0.25
        after = self._search(juno_l2, l2_dataset, pipeline=pipeline, queries=moved)
        _assert_results_bit_identical(after, self._search(juno_l2, l2_dataset, queries=moved))
        assert not np.array_equal(after.scores, before.scores)

    @pytest.mark.parametrize("mode, miss_factor", SCORE_RULES)
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_rows_do_not_depend_on_batch_companions(
        self, monkeypatch, juno_l2, l2_dataset, juno_ip, ip_dataset, metric, mode, miss_factor
    ):
        """A query's row is the same alone, reordered or in a sub-batch."""
        index, dataset = (juno_l2, l2_dataset) if metric == "l2" else (juno_ip, ip_dataset)
        monkeypatch.setattr(index.config, "miss_penalty_factor", miss_factor)
        full = self._search(index, dataset, mode=mode)
        order = np.arange(dataset.queries.shape[0])[::-1]
        reversed_batch = self._search(index, dataset, queries=dataset.queries[order], mode=mode)
        np.testing.assert_array_equal(reversed_batch.ids, full.ids[order])
        np.testing.assert_array_equal(reversed_batch.scores, full.scores[order])
        for row in (0, 5):
            alone = self._search(index, dataset, queries=dataset.queries[row : row + 1], mode=mode)
            np.testing.assert_array_equal(alone.ids[0], full.ids[row])
            np.testing.assert_array_equal(alone.scores[0], full.scores[row])

    def test_retrained_index_searches_like_a_fresh_one(self):
        first = make_clustered_dataset(
            name="retrain-a", num_points=240, num_queries=6, dim=8, num_components=6, seed=21
        )
        second = make_clustered_dataset(
            name="retrain-b", num_points=240, num_queries=6, dim=8, num_components=6, seed=22
        )
        config = JunoConfig(
            num_clusters=5,
            num_subspaces=4,
            num_entries=8,
            num_threshold_samples=16,
            threshold_top_k=20,
            kmeans_iters=4,
            density_grid=10,
            seed=9,
        )
        index = JunoIndex(config).train(first.points)
        pipeline = default_search_pipeline()
        kwargs = dict(k=5, nprobs=4, quality_mode="juno-h", threshold_scale=1.0)
        stale = index.search(second.queries, pipeline=pipeline, **kwargs)
        index.train(second.points)
        retrained = index.search(second.queries, pipeline=pipeline, **kwargs)
        fresh = JunoIndex(config).train(second.points).search(second.queries, **kwargs)
        _assert_results_bit_identical(retrained, fresh)
        assert not np.array_equal(retrained.scores, stale.scores)

    @pytest.mark.parametrize("field", ["selected", "thresholds", "t_max", "lut"])
    def test_stage_outputs_are_private_to_each_run(self, juno_l2, l2_dataset, field):
        """Scribbling over one run's stage outputs cannot reach the next run."""

        def arrays(ctx):
            value = getattr(ctx, field)
            if field != "lut":
                return [value]
            return [value.table, value.hits]

        upstream = TestScoreMatchesLoop._upstream
        queries = l2_dataset.queries[:8]
        first = upstream(juno_l2, queries, "juno-h", 1.0, nprobs=6)
        pristine = [array.copy() for array in arrays(first)]
        for array in arrays(first):
            array[...] = 0
        second = upstream(juno_l2, queries, "juno-h", 1.0, nprobs=6)
        for got, want, scribbled in zip(arrays(second), pristine, arrays(first)):
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, scribbled)

    def test_pickled_pipeline_searches_identically(self, juno_l2, l2_dataset):
        pipeline = default_search_pipeline()
        self._search(juno_l2, l2_dataset, pipeline=pipeline)
        clone = pickle.loads(pickle.dumps(pipeline))
        _assert_results_bit_identical(
            self._search(juno_l2, l2_dataset, pipeline=clone),
            self._search(juno_l2, l2_dataset, pipeline=pipeline),
        )


# -------------------------------------------------------------- composition
class TestQueryPipelineComposition:
    def test_default_stage_graph(self):
        assert default_search_pipeline().stage_names == (
            "coarse_filter",
            "threshold",
            "rt_select",
            "score",
            "top_k",
        )

    def test_insertion_helpers(self):
        class Marker:
            name = "marker"

            def run(self, ctx):
                pass

        base = default_search_pipeline()
        after = base.with_stage_after("score", Marker())
        assert after.stage_names.index("marker") == after.stage_names.index("top_k") - 1
        before = base.with_stage_before("score", Marker())
        assert before.stage_names.index("marker") == before.stage_names.index("score") - 1
        appended = base.appended(Marker())
        assert appended.stage_names[-1] == "marker"
        removed = appended.without_stage("marker")
        assert removed.stage_names == base.stage_names
        # the originals are untouched (pipelines are immutable)
        assert base.stage_names == removed.stage_names

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="no stage named"):
            default_search_pipeline().with_stage_after("warp", TopKStage())

    def test_empty_and_malformed_pipelines_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            QueryPipeline(())
        with pytest.raises(TypeError, match="QueryStage"):
            QueryPipeline((object(),))

    def test_default_pipeline_is_picklable(self, l2_dataset):
        pipeline = rerank_pipeline(l2_dataset.points[:8])
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone.stage_names == pipeline.stage_names


# ---------------------------------------------------------------- execution
class TestPipelineExecution:
    def test_stage_breakdowns_cover_all_stages_and_sum_to_totals(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries, k=10, nprobs=6)
        seconds = result.extra["stage_seconds"]
        stage_work = result.extra["stage_work"]
        assert tuple(seconds) == default_search_pipeline().stage_names
        assert tuple(stage_work) == default_search_pipeline().stage_names
        assert all(value >= 0.0 for value in seconds.values())
        for field_name in ("filter_flops", "rt_rays", "adc_lookups", "sorted_candidates"):
            total = sum(getattr(work, field_name) for work in stage_work.values())
            assert total == getattr(result.work, field_name), field_name
        assert stage_work["coarse_filter"].filter_flops == result.work.filter_flops
        assert stage_work["rt_select"].rt_rays == result.work.rt_rays
        assert stage_work["top_k"].sorted_candidates == result.work.sorted_candidates

    def test_custom_stage_runs_between_stages(self, juno_l2, l2_dataset):
        class CandidateCap:
            name = "candidate_cap"

            def __init__(self, cap):
                self.cap = cap

            def run(self, ctx):
                ctx.candidates = [
                    None if pair is None else (pair[0][: self.cap], pair[1][: self.cap])
                    for pair in ctx.candidates
                ]

        pipeline = default_search_pipeline().with_stage_after("score", CandidateCap(3))
        result = juno_l2.search(l2_dataset.queries[:4], k=10, nprobs=6, pipeline=pipeline)
        assert "candidate_cap" in result.extra["stage_seconds"]
        assert (result.ids[:, 3:] == -1).all()

    def test_missing_producer_stage_raises_clear_error(self, juno_l2, l2_dataset):
        pipeline = QueryPipeline((RTSelectStage(),))
        with pytest.raises(RuntimeError, match="rt_select.*origins"):
            juno_l2.search(l2_dataset.queries[:2], k=5, pipeline=pipeline)

    def test_pipeline_without_topk_raises(self, juno_l2, l2_dataset):
        pipeline = QueryPipeline(
            (CoarseFilterStage(), ThresholdStage(), RTSelectStage(), ScoreStage())
        )
        with pytest.raises(RuntimeError, match="TopKStage"):
            juno_l2.search(l2_dataset.queries[:2], k=5, pipeline=pipeline)

    def test_repeated_stage_names_accumulate(self, juno_l2, l2_dataset):
        class Tick:
            name = "tick"

            def __init__(self):
                self.calls = 0

            def run(self, ctx):
                self.calls += 1

        tick = Tick()
        pipeline = default_search_pipeline().with_stage_after("score", tick).appended(tick)
        result = juno_l2.search(l2_dataset.queries[:2], k=5, nprobs=4, pipeline=pipeline)
        assert tick.calls == 2
        assert result.extra["stage_seconds"]["tick"] >= 0.0
        assert result.extra["stage_work"]["tick"].num_queries == 2


# -------------------------------------------------------------- exact rerank
class TestExactRerankStage:
    def _context(self, queries, ids, scores, k, metric=Metric.L2):
        return QueryContext(
            queries=np.atleast_2d(np.asarray(queries, dtype=np.float64)),
            k=k,
            nprobs=1,
            quality_mode=QualityMode.HIGH,
            threshold_scale=1.0,
            metric=metric,
            work=SearchWork(num_queries=np.atleast_2d(queries).shape[0]),
            ids=np.asarray(ids, dtype=np.int64),
            scores=np.asarray(scores, dtype=np.float64),
        )

    def test_reorders_by_exact_distance_and_truncates(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
        # candidate list deliberately ordered worst-first with bogus scores
        ctx = self._context([[0.0, 0.0]], [[2, 1, 0]], [[0.1, 0.2, 0.3]], k=2)
        QueryPipeline((ExactRerankStage(points),)).run(ctx)
        np.testing.assert_array_equal(ctx.ids, [[0, 1]])
        np.testing.assert_allclose(ctx.scores, [[0.0, 1.0]])
        assert ctx.work.rerank_flops == 2.0 * 3 * 2

    def test_inner_product_direction(self):
        points = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
        ctx = self._context(
            [[1.0, 0.0]], [[0, 1, 2]], [[0.0, 0.0, 0.0]], k=3, metric=Metric.INNER_PRODUCT
        )
        QueryPipeline((ExactRerankStage(points, metric=Metric.INNER_PRODUCT),)).run(ctx)
        np.testing.assert_array_equal(ctx.ids, [[1, 0, 2]])
        np.testing.assert_allclose(ctx.scores, [[2.0, 1.0, 0.5]])

    def test_padded_rows_pass_through_and_never_score(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        ctx = self._context(
            [[0.0, 0.0], [5.0, 5.0]], [[1, -1], [-1, -1]], [[2.0, np.inf], [np.inf, np.inf]], k=2
        )
        QueryPipeline((ExactRerankStage(points),)).run(ctx)
        np.testing.assert_array_equal(ctx.ids, [[1, -1], [-1, -1]])
        assert ctx.scores[0, 1] == np.inf
        assert np.all(np.isinf(ctx.scores[1]))

    def test_widens_output_to_k(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        ctx = self._context([[0.0, 0.0]], [[1]], [[9.0]], k=3)
        QueryPipeline((ExactRerankStage(points),)).run(ctx)
        assert ctx.ids.shape == (1, 3)
        np.testing.assert_array_equal(ctx.ids, [[1, -1, -1]])


# ------------------------------------------------------ exact score kernel
class TestExactCandidateScores:
    def test_matches_dense_pairwise(self, rng):
        points = rng.standard_normal((20, 4))
        queries = rng.standard_normal((3, 4))
        ids = np.array([[0, 5, 19], [7, -1, 3], [-1, -1, -1]])
        scores = exact_candidate_scores(points, queries, ids, Metric.L2)
        for row in range(3):
            for col in range(3):
                if ids[row, col] < 0:
                    assert scores[row, col] == np.inf
                else:
                    expected = np.sum((points[ids[row, col]] - queries[row]) ** 2)
                    assert scores[row, col] == pytest.approx(expected)

    def test_out_of_range_candidate_rejected(self, rng):
        points = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="out of range"):
            exact_candidate_scores(points, np.zeros((1, 2)), np.array([[7]]))

    def test_dimension_mismatch_rejected(self, rng):
        points = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            exact_candidate_scores(points, np.zeros((1, 3)), np.array([[0]]))
