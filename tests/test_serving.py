"""Tests for the serving layer: persistence, sharding, scheduling, engine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.exact import ExactSearch
from repro.baselines.hnsw import HNSWIndex
from repro.bench.harness import SweepConfig, run_engine_sweep, run_juno_sweep
from repro.core.config import QualityMode
from repro.core.index import JunoIndex, JunoSearchResult
from repro.gpu.cost_model import CostModel
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric
from repro.metrics.recall import recall_k_at_n
from repro.serving import (
    BatchingScheduler,
    PersistenceError,
    ServingEngine,
    ShardedJunoIndex,
    load_index,
    merge_shard_results,
    save_index,
    search_results_equal,
)
from repro.serving.persistence import ARRAYS_DIR_NAME, MANIFEST_NAME


# --------------------------------------------------------------- persistence
class TestPersistenceRoundTrip:
    def test_l2_search_results_identical_after_reload(self, juno_l2, l2_dataset, tmp_path):
        bundle = save_index(juno_l2, tmp_path / "bundle")
        reloaded = load_index(bundle)
        for mode in ("juno-h", "juno-m", "juno-l"):
            expected = juno_l2.search(l2_dataset.queries, k=10, nprobs=6, quality_mode=mode)
            observed = reloaded.search(l2_dataset.queries, k=10, nprobs=6, quality_mode=mode)
            assert search_results_equal(expected, observed)

    def test_ip_search_results_identical_after_reload(self, juno_ip, ip_dataset, tmp_path):
        reloaded = load_index(save_index(juno_ip, tmp_path / "bundle"))
        expected = juno_ip.search(ip_dataset.queries, k=10, nprobs=6)
        observed = reloaded.search(ip_dataset.queries, k=10, nprobs=6)
        assert search_results_equal(expected, observed)

    def test_save_with_validation_queries_passes(self, juno_l2, l2_dataset, tmp_path):
        save_index(juno_l2, tmp_path / "bundle", validate_queries=l2_dataset.queries[:4])

    def test_reloaded_state_matches(self, juno_l2, tmp_path):
        reloaded = load_index(save_index(juno_l2, tmp_path / "bundle"))
        assert reloaded.is_trained
        assert reloaded.num_points == juno_l2.num_points
        assert reloaded.sphere_radius == juno_l2.sphere_radius
        np.testing.assert_array_equal(reloaded.codes, juno_l2.codes)
        np.testing.assert_array_equal(reloaded.ivf.labels, juno_l2.ivf.labels)
        np.testing.assert_array_equal(reloaded.origin_offsets, juno_l2.origin_offsets)
        for name, array in vars(juno_l2.scene).items():
            assert getattr(reloaded.scene, name).tobytes() == array.tobytes(), name

    def test_untrained_index_is_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="untrained"):
            save_index(JunoIndex.from_dim(8), tmp_path / "bundle")

    def test_missing_bundle_is_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="no index bundle"):
            load_index(tmp_path / "nothing-here")

    def test_wrong_format_version_is_rejected(self, juno_l2, tmp_path):
        bundle = save_index(juno_l2, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["format_version"] = 999
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="format version"):
            load_index(bundle)

    def test_failed_validation_removes_the_bundle(
        self, juno_l2, l2_dataset, tmp_path, monkeypatch
    ):
        from repro.serving import persistence

        monkeypatch.setattr(persistence, "search_results_equal", lambda a, b: False)
        with pytest.raises(PersistenceError, match="round-trip"):
            persistence.save_index(
                juno_l2, tmp_path / "bundle", validate_queries=l2_dataset.queries[:2]
            )
        with pytest.raises(PersistenceError, match="no index bundle"):
            load_index(tmp_path / "bundle")

    def test_radius_that_training_did_not_fix_is_rejected(self, juno_l2, tmp_path):
        """An L2 radius is ``max(threshold_max x margin, 1e-6)``, exactly: one
        cut below the thresholds would clip them without a word."""
        bundle = save_index(juno_l2, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["sphere_radius"] = manifest["sphere_radius"] * 0.1
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="sphere radius"):
            load_index(bundle)

    def test_mips_radius_below_the_lowest_threshold_is_rejected(self, juno_ip, tmp_path):
        bundle = save_index(juno_ip, tmp_path / "bundle")
        load_index(bundle)
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["threshold_min"] = -(manifest["sphere_radius"] ** 2)
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="sphere radius"):
            load_index(bundle)

    @pytest.mark.parametrize(
        "cut, subspaces",
        [
            (lambda entries: entries[:-1], [1]),  # one row short of the others
            (lambda entries: np.concatenate([entries, entries], axis=1), None),  # 4-D entries
            (lambda entries: np.concatenate([entries] * 2), None),  # more rows than num_entries
        ],
        ids=["row_short", "too_wide", "too_many_rows"],
    )
    def test_codebooks_the_scene_cannot_stack_are_rejected(self, juno_l2, tmp_path, cut, subspaces):
        """The scene is one stack of equal layers of 2-D entries, at most
        ``num_entries`` a layer: any other codebook set is an inconsistent
        bundle, not a bare error from deep in the build."""
        bundle = save_index(juno_l2, tmp_path / "bundle", layout="npy")
        for s in range(juno_l2.config.num_subspaces) if subspaces is None else subspaces:
            path = bundle / ARRAYS_DIR_NAME / f"codebook_{s}.npy"
            np.save(path, cut(np.load(path)))
        with pytest.raises(PersistenceError, match="codebooks have shapes"):
            load_index(bundle)


# ------------------------------------------------------------------ sharding
@pytest.fixture(scope="module")
def shard_corpus():
    from repro.datasets.synthetic import make_clustered_dataset

    dataset = make_clustered_dataset(
        name="shard-l2",
        num_points=2000,
        num_queries=24,
        dim=16,
        num_components=24,
        query_jitter=0.2,
        seed=29,
    )
    dataset.ensure_ground_truth(k=10)
    return dataset


def _shard_settings(dataset):
    return dict(
        num_clusters=16,
        num_entries=16,
        metric=dataset.metric,
        num_threshold_samples=32,
        threshold_top_k=50,
        kmeans_iters=8,
        density_grid=20,
        seed=3,
    )


@pytest.fixture(scope="module")
def single_juno(shard_corpus):
    index = JunoIndex.from_dim(shard_corpus.dim, **_shard_settings(shard_corpus))
    return index.train(shard_corpus.points)


@pytest.fixture(scope="module")
def sharded_juno(shard_corpus):
    sharded = ShardedJunoIndex.from_dim(
        shard_corpus.dim, num_shards=4, **_shard_settings(shard_corpus)
    )
    return sharded.train(shard_corpus.points)


@pytest.fixture(scope="module")
def lossless_pair(l2_dataset):
    """Single and 4-shard JUNO at the lossless operating point.

    ``num_entries`` exceeds the corpus size, so every point gets its own
    codebook entry and (with the huge radius margin, the static-large
    strategy and a generous scale) JUNO-H reduces to exact search -- the
    operating point where sharded and single recall must coincide.
    """
    settings = dict(
        num_clusters=12,
        num_entries=1600,
        num_threshold_samples=24,
        threshold_top_k=30,
        kmeans_iters=4,
        density_grid=20,
        seed=3,
        sphere_radius_margin=5.0,
        threshold_strategy="static-large",
    )
    single = JunoIndex.from_dim(l2_dataset.dim, **settings).train(l2_dataset.points)
    sharded = ShardedJunoIndex.from_dim(l2_dataset.dim, num_shards=4, **settings)
    sharded.train(l2_dataset.points)
    return single, sharded


class TestShardedJunoIndex:
    def test_partition_covers_corpus_exactly(self, sharded_juno, shard_corpus):
        all_ids = np.sort(np.concatenate(sharded_juno.shard_global_ids))
        np.testing.assert_array_equal(all_ids, np.arange(shard_corpus.num_points))
        assert max(sharded_juno.shard_sizes()) - min(sharded_juno.shard_sizes()) <= 1

    def test_recall_matches_single_index(self, lossless_pair, l2_dataset):
        """4-shard recall@10 equals the single index's (well within 1 point).

        The comparison runs at the lossless operating point (one codebook
        entry per point, every entry selected), where a correct sharded
        deployment must reproduce the single index's recall exactly; any id
        remapping or merge defect shows up as a recall gap here.  At
        selective operating points the two systems differ by sampling noise
        only (per-shard codebooks are trained on quarter-size partitions),
        which `test_selective_recall_not_degraded` bounds separately.
        """
        single, sharded = lossless_pair
        gt = l2_dataset.ground_truth
        nprobs = single.config.num_clusters
        one = single.search(l2_dataset.queries, k=10, nprobs=nprobs, threshold_scale=5.0)
        many = sharded.search(l2_dataset.queries, k=10, nprobs=nprobs, threshold_scale=5.0)
        recall_single = recall_k_at_n(one.ids, gt, 10, 10)
        recall_sharded = recall_k_at_n(many.ids, gt, 10, 10)
        assert recall_single == pytest.approx(1.0)
        assert abs(recall_sharded - recall_single) <= 0.01

    def test_selective_recall_not_degraded(self, sharded_juno, single_juno, shard_corpus):
        gt = shard_corpus.ground_truth
        single = single_juno.search(shard_corpus.queries, k=10, nprobs=8)
        sharded = sharded_juno.search(shard_corpus.queries, k=10, nprobs=8)
        recall_single = recall_k_at_n(single.ids, gt, 10, 10)
        recall_sharded = recall_k_at_n(sharded.ids, gt, 10, 10)
        # Quarter-size partitions give each shard finer coarse clusters, so
        # sharding should never lose recall beyond small-sample noise.
        assert recall_sharded >= recall_single - 0.05
        assert recall_sharded > 0.5

    def test_global_ids_and_aggregated_work(self, sharded_juno, shard_corpus):
        result = sharded_juno.search(shard_corpus.queries, k=10, nprobs=4)
        valid = result.ids[result.ids >= 0]
        assert valid.size > 0
        assert valid.max() < shard_corpus.num_points
        # ids are global and unique per row
        for row in result.ids:
            row = row[row >= 0]
            assert len(set(row.tolist())) == row.size
        # work aggregates across shards but keeps the batch size
        assert result.work.num_queries == shard_corpus.num_queries
        assert result.work.rt_rays > 0
        assert 0.0 <= result.selected_entry_fraction <= 1.0

    def test_fanout_executor_is_reused_across_batches(self, sharded_juno, shard_corpus):
        sharded_juno.search(shard_corpus.queries[:2], k=5, nprobs=4)
        executor = sharded_juno._executor
        assert executor is not None and executor.kind == "thread"
        sharded_juno.search(shard_corpus.queries[:2], k=5, nprobs=4)
        assert sharded_juno._executor is executor
        sharded_juno.close()
        assert sharded_juno._executor is None
        result = sharded_juno.search(shard_corpus.queries[:2], k=5, nprobs=4)
        assert result.ids.shape == (2, 5)

    def test_close_is_idempotent_and_context_manager_closes(self, shard_corpus):
        sharded = ShardedJunoIndex.from_dim(
            shard_corpus.dim, num_shards=2, **_shard_settings(shard_corpus)
        )
        sharded.train(shard_corpus.points)
        with sharded:
            sharded.search(shard_corpus.queries[:2], k=5, nprobs=4)
            assert sharded._executor is not None
        assert sharded._executor is None
        sharded.close()
        sharded.close()
        assert sharded._executor is None

    def test_pickled_shard_searches_identically(self, sharded_juno, shard_corpus):
        """A trained shard and its staged pipeline survive a pickle round trip."""
        import pickle

        from repro.pipeline import default_search_pipeline

        shard = sharded_juno.shards[0]
        clone, pipeline = pickle.loads(pickle.dumps((shard, default_search_pipeline())))
        assert search_results_equal(
            shard.search(shard_corpus.queries[:8], k=5, nprobs=4),
            clone.search(shard_corpus.queries[:8], k=5, nprobs=4, pipeline=pipeline),
        )

    def test_caller_supplied_executor_survives_close(self, sharded_juno, shard_corpus):
        from repro.serving import ThreadShardExecutor

        shared = ThreadShardExecutor(2)
        try:
            with ShardedJunoIndex.from_dim(
                shard_corpus.dim,
                num_shards=sharded_juno.num_shards,
                executor=shared,
                **_shard_settings(shard_corpus),
            ) as borrowed:
                borrowed.shards = sharded_juno.shards
                borrowed.shard_global_ids = sharded_juno.shard_global_ids
                borrowed.dim = sharded_juno.dim
                borrowed.num_points = sharded_juno.num_points
                borrowed.search(shard_corpus.queries[:2], k=5, nprobs=4)
            # the router's close() (context-manager exit) must not shut down
            # an executor the caller owns and may share with other routers
            assert shared._pool is not None
            expected = sharded_juno.shards[0].search(shard_corpus.queries[:2], 5, nprobs=4)
            (observed,) = shared.search_shards(
                sharded_juno.shards[:1], shard_corpus.queries[:2], 5, {"nprobs": 4}
            )
            assert search_results_equal(expected, observed)
        finally:
            shared.close()

    def test_unknown_executor_rejected(self, shard_corpus):
        with pytest.raises(ValueError, match="executor"):
            ShardedJunoIndex.from_dim(
                shard_corpus.dim,
                num_shards=2,
                executor="fibers",
                **_shard_settings(shard_corpus),
            )

    def test_sequential_and_threaded_fanout_agree(self, sharded_juno, shard_corpus):
        threaded = sharded_juno.search(shard_corpus.queries, k=5, nprobs=4)
        sharded_juno.num_workers = 1
        try:
            sequential = sharded_juno.search(shard_corpus.queries, k=5, nprobs=4)
        finally:
            sharded_juno.num_workers = sharded_juno.num_shards
        assert search_results_equal(threaded, sequential)

    def test_save_load_roundtrip(self, sharded_juno, shard_corpus, tmp_path):
        bundle = sharded_juno.save(tmp_path / "deployment")
        reloaded = ShardedJunoIndex.load(bundle)
        assert reloaded.num_shards == sharded_juno.num_shards
        expected = sharded_juno.search(shard_corpus.queries, k=10, nprobs=6)
        observed = reloaded.search(shard_corpus.queries, k=10, nprobs=6)
        assert search_results_equal(expected, observed)

    def test_too_many_shards_rejected(self):
        sharded = ShardedJunoIndex.from_dim(8, num_shards=64, num_clusters=2)
        with pytest.raises(ValueError, match="cannot split"):
            sharded.train(np.zeros((10, 8)))

    def test_repeat_fanout_searches_and_costs_like_the_first(self, sharded_juno, shard_corpus):
        """Every shard reruns its whole pipeline on a repeated batch: results,
        merged work and the per-stage breakdown repeat exactly."""
        first = {}
        for scale in (1.0, 0.6, 1.0, 0.6):
            result = sharded_juno.search(
                shard_corpus.queries, k=5, nprobs=4, threshold_scale=scale
            )
            previous = first.setdefault(scale, result)
            assert search_results_equal(previous, result)
            assert result.work == previous.work
            for name, work in result.extra["stage_work"].items():
                assert work == previous.extra["stage_work"][name], name
            assert result.extra["stage_work"]["coarse_filter"].filter_flops > 0.0
        assert first[1.0].work.rt_hits != first[0.6].work.rt_hits

    def test_runs_in_harness_sweep(self, sharded_juno, shard_corpus):
        sweep = SweepConfig(
            nprobs_values=(4,),
            threshold_scales=(1.0,),
            quality_modes=(QualityMode.HIGH,),
            k=10,
            recall_k=10,
            recall_n=10,
        )
        result = run_juno_sweep(
            sharded_juno,
            shard_corpus.queries,
            shard_corpus.ground_truth,
            sweep,
            CostModel("rtx4090"),
            label="JUNO-sharded",
        )
        assert len(result.records) == 1
        assert 0.0 <= result.records[0].recall <= 1.0
        assert result.records[0].qps > 0


def _fake_result(ids, scores, mode=QualityMode.HIGH, rays=1.0, fraction=0.5):
    work = SearchWork(num_queries=np.asarray(ids).shape[0], rt_rays=rays)
    return JunoSearchResult(
        ids=np.asarray(ids, dtype=np.int64),
        scores=np.asarray(scores, dtype=np.float64),
        work=work,
        quality_mode=mode,
        threshold_scale=1.0,
        selected_entry_fraction=fraction,
    )


class TestMergeShardResults:
    def test_l2_merge_with_padding(self):
        # Shard 0 found two neighbours, shard 1 only one (padded with -1).
        r0 = _fake_result([[0, 1]], [[1.0, 3.0]])
        r1 = _fake_result([[1, -1]], [[2.0, np.inf]])
        merged = merge_shard_results(
            [r0, r1], [np.array([10, 11]), np.array([20, 21])], 3, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[10, 21, 11]])
        np.testing.assert_array_equal(merged.scores, [[1.0, 2.0, 3.0]])

    def test_all_padded_rows_stay_padded(self):
        r0 = _fake_result([[-1, -1]], [[np.inf, np.inf]])
        r1 = _fake_result([[-1, -1]], [[np.inf, np.inf]])
        merged = merge_shard_results(
            [r0, r1], [np.array([0, 1]), np.array([2, 3])], 2, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[-1, -1]])
        assert np.all(np.isinf(merged.scores))

    def test_hit_count_scores_rank_descending(self):
        r0 = _fake_result([[0]], [[5.0]], mode=QualityMode.LOW)
        r1 = _fake_result([[0]], [[7.0]], mode=QualityMode.LOW)
        merged = merge_shard_results(
            [r0, r1], [np.array([4]), np.array([9])], 2, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[9, 4]])

    def test_work_counters_aggregate_but_batch_size_does_not(self):
        r0 = _fake_result([[0]], [[1.0]], rays=3.0)
        r1 = _fake_result([[0]], [[2.0]], rays=5.0)
        merged = merge_shard_results(
            [r0, r1], [np.array([0]), np.array([1])], 1, Metric.L2
        )
        assert merged.work.num_queries == 1
        assert merged.work.rt_rays == 8.0

    def test_selected_fraction_is_ray_weighted(self):
        r0 = _fake_result([[0]], [[1.0]], rays=1.0, fraction=0.2)
        r1 = _fake_result([[0]], [[2.0]], rays=3.0, fraction=0.6)
        merged = merge_shard_results(
            [r0, r1], [np.array([0]), np.array([1])], 1, Metric.L2
        )
        assert merged.selected_entry_fraction == pytest.approx(0.5)

    def test_mode_mismatch_rejected(self):
        r0 = _fake_result([[0]], [[1.0]], mode=QualityMode.HIGH)
        r1 = _fake_result([[0]], [[2.0]], mode=QualityMode.LOW)
        with pytest.raises(ValueError, match="quality modes"):
            merge_shard_results([r0, r1], [np.array([0]), np.array([1])], 1, Metric.L2)

    def test_fully_padded_shard_never_displaces_tied_valid_candidate(self):
        """Regression: a valid candidate scoring exactly the sentinel value
        must still outrank every ``-1``-padded slot of a fully padded shard
        row (a plain stable argsort on scores used to surface the sentinel
        ids first)."""
        r0 = _fake_result([[-1, -1]], [[np.inf, np.inf]])
        r1 = _fake_result([[0, -1]], [[np.inf, np.inf]])
        merged = merge_shard_results(
            [r0, r1], [np.array([10, 11]), np.array([20, 21])], 2, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[20, -1]])
        assert np.all(np.isinf(merged.scores))

    def test_all_padded_rows_stay_padded_hit_count_direction(self):
        r0 = _fake_result([[-1, -1]], [[-np.inf, -np.inf]], mode=QualityMode.LOW)
        r1 = _fake_result([[-1, -1]], [[-np.inf, -np.inf]], mode=QualityMode.LOW)
        merged = merge_shard_results(
            [r0, r1], [np.array([0, 1]), np.array([2, 3])], 2, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[-1, -1]])
        np.testing.assert_array_equal(merged.scores, [[-np.inf, -np.inf]])

    def test_merge_k_wider_than_columns_keeps_output_aligned(self):
        r0 = _fake_result([[3, -1]], [[1.0, np.inf]])
        merged = merge_shard_results([r0], [np.arange(5)], 4, Metric.L2)
        assert merged.ids.shape == (1, 4)
        assert merged.scores.shape == (1, 4)
        np.testing.assert_array_equal(merged.ids, [[3, -1, -1, -1]])
        np.testing.assert_array_equal(merged.scores, [[1.0, np.inf, np.inf, np.inf]])

    def test_reranked_shard_results_merge_in_metric_direction(self):
        """Regression: per-shard reranked scores are exact metric-direction
        values (squared L2 ascending here), so the merge must not sort them
        by the hit-count mode's higher-is-better convention."""
        r0 = _fake_result([[0]], [[1.0]], mode=QualityMode.LOW)
        r1 = _fake_result([[0]], [[4.0]], mode=QualityMode.LOW)
        for result in (r0, r1):
            result.extra["reranked"] = True
        merged = merge_shard_results(
            [r0, r1], [np.array([7]), np.array([9])], 2, Metric.L2
        )
        np.testing.assert_array_equal(merged.ids, [[7, 9]])
        np.testing.assert_array_equal(merged.scores, [[1.0, 4.0]])
        assert merged.extra["reranked"] is True

    def test_mixed_reranked_and_plain_results_rejected(self):
        r0 = _fake_result([[0]], [[1.0]])
        r1 = _fake_result([[0]], [[2.0]])
        r1.extra["reranked"] = True
        with pytest.raises(ValueError, match="reranked"):
            merge_shard_results([r0, r1], [np.array([0]), np.array([1])], 1, Metric.L2)

    def test_stage_breakdowns_aggregate_across_shards(self):
        r0 = _fake_result([[0]], [[1.0]])
        r1 = _fake_result([[0]], [[2.0]])
        for result, flops in ((r0, 4.0), (r1, 6.0)):
            stage_work = SearchWork(num_queries=1, filter_flops=flops)
            result.extra["stage_seconds"] = {"coarse_filter": 0.5}
            result.extra["stage_work"] = {"coarse_filter": stage_work}
        merged = merge_shard_results(
            [r0, r1], [np.array([0]), np.array([1])], 1, Metric.L2
        )
        assert merged.extra["stage_seconds"] == {"coarse_filter": 1.0}
        merged_stage = merged.extra["stage_work"]["coarse_filter"]
        assert merged_stage.filter_flops == 10.0
        assert merged_stage.num_queries == 1
        # aggregation must not mutate the per-shard records
        assert r0.extra["stage_work"]["coarse_filter"].filter_flops == 4.0


# --------------------------------------------------------------- exact rerank
@pytest.fixture()
def reranking_sharded(sharded_juno, shard_corpus):
    """The module's sharded index with exact rerank temporarily enabled."""
    sharded_juno.enable_exact_rerank(shard_corpus.points)
    yield sharded_juno
    sharded_juno.disable_exact_rerank()


class TestExactRerank:
    @pytest.mark.parametrize("scale", [1.5, 2.0])
    def test_rerank_recall_at_least_plain_sharded(
        self, reranking_sharded, shard_corpus, scale
    ):
        """Property: at threshold_scale >= 1.5 the reranked top-k is chosen
        by exact distance from a superset of the plain merge's candidates,
        so recall@10 can never drop."""
        gt = shard_corpus.ground_truth
        with_rerank = reranking_sharded.search(
            shard_corpus.queries, k=10, nprobs=8, threshold_scale=scale
        )
        reranking_sharded.disable_exact_rerank()
        try:
            plain = reranking_sharded.search(
                shard_corpus.queries, k=10, nprobs=8, threshold_scale=scale
            )
        finally:
            reranking_sharded.enable_exact_rerank(shard_corpus.points)
        recall_rerank = recall_k_at_n(with_rerank.ids, gt, 10, 10)
        recall_plain = recall_k_at_n(plain.ids, gt, 10, 10)
        assert recall_rerank >= recall_plain

    def test_rerank_reaches_unsharded_recall_at_aggressive_scale(
        self, reranking_sharded, single_juno, shard_corpus
    ):
        """Acceptance: sharded + ExactRerankStage recall@10 >= the unsharded
        index at threshold_scale=2.0."""
        gt = shard_corpus.ground_truth
        sharded = reranking_sharded.search(
            shard_corpus.queries, k=10, nprobs=8, threshold_scale=2.0
        )
        single = single_juno.search(
            shard_corpus.queries, k=10, nprobs=8, threshold_scale=2.0
        )
        recall_sharded = recall_k_at_n(sharded.ids, gt, 10, 10)
        recall_single = recall_k_at_n(single.ids, gt, 10, 10)
        assert recall_sharded >= recall_single

    def test_rerank_scores_are_exact_squared_distances(
        self, reranking_sharded, shard_corpus
    ):
        result = reranking_sharded.search(shard_corpus.queries[:4], k=5, nprobs=6)
        assert result.extra["reranked"] is True
        for row, (ids, scores) in enumerate(zip(result.ids, result.scores)):
            valid = ids >= 0
            expected = np.sum(
                (shard_corpus.points[ids[valid]] - shard_corpus.queries[row]) ** 2,
                axis=1,
            )
            np.testing.assert_allclose(scores[valid], expected)
            assert (np.diff(scores[valid]) >= -1e-12).all()

    def test_rerank_work_and_stage_breakdown(self, reranking_sharded, shard_corpus):
        result = reranking_sharded.search(shard_corpus.queries[:4], k=5, nprobs=6)
        assert result.work.rerank_flops > 0
        assert "exact_rerank" in result.extra["stage_seconds"]
        assert result.extra["stage_work"]["exact_rerank"].rerank_flops > 0

    def test_rerank_corpus_size_mismatch_rejected(self, sharded_juno, shard_corpus):
        with pytest.raises(ValueError, match="rerank corpus"):
            sharded_juno.enable_exact_rerank(shard_corpus.points[:-1])

    def test_save_load_roundtrip_preserves_rerank(
        self, reranking_sharded, shard_corpus, tmp_path
    ):
        bundle = reranking_sharded.save(tmp_path / "rerank-deployment")
        reloaded = ShardedJunoIndex.load(bundle)
        assert reloaded.exact_rerank
        expected = reranking_sharded.search(shard_corpus.queries, k=10, nprobs=6)
        observed = reloaded.search(shard_corpus.queries, k=10, nprobs=6)
        assert search_results_equal(expected, observed)


# ----------------------------------------------------------------- scheduler
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _EchoIndex:
    """Minimal engine: returns each query's first component as its id."""

    def __init__(self):
        self.batches = []

    def search(self, queries, k, **_):
        self.batches.append(np.asarray(queries))
        ids = np.tile(np.arange(k), (queries.shape[0], 1))
        ids[:, 0] = queries[:, 0].astype(np.int64)
        return ids, np.zeros_like(ids, dtype=np.float64)


class TestBatchingScheduler:
    def test_flushes_when_batch_is_full(self):
        clock = FakeClock()
        scheduler = BatchingScheduler(_EchoIndex(), k=3, max_batch_size=2, clock=clock)
        first = scheduler.submit([7.0, 0.0])
        assert not first.done and scheduler.num_pending == 1
        second = scheduler.submit([9.0, 0.0])
        assert first.done and second.done and scheduler.num_pending == 0
        assert first.result()[0][0] == 7 and second.result()[0][0] == 9

    def test_flushes_when_oldest_query_waited_too_long(self):
        clock = FakeClock()
        scheduler = BatchingScheduler(
            _EchoIndex(), k=2, max_batch_size=100, max_wait_s=0.5, clock=clock
        )
        first = scheduler.submit([1.0, 0.0])
        assert not first.done
        clock.advance(0.6)
        second = scheduler.submit([2.0, 0.0])
        assert first.done and second.done

    def test_pending_ticket_raises_until_flush(self):
        scheduler = BatchingScheduler(_EchoIndex(), k=2, max_batch_size=8, clock=FakeClock())
        ticket = scheduler.submit([1.0, 0.0])
        with pytest.raises(RuntimeError, match="pending"):
            ticket.result()
        assert scheduler.flush() == 1
        ids, scores = ticket.result()
        assert ids.shape == (2,) and scores.shape == (2,)

    def test_stats_and_throughput_record(self):
        clock = FakeClock()
        index = _EchoIndex()
        real_search = index.search

        def timed_search(queries, k, **kw):
            clock.advance(0.25)
            return real_search(queries, k, **kw)

        index.search = timed_search
        scheduler = BatchingScheduler(index, k=2, max_batch_size=2, clock=clock)
        for value in range(4):
            scheduler.submit([float(value), 0.0])
        stats = scheduler.stats()
        assert stats.num_batches == 2
        assert stats.num_queries == 4
        assert stats.mean_batch_size == 2.0
        assert stats.qps == pytest.approx(4 / 0.5)

    def test_empty_stats_are_zero(self):
        scheduler = BatchingScheduler(_EchoIndex(), k=2, clock=FakeClock())
        stats = scheduler.stats()
        assert stats.num_batches == 0 and stats.qps == 0.0

    def test_ticket_results_are_read_only_views(self):
        """Regression: a client mutating its result row must not corrupt the
        rows other tickets of the same batch share (the rows are views into
        one batched result); like cache restores, they come back frozen."""
        scheduler = BatchingScheduler(_EchoIndex(), k=3, max_batch_size=2, clock=FakeClock())
        first = scheduler.submit([7.0, 0.0])
        second = scheduler.submit([9.0, 0.0])
        ids, scores = first.result()
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 42
        with pytest.raises(ValueError, match="read-only"):
            scores[:] = -1.0
        other_ids, other_scores = second.result()
        assert other_ids[0] == 9
        assert (other_scores == 0.0).all()
        # callers needing mutability copy explicitly
        mutable = ids.copy()
        mutable[0] = 42
        assert ids[0] == 7

    def test_search_params_forwarded_through_engine(self, juno_l2, l2_dataset):
        engine = ServingEngine(juno_l2)
        scheduler = engine.make_scheduler(k=5, max_batch_size=4, nprobs=6)
        tickets = [scheduler.submit(query) for query in l2_dataset.queries[:4]]
        direct = engine.search(l2_dataset.queries[:4], k=5, nprobs=6)
        for row, ticket in enumerate(tickets):
            ids, scores = ticket.result()
            np.testing.assert_array_equal(ids, direct.ids[row])
            np.testing.assert_array_equal(scores, direct.scores[row])


# -------------------------------------------------------------------- engine
class TestServingEngine:
    def test_juno_backend(self, juno_l2, l2_dataset):
        engine = ServingEngine(juno_l2)
        result = engine.search(l2_dataset.queries, k=10, nprobs=6, quality_mode="juno-m")
        assert engine.backend == "juno"
        assert result.ids.shape == (l2_dataset.num_queries, 10)
        assert result.extra["quality_mode"] == "juno-m"

    def test_ivfpq_backend(self, ivfpq_l2, l2_dataset):
        engine = ServingEngine(ivfpq_l2)
        result = engine.search(l2_dataset.queries, k=10, nprobs=6)
        recall = recall_k_at_n(result.ids, l2_dataset.ground_truth, 1, 10)
        assert engine.backend == "ivfpq"
        assert recall > 0.5

    def test_exact_backend_is_perfect(self, l2_dataset):
        engine = ServingEngine(ExactSearch().add(l2_dataset.points))
        result = engine.search(l2_dataset.queries, k=10)
        assert recall_k_at_n(result.ids, l2_dataset.ground_truth, 10, 10) == 1.0
        assert result.work.filter_flops > 0

    def test_hnsw_backend(self, l2_dataset):
        index = HNSWIndex(seed=5)
        index.add(l2_dataset.points[:400])
        engine = ServingEngine(index)
        result = engine.search(l2_dataset.queries[:4], k=5, ef=32)
        assert result.ids.shape == (4, 5)
        assert result.work.filter_flops > 0

    def test_result_backend_reflects_sharding(self, sharded_juno, shard_corpus):
        engine = ServingEngine(sharded_juno)
        result = engine.search(shard_corpus.queries[:2], k=5, nprobs=4)
        assert result.backend == "sharded-juno"

    def test_unsupported_param_raises(self, ivfpq_l2):
        engine = ServingEngine(ivfpq_l2)
        with pytest.raises(ValueError, match="does not accept"):
            engine.search(np.zeros((1, 16)), k=5, quality_mode="juno-h")
        with pytest.raises(ValueError, match="does not accept"):
            engine.make_scheduler(k=5, quality_mode="juno-h")

    def test_unsupported_index_type_raises(self):
        with pytest.raises(TypeError, match="no serving adapter"):
            ServingEngine(object())

    def test_modelled_qps_requires_cost_model(self, juno_l2, l2_dataset):
        bare = ServingEngine(juno_l2)
        result = bare.search(l2_dataset.queries[:2], k=5, nprobs=4)
        with pytest.raises(RuntimeError, match="cost model"):
            bare.modelled_qps(result)
        modelled = ServingEngine(juno_l2, cost_model=CostModel("rtx4090"))
        assert modelled.modelled_qps(result) > 0

    def test_engine_sweep_adapts_grid_to_backend(self, ivfpq_l2, l2_dataset):
        sweep = SweepConfig(nprobs_values=(2, 4), k=10, recall_k=1, recall_n=10)
        cost_model = CostModel("rtx4090")
        engine = ServingEngine(ivfpq_l2)
        records = run_engine_sweep(
            engine, l2_dataset.queries, l2_dataset.ground_truth, sweep, cost_model
        ).records
        assert len(records) == 2
        assert {record.extra["nprobs"] for record in records} == {2, 4}
        exact = ServingEngine(ExactSearch().add(l2_dataset.points))
        exact_records = run_engine_sweep(
            exact, l2_dataset.queries, l2_dataset.ground_truth, sweep, cost_model
        ).records
        assert len(exact_records) == 1
        assert exact_records[0].recall == 1.0

    def test_engine_sweep_covers_hnsw_ef(self, l2_dataset):
        sweep = SweepConfig(ef_values=(8, 16), k=5, recall_k=1, recall_n=5)
        index = HNSWIndex(seed=5)
        index.add(l2_dataset.points[:400])
        records = run_engine_sweep(
            ServingEngine(index),
            l2_dataset.queries[:8],
            l2_dataset.ground_truth[:8],
            sweep,
            CostModel("rtx4090"),
        ).records
        assert {record.extra["ef"] for record in records} == {8, 16}

    def test_custom_pipeline_through_engine(self, juno_l2, l2_dataset):
        from repro.pipeline import default_search_pipeline

        engine = ServingEngine(juno_l2)
        assert engine.accepts("pipeline")
        direct = engine.search(l2_dataset.queries[:4], k=5, nprobs=6)
        piped = engine.search(
            l2_dataset.queries[:4], k=5, nprobs=6, pipeline=default_search_pipeline()
        )
        np.testing.assert_array_equal(direct.ids, piped.ids)
        np.testing.assert_array_equal(direct.scores, piped.scores)

    def test_pipeline_param_rejected_by_baselines(self, ivfpq_l2):
        from repro.pipeline import default_search_pipeline

        engine = ServingEngine(ivfpq_l2)
        with pytest.raises(ValueError, match="does not accept"):
            engine.search(np.zeros((1, 16)), k=5, pipeline=default_search_pipeline())

    def test_stage_breakdowns_exposed(self, juno_l2, l2_dataset):
        engine = ServingEngine(juno_l2, cost_model=CostModel("rtx4090"))
        result = engine.search(l2_dataset.queries[:4], k=5, nprobs=6)
        seconds = engine.stage_seconds(result)
        modelled = engine.modelled_stage_latencies(result)
        expected_stages = {"coarse_filter", "threshold", "rt_select", "score", "top_k"}
        assert set(seconds) == expected_stages
        assert set(modelled) == expected_stages
        assert all(value >= 0.0 for value in seconds.values())
        assert all(value > 0.0 for value in modelled.values())

    def test_modelled_stage_latencies_require_cost_model(self, juno_l2, l2_dataset):
        engine = ServingEngine(juno_l2)
        result = engine.search(l2_dataset.queries[:2], k=5, nprobs=4)
        with pytest.raises(RuntimeError, match="cost model"):
            engine.modelled_stage_latencies(result)

    def test_engine_context_manager_closes_sharded_backend(
        self, sharded_juno, shard_corpus
    ):
        with ServingEngine(sharded_juno) as engine:
            engine.search(shard_corpus.queries[:2], k=5, nprobs=4)
            assert sharded_juno._executor is not None
        assert sharded_juno._executor is None
        engine.close()  # idempotent, and fine on every backend

    def test_engine_close_is_noop_for_poolless_backends(self, l2_dataset):
        engine = ServingEngine(ExactSearch().add(l2_dataset.points))
        engine.close()
        engine.close()

    def test_engine_sweep_records_stage_breakdowns(self, juno_l2, l2_dataset):
        sweep = SweepConfig(
            nprobs_values=(4,),
            threshold_scales=(1.0,),
            quality_modes=(QualityMode.HIGH,),
            k=10,
            recall_k=1,
            recall_n=10,
        )
        records = run_engine_sweep(
            ServingEngine(juno_l2),
            l2_dataset.queries,
            l2_dataset.ground_truth,
            sweep,
            CostModel("rtx4090"),
        ).records
        assert len(records) == 1
        assert "stage_seconds" in records[0].extra
        assert "stage_modelled_s" in records[0].extra
        assert "coarse_filter" in records[0].extra["stage_modelled_s"]
