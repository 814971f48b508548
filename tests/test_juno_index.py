"""Integration tests for the end-to-end JUNO index (train + search)."""

import numpy as np
import pytest
from rt_reference import layer_spheres

from repro.core.config import JunoConfig, QualityMode, ThresholdStrategy
from repro.core.index import JunoIndex
from repro.metrics.distances import Metric
from repro.metrics.recall import recall_at


class TestTraining:
    def test_trained_state(self, juno_l2, l2_dataset):
        assert juno_l2.is_trained
        assert juno_l2.dim == l2_dataset.dim
        assert juno_l2.codes.shape == (l2_dataset.num_points, juno_l2.config.num_subspaces)
        assert juno_l2.scene.z.shape == (juno_l2.config.num_subspaces,)
        assert juno_l2.sphere_radius > 0
        assert juno_l2.threshold_model.is_fitted

    def test_dim_mismatch_raises(self, rng):
        index = JunoIndex(JunoConfig(num_subspaces=4, num_clusters=4))
        with pytest.raises(ValueError, match="dim"):
            index.train(rng.standard_normal((100, 10)))

    def test_from_dim_factory(self):
        index = JunoIndex.from_dim(20, num_clusters=8)
        assert index.config.num_subspaces == 10
        with pytest.raises(ValueError):
            JunoIndex.from_dim(9)

    def test_for_dataset_factory(self, l2_dataset):
        index = JunoIndex.for_dataset(l2_dataset, num_clusters=6)
        assert index.config.num_subspaces == l2_dataset.dim // 2
        assert index.config.metric is l2_dataset.metric

    def test_search_before_train_raises(self, rng):
        index = JunoIndex(JunoConfig(num_subspaces=4, num_clusters=4))
        with pytest.raises(RuntimeError):
            index.search(rng.standard_normal((1, 8)), k=5)

    def test_scene_spheres_match_codebooks(self, juno_l2):
        for s in range(juno_l2.config.num_subspaces):
            centres_xy, radii = layer_spheres(juno_l2.scene, s)
            assert centres_xy.tobytes() == juno_l2.pq.codebooks[s].entries.tobytes()
            assert (radii == juno_l2.sphere_radius).all()


class TestSearchL2:
    def test_high_quality_recall_close_to_baseline(self, juno_l2, l2_dataset, ivfpq_l2):
        juno = juno_l2.search(l2_dataset.queries, k=100, nprobs=8, quality_mode="juno-h")
        base = ivfpq_l2.search(l2_dataset.queries, k=100, nprobs=8)
        r_juno = recall_at(juno.ids, l2_dataset.ground_truth, 100)
        r_base = recall_at(base.ids, l2_dataset.ground_truth, 100)
        assert r_juno >= r_base - 0.1
        assert r_juno >= 0.7

    def test_all_modes_return_valid_results(self, juno_l2, l2_dataset):
        for mode in QualityMode:
            result = juno_l2.search(l2_dataset.queries, k=20, nprobs=4, quality_mode=mode)
            assert result.ids.shape == (l2_dataset.num_queries, 20)
            valid = result.ids[result.ids >= 0]
            assert valid.size > 0
            assert valid.max() < l2_dataset.num_points
            assert result.quality_mode is QualityMode(mode)

    def test_sparsity_is_exploited(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries, k=20, nprobs=4, threshold_scale=0.6)
        assert 0.0 < result.selected_entry_fraction < 1.0

    def test_smaller_scale_selects_fewer_entries(self, juno_l2, l2_dataset):
        full = juno_l2.search(l2_dataset.queries, k=20, nprobs=4, threshold_scale=1.0)
        tight = juno_l2.search(l2_dataset.queries, k=20, nprobs=4, threshold_scale=0.4)
        assert tight.selected_entry_fraction < full.selected_entry_fraction
        assert tight.work.rt_hits < full.work.rt_hits
        assert tight.work.adc_lookups < full.work.adc_lookups

    def test_work_counters_populated(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries, k=10, nprobs=4)
        work = result.work
        nprobs = 4
        expected_rays = l2_dataset.num_queries * nprobs * juno_l2.config.num_subspaces
        assert work.rt_rays == expected_rays
        assert work.threshold_inferences == expected_rays
        assert work.filter_flops > 0
        assert work.rt_node_visits > 0
        assert work.adc_lookups > 0
        assert work.lut_pairwise == 0  # JUNO never builds the dense LUT

    def test_scores_sorted_for_exact_mode(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries[:4], k=15, nprobs=8, quality_mode="juno-h")
        for ids, scores in zip(result.ids, result.scores):
            finite = scores[ids >= 0]
            assert (np.diff(finite) >= -1e-9).all()

    def test_hit_count_scores_descending(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries[:4], k=15, nprobs=8, quality_mode="juno-l")
        for ids, scores in zip(result.ids, result.scores):
            finite = scores[ids >= 0]
            assert (np.diff(finite) <= 1e-9).all()

    def test_more_probes_never_reduce_candidates(self, juno_l2, l2_dataset):
        few = juno_l2.search(l2_dataset.queries, k=20, nprobs=1)
        many = juno_l2.search(l2_dataset.queries, k=20, nprobs=8)
        assert many.extra["num_candidates"] >= few.extra["num_candidates"]

    def test_invalid_arguments(self, juno_l2, l2_dataset):
        with pytest.raises(ValueError):
            juno_l2.search(l2_dataset.queries, k=0)
        with pytest.raises(ValueError):
            juno_l2.search(l2_dataset.queries, k=5, threshold_scale=0.0)
        with pytest.raises(ValueError):
            juno_l2.search(np.zeros((2, juno_l2.dim + 2)), k=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises(self, juno_l2, l2_dataset, bad):
        """A non-finite query has no neighbours to rank: rejected, not a row of -1."""
        queries = l2_dataset.queries[:3].copy()
        queries[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            juno_l2.search(queries, k=5)

    def test_nan_threshold_scale_raises(self, juno_l2, l2_dataset):
        with pytest.raises(ValueError, match="threshold_scale"):
            juno_l2.search(l2_dataset.queries[:2], k=5, threshold_scale=float("nan"))

    @pytest.mark.parametrize("mode", ["juno-h", "juno-m", "juno-l"])
    def test_empty_batch_returns_empty_rows(self, juno_l2, mode):
        """Every stage handles zero queries: no special case guards this."""
        result = juno_l2.search(np.zeros((0, juno_l2.dim)), k=7, quality_mode=mode)
        assert result.ids.shape == result.scores.shape == (0, 7)
        assert result.ids.dtype == np.int64 and result.scores.dtype == np.float64
        assert result.work.num_queries == 0


class TestSearchInnerProduct:
    def test_recall_reasonable(self, juno_ip, ip_dataset):
        result = juno_ip.search(ip_dataset.queries, k=100, nprobs=8, quality_mode="juno-h")
        assert recall_at(result.ids, ip_dataset.ground_truth, 100) >= 0.5

    def test_juno_close_to_ivfpq_baseline(self, juno_ip, ip_dataset, ivfpq_ip):
        juno = juno_ip.search(ip_dataset.queries, k=100, nprobs=8)
        base = ivfpq_ip.search(ip_dataset.queries, k=100, nprobs=8)
        r_juno = recall_at(juno.ids, ip_dataset.ground_truth, 100)
        r_base = recall_at(base.ids, ip_dataset.ground_truth, 100)
        assert r_juno >= r_base - 0.15

    def test_metric_recorded(self, juno_ip):
        assert juno_ip.metric is Metric.INNER_PRODUCT
        assert juno_ip.config.metric is Metric.INNER_PRODUCT

    def test_scale_reduces_selection_for_mips(self, juno_ip, ip_dataset):
        full = juno_ip.search(ip_dataset.queries, k=20, nprobs=4, threshold_scale=1.0)
        tight = juno_ip.search(ip_dataset.queries, k=20, nprobs=4, threshold_scale=0.5)
        assert tight.selected_entry_fraction <= full.selected_entry_fraction + 1e-9


class TestThresholdStrategies:
    @pytest.fixture(scope="class")
    def static_indexes(self, l2_dataset):
        indexes = {}
        for strategy in (ThresholdStrategy.STATIC_SMALL, ThresholdStrategy.STATIC_LARGE):
            config = JunoConfig(
                num_clusters=12,
                num_subspaces=l2_dataset.dim // 2,
                num_entries=16,
                num_threshold_samples=32,
                threshold_top_k=50,
                kmeans_iters=8,
                density_grid=20,
                seed=3,
                threshold_strategy=strategy,
            )
            indexes[strategy] = JunoIndex(config).train(l2_dataset.points)
        return indexes

    def test_static_small_selects_fewer_than_static_large(self, static_indexes, l2_dataset):
        small = static_indexes[ThresholdStrategy.STATIC_SMALL].search(
            l2_dataset.queries, k=20, nprobs=4
        )
        large = static_indexes[ThresholdStrategy.STATIC_LARGE].search(
            l2_dataset.queries, k=20, nprobs=4
        )
        assert small.selected_entry_fraction < large.selected_entry_fraction

    def test_static_large_recall_at_least_static_small(self, static_indexes, l2_dataset):
        small = static_indexes[ThresholdStrategy.STATIC_SMALL].search(
            l2_dataset.queries, k=100, nprobs=8
        )
        large = static_indexes[ThresholdStrategy.STATIC_LARGE].search(
            l2_dataset.queries, k=100, nprobs=8
        )
        r_small = recall_at(small.ids, l2_dataset.ground_truth, 100)
        r_large = recall_at(large.ids, l2_dataset.ground_truth, 100)
        assert r_large >= r_small - 0.05
