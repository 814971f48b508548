"""Cross-system integration tests.

These tests pin down the relationships between JUNO and the baseline that
the paper's correctness argument relies on:

* the values JUNO decodes from hit times are the values the baseline's
  dense LUT would contain for the selected entries, to float32 precision;
* with a threshold large enough to select everything, JUNO-H ranks candidate
  points exactly like the baseline's ADC does;
* JUNO's distance-calculation work is a subset of the baseline's.
"""

import numpy as np
import pytest
from rt_reference import layer_spheres, ray_slice, sphere_test_margins

from repro.core.config import JunoConfig
from repro.core.index import JunoIndex
from repro.core.selective_lut import SelectiveLUTConstructor
from repro.metrics.distances import Metric
from repro.metrics.recall import recall_at

# End-to-end consistency sweeps are the slowest part of the unit suite; CI
# pull-request runs deselect them with ``-m "not slow"`` (full suite on main).
pytestmark = pytest.mark.slow


class TestSelectiveValuesMatchDenseLUT:
    def test_l2_values_match_pq_lookup_table(self, juno_l2, l2_dataset):
        """Hit-time-decoded squared distances == the dense LUT entries."""
        query = l2_dataset.queries[0]
        nprobs = 2
        selected = juno_l2.ivf.select_clusters(query[None, :], nprobs)
        origins, _ = juno_l2._ray_origins(query[None, :], selected)
        # Use a generous threshold so plenty of entries are selected.
        thresholds = np.full((nprobs, juno_l2.config.num_subspaces), juno_l2.sphere_radius * 0.9)
        from repro.core.threshold import ThresholdModel

        t_max = ThresholdModel.threshold_to_tmax(
            thresholds, juno_l2.sphere_radius, juno_l2.sphere_radius
        )
        constructor = SelectiveLUTConstructor(
            tracer=juno_l2.tracer,
            base_radius=juno_l2.sphere_radius,
            origin_offsets=juno_l2.origin_offsets,
            metric=Metric.L2,
        )
        lut = constructor.construct(origins, t_max, miss=thresholds**2)
        for ci in range(nprobs):
            residual = query - juno_l2.ivf.centroids[selected[0, ci]]
            dense = juno_l2.pq.lookup_table(residual, Metric.L2)
            for s in range(juno_l2.config.num_subspaces):
                entry_ids, values = ray_slice(lut, juno_l2.scene, s, ci)
                # float32 values: within the precision oracle's slack
                centres_xy, radii = layer_spheres(juno_l2.scene, s)
                _, slack = sphere_test_margins(
                    *origins[ci, s],
                    *centres_xy[entry_ids].T,
                    radii[entry_ids] ** 2,
                    juno_l2.origin_offsets[s],
                    t_max[ci, s],
                )
                assert (np.abs(values - dense[s, entry_ids]) <= slack).all()

    def test_full_threshold_juno_matches_baseline_ranking(self, l2_dataset):
        """With every entry selected, JUNO-H reduces to the baseline's ADC."""
        config = JunoConfig(
            num_clusters=10,
            num_subspaces=l2_dataset.dim // 2,
            num_entries=16,
            num_threshold_samples=24,
            threshold_top_k=30,
            kmeans_iters=8,
            density_grid=10,
            seed=5,
            # A huge margin makes the constant radius (and hence the maximum
            # representable threshold) cover the entire subspace.
            sphere_radius_margin=5.0,
            threshold_strategy="static-large",
        )
        juno = JunoIndex(config).train(l2_dataset.points)
        from repro.baselines.ivfpq import IVFPQIndex

        baseline = IVFPQIndex(
            num_clusters=10, num_subspaces=l2_dataset.dim // 2, num_entries=16, seed=5
        ).train(l2_dataset.points)
        juno_result = juno.search(l2_dataset.queries, k=50, nprobs=4, threshold_scale=3.0)
        base_result = baseline.search(l2_dataset.queries, k=50, nprobs=4)
        r_juno = recall_at(juno_result.ids, l2_dataset.ground_truth, 50)
        r_base = recall_at(base_result.ids, l2_dataset.ground_truth, 50)
        assert r_juno >= r_base - 0.05


class TestWorkRelations:
    def test_juno_adc_work_never_exceeds_baseline(self, juno_l2, ivfpq_l2, l2_dataset):
        juno = juno_l2.search(l2_dataset.queries, k=50, nprobs=4, threshold_scale=0.8)
        base = ivfpq_l2.search(l2_dataset.queries, k=50, nprobs=4)
        assert juno.work.adc_lookups <= base.work.adc_lookups + 1e-9
        assert juno.work.adc_candidates <= base.work.adc_candidates + 1e-9

    def test_juno_skips_dense_lut_construction(self, juno_l2, l2_dataset):
        result = juno_l2.search(l2_dataset.queries, k=10, nprobs=2)
        assert result.work.lut_pairwise == 0
        assert result.work.rt_rays > 0

    def test_rt_hits_bound_adc_matches(self, juno_l2, l2_dataset):
        """Every matched (point, subspace) pair requires a selected entry, so
        the number of hits bounds the average selectivity."""
        result = juno_l2.search(l2_dataset.queries, k=10, nprobs=4, threshold_scale=0.6)
        total_slots = (
            result.work.rt_rays * juno_l2.config.num_entries
        )
        assert result.work.rt_hits <= total_slots
        assert 0.0 < result.selected_entry_fraction <= 1.0
        np.testing.assert_allclose(
            result.selected_entry_fraction, result.work.rt_hits / total_slots, rtol=1e-6
        )


class TestQualityOrdering:
    def test_recall_ordering_across_modes(self, juno_l2, l2_dataset):
        """JUNO-H should be at least as accurate as JUNO-L (allowing
        small-sample noise)."""
        recalls = {}
        for mode in ("juno-h", "juno-l"):
            result = juno_l2.search(
                l2_dataset.queries, k=100, nprobs=8, quality_mode=mode, threshold_scale=0.8
            )
            recalls[mode] = recall_at(result.ids, l2_dataset.ground_truth, 100)
        assert recalls["juno-h"] >= recalls["juno-l"] - 0.1

    def test_throughput_ordering_across_modes(self, juno_l2, l2_dataset):
        """Lower-quality modes never do more distance-calculation work."""
        from repro.gpu.cost_model import CostModel

        cost = CostModel("rtx4090")
        latencies = {}
        for mode, scale in (("juno-h", 1.0), ("juno-l", 0.5)):
            result = juno_l2.search(
                l2_dataset.queries, k=100, nprobs=8, quality_mode=mode, threshold_scale=scale
            )
            latencies[mode] = cost.pipelined_latency(result.work).total_s
        assert latencies["juno-l"] <= latencies["juno-h"] + 1e-9
