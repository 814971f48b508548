"""Unit tests for the GPU device catalog, work accounting, cost model and pipeline."""

from dataclasses import fields

import numpy as np
import pytest

from repro.gpu.cost_model import CostModel
from repro.gpu.device import get_device, list_devices
from repro.gpu.pipeline import PipelineModel
from repro.gpu.work import SearchWork


class TestDeviceCatalog:
    def test_known_devices(self):
        assert set(list_devices()) == {"rtx4090", "a40", "a100"}

    def test_lookup_variants(self):
        assert get_device("RTX4090").name == "RTX 4090"
        assert get_device("Tesla A40").name == "Tesla A40"
        assert get_device("a100").rt_cores == 0

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device("h100")

    def test_rt_core_presence(self):
        assert get_device("rtx4090").has_rt_cores
        assert not get_device("a100").has_rt_cores

    def test_ada_faster_than_ampere_rt(self):
        assert (
            get_device("rtx4090").effective_rt_throughput()
            > get_device("a40").effective_rt_throughput()
        )

    def test_emulated_rt_much_slower(self):
        assert (
            get_device("a100").effective_rt_throughput()
            < get_device("a40").effective_rt_throughput() / 5
        )


class TestSearchWork:
    def test_merge_accumulates(self):
        a = SearchWork(num_queries=2, filter_flops=10.0, rt_hits=5.0)
        b = SearchWork(num_queries=3, filter_flops=20.0, rt_hits=1.0)
        a.merge(b)
        assert a.num_queries == 5
        assert a.filter_flops == 30.0
        assert a.rt_hits == 6.0

    def test_per_query_normalisation(self):
        work = SearchWork(num_queries=4, adc_lookups=40.0, filter_flops=8.0)
        per = work.per_query()
        assert per.num_queries == 1
        assert per.adc_lookups == 10.0
        assert per.filter_flops == 2.0

    def test_per_query_invalid(self):
        with pytest.raises(ValueError):
            SearchWork(num_queries=0).per_query()

    def test_every_numeric_field_is_copied_diffed_and_merged(self):
        """``copy`` / ``delta`` / ``merge`` / ``per_query`` walk a tuple of
        names made once at import; a counter added to the dataclass must not
        be able to fall outside it."""
        numeric = [f.name for f in fields(SearchWork)]
        counters = [n for n in numeric if n not in ("num_queries", "lut_pairwise_dims")]
        before = SearchWork(**{name: 2 * (i + 1) for i, name in enumerate(numeric)})
        after = SearchWork(**{name: 5 * (i + 1) for i, name in enumerate(numeric)})
        clone = after.copy()
        assert clone == after and clone is not after
        delta = after.delta(before)
        assert [getattr(delta, name) for name in counters] == [
            getattr(after, name) - getattr(before, name) for name in counters
        ]
        assert (delta.num_queries, delta.lut_pairwise_dims) == (
            after.num_queries,
            after.lut_pairwise_dims,
        )
        per = after.per_query()
        assert [getattr(per, name) for name in counters] == [
            getattr(after, name) / after.num_queries for name in counters
        ]
        clone.merge(before)
        assert [getattr(clone, name) for name in ["num_queries"] + counters] == [
            getattr(after, name) + getattr(before, name) for name in ["num_queries"] + counters
        ]
        assert clone.lut_pairwise_dims == max(after.lut_pairwise_dims, before.lut_pairwise_dims)

    def test_lut_flops_formula(self):
        work = SearchWork(num_queries=1, lut_pairwise=100.0, lut_pairwise_dims=2.0)
        assert work.lut_flops() == pytest.approx(600.0)


def _baseline_like_work(nprobs=8, num_queries=100):
    """Work counters shaped like the FAISS baseline at a given nprobs."""
    subspaces, entries, cluster_size, dim, clusters = 48, 256, 250, 96, 1024
    return SearchWork(
        num_queries=num_queries,
        filter_flops=2.0 * num_queries * dim * clusters,
        lut_pairwise=float(num_queries * nprobs * subspaces * entries),
        lut_pairwise_dims=2.0,
        adc_lookups=float(num_queries * nprobs * cluster_size * subspaces),
        adc_candidates=float(num_queries * nprobs * cluster_size),
        sorted_candidates=float(num_queries * nprobs * cluster_size),
    )


def _juno_like_work(nprobs=8, num_queries=100, selected_fraction=0.3):
    """Work counters shaped like JUNO at a given nprobs and sparsity."""
    subspaces, entries, cluster_size, dim, clusters = 48, 256, 250, 96, 1024
    rays = num_queries * nprobs * subspaces
    return SearchWork(
        num_queries=num_queries,
        filter_flops=2.0 * num_queries * dim * clusters,
        rt_rays=float(rays),
        rt_node_visits=float(rays * 2 * np.log2(entries)),
        rt_aabb_tests=float(rays * 2 * np.log2(entries)),
        rt_prim_tests=float(rays * entries * min(1.0, selected_fraction * 2)),
        rt_hits=float(rays * entries * selected_fraction),
        threshold_inferences=float(rays),
        adc_lookups=float(
            num_queries * nprobs * cluster_size * subspaces * selected_fraction
        ),
        adc_candidates=float(num_queries * nprobs * cluster_size * 0.8),
        sorted_candidates=float(num_queries * nprobs * cluster_size * 0.8),
    )


class TestCostModel:
    def test_latencies_positive_and_total_consistent(self):
        model = CostModel("rtx4090")
        lat = model.serial_latency(_baseline_like_work())
        assert lat.filter_s > 0 and lat.lut_s > 0 and lat.distance_s > 0
        assert lat.total_s == pytest.approx(lat.filter_s + lat.lut_s + lat.distance_s)

    def test_lut_and_distance_dominate_baseline(self):
        """Fig. 3(a): filtering is a small fraction of total time."""
        model = CostModel("rtx4090")
        lat = model.serial_latency(_baseline_like_work(nprobs=64))
        assert lat.filter_s < 0.2 * lat.total_s

    def test_baseline_scales_with_nprobs(self):
        """Fig. 3(a): LUT and distance-calc time grow ~linearly with nprobs."""
        model = CostModel("rtx4090")
        low = model.serial_latency(_baseline_like_work(nprobs=8))
        high = model.serial_latency(_baseline_like_work(nprobs=64))
        assert high.lut_s > 4 * low.lut_s
        assert high.distance_s > 4 * low.distance_s

    def test_juno_faster_than_baseline_on_rt_gpu(self):
        model = CostModel("rtx4090")
        base = model.serial_latency(_baseline_like_work()).total_s
        juno = model.pipelined_latency(_juno_like_work(selected_fraction=0.3)).total_s
        assert juno < base
        speedup = base / juno
        assert 1.5 < speedup < 12.0

    def test_sparser_selection_is_faster(self):
        model = CostModel("rtx4090")
        dense = model.pipelined_latency(_juno_like_work(selected_fraction=0.6)).total_s
        sparse = model.pipelined_latency(_juno_like_work(selected_fraction=0.1)).total_s
        assert sparse < dense

    def test_emulated_rt_hurts_juno_more_than_baseline(self):
        """Fig. 14(a): without RT cores the LUT stage becomes the bottleneck."""
        a100 = CostModel("a100")
        juno_work = _juno_like_work(selected_fraction=0.4)
        base_work = _baseline_like_work()
        juno_ratio = a100.lut_latency(juno_work) / CostModel("rtx4090").lut_latency(juno_work)
        base_ratio = a100.lut_latency(base_work) / CostModel("rtx4090").lut_latency(base_work)
        assert juno_ratio > base_ratio

    def test_faster_rt_core_gives_more_speedup(self):
        """Fig. 14(b): the Ada RT core widens JUNO's advantage over Ampere."""
        juno_work = _juno_like_work(selected_fraction=0.3)
        base_work = _baseline_like_work()
        speedups = {}
        for device in ("rtx4090", "a40"):
            model = CostModel(device)
            speedups[device] = (
                model.serial_latency(base_work).total_s
                / model.pipelined_latency(juno_work).total_s
            )
        assert speedups["rtx4090"] > speedups["a40"]

    def test_pipelined_no_slower_than_serial(self):
        model = CostModel("rtx4090")
        work = _juno_like_work()
        assert model.pipelined_latency(work).total_s <= model.serial_latency(work).total_s

    def test_qps_requires_queries(self):
        with pytest.raises(ValueError):
            CostModel().qps(SearchWork(num_queries=0))

    def test_breakdown_dict(self):
        lat = CostModel().serial_latency(_baseline_like_work())
        keys = set(lat.breakdown())
        assert keys == {"filter", "lut_construction", "distance_calculation", "total"}


class TestStageLatency:
    """Each pipeline stage's work slice is priced by the model of the unit
    that runs it: Tensor cores for the coarse filter and the exact rerank,
    LUT construction for thresholds and RT selection, and the memory-bound
    distance model for scoring and top-k."""

    UNIT_MODELS = ("filter_latency", "lut_latency", "distance_latency")

    @pytest.mark.parametrize(
        "stage, unit_model",
        [
            ("coarse_filter", "filter_latency"),
            ("exact_rerank", "filter_latency"),
            ("threshold", "lut_latency"),
            ("rt_select", "lut_latency"),
            ("score", "distance_latency"),
            ("top_k", "distance_latency"),
        ],
    )
    def test_stage_priced_by_its_unit(self, stage, unit_model):
        model = CostModel("rtx4090")
        work = _juno_like_work()
        seconds = model.stage_latency(stage, work)
        assert seconds == getattr(model, unit_model)(work)
        for other in set(self.UNIT_MODELS) - {unit_model}:
            assert seconds != getattr(model, other)(work), other

    def test_custom_stage_priced_as_distance_calculation(self):
        model = CostModel("rtx4090")
        work = _juno_like_work()
        assert model.stage_latency("candidate_cap", work) == model.distance_latency(work)

    def test_search_breakdown_sums_to_serial_plus_launches(self, juno_l2, l2_dataset):
        """Stages are separate kernels: the per-stage sum is the serial
        latency plus one launch overhead per stage beyond the three units."""
        from repro.gpu.cost_model import _LAUNCH_OVERHEAD_S

        result = juno_l2.search(l2_dataset.queries, k=10, nprobs=6)
        model = CostModel("rtx4090")
        stages = model.stage_latencies(result.extra["stage_work"])
        assert len(stages) == 5
        serial = model.serial_latency(result.work).total_s
        assert sum(stages.values()) == pytest.approx(
            serial + (len(stages) - 3) * _LAUNCH_OVERHEAD_S, rel=1e-12
        )


class TestPipelineModel:
    def test_three_modes(self):
        model = PipelineModel(CostModel("rtx4090"))
        schedules = model.compare(_juno_like_work())
        assert set(schedules) == {"solo", "naive-corun", "pipelined"}

    def test_pipelined_beats_solo_and_naive(self):
        """Fig. 11(a): MPS-partitioned pipelining is the fastest arrangement."""
        model = PipelineModel(CostModel("rtx4090"))
        schedules = model.compare(_juno_like_work(selected_fraction=0.4))
        assert schedules["pipelined"].total_s < schedules["solo"].total_s
        assert schedules["pipelined"].total_s < schedules["naive-corun"].total_s

    def test_naive_corun_interference(self):
        model = PipelineModel(CostModel("rtx4090"), interference_factor=2.0)
        work = _juno_like_work()
        naive = model.naive_corun(work)
        solo = model.solo(work)
        assert naive.lut_s == pytest.approx(solo.lut_s * 2.0)

    def test_invalid_mps_share(self):
        with pytest.raises(ValueError):
            PipelineModel(CostModel(), mps_lut_share=1.5)
