"""Unit tests for the benchmark harness and report formatting."""

import pytest

from repro.bench.harness import (
    QPSRecallSweep,
    SweepConfig,
    run_baseline_sweep,
    run_juno_sweep,
    speedup_summary,
)
from repro.bench.report import format_records_table, format_table
from repro.core.config import QualityMode
from repro.gpu.cost_model import CostModel
from repro.gpu.work import SearchWork
from repro.metrics.qps import ThroughputRecord
from repro.pipeline import default_search_pipeline


@pytest.fixture(scope="module")
def small_sweep():
    return SweepConfig(
        nprobs_values=(2, 6),
        threshold_scales=(0.6, 1.0),
        quality_modes=(QualityMode.HIGH, QualityMode.LOW),
        k=50,
        recall_k=1,
        recall_n=50,
    )


class TestSweeps:
    def test_baseline_sweep_records(self, ivfpq_l2, l2_dataset, small_sweep):
        sweep = run_baseline_sweep(
            ivfpq_l2,
            l2_dataset.queries,
            l2_dataset.ground_truth,
            small_sweep,
            CostModel("rtx4090"),
        )
        assert len(sweep.records) == len(small_sweep.nprobs_values)
        for record in sweep.records:
            assert 0.0 <= record.recall <= 1.0
            assert record.qps > 0

    def test_juno_sweep_covers_grid(self, juno_l2, l2_dataset, small_sweep):
        sweep = run_juno_sweep(
            juno_l2,
            l2_dataset.queries,
            l2_dataset.ground_truth,
            small_sweep,
            CostModel("rtx4090"),
        )
        expected = (
            len(small_sweep.nprobs_values)
            * len(small_sweep.threshold_scales)
            * len(small_sweep.quality_modes)
        )
        assert len(sweep.records) == expected
        assert all("threshold_scale" in r.extra for r in sweep.records)

    def test_juno_sweep_prices_every_stage_in_every_record(
        self, juno_l2, l2_dataset, small_sweep
    ):
        """No grid point rides on an earlier one: the coarse filter, which
        depends on nprobs alone, is priced the same in every record of one
        nprobs, and every stage costs more than an empty launch."""
        cost = CostModel("rtx4090")
        sweep = run_juno_sweep(
            juno_l2, l2_dataset.queries, l2_dataset.ground_truth, small_sweep, cost
        )
        empty = cost.filter_latency(SearchWork(num_queries=1))
        filter_by_nprobs = {}
        for record in sweep.records:
            modelled = record.extra["stage_modelled_s"]
            assert tuple(modelled) == default_search_pipeline().stage_names
            assert all(seconds > empty for seconds in modelled.values())
            nprobs = record.extra["nprobs"]
            seconds = filter_by_nprobs.setdefault(nprobs, modelled["coarse_filter"])
            assert modelled["coarse_filter"] == seconds
        assert len(filter_by_nprobs) == len(small_sweep.nprobs_values)

    def test_juno_sweep_with_reused_pipeline_matches_default(
        self, juno_l2, l2_dataset, small_sweep
    ):
        cost = CostModel("rtx4090")
        args = (juno_l2, l2_dataset.queries, l2_dataset.ground_truth, small_sweep, cost)
        reused = run_juno_sweep(*args, pipeline=default_search_pipeline())
        plain = run_juno_sweep(*args)
        assert len(reused.records) == len(plain.records)
        for got, want in zip(reused.records, plain.records):
            assert (got.recall, got.latency_s, got.num_queries) == (
                want.recall,
                want.latency_s,
                want.num_queries,
            )
            assert got.extra["stage_modelled_s"] == want.extra["stage_modelled_s"]

    def test_frontier_and_best_at_recall(self):
        sweep = QPSRecallSweep(label="x")
        sweep.records = [
            ThroughputRecord("x", 0.5, 1000.0, 1.0, 10),
            ThroughputRecord("x", 0.9, 100.0, 1.0, 10),
            ThroughputRecord("x", 0.9, 50.0, 1.0, 10),
        ]
        assert len(sweep.frontier) == 2
        best = sweep.best_qps_at_recall(0.8)
        assert best.qps == 100.0
        assert sweep.best_qps_at_recall(0.99) is None

    def test_speedup_summary(self, juno_l2, ivfpq_l2, l2_dataset, small_sweep):
        cost = CostModel("rtx4090")
        juno = run_juno_sweep(
            juno_l2, l2_dataset.queries, l2_dataset.ground_truth, small_sweep, cost
        )
        base = run_baseline_sweep(
            ivfpq_l2, l2_dataset.queries, l2_dataset.ground_truth, small_sweep, cost
        )
        rows = speedup_summary(juno, base, recall_bands=(0.8, 0.5))
        assert rows
        for row in rows:
            assert row["speedup"] > 0
            assert row["juno_qps"] > 0 and row["baseline_qps"] > 0


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 123456.0}, {"a": 22, "b": 0.000123}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_records_table(self):
        records = [
            ThroughputRecord("JUNO", 0.9, 1e5, 1e-3, 100, extra={"nprobs": 4}),
        ]
        text = format_records_table(records, title="records")
        assert "JUNO" in text
        assert "nprobs" in text
