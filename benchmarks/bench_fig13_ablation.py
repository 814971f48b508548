"""Fig. 13(a): improvement breakdown -- full JUNO vs without pipelining vs
without hit-count selection.  "Full JUNO" sweeps JUNO-H and JUNO-L; the
paper's sweep also held JUNO-M, which is not offered.
Fig. 13(b): static small / static large / dynamic threshold strategies.
"""

import numpy as np
import pytest

from repro.bench.harness import SweepConfig, run_baseline_sweep, run_juno_sweep
from repro.bench.report import emit, format_table
from repro.core.config import JunoConfig, QualityMode, ThresholdStrategy
from repro.core.index import JunoIndex
from repro.metrics.recall import recall_at

RECALL_BANDS = (0.97, 0.95, 0.9, 0.8)


def _sweep(quality_modes):
    return SweepConfig(
        nprobs_values=(1, 2, 4, 8),
        threshold_scales=(0.4, 0.7, 1.0),
        quality_modes=quality_modes,
        k=100,
        recall_k=1,
        recall_n=100,
    )


def test_fig13a_improvement_breakdown(sift_workload, rtx4090, benchmark):
    workload = sift_workload
    dataset = workload.dataset

    def _run():
        baseline = run_baseline_sweep(
            workload.baseline, dataset.queries, dataset.ground_truth,
            _sweep((QualityMode.HIGH,)), rtx4090, label="FAISS",
        )
        full = run_juno_sweep(
            workload.juno, dataset.queries, dataset.ground_truth,
            _sweep((QualityMode.HIGH, QualityMode.LOW)),
            rtx4090, label="JUNO",
        )
        no_pipeline = run_juno_sweep(
            workload.juno, dataset.queries, dataset.ground_truth,
            _sweep((QualityMode.HIGH, QualityMode.LOW)),
            rtx4090, label="JUNO w/o pipeline", pipelined=False,
        )
        no_hit_count = run_juno_sweep(
            workload.juno, dataset.queries, dataset.ground_truth,
            _sweep((QualityMode.HIGH,)), rtx4090, label="JUNO w/o hit count",
        )
        return baseline, full, no_pipeline, no_hit_count

    baseline, full, no_pipeline, no_hit_count = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for band in RECALL_BANDS:
        base_best = baseline.best_qps_at_recall(band)
        if base_best is None:
            continue
        row = {"recall": band}
        for label, sweep in (
            ("juno", full),
            ("wo_pipeline", no_pipeline),
            ("wo_hit_count", no_hit_count),
        ):
            best = sweep.best_qps_at_recall(band)
            row[f"{label}_speedup"] = best.qps / base_best.qps if best else float("nan")
        rows.append(row)
    emit()
    emit(format_table(rows, title="Fig 13(a): speed-up over FAISS (SIFT surrogate)"))
    assert rows
    for row in rows:
        # Removing pipelining can only hurt (or match) throughput.
        if not np.isnan(row["wo_pipeline_speedup"]):
            assert row["wo_pipeline_speedup"] <= row["juno_speedup"] + 1e-9
    # At the loosest band the hit-count modes help: full JUNO is at least as
    # fast as the exact-distance-only variant.
    loosest = rows[-1]
    if not np.isnan(loosest["wo_hit_count_speedup"]):
        assert loosest["juno_speedup"] >= loosest["wo_hit_count_speedup"] - 1e-9


@pytest.fixture(scope="module")
def static_threshold_indexes(sift_workload):
    """JUNO indexes re-trained with the static threshold strategies."""
    dataset = sift_workload.dataset
    indexes = {}
    for strategy in (ThresholdStrategy.STATIC_SMALL, ThresholdStrategy.STATIC_LARGE):
        config = JunoConfig(
            num_clusters=64,
            num_subspaces=dataset.dim // 2,
            num_entries=128,
            num_threshold_samples=64,
            kmeans_iters=10,
            seed=7,
            threshold_strategy=strategy,
        )
        indexes[strategy] = JunoIndex(config).train(dataset.points)
    return indexes


def test_fig13b_threshold_strategies(sift_workload, static_threshold_indexes, rtx4090, benchmark):
    workload = sift_workload
    dataset = workload.dataset

    def _run():
        rows = []
        for label, index in (
            ("R-Small", static_threshold_indexes[ThresholdStrategy.STATIC_SMALL]),
            ("R-Large", static_threshold_indexes[ThresholdStrategy.STATIC_LARGE]),
            ("R-Dynamic", workload.juno),
        ):
            result = index.search(dataset.queries, k=100, nprobs=8, quality_mode="juno-h")
            latency = rtx4090.pipelined_latency(result.work)
            rows.append(
                {
                    "strategy": label,
                    "recall": recall_at(result.ids, dataset.ground_truth, 100),
                    "qps": result.work.num_queries / latency.total_s,
                    "selected_fraction": result.selected_entry_fraction,
                }
            )
        return rows

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit()
    emit(format_table(rows, title="Fig 13(b): static vs dynamic threshold (SIFT surrogate, JUNO-H)"))
    by_label = {row["strategy"]: row for row in rows}
    # Large static threshold: best recall, worst throughput; small static:
    # the reverse; dynamic sits at (or near) the best of both.
    assert by_label["R-Large"]["recall"] >= by_label["R-Small"]["recall"]
    assert by_label["R-Small"]["qps"] >= by_label["R-Large"]["qps"]
    assert by_label["R-Dynamic"]["recall"] >= by_label["R-Large"]["recall"] - 0.05
    assert by_label["R-Dynamic"]["qps"] >= by_label["R-Large"]["qps"] * 0.9
